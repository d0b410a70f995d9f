"""kbhom runs on the standard library alone."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import kbhom
print("\\n".join(sorted({name.split(".")[0] for name in sys.modules})))
"""


def test_import_pulls_in_only_standard_library_modules():
    # -I -S: no user site, no site hooks (editable installs, sitecustomize),
    # so every module loaded comes from the interpreter or from kbhom
    out = subprocess.run([sys.executable, "-I", "-S", "-c", PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    loaded = set(out.stdout.split())
    assert "kbhom" in loaded
    foreign = loaded - set(sys.stdlib_module_names) - {"kbhom", "__main__"}
    assert not foreign, sorted(foreign)
