"""The full stdout of every dimension-table command, pinned byte for byte.

Each command runs on small tables in the working directory, so the input
paths are the literal file names and the sha256 digests are fixed, in
text mode and in --json --no-timestamp mode.
"""

import json

import pytest

from kbhom.cli import main

TABLES = {
    "t1.json": {"n": 1, "dims": {"0": 1, "1": 2, "2": 1}},
    "p1.json": {"n": 1, "dims": {"1": 2}},
    "surface.json": {"n": 2, "dims": {"0": 1, "1": 4, "2": 6, "3": 4, "4": 1}},
    "y.json": {"n": 0, "dims": {"0": 1}},
    "e.json": {"n": 1, "dims": {"1": 2}},
    "hh.json": {"dims": {"-1": 1, "0": 2, "1": 1}},
    "curve.json": {"n": 1, "h": {"0,0": 1, "0,1": 1, "1,0": 1, "1,1": 1}},
}

CASES = {
    "kunneth": ["kunneth", "t1.json", "surface.json", "--assert-compact"],
    "leray-hirsch": ["leray-hirsch", "hh.json", "--classes", "0,0;1,1"],
    "flag": ["flag", "--n", "2", "--betti", "3"],
    "pbundle": ["pbundle", "curve.json", "-r", "2"],
    "blowup": ["blowup", "surface.json", "y.json", "e.json", "-r", "2", "--assert-star"],
    "blowup-point": ["blowup-point", "surface.json"],
    "mv-check": ["mv-check", "p1.json", "t1.json", "t1.json", "p1.json"],
    "mv-check-inconsistent": ["mv-check", "p1.json", "t1.json", "t1.json", "t1.json"],
}

EXPECTED = {
    ("kunneth", "text"): (0, """\
command: kunneth
input: t1.json  sha256 2a3ba1051231091d
input: surface.json  sha256 4685f43c11a1cd75
compact_factor_asserted: True
n: 3
  k  dim H_k
  0  1
  1  6
  2  15
  3  20
  4  15
  5  6
  6  1
"""),
    ("kunneth", "json"): (0, """\
{
  "command": "kunneth",
  "engine": {
    "name": "kbhom",
    "version": "0.1.0"
  },
  "inputs": [
    {
      "path": "t1.json",
      "sha256": "2a3ba1051231091d5d13d9c3f9cf4f8c9352aad9e679d350e16ab8309c50df82"
    },
    {
      "path": "surface.json",
      "sha256": "4685f43c11a1cd75924b06cca1a02867e8b56210da3e900748eb25551eae322b"
    }
  ],
  "metadata": {
    "compact_factor_asserted": true
  },
  "results": {
    "euler_characteristic": 0,
    "kb": {
      "dims": {
        "0": 1,
        "1": 6,
        "2": 15,
        "3": 20,
        "4": 15,
        "5": 6,
        "6": 1
      },
      "n": 3
    }
  }
}
"""),
    ("leray-hirsch", "text"): (0, """\
command: leray-hirsch
input: hh.json  sha256 d7dfd56256d34705
  k  dim HH_k
  -1  2
  0  4
  1  2
"""),
    ("leray-hirsch", "json"): (0, """\
{
  "command": "leray-hirsch",
  "engine": {
    "name": "kbhom",
    "version": "0.1.0"
  },
  "inputs": [
    {
      "path": "hh.json",
      "sha256": "d7dfd56256d347052c92202b88550f60ea1bfcec10f61b5f200d409ba0c13555"
    }
  ],
  "metadata": {},
  "results": {
    "classes": [
      [
        0,
        0
      ],
      [
        1,
        1
      ]
    ],
    "hh": {
      "dims": {
        "-1": 2,
        "0": 4,
        "1": 2
      }
    }
  }
}
"""),
    ("flag", "text"): (0, """\
command: flag
n: 2  betti sum: 3
  k  dim H_k
  0  0
  1  0
  2  3
  3  0
  4  0
"""),
    ("flag", "json"): (0, """\
{
  "command": "flag",
  "engine": {
    "name": "kbhom",
    "version": "0.1.0"
  },
  "inputs": [],
  "metadata": {},
  "results": {
    "euler_characteristic": 3,
    "kb": {
      "dims": {
        "0": 0,
        "1": 0,
        "2": 3,
        "3": 0,
        "4": 0
      },
      "n": 2
    }
  }
}
"""),
    ("pbundle", "text"): (0, """\
command: pbundle
input: curve.json  sha256 9a06d9acf0c4b311
n: 2
  (p,q)  h^{p,q}
  (0,0)  1
  (0,1)  1
  (1,0)  1
  (1,1)  2
  (1,2)  1
  (2,1)  1
  (2,2)  1
"""),
    ("pbundle", "json"): (0, """\
{
  "command": "pbundle",
  "engine": {
    "name": "kbhom",
    "version": "0.1.0"
  },
  "inputs": [
    {
      "path": "curve.json",
      "sha256": "9a06d9acf0c4b3117977b01579444a06d25bb255ca423d98ab4b848141ff11f4"
    }
  ],
  "metadata": {},
  "results": {
    "hodge": {
      "h": {
        "0,0": 1,
        "0,1": 1,
        "1,0": 1,
        "1,1": 2,
        "1,2": 1,
        "2,1": 1,
        "2,2": 1
      },
      "n": 2
    }
  }
}
"""),
    ("blowup", "text"): (0, """\
command: blowup
input: surface.json  sha256 4685f43c11a1cd75
input: y.json  sha256 4d148830e692777b
input: e.json  sha256 41d840f534da1fcb
abelian_conormal_asserted: True
n: 2  codimension: 2
  k  dim H_k
  0  1
  1  4
  2  7
  3  4
  4  1
"""),
    ("blowup", "json"): (0, """\
{
  "command": "blowup",
  "engine": {
    "name": "kbhom",
    "version": "0.1.0"
  },
  "inputs": [
    {
      "path": "surface.json",
      "sha256": "4685f43c11a1cd75924b06cca1a02867e8b56210da3e900748eb25551eae322b"
    },
    {
      "path": "y.json",
      "sha256": "4d148830e692777b69c98abacfceb82e4b2bcf26ad57963307d3e592c890e48b"
    },
    {
      "path": "e.json",
      "sha256": "41d840f534da1fcb5b25ea913816e2d78d795b6cf4a4ff2f10f80016037c62f8"
    }
  ],
  "metadata": {
    "abelian_conormal_asserted": true
  },
  "results": {
    "euler_characteristic": 1,
    "kb": {
      "dims": {
        "0": 1,
        "1": 4,
        "2": 7,
        "3": 4,
        "4": 1
      },
      "n": 2
    }
  }
}
"""),
    ("blowup-point", "text"): (0, """\
command: blowup-point
input: surface.json  sha256 4685f43c11a1cd75
abelian_conormal_asserted: False
n: 2
  k  dim H_k
  0  1
  1  4
  2  7
  3  4
  4  1
"""),
    ("blowup-point", "json"): (0, """\
{
  "command": "blowup-point",
  "engine": {
    "name": "kbhom",
    "version": "0.1.0"
  },
  "inputs": [
    {
      "path": "surface.json",
      "sha256": "4685f43c11a1cd75924b06cca1a02867e8b56210da3e900748eb25551eae322b"
    }
  ],
  "metadata": {
    "abelian_conormal_asserted": false
  },
  "results": {
    "euler_characteristic": 1,
    "kb": {
      "dims": {
        "0": 1,
        "1": 4,
        "2": 7,
        "3": 4,
        "4": 1
      },
      "n": 2
    }
  }
}
"""),
    ("mv-check", "text"): (0, """\
command: mv-check
input: p1.json  sha256 41d840f534da1fcb
input: t1.json  sha256 2a3ba1051231091d
input: t1.json  sha256 2a3ba1051231091d
input: p1.json  sha256 41d840f534da1fcb
chi(U)=-2  chi(V)=0  chi(U∩V)=0  chi(U∪V)=-2
verdict: consistent
"""),
    ("mv-check", "json"): (0, """\
{
  "command": "mv-check",
  "engine": {
    "name": "kbhom",
    "version": "0.1.0"
  },
  "inputs": [
    {
      "path": "p1.json",
      "sha256": "41d840f534da1fcb5b25ea913816e2d78d795b6cf4a4ff2f10f80016037c62f8"
    },
    {
      "path": "t1.json",
      "sha256": "2a3ba1051231091d5d13d9c3f9cf4f8c9352aad9e679d350e16ab8309c50df82"
    },
    {
      "path": "t1.json",
      "sha256": "2a3ba1051231091d5d13d9c3f9cf4f8c9352aad9e679d350e16ab8309c50df82"
    },
    {
      "path": "p1.json",
      "sha256": "41d840f534da1fcb5b25ea913816e2d78d795b6cf4a4ff2f10f80016037c62f8"
    }
  ],
  "metadata": {},
  "results": {
    "consistent": true,
    "euler": {
      "u": -2,
      "union": -2,
      "uv": 0,
      "v": 0
    }
  }
}
"""),
    ("mv-check-inconsistent", "text"): (3, """\
command: mv-check
input: p1.json  sha256 41d840f534da1fcb
input: t1.json  sha256 2a3ba1051231091d
input: t1.json  sha256 2a3ba1051231091d
input: t1.json  sha256 2a3ba1051231091d
chi(U)=-2  chi(V)=0  chi(U∩V)=0  chi(U∪V)=0
verdict: inconsistent
"""),
    ("mv-check-inconsistent", "json"): (3, """\
{
  "command": "mv-check",
  "engine": {
    "name": "kbhom",
    "version": "0.1.0"
  },
  "inputs": [
    {
      "path": "p1.json",
      "sha256": "41d840f534da1fcb5b25ea913816e2d78d795b6cf4a4ff2f10f80016037c62f8"
    },
    {
      "path": "t1.json",
      "sha256": "2a3ba1051231091d5d13d9c3f9cf4f8c9352aad9e679d350e16ab8309c50df82"
    },
    {
      "path": "t1.json",
      "sha256": "2a3ba1051231091d5d13d9c3f9cf4f8c9352aad9e679d350e16ab8309c50df82"
    },
    {
      "path": "t1.json",
      "sha256": "2a3ba1051231091d5d13d9c3f9cf4f8c9352aad9e679d350e16ab8309c50df82"
    }
  ],
  "metadata": {},
  "results": {
    "consistent": false,
    "euler": {
      "u": -2,
      "union": 0,
      "uv": 0,
      "v": 0
    }
  }
}
"""),
}


@pytest.fixture
def table_dir(tmp_path, monkeypatch):
    for name, table in TABLES.items():
        (tmp_path / name).write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("case, mode", sorted(EXPECTED))
def test_table_command_stdout_is_pinned(table_dir, capsys, case, mode):
    extra = ["--json", "--no-timestamp"] if mode == "json" else []
    rc = main(CASES[case] + extra)
    assert (rc, capsys.readouterr().out) == EXPECTED[case, mode]
