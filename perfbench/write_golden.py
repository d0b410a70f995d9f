"""Rewrite perfbench/golden/*.json from the kbhom code in src/.

Run from the root of a checkout, and only when a change to the output is
intended:

    python3 perfbench/write_golden.py

Jobs whose output depends on the seed have no golden file; they are
checked by identities alone.
"""

import os

from run import ROOT, WORKLOADS, import_kbhom


def main():
    os.chdir(ROOT)
    import_kbhom()
    import jobs

    (ROOT / jobs.WORK).mkdir(parents=True, exist_ok=True)
    jobs.GOLDEN.mkdir(exist_ok=True)
    for name in WORKLOADS:
        for job in jobs.Workload(name, 0, jobs.Trace()).jobs:
            if job.golden:
                text = job.golden(job.run())
                (jobs.GOLDEN / f"{job.name}.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
