"""Fourteen measurements outside the perfbench ladder, for one checkout of kbhom.

* heis8: ``parallelizable(8, {(1,2,3): 1}, {(1,2): 1})`` built and
  validated, then ``kb_homology``; the best of ``REPS`` runs (wall time).
* heis8 validation: ``validate_model`` alone, on fresh unvalidated copies
  of the built model (its blocks shared); the best of ``REPS`` runs.
* heis6 and heis7 spectral pages: the bicomplex ``kb_double_complex`` of
  the validated model, then ``spectral_pages(dc, 2)``; the best of
  ``REPS`` runs (wall time).
* heis7 total complex: ``total_complex`` of the bicomplex
  ``kb_double_complex`` of the validated model, which stores every total
  differential as a ``Matrix``; the best of ``REPS`` runs (wall time).
* heis6 validation memory: the tracemalloc peak, above the start, of
  building ``parallelizable(6, ...)`` and running ``validate_model`` on it,
  and what stays allocated afterwards.
* heis6 KB memory: the tracemalloc peak, above the start, of
  ``kb_homology`` on the built and validated ``parallelizable(6, ...)``,
  the stage where the stored columns and the total complex live at once,
  with the copies of the pivot columns that the rank-only elimination
  keeps for each differential.
* heis5 and heis6 model files: ``model_to_json`` on the built model, the
  best of ``REPS`` runs (wall time), and the tracemalloc peak, above the
  start, of one more run.
* heis5 model read: ``read_model(path, validate=False)`` of the heis5
  kbmodel/1 text split in two, ``json.loads`` of the text and
  ``load_model(data, validate=False)`` of what it returns; the best of
  ``REPS`` runs (wall time).
* so(3)* weight 60: ``stein_complex`` of the linear bivector
  z3 ∂1∧∂2 + z1 ∂2∧∂3 + z2 ∂3∧∂1 on C³ at weight 60 (5673×5673 middle
  blocks), then ``homology_dims``; the best of ``REPS`` runs (wall time).
* so(3)* weight 60 homology: ``stein_homology`` of the same bivector at
  weight 60 with cap 60, which reduces each column as it is built and
  never builds the ones that clearing discards; the best of ``REPS`` runs
  (wall time).
* so(3)* weights 0..40: ``stein_homology`` of the same bivector over
  weights 0..40 with cap 40; the best of ``REPS`` runs (wall time).
* heis4 ⊃ torus4 LES: ``les_from_ses`` of 0 -> A -> B -> C -> 0, A and C
  the KB total complexes of heis4 and of ``torus(4, {(1, 2): 1})`` (zero
  differential), B = A ⊕ C twisted by h: C^k -> Z^{k+1}(A), dense ±1
  (``random.Random(0)``) on the kernel basis of d_A^{k+1}, so the
  connecting maps are not zero; the best of ``REPS`` runs (wall time).

Each measurement runs in a fresh interpreter, one after the other, so
none of them depends on what ran before it in the same process (the heap
and caches that earlier cases leave behind).  Run from the root of a
checkout, or point it at another one:

    python3 scripts/matrix_cost.py                 # this checkout's src/
    python3 scripts/matrix_cost.py --src /path/to/other/checkout/src
    python3 scripts/matrix_cost.py --case so3-w60  # one measurement, in this process
"""

import argparse
import gc
import json
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

REPS = 3
CASES = ("heis8", "heis8-validate", "heis6-spectral", "heis7-spectral", "heis7-total",
         "heis6-memory", "heis6-kb-memory", "heis5-json", "heis6-json", "heis5-read", "so3-w60",
         "so3-w60-homology", "so3-w0-40", "les-heis4")


def best_of(build, measure) -> tuple:
    """The fastest of ``REPS`` runs of ``measure(build())``, as the wall
    times ``(both, build, measure)`` of that run."""
    best = None
    for _ in range(REPS):
        gc.collect()
        t0 = time.perf_counter()
        built = build()
        t1 = time.perf_counter()
        measure(built)
        t2 = time.perf_counter()
        if best is None or t2 - t0 < best[0]:
            best = (t2 - t0, t1 - t0, t2 - t1)
        del built
    return best


def run_case(case: str) -> None:
    """Runs one measurement of ``CASES`` and prints its line."""
    from kbhom.complexes import (ChainMap, Complex, homology_dims, les_from_ses,
                                 spectral_pages, total_complex)
    from kbhom.engine import kb_double_complex, kb_homology
    from kbhom.linalg import Matrix, kernel_basis
    from kbhom.models import DolbeaultPoissonModel, validate_model
    from kbhom.stein import stein_complex, stein_homology
    from kbhom.zoo import load_model, model_to_json, parallelizable, torus

    def heis(n):
        return parallelizable(n, {(1, 2, 3): 1}, {(1, 2): 1})

    def validated(m):
        validate_model(m)
        return m

    so3 = [(1, 2, 1, (0, 0, 1)), (2, 3, 1, (1, 0, 0)), (3, 1, 1, (0, 1, 0))]
    if case == "heis8":
        best = best_of(lambda: validated(heis(8)), kb_homology)
        print(f"heis8 build+validate+kb_homology: {best[0]:.3f} s best of {REPS} "
              f"(build+validate {best[1]:.3f} s, kb_homology {best[2]:.4f} s)")
    elif case == "heis8-validate":
        m = heis(8)
        best = best_of(lambda: DolbeaultPoissonModel(m.n, m.basis, m.del_blocks, m.delbar_blocks,
                                                     m.contraction_blocks), validate_model)
        print(f"heis8 validate_model: {best[2]:.3f} s best of {REPS}")
    elif case in ("heis6-spectral", "heis7-spectral"):
        n = int(case[4])
        best = best_of(lambda: kb_double_complex(validated(heis(n))),
                       lambda dc: spectral_pages(dc, 2))
        print(f"heis{n} spectral_pages(kb_double_complex, 2): {best[2]:.4f} s best of {REPS} "
              f"(build+validate+bicomplex {best[1]:.3f} s)")
    elif case == "heis7-total":
        best = best_of(lambda: kb_double_complex(validated(heis(7))), total_complex)
        print(f"heis7 total_complex(kb_double_complex): {best[2]:.4f} s best of {REPS} "
              f"(build+validate+bicomplex {best[1]:.3f} s)")
    elif case == "heis6-memory":
        gc.collect()
        tracemalloc.start()
        m = heis(6)
        validate_model(m)
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        print(f"heis6 build+validate: tracemalloc peak {peak / 1024:.0f} KiB, "
              f"{current / 1024:.0f} KiB still allocated")
    elif case == "heis6-kb-memory":
        m = validated(heis(6))
        gc.collect()
        tracemalloc.start()
        kb_homology(m)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"heis6 kb_homology: tracemalloc peak {peak / 1024:.0f} KiB")
    elif case in ("heis5-json", "heis6-json"):
        n = int(case[4])
        m = heis(n)
        best = float("inf")
        for _ in range(REPS):
            gc.collect()
            t0 = time.perf_counter()
            text = model_to_json(m)
            best = min(best, time.perf_counter() - t0)
            del text
        gc.collect()
        tracemalloc.start()
        text = model_to_json(m)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        size = len(text.encode())
        print(f"heis{n} model_to_json ({size / 1e6:.1f} MB): {best:.3f} s best of {REPS}, "
              f"tracemalloc peak {peak / 2**20:.1f} MiB")
    elif case == "heis5-read":
        text = model_to_json(heis(5))
        best = best_of(lambda: json.loads(text), lambda data: load_model(data, validate=False))
        print(f"heis5 read_model ({len(text.encode()) / 1e6:.1f} MB): {best[0]:.4f} s best of "
              f"{REPS} (json.loads {best[1]:.4f} s, load_model {best[2]:.4f} s)")
    elif case == "so3-w60":
        best = best_of(lambda: stein_complex(3, so3, 60, cap=60), homology_dims)
        print(f"so(3)* weight 60 stein_complex+homology_dims: {best[0]:.3f} s best of {REPS} "
              f"(stein_complex {best[1]:.3f} s, homology_dims {best[2]:.3f} s)")
    elif case == "so3-w60-homology":
        best = best_of(lambda: None, lambda _: stein_homology(3, so3, [60], cap=60))
        print(f"so(3)* weight 60 stein_homology: {best[0]:.3f} s best of {REPS}")
    elif case == "so3-w0-40":
        best = best_of(lambda: None, lambda _: stein_homology(3, so3, range(41), cap=40))
        print(f"so(3)* weights 0..40 stein_homology: {best[0]:.3f} s best of {REPS}")
    else:
        a = total_complex(kb_double_complex(heis(4)))
        c = total_complex(kb_double_complex(torus(4, {(1, 2): 1})))
        rng, spaces, diffs = random.Random(0), {}, {}
        for k in sorted(set(a.spaces) | set(c.spaces)):
            entries = dict(a.d(k).entries)
            cycles = kernel_basis(a.d(k + 1)).basis
            if cycles.cols and c.dim(k):
                h = cycles * Matrix(cycles.cols, c.dim(k), {(i, j): rng.choice((-1, 1))
                                                            for i in range(cycles.cols)
                                                            for j in range(c.dim(k))})
                entries.update({(i, a.dim(k) + j): v for (i, j), v in h.entries.items()})
            spaces[k] = a.dim(k) + c.dim(k)
            diffs[k] = Matrix(a.dim(k + 1) + c.dim(k + 1), spaces[k], entries)
        b = Complex(spaces, diffs)
        f = ChainMap(a, b, {k: Matrix(b.dim(k), a.dim(k), {(i, i): 1 for i in range(a.dim(k))})
                            for k in a.spaces})
        g = ChainMap(b, c, {k: Matrix(c.dim(k), b.dim(k), {(i, a.dim(k) + i): 1
                                                           for i in range(c.dim(k))})
                            for k in c.spaces})
        best = best_of(lambda: None, lambda _: les_from_ses(f, g))
        print(f"heis4 ⊃ torus4 les_from_ses: {best[0]:.4f} s best of {REPS}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="the src/ directory to import kbhom from")
    parser.add_argument("--case", choices=CASES,
                        help="run this one measurement in this process (default: every "
                             "measurement, each in a fresh interpreter)")
    args = parser.parse_args()
    if args.case:
        sys.path.insert(0, args.src)
        run_case(args.case)
        return 0
    for case in CASES:
        done = subprocess.run([sys.executable, __file__, "--src", args.src, "--case", case])
        if done.returncode:
            print(f"{case}: exited with {done.returncode}", file=sys.stderr)
            return done.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
