"""kbhom benchmark: closed-loop passes over a fixed job list, one job at a time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kb-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # every workload

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the workload, seed, pass count and machine.  See
perfbench/README.md for what each workload and metric means.
"""

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("kb-ladder", "spectral-les", "stein-so3", "model-check")
SETUP_REPS = 5
IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import kbhom; print(time.perf_counter() - t)")
PROBE_NOMINAL_S = 0.0046  # probe() on a 2-CPU Xeon VM at its usual speed
_PROBE_ROWS = [[(i * 7 + j * 13) % 11 - 5 for j in range(40)] for i in range(40)]
_PROBE_JSON = json.dumps([[str(x) for x in row] for row in _PROBE_ROWS] * 20)
END_TO_END = {"pass_s": "s", "pass_cpu_s": "s", "small_jobs_s": "s",
              "setup_s": "s", "peak_rss_mb": "MiB"}
LAYER_TIMES = ["zoo.read_model", "models.validate_model", "models.koszul_differential",
               "engine.kb_double_complex", "engine.hodge_diamond",
               "complexes.total_complex", "complexes.spectral_pages",
               "complexes.les_from_ses", "linalg.rank", "stein.stein_complex"]
LAYER_COUNTS = {"zoo.model_file.bytes": "bytes", "linalg.rank.calls": "count",
                "linalg.rank.nnz": "count", "linalg.rank.cells": "count",
                "linalg.rank.rank_sum": "count", "stein.slice_dim": "count"}
SETUP_TIMES = ["zoo.parallelizable", "models.product_model"]


def import_kbhom():
    """Import kbhom from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import kbhom
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import kbhom from {ROOT / 'src'}: {exc}")
    if Path(kbhom.__file__).resolve().parent != ROOT / "src" / "kbhom":
        sys.exit(f"perfbench: kbhom imported from {kbhom.__file__}, not from this checkout")


def import_seconds() -> float:
    """Time to import kbhom in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def probe() -> float:
    """Seconds for a few milliseconds of fixed work that does not use kbhom.

    The work is what kbhom spends its time on: integer Bareiss
    elimination and parsing a JSON matrix of strings.  On a shared VM the
    CPU runs faster or slower for minutes at a time; probe() / PROBE_NOMINAL_S
    is that speed factor, and the end-to-end times are divided by it.
    """
    t0 = time.perf_counter()
    rows = [row[:] for row in _PROBE_ROWS]
    n, r, prev = len(rows), 0, 1
    for c in range(n):
        pivot = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, n):
            rows[i] = [(rows[r][c] * rows[i][j] - rows[i][c] * rows[r][j]) // prev
                       for j in range(n)]
        prev = rows[r][c]
        r += 1
    json.loads(_PROBE_JSON)
    return time.perf_counter() - t0


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "loadavg": list(os.getloadavg())}


def run_pass(jobs, trace=None):
    """One pass through the job list; returns job timings, checks each output.

    ``trace`` is a fresh Trace for a traced pass: each job is then replayed
    as its sequence of layer calls right after it ran.  Every job and every
    replay starts from a collected heap, as a command in a fresh process
    would, so where the garbage collector runs does not depend on the job
    before.  A probe() before each job gives the pass's speed factor.
    """
    res = {"wall": 0.0, "cpu": 0.0, "small": 0.0, "failed": 0, "cli": 0.0,
           "replayed": 0.0, "probe": 0.0}
    start = time.perf_counter()
    for job in jobs:
        gc.collect()
        res["probe"] += probe()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = job.run()
        except Exception:
            out = None
            traceback.print_exc()
        dt, dc = time.perf_counter() - t0, time.process_time() - c0
        res["wall"] += dt
        res["cpu"] += dc
        if job.small:
            res["small"] += dt
        try:
            job.check(out)
            if trace is not None:
                gc.collect()
                trace.start_job(job.name)
                job.replay(trace)
                if job.cli:
                    res["cli"] += dt
                    res["replayed"] += trace.top
        except Exception as exc:
            res["failed"] += 1
            print(f"perfbench: job {job.name} failed: {exc!r}", file=sys.stderr)
    res["elapsed"] = time.perf_counter() - start
    res["speed"] = res["probe"] / (len(jobs) * PROBE_NOMINAL_S)
    res["trace"] = trace
    return res


def measure(name, seed, seconds, traced, machine_record):
    """Set up, then run passes for about `seconds` seconds."""
    import_kbhom()
    import jobs

    (ROOT / jobs.WORK).mkdir(parents=True, exist_ok=True)
    imports, setups, probes, spans = [], [], [], []
    for _ in range(SETUP_REPS):
        gc.collect()  # frees the previous set-up, whose jobs refer back to it
        probes.append(probe())
        imports.append(import_seconds())
        t0 = time.perf_counter()
        span = jobs.Trace()
        workload = jobs.Workload(name, seed, span)
        setups.append(time.perf_counter() - t0)
        spans.append(span)
    setup_s = median(imports) + median(setups)
    setup_speed = median(probes) / PROBE_NOMINAL_S

    gc.collect()
    gc.freeze()  # the inputs held for the jobs stay out of every collection

    passes, traced_passes = [], []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(workload.jobs))
        if traced:
            traced_passes.append(run_pass(workload.jobs, trace=jobs.Trace()))
        step = median(p["elapsed"] for p in passes) + \
            (median(p["elapsed"] for p in traced_passes) if traced else 0)
        if time.perf_counter() - begin + step > seconds:
            break

    every = passes + traced_passes
    attempted = len(workload.jobs) * len(every)
    failed = sum(p["failed"] for p in every)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "passes": len(passes), "traced_passes": len(traced_passes),
              "pass_walls": [round(p["wall"], 4) for p in passes],
              "pass_speeds": [round(p["speed"], 4) for p in passes],
              "setup_speed": round(setup_speed, 4),
              "raw": {"pass_s": median(p["wall"] for p in passes), "setup_s": setup_s},
              "jobs": [j.name for j in workload.jobs], "machine": machine_record}
    if not traced:
        metrics = {
            "pass_s": median(p["wall"] / p["speed"] for p in passes),
            "pass_cpu_s": median(p["cpu"] / p["speed"] for p in passes),
            "small_jobs_s": median(p["small"] / p["speed"] for p in passes),
            "setup_s": setup_s / setup_speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        metrics, units, counts = layer_metrics(passes, traced_passes, spans)
        if any(c != counts[0] for c in counts):
            failed += 1
            print("perfbench: counts differ between traced passes", file=sys.stderr)
        counts_file = ROOT / jobs.WORK / f"counts-{name}-seed{seed}.json"
        counts_file.write_text(json.dumps(counts[0], indent=1, sort_keys=True) + "\n")
        record["counts_file"] = str(counts_file.relative_to(ROOT))
    record["failed_frac"] = failed / attempted
    print(json.dumps(record, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def layer_metrics(passes, traced_passes, spans):
    traces = [p["trace"] for p in traced_passes]
    metrics, units = {}, {}
    for name in LAYER_TIMES:
        metrics[f"{name}.s"] = median(t.busy.get(name, 0.0) for t in traces)
        units[f"{name}.s"] = "s"
    metrics["linalg.rank.max_s"] = median(t.max.get("linalg.rank", 0.0) for t in traces)
    units["linalg.rank.max_s"] = "s"
    for name in SETUP_TIMES:
        metrics[f"{name}.s"] = median(s.busy.get(name, 0.0) for s in spans)
        units[f"{name}.s"] = "s"
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = traces[0].counts.get(name, 0)
        units[name] = unit
    cli_s = median(p["cli"] for p in traced_passes)
    replayed = median(p["replayed"] for p in traced_passes)
    metrics["cli.main.s"] = cli_s
    metrics["cli.self_s"] = cli_s - replayed
    metrics["trace.coverage"] = replayed / cli_s if cli_s else 0.0
    metrics["trace.overhead_s"] = (median(p["elapsed"] for p in traced_passes)
                                   - median(p["elapsed"] for p in passes))
    units.update({"cli.main.s": "s", "cli.self_s": "s", "trace.coverage": "ratio",
                  "trace.overhead_s": "s"})
    counts = [{"totals": dict(t.counts), "jobs": t.jobs} for t in traces]
    return metrics, units, counts


def run_all(args) -> int:
    """Every workload in turn, each in its own process; prints a table."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.exit(f"perfbench: workload {name} exited {proc.returncode}")
        print(lines[-2])
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            print(f"{name:13s} {metric:28s} {m['value']:14.6f} {m['unit']}")
            total["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    machine_record = machine()
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     machine_record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
