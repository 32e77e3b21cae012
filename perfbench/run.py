#!/usr/bin/env python3
"""perfx benchmark: four seeded workloads, timed end to end or traced.

Run from the root of a checkout (perfx is imported from ./src):

    python3 perfbench/run.py --workload derived-towers --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # one row per workload
    python3 -m pytest perfbench -q                       # the benchmark's own tests

A run builds its inputs from the seed (the set-up), runs every job once
and checks each answer against its oracle; an exception or a wrong answer
counts as a failed job and never stops the run.  The amount of work is
fixed by the seed and `--seconds`: it holds as many rounds of the
workload as took about `--seconds` at the commit that defined the
benchmark, so a faster program finishes sooner and every run of one seed
does the same work.  Job times are scaled by a calibration loop timed
around each job (see run_jobs); perfbench/workloads.json says why.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs each job
untraced and then a twin of it under the tracer, and reports the
per-layer metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Results, spans and the
environment record go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import workloads  # noqa: E402  (sibling file)
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 5
# The calibration loop and its nominal duration; see run_jobs.
CALIBRATION_LOOPS = 3000
CALIBRATION_S = 1e-3
TAIL_GRID = (50, 90, 99, 99.9)


# -- statistics -------------------------------------------------------------


def nearest_rank(sorted_values, p):
    """(value, samples above it) for the p-th percentile, nearest-rank."""
    n = len(sorted_values)
    k = max(0, math.ceil(p / 100 * n) - 1)
    return sorted_values[k], n - 1 - k


def tail(latencies):
    """Highest percentile of TAIL_GRID with at least ten samples above it."""
    values = sorted(latencies)
    best = (TAIL_GRID[0],) + nearest_rank(values, TAIL_GRID[0])
    for p in TAIL_GRID:
        value, above = nearest_rank(values, p)
        if above >= 10:
            best = (p, value, above)
    return best


# -- environment --------------------------------------------------------------


def _git_rev():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return None


def _source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "perfx")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def environment(seed, knobs):
    import perfx.linalg

    return {
        "python": platform.python_version(),
        "backend": perfx.linalg.BACKEND,
        "PERFX_THREADS": knobs["PERFX_THREADS"],
        "PERFX_PURE": knobs["PERFX_PURE"],
        "nproc": os.cpu_count(),
        "git_rev": _git_rev(),
        "src_sha256": _source_digest(),
        "seed": seed,
    }


# -- running ------------------------------------------------------------------


def rounds_for(workload, seconds):
    return max(1, round(seconds / workloads.WORKLOADS[workload][1]))


def build(workload, seed, seconds):
    return workloads.WORKLOADS[workload][0](seed, rounds_for(workload, seconds))


def calibrate():
    """Seconds taken by a fixed piece of interpreter work (about 1 ms)."""
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(CALIBRATION_LOOPS):
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + i
        acc += (i * i) % 11
    return time.perf_counter() - t0


def run_job(job):
    """(latency in seconds, failure or None) of one job and its check."""
    _kind, _inputs, run, check = job
    t0 = time.perf_counter()
    try:
        answer = run()
    except Exception as exc:  # a crash is a failed job, not a failed run
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    try:
        ok = check(answer)
    except Exception as exc:
        return latency, f"oracle: {type(exc).__name__}: {exc}"
    return latency, None if ok else "wrong answer"


def run_jobs(jobs, tracer=None, first=0):
    """Run the jobs in order, with a calibration before, between and after.

    Returns (latencies, scaled latencies, failures).  A scaled latency is
    the latency times CALIBRATION_S over the median of the four
    calibrations around the job: the time the job would take on a machine
    where the calibration takes CALIBRATION_S.  With a tracer, job number
    `first + i` runs traced.
    """
    latencies, failures = [], []
    cal = [calibrate()]
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = first + index
            with tracer:
                latency, failure = run_job(job)
        else:
            latency, failure = run_job(job)
        cal.append(calibrate())
        latencies.append(latency)
        if failure is not None:
            failures.append((first + index, job[0], job[1], failure))
    scaled = [
        latency * CALIBRATION_S / statistics.median(cal[max(0, i - 1):i + 3])
        for i, latency in enumerate(latencies)
    ]
    return latencies, scaled, failures


def measure_setup(args):
    """Median over SETUP_REPEATS fresh processes that import perfx and
    build the inputs.  Each wall time is scaled like a job's latency, by
    calibrations that the child process makes before and after its work."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        child = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * CALIBRATION_S / float(child.stdout.split()[-1]))
    return statistics.median(scaled), raw


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args):
    setup_s, setup_raw = measure_setup(args)
    jobs = build(args.workload, args.seed, args.seconds)
    raw, latencies, failures = run_jobs(jobs)
    tail_p, tail_v, tail_n = tail(latencies)
    metrics = {
        "wall_s": metric(sum(latencies), "s"),
        "job_ms.p50": metric(statistics.median(latencies) * 1e3, "ms"),
        "job_ms.tail": metric(tail_v * 1e3, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    notes = {
        "wall_s": f"unscaled {sum(raw):.3f} s",
        "job_ms.tail": f"p{tail_p:g} with {tail_n} of {len(latencies)} jobs above",
        "setup_s": "unscaled " + ", ".join(f"{t:.3f}" for t in setup_raw),
        "failed_frac": f"{len(failures) / len(jobs):.4f} ratio",
    }
    return jobs, failures, metrics, notes, latencies


# Per-layer metrics of a traced run: (metric, unit, function of the tracer's
# summary plus its "wall_s").  Times are shares of the traced wall time:
# seconds move with the machine's speed, and a layer that a workload never
# calls reads exactly 0.
def _share(name, key="self_s"):
    return lambda s: s.get(name, {}).get(key, 0.0) / s["wall_s"]


def _counter(name, key):
    return lambda s: s.get(name, {}).get(key, 0)


def _ratio(name, num, den):
    def value(s):
        row = s.get(name, {})
        return row.get(num, 0) / row[den] if row.get(den) else 0.0

    return value


def _sum(*names_keys):
    return lambda s: sum(s.get(n, {}).get(k, 0) for n, k in names_keys)


LAYER_METRICS = [
    ("groebner.buchberger.calls", "count", _counter("groebner.buchberger", "calls")),
    ("groebner.buchberger.self_frac", "ratio", _share("groebner.buchberger")),
    ("groebner.buchberger.incl_frac", "ratio", _share("groebner.buchberger", "incl_s")),
    ("groebner.buchberger.gens_in", "count", _counter("groebner.buchberger", "gens_in")),
    ("groebner.buchberger.basis_out", "count", _counter("groebner.buchberger", "basis_out")),
    ("groebner.interreduce.calls", "count", _counter("groebner.interreduce", "calls")),
    ("groebner.interreduce.self_frac", "ratio", _share("groebner.interreduce")),
    ("groebner.interreduce.kept_frac", "ratio", _ratio("groebner.interreduce", "kept", "elems_in")),
    ("groebner.reduce_vector.calls", "count", _counter("groebner.reduce_vector", "calls")),
    ("groebner.reduce_vector.self_frac", "ratio", _share("groebner.reduce_vector")),
    ("groebner.reduce_vector.zero_frac", "ratio", _ratio("groebner.reduce_vector", "zero", "calls")),
    ("groebner.syzygy_basis.calls", "count", _counter("groebner.syzygy_basis", "calls")),
    ("groebner.syzygy_basis.self_frac", "ratio", _share("groebner.syzygy_basis")),
    ("groebner.ModuleGB.builds", "count", _counter("groebner.ModuleGB", "calls")),
    ("groebner.ModuleGB.self_frac", "ratio", _share("groebner.ModuleGB")),
    ("groebner.ModuleGB.incl_frac", "ratio", _share("groebner.ModuleGB", "incl_s")),
    ("rings.MatrixGB.builds", "count", _counter("rings.MatrixGB", "calls")),
    ("rings.MatrixGB.lift_frac", "ratio", _ratio("rings.MatrixGB", "lifted", "calls")),
    ("rings.syzygy_matrix.calls", "count", _counter("rings.syzygy_matrix", "calls")),
    ("rings.syzygy_matrix.self_frac", "ratio", _share("rings.syzygy_matrix")),
    ("rings.Mat.mul.calls", "count", _counter("rings.Mat.mul", "calls")),
    ("rings.Mat.mul.self_frac", "ratio", _share("rings.Mat.mul")),
    ("rings.Mat.evaluate.calls", "count", _counter("rings.Mat.evaluate", "calls")),
    ("rings.Mat.evaluate.self_frac", "ratio", _share("rings.Mat.evaluate")),
    ("rings.Mat.evaluate.entries", "count", _counter("rings.Mat.evaluate", "entries")),
    ("modules.prune_redundant_columns.calls", "count", _counter("modules.prune_redundant_columns", "calls")),
    ("modules.prune_redundant_columns.self_frac", "ratio", _share("modules.prune_redundant_columns")),
    ("modules.prune_redundant_columns.cols_in", "count",
     _counter("modules.prune_redundant_columns", "cols_in")),
    ("modules.prune_redundant_columns.drop_frac", "ratio",
     _ratio("modules.prune_redundant_columns", "dropped", "cols_in")),
    ("complexes.minimize.calls", "count", _counter("complexes.minimize", "calls")),
    ("complexes.minimize.self_frac", "ratio", _share("complexes.minimize")),
    ("complexes.minimize.pivots", "count", _counter("complexes.minimize", "pivots")),
]
for _name in ("tensor", "cone", "koszul_dual_stage", "fiber_dims"):
    LAYER_METRICS += [
        (f"complexes.{_name}.calls", "count", _counter(f"complexes.{_name}", "calls")),
        (f"complexes.{_name}.self_frac", "ratio", _share(f"complexes.{_name}")),
    ]
for _name in ("resolutions.free_replacement", "resolutions.free_resolution",
              "resolutions.homology_data", "derived.tor_profile", "derived.local_cohomology",
              "geometry.pushforward_projective", "geometry.relative_strand",
              "geometry.pushforward_affine", "geometry.restrict_scalars",
              "geometry.classical_chi", "geometry.hp_scan",
              "maps.source_module_presentation", "ktheory.verify_axiom",
              "linalg.rank.qq", "linalg.rank.gfp", "cli.main"):
    LAYER_METRICS += [
        (f"{_name}.calls", "count", _counter(_name, "calls")),
        (f"{_name}.self_frac", "ratio", _share(_name)),
    ]
LAYER_METRICS.append(("linalg.rank.entries", "count",
                      _sum(("linalg.rank.qq", "entries"), ("linalg.rank.gfp", "entries"))))


def traced(args):
    """Each job runs untraced, then a twin built from the same seed runs
    traced; alternating the two spreads drift and warm-up over both."""
    plain_jobs = build(args.workload, args.seed, args.seconds)
    jobs = build(args.workload, args.seed, args.seconds)
    tracer = Tracer()
    plain, raw, latencies, failures = [], [], [], []
    for index, (plain_job, job) in enumerate(zip(plain_jobs, jobs)):
        plain += run_jobs([plain_job])[1]
        job_raw, scaled, failed = run_jobs([job], tracer, first=index)
        raw += job_raw
        latencies += scaled
        failures += failed
    wall = sum(raw)
    summary = tracer.summary()
    metrics = {name: metric(fn({**summary, "wall_s": wall}), unit)
               for name, unit, fn in LAYER_METRICS}
    metrics["trace.wall_s"] = metric(wall, "s")
    metrics["trace.overhead_frac"] = metric(sum(latencies) / sum(plain) - 1, "ratio")
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"trace-{args.workload}-s{args.seed}")
    tracer.write(stem + ".spans.jsonl")
    with open(stem + ".summary.json", "w") as handle:
        json.dump({"wall_s": wall, "layers": summary}, handle, indent=1, sort_keys=True)
    notes = {"spans": f"{len(tracer.spans)} spans in {stem}.spans.jsonl"}
    return jobs, failures, metrics, notes, latencies


# -- entry points ------------------------------------------------------------------


def run_all(args):
    """Each workload in a fresh process; one row per workload."""
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        rows.append((name, json.loads(lines[-1])))
    names = list(rows[0][1]["metrics"])
    units = [rows[0][1]["metrics"][m]["unit"] for m in names]
    table = [["workload"] + [f"{m} [{u}]" for m, u in zip(names, units)] + ["failed_frac [ratio]"]]
    for name, res in rows:
        table.append([name] + [f"{res['metrics'][m]['value']:.4g}" for m in names]
                     + [f"{res['failed'] / res['attempted']:.4g}"])
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        print("  ".join(cell.rjust(w) if i else cell.ljust(w)
                        for i, (cell, w) in enumerate(zip(row, widths))))
    return 0 if all(res["correct"] for _n, res in rows) else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import perfx, build the inputs and exit")
    return parser.parse_args(argv)


def main(argv=None):
    knobs = {k: os.environ.get(k) for k in ("PERFX_THREADS", "PERFX_PURE")}
    args = parse_args(argv)
    if args.setup_only:
        cal = [calibrate() for _ in range(3)]
    if not os.path.isfile(os.path.join(SRC, "perfx", "__init__.py")):
        print(f"perfbench: no perfx sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    workloads.load_perfx()
    if args.setup_only:
        build(args.workload, args.seed, args.seconds)
        cal += [calibrate() for _ in range(3)]
        print(f"calibration {statistics.median(cal)!r}")
        return 0
    env = environment(args.seed, knobs)
    jobs, failures, metrics, notes, latencies = (traced if args.trace else end_to_end)(args)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as handle:
        json.dump({"workload": args.workload, "env": env, "metrics": metrics, "notes": notes,
                   "failures": failures, "kinds": [job[0] for job in jobs],
                   "latencies": latencies}, handle, indent=1)
    print(f"env {json.dumps(env, sort_keys=True)}")
    for index, kind, inputs, why in failures[:20]:
        print(f"failed job {index} ({kind}, {inputs[:200]}): {why}")
    width = max(len(m) for m in metrics)
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"{name:<{width}}  {m['value']:>14.6g} {m['unit']:<6} {note}".rstrip())
    for name in ("failed_frac", "spans"):
        if name in notes:
            print(f"{name:<{width}}  {notes[name]}")
    print(json.dumps({"correct": not failures, "attempted": len(jobs),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
