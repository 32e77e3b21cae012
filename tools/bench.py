#!/usr/bin/env python3
"""Compare the benchmark of HEAD with that of another revision.

    python3 tools/bench.py --against REV [--workload W]... [--seed S]... [--pairs N]
                           [--json PATH]

REV and HEAD are exported with `git archive` into a temporary directory,
so both sides run from fresh trees with no `__pycache__` and neither
sees uncommitted edits.  Each workload and seed runs in N pairs of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

one per side, under PYTHONDONTWRITEBYTECODE=1, alternating which side
runs first; T is BENCHMARK.json's `run_seconds`.  The last line of a
run's standard output is its result.

For each workload, seed and end-to-end metric of BENCHMARK.json the
table gives each side's median and quartiles, the change of the median
in %, the pairs the change won (ties count for neither), the parent's
interquartile range, whether the change stays within the metric's
bound, and whether it shows a gain: at least nine tenths of the pairs
won and the medians further apart than the parent's interquartile
range.  Quartiles are `statistics.quantiles(..., method="inclusive")`.

With --json PATH the same comparison is also written to PATH: both
revisions, the Python version and the machine, and per workload, seed
and metric each side's quartiles, the change in %, the wins, the
parent's interquartile range, the bound and whether the bound and the
gain rule hold.  The file is written only when every run is correct.

Exit 0 when every run is correct, 1 when a run fails or answers wrong,
2 on a usage error.  The temporary trees are removed in every case.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
WIN_SHARE = 0.9


class RunFailed(Exception):
    """A benchmark run that exited nonzero or answered wrong."""


def quartiles(values):
    """(first quartile, median, third quartile) of the values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent, change, better, bound):
    """The comparison of one metric over pairs: parent[k] and change[k]
    were measured in the same pair.  better is "lower" or "higher";
    bound is the share by which the change's median may be worse."""
    p = quartiles(parent)
    c = quartiles(change)
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    iqr = p[2] - p[0]
    return {
        "parent": p,
        "change": c,
        "delta_pct": 100 * (c[1] - p[1]) / p[1] if p[1] else 0.0,
        "wins": wins,
        "pairs": len(parent),
        "parent_iqr": iqr,
        "within_bound": sign * (c[1] - p[1]) <= bound * abs(p[1]),
        "gain": wins >= WIN_SHARE * len(parent) and sign * (p[1] - c[1]) > iqr,
    }


def export(rev, dest):
    """The committed tree of rev, written to the directory dest."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE,
                             check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def run_once(tree, workload, seed, seconds):
    """The result line of one untraced benchmark run in tree."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{workload} seed {seed} in {tree}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RunFailed(f"{workload} seed {seed} in {tree}: "
                        f"{result['failed']} of {result['attempted']} jobs failed")
    return result


def measure(trees, workload, seed, seconds, pairs):
    """{side: [result, ...]} over the pairs, the first side first in
    even pairs and second in odd ones."""
    results = {side: [] for side in trees}
    sides = list(trees)
    for k in range(pairs):
        for side in sides if k % 2 == 0 else sides[::-1]:
            results[side].append(run_once(trees[side], workload, seed, seconds))
    return results


def comparisons(results, metrics):
    """{metric name: `compare` of the metric over the pairs} of one
    workload and seed."""
    out = {}
    for m in metrics:
        values = {side: [r["metrics"][m["name"]]["value"] for r in rs]
                  for side, rs in results.items()}
        out[m["name"]] = compare(values["parent"], values["change"], m["better"], m["bound"])
    return out


def rows(workload, seed, cmps, metrics):
    """Table rows of one workload and seed."""
    out = []
    for m in metrics:
        cmp = cmps[m["name"]]
        p, c = cmp["parent"], cmp["change"]
        out.append([
            workload, str(seed), f"{m['name']} [{m['unit']}]",
            f"{p[1]:.4g} [{p[0]:.4g}, {p[2]:.4g}]",
            f"{c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}]",
            f"{cmp['delta_pct']:+.1f}%", f"{cmp['wins']}/{cmp['pairs']}",
            f"{cmp['parent_iqr']:.3g}", "yes" if cmp["within_bound"] else "NO",
            "yes" if cmp["gain"] else "no",
        ])
    return out


def record(revisions, pairs, tables, metrics):
    """The --json document: tables is {workload: {seed: comparisons}}."""
    spec = {m["name"]: m for m in metrics}
    return {
        "parent": revisions["parent"],
        "change": revisions["change"],
        "python": platform.python_version(),
        "machine": {"system": platform.system(), "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "pairs": pairs,
        "workloads": {
            workload: {
                str(seed): {
                    name: {"unit": spec[name]["unit"], "better": spec[name]["better"],
                           "bound": spec[name]["bound"], **cmp}
                    for name, cmp in cmps.items()
                }
                for seed, cmps in by_seed.items()
            }
            for workload, by_seed in tables.items()
        },
    }


HEADER = ["workload", "seed", "metric", "parent median [q1, q3]", "change median [q1, q3]",
          "change", "wins", "parent IQR", "in bound", "gain"]


def print_table(table):
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip(), flush=True)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="the revision HEAD is compared with")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="a workload of BENCHMARK.json (repeatable; default: all)")
    parser.add_argument("--seed", action="append", type=int,
                        help="a workload seed (repeatable; default: 0)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", metavar="PATH",
                        help="also write the comparison to PATH as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    return args


def main(argv=None):
    with open(BENCHMARK) as handle:
        bench = json.load(handle)
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])
    revisions = {}
    for side, rev in (("parent", args.against), ("change", "HEAD")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", "--quiet",
                               f"{rev}^{{commit}}"], stdout=subprocess.PIPE, text=True)
        if proc.returncode:
            print(f"bench: not a revision: {rev}", file=sys.stderr)
            return 2
        revisions[side] = proc.stdout.strip()
    metrics = bench["end_to_end"]
    tmp = tempfile.mkdtemp(prefix="perfx-bench-")
    try:
        trees = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        export(revisions["parent"], trees["parent"])
        export(revisions["change"], trees["change"])
        tables = {}
        for workload in args.workload or [w["name"] for w in bench["workloads"]]:
            for seed in args.seed or [0]:
                results = measure(trees, workload, seed, bench["run_seconds"], args.pairs)
                cmps = tables.setdefault(workload, {})[seed] = comparisons(results, metrics)
                print_table([HEADER] + rows(workload, seed, cmps, metrics))
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(record(revisions, args.pairs, tables, metrics), handle, indent=1)
                handle.write("\n")
        return 0
    except RunFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
