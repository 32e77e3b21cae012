"""Tests of the benchmark itself: run with `python3 -m pytest perfbench -q`.

They check that traced counts repeat exactly, that tracing leaves
results unchanged, that inputs follow the seed, and that every oracle
rejects a wrong answer.
"""

import json
import os
import random
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

workloads.load_perfx()

from perfx import derived, geometry, groebner, linalg, rings  # noqa: E402
from perfx.fields import GF, QQ  # noqa: E402

COUNT_SUFFIXES = (".calls", ".builds", ".gens_in", ".basis_out", ".pivots", ".entries", ".cols_in")


def _traced_counts(workload, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=True, timeout=600,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: m["value"] for k, m in result["metrics"].items() if k.endswith(COUNT_SUFFIXES)}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_counts_repeat_under_two_hash_seeds(workload):
    first = _traced_counts(workload, 0)
    assert first == _traced_counts(workload, 12345)
    assert any(first.values())


def _module(field, seed):
    ring = rings.PolyRing(field, ["x", "y"])
    rng = random.Random(seed)
    return workloads._random_module(ring, rng, 2, 3), rings.RationalPoint(ring, (0, 0))


def _results():
    out = []
    for field in (QQ, GF(workloads.FIELD_P)):
        module, origin = _module(field, 3)
        out.append(derived.tor_profile(module, origin, 5, "resolve"))
        out.append(derived.tor_profile(module, origin, 5, "koszul"))
        out.append(module.relations.column_vecs())
        fam = geometry.blowup_family(field, 2)
        pushed, report = geometry.pushforward_projective(fam, fam.twist(2))
        out.append((pushed.ranks, {i: m.rows for i, m in pushed.diffs.items()}, report))
        out.append(linalg.rank([[1, 2, 3], [2, 4, 7]], field))
    return out


def test_tracing_leaves_results_unchanged_and_restores_originals():
    originals = (groebner.buchberger, derived.field_rank, rings.Mat.__dict__["__mul__"],
                 rings.MatrixGB.__dict__["lift_column"])
    plain = _results()
    tracer = Tracer()
    with tracer:
        assert derived.field_rank is linalg.rank is not originals[1]
        assert groebner.buchberger is not originals[0]
        traced = _results()
    assert traced == plain
    assert tracer.summary()["groebner.buchberger"]["calls"] > 0
    assert (groebner.buchberger, derived.field_rank, rings.Mat.__dict__["__mul__"],
            rings.MatrixGB.__dict__["lift_column"]) == originals


def test_spans_nest_and_self_time_excludes_children():
    tracer = Tracer()
    with tracer:
        tracer.job = 7
        module, origin = _module(QQ, 4)
        derived.tor_profile(module, origin, 3, "resolve")
    ids = {span[0] for span in tracer.spans}
    assert len(ids) == len(tracer.spans)
    assert all(span[4] is None or span[4] in ids for span in tracer.spans)
    assert {span[5] for span in tracer.spans} == {7}
    summary = tracer.summary()
    top = summary["derived.tor_profile"]
    assert 0 <= top["self_s"] <= top["incl_s"]
    total_self = sum(row["self_s"] for row in summary.values())
    assert total_self == pytest.approx(top["incl_s"], rel=1e-6)


def _inputs(workload, seed):
    return [(job[0], job[1]) for job in bench.build(workload, seed, 0)]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_inputs_follow_the_seed(workload):
    first = _inputs(workload, 3)
    assert first and first == _inputs(workload, 3)
    assert first != _inputs(workload, 4)


def test_tor_oracle():
    assert workloads.check_tor([1, 2, 1, 0, 0, 0], [1, 2, 1, 0, 0, 0])
    assert not workloads.check_tor([1, 2, 1, 0, 0, 0], [1, 2, 0, 0, 0, 0])
    assert not workloads.check_tor([1, 2], [1, 2])


def test_tower_oracle():
    window = range(-4, 0)
    table = {(i, d): 0 for i in range(3) for d in window}
    table.update({(2, -4): 3, (2, -3): 2, (2, -2): 1})
    good = SimpleNamespace(stable=True, audit={"pass": True}, table=table)
    assert workloads.check_tower(2, window, good)
    wrong = SimpleNamespace(stable=True, audit={"pass": True}, table=dict(table))
    wrong.table[(2, -4)] = 4
    assert not workloads.check_tower(2, window, wrong)
    assert not workloads.check_tower(2, window, SimpleNamespace(**{**vars(good), "stable": False}))
    assert [workloads.top_local_cohomology(3, d) for d in (-5, -4, -3, -2)] == [6, 3, 1, 0]


def test_axiom_and_orientation_oracles():
    assert workloads.check_axiom({"verdict": "equal_evidence"})
    assert not workloads.check_axiom({"verdict": "different"})
    assert workloads.check_orientation(True)
    assert not workloads.check_orientation(False)


def test_chi_oracles():
    assert workloads.check_chi(3, 2, True, 1, 6)
    assert workloads.check_chi(3, 2, False, 1, 1)
    assert not workloads.check_chi(3, 2, True, 1, 5)
    assert not workloads.check_chi(2, 0, False, 2, 1)
    csv = "point,chi_classical,chi_nice\n(0;0),2,1\n(1;0),1,1\n(0;1),1,1\n(1;1),1,1\n(2;-3),1,1\n"
    assert workloads.check_cli_csv(2, 0, csv)
    assert not workloads.check_cli_csv(2, 1, csv)
    assert not workloads.check_cli_csv(2, 0, csv.replace("(0;0),2,1", "(0;0),1,1"))
    assert not workloads.check_cli_csv(3, 0, csv)


def test_fiber_oracle():
    scan_at = {"audit_pass": True, "generic_value": 1, "values": [(None, 3)]}
    scan_off = {"audit_pass": True, "generic_value": 1, "values": [(None, 1)]}
    dims_at = {-3: 0, -2: 1, -1: 3, 0: 3, 1: 0, 2: 0}
    dims_off = {-3: 0, -2: 0, -1: 0, 0: 1, 1: 0, 2: 0}
    assert workloads.check_fiber(True, dims_at, 1, scan_at)
    assert workloads.check_fiber(False, dims_off, 1, scan_off)
    assert not workloads.check_fiber(False, dims_at, 1, scan_off)
    assert not workloads.check_fiber(True, dims_at, 1, scan_off)
    assert not workloads.check_fiber(False, dims_off, 2, scan_off)
    assert not workloads.check_fiber(False, dims_off, 1, {**scan_off, "audit_pass": False})


def test_a_wrong_answer_is_counted_not_raised():
    def boom():
        raise ValueError("no")

    jobs = [("ok", "", lambda: 1, lambda a: a == 1),
            ("wrong", "", lambda: 2, lambda a: a == 1),
            ("crash", "", boom, lambda a: True)]
    raw, scaled, failures = bench.run_jobs(jobs)
    assert len(raw) == len(scaled) == 3
    assert [f[1] for f in failures] == ["wrong", "crash"]


def test_tail_has_ten_samples_above():
    assert bench.tail(list(range(100)))[:3] == (90, 89, 10)
    assert bench.tail(list(range(1000)))[:3] == (99, 989, 10)
    assert bench.tail(list(range(990)))[:3] == (90, 890, 99)
    assert bench.tail(list(range(40)))[:3] == (50, 19, 20)


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "perfbench"
    bare.mkdir()
    for name in ("run.py", "workloads.py", "tracer.py"):
        (bare / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fiber-scan", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
