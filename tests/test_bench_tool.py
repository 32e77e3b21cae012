"""tools/bench.py: its statistics on fixed numbers, its usage errors and
its exit codes, with no benchmark run."""

import importlib.util
import json
import platform
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench.py"
spec = importlib.util.spec_from_file_location("bench_tool", PATH)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

PARENT = [0.47, 0.46, 0.48, 0.50, 0.47, 0.45, 0.49, 0.47, 0.46, 0.48]


def test_quartiles_are_inclusive():
    assert bench.quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert bench.quartiles(PARENT) == pytest.approx((0.4625, 0.47, 0.48))


def test_a_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_iqr():
    change = [0.29, 0.30, 0.28, 0.31, 0.29, 0.47, 0.30, 0.29, 0.28, 0.30]
    cmp = bench.compare(PARENT, change, "lower", 0.25)
    assert cmp["parent"] == pytest.approx((0.4625, 0.47, 0.48))
    assert cmp["change"][1] == pytest.approx(0.295)
    assert cmp["delta_pct"] == pytest.approx(-37.234, abs=1e-3)
    assert (cmp["wins"], cmp["pairs"]) == (9, 10)  # the tie in pair 6 counts for neither
    assert cmp["parent_iqr"] == pytest.approx(0.0175)
    assert cmp["within_bound"] and cmp["gain"]
    change[0] = 0.48  # a second pair lost
    assert not bench.compare(PARENT, change, "lower", 0.25)["gain"]


def test_a_win_of_every_pair_inside_the_iqr_is_no_gain():
    change = [x - 0.001 for x in PARENT]
    cmp = bench.compare(PARENT, change, "lower", 0.25)
    assert cmp["wins"] == 10 and cmp["within_bound"] and not cmp["gain"]


@pytest.mark.parametrize("better, factor, within", [
    ("lower", 1.09, True), ("lower", 1.11, False), ("higher", 0.91, True), ("higher", 0.89, False),
])
def test_the_bound_is_a_share_of_the_parent_median(better, factor, within):
    cmp = bench.compare(PARENT, [x * factor for x in PARENT], better, 0.1)
    assert cmp["within_bound"] is within
    assert cmp["wins"] == (10 if (factor < 1) == (better == "lower") else 0)


def test_usage_errors_exit_2(capsys):
    for argv in ([], ["--against", "HEAD", "--workload", "bogus"],
                 ["--against", "HEAD", "--pairs", "1"]):
        with pytest.raises(SystemExit) as info:
            bench.main(argv)
        assert info.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_a_failed_run_exits_1_and_removes_the_trees(monkeypatch, tmp_path, capsys):
    """No git and no benchmark: exporting and running are stubbed."""
    made = []

    class Verified:
        returncode = 0
        stdout = "0" * 40 + "\n"

    def export(rev, dest):
        Path(dest).mkdir(parents=True)
        made.append(Path(dest))

    def run_once(tree, workload, seed, seconds):
        raise bench.RunFailed(f"{workload} seed {seed} in {tree}: 1 of 3 jobs failed")

    monkeypatch.setattr(bench.subprocess, "run", lambda *a, **k: Verified())
    monkeypatch.setattr(bench.tempfile, "mkdtemp", lambda prefix: str(tmp_path / "t"))
    monkeypatch.setattr(bench, "export", export)
    monkeypatch.setattr(bench, "run_once", run_once)
    assert bench.main(["--against", "HEAD~1", "--workload", "fiber-scan"]) == 1
    assert "bench: fiber-scan seed 0" in capsys.readouterr().err
    assert len(made) == 2 and not (tmp_path / "t").exists()


def test_pairs_alternate_which_side_runs_first(monkeypatch):
    order = []

    def run_once(tree, workload, seed, seconds):
        order.append(tree)
        return {"tree": tree}

    monkeypatch.setattr(bench, "run_once", run_once)
    results = bench.measure({"parent": "P", "change": "C"}, "fiber-scan", 7, 15, 3)
    assert order == ["P", "C", "C", "P", "P", "C"]
    assert [r["tree"] for r in results["parent"]] == ["P"] * 3


def test_json_records_every_comparison(monkeypatch, tmp_path):
    """--json on fixed numbers: exporting and running are stubbed, and each
    side's runs read wall_s from PARENT and from the change's list."""
    change = [0.29, 0.30, 0.28, 0.31, 0.29, 0.47, 0.30, 0.29, 0.28, 0.30]
    values = {"parent": iter(PARENT), "change": iter(change)}
    revs = iter(["a" * 40, "b" * 40])

    class Verified:
        returncode = 0

        def __init__(self):
            self.stdout = next(revs) + "\n"

    def run_once(tree, workload, seed, seconds):
        wall = next(values[Path(tree).name])
        return {"metrics": {m["name"]: {"value": wall if m["name"] == "wall_s" else 1.0}
                            for m in bench_metrics()}}

    monkeypatch.setattr(bench.subprocess, "run", lambda *a, **k: Verified())
    monkeypatch.setattr(bench.tempfile, "mkdtemp", lambda prefix: str(tmp_path / "t"))
    monkeypatch.setattr(bench, "export", lambda rev, dest: Path(dest).mkdir(parents=True))
    monkeypatch.setattr(bench, "run_once", run_once)
    out = tmp_path / "bench.json"
    argv = ["--against", "HEAD~1", "--workload", "fiber-scan", "--seed", "7", "--json", str(out)]
    assert bench.main(argv) == 0
    doc = json.loads(out.read_text())
    assert (doc["parent"], doc["change"], doc["pairs"]) == ("a" * 40, "b" * 40, 10)
    assert doc["python"] == platform.python_version()
    metrics = doc["workloads"]["fiber-scan"]["7"]
    assert set(metrics) == {m["name"] for m in bench_metrics()}
    wall = metrics["wall_s"]
    assert (wall["unit"], wall["better"], wall["bound"]) == ("s", "lower", 0.25)
    assert wall["parent"] == pytest.approx([0.4625, 0.47, 0.48])
    assert wall["change"][1] == pytest.approx(0.295)
    assert wall["delta_pct"] == pytest.approx(-37.234, abs=1e-3)
    assert (wall["wins"], wall["pairs"]) == (9, 10)
    assert wall["parent_iqr"] == pytest.approx(0.0175)
    assert wall["within_bound"] and wall["gain"]
    flat = metrics["setup_s"]
    assert (flat["wins"], flat["delta_pct"], flat["gain"]) == (0, 0.0, False)
    assert flat["within_bound"]


def bench_metrics():
    return json.loads(Path(bench.BENCHMARK).read_text())["end_to_end"]
