"""CLI: parsing, round-trips, commands, exit codes and formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perfx.cli import ParseError, main, parse_session, print_session

SESSION = """
ring A = QQ[t]
ring B = QQ[t,x] / (x^2 - t)
map f : A -> B = (t)
module M on A = coker [[t]]
module OB on B = free(1)
complex K on A = koszul(t)
point p0 on A = (0)
point p1 on A = (1)
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_session_basics():
    session = parse_session(SESSION)
    assert set(session.rings) == {"A", "B"}
    assert session.maps["f"].is_module_finite()
    assert session.points["p0"].coords == (0,)
    assert session.complexes["K"].rank(0) == 1


def test_parse_error_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_session("ring A = QQ[t]\nmodule M on Z = coker [[t]]")
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_session("module M on Z = coker [[t]]")
    with pytest.raises(ParseError, match="vanishing locus"):
        parse_session("ring Q = QQ[x] / (x - 1)\npoint p on Q = (0)")


def test_roundtrip():
    session = parse_session(SESSION)
    text = print_session(session)
    again = parse_session(text)
    assert print_session(again) == text


def test_cli_perfect(tmp_path, capsys):
    path = tmp_path / "s.pfx"
    path.write_text(SESSION)
    code, out, _ = run_cli(capsys, "perfect", "M", "at", "p0", "--input", str(path))
    assert code == 0
    assert "perfect_near_point" in out


def test_cli_unknown_identifier(tmp_path, capsys):
    path = tmp_path / "s.pfx"
    path.write_text(SESSION)
    code, _out, err = run_cli(capsys, "perfect", "ZZ", "at", "p0", "--input", str(path))
    assert code == 2
    assert "unknown identifier" in err


def test_cli_parse_error_exit(tmp_path, capsys):
    path = tmp_path / "bad.pfx"
    path.write_text("ring A = QQ[t]\nring A = QQ[u]")
    code, _out, err = run_cli(capsys, "roundtrip", "--input", str(path))
    assert code == 2
    assert "duplicate" in err


def test_cli_hp_scan_csv(tmp_path, capsys):
    path = tmp_path / "s.pfx"
    path.write_text(SESSION)
    code, out, _ = run_cli(
        capsys,
        "hp-scan", "ring=A", "sheaf=M", "p=0", "points=line(t=s; s={0,1,2,-1,7})",
        "--format", "csv", "--input", str(path),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "point,p,dim,audit"
    assert lines[1].startswith("(0),0,1,")
    assert all(line.endswith("pass") for line in lines[1:])


def test_cli_grauert_flat(tmp_path, capsys):
    path = tmp_path / "s.pfx"
    path.write_text(SESSION)
    code, out, _ = run_cli(
        capsys,
        "grauert", "map=f", "sheaf=OB", "p=0", "points={(0),(1),(2),(-1),(3)}",
        "--input", str(path),
    )
    assert code == 0
    assert "constant: True" in out


def test_cli_grauert_witness(tmp_path, capsys):
    path = tmp_path / "s.pfx"
    path.write_text(SESSION)
    code, out, _ = run_cli(
        capsys,
        "grauert", "ring=A", "sheaf=M", "p=0", "points={(0),(1),(2)}",
        "--input", str(path),
    )
    assert code == 1
    assert "(0)" in out


def test_cli_json_format(tmp_path, capsys):
    path = tmp_path / "s.pfx"
    path.write_text(SESSION)
    code, out, _ = run_cli(
        capsys, "tor", "M", "at", "p0", "--format", "json", "--input", str(path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tor_dims"] == [1, 1, 0, 0, 0, 0, 0]


def test_cli_blowup_example(capsys):
    code, out, _ = run_cli(capsys, "example", "blowup-chi", "n=2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "point,chi_classical,chi_nice"
    first = lines[1].split(",")
    assert first[1] == "2" and first[2] == "1"
    for line in lines[2:]:
        assert line.endswith(",1,1")


@pytest.mark.parametrize("n", ["0", "-1", "abc"])
def test_cli_blowup_example_bad_n(capsys, n):
    code, _out, err = run_cli(capsys, "example", "blowup-chi", f"n={n}")
    assert code == 2
    assert "positive integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tokens", [
    ["perfect", "M", "at"],
    ["local-cohomology", "ring=A", "t=()"],
    ["tor", "M"],
    ["relperf", "M"],
    ["verify-axiom"],
    # a required option left out
    ["hp-scan"],
    ["chi-scan"],
    ["grauert"],
    ["local-cohomology"],
    ["transfer-check"],
    ["verify-axiom", "A1"],
    ["hp-scan", "ring=A", "p=0"],
    ["relperf", "OB", "over", "f"],
    # `NAME at POINT [depth N]` and nothing else
    ["tor", "M", "from", "p0"],
    ["tor", "M", "at", "p0", "deep", "3"],
    ["perfect", "M", "at", "p0", "depth"],
])
def test_cli_malformed_command_usage(tmp_path, capsys, tokens):
    path = tmp_path / "s.pfx"
    path.write_text(SESSION)
    code, _out, err = run_cli(capsys, *tokens, "--input", str(path))
    assert code == 2
    assert "usage:" in err
    assert "Traceback" not in err
    assert "None" not in err


def test_cli_internal_error_exits_2(capsys, monkeypatch):
    def crash(session, fmt):
        raise RuntimeError("boom")

    monkeypatch.setattr("perfx.cli.cmd_roundtrip", crash)
    code, _out, err = run_cli(capsys, "roundtrip")
    assert code == 2
    assert err == "perfx: internal error: RuntimeError: boom\n"


BLOWUP_CHI_N2_CSV = (
    "point,chi_classical,chi_nice\n"
    "(0;0),2,1\n"
    "(1;0),1,1\n"
    "(0;1),1,1\n"
    "(1;1),1,1\n"
    "(2;-3),1,1\n"
)


def run_under_hash_seeds(*argv):
    """stdout of `python -m perfx.cli argv` under PYTHONHASHSEED 0 and 1."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "perfx.cli", *argv],
            env=env, capture_output=True, timeout=120, check=True,
        )
        outputs.append(proc.stdout)
    return outputs


def test_cli_blowup_example_independent_of_hash_seed():
    """The README example prints the same bytes under any PYTHONHASHSEED."""
    outputs = run_under_hash_seeds("example", "blowup-chi", "n=2", "--format", "csv")
    assert outputs[0] == outputs[1]
    assert outputs[0].decode() == BLOWUP_CHI_N2_CSV


# The text report prints the stage report of the pushforward as a dict.
BLOWUP_CHI_N2_TEXT = (
    "family: blow-up of affine 2-space at the origin\n"
    "sheaf: O(1)\n"
    "pushforward: FreeComplex(-1:1, 0:2 over QQ[y1,y2])\n"
    "stage_report: {'stage_used': 1, 'exact_bound': True, 'stages_agree': None, "
    "'floor': -4, 'bounded': True}\n"
    "chi_nice_constant: True\n"
    "pass: True\n"
) + BLOWUP_CHI_N2_CSV

BLOWUP_CHI_N3_JSON = """{
  "family": "blow-up of affine 3-space at the origin",
  "sheaf": "O(1)",
  "pushforward": "FreeComplex(-2:1, -1:3, 0:3 over QQ[y1,y2,y3])",
  "stage_report": {
    "stage_used": 1,
    "exact_bound": true,
    "stages_agree": null,
    "floor": -5,
    "bounded": true
  },
  "chi_nice_constant": true,
  "pass": true
}
"""


@pytest.mark.parametrize("argv, expected", [
    (["n=2"], BLOWUP_CHI_N2_TEXT),
    (["n=3", "--format", "json"], BLOWUP_CHI_N3_JSON),
], ids=["n2-text", "n3-json"])
def test_cli_blowup_example_report_pinned_under_hash_seeds(argv, expected):
    outputs = run_under_hash_seeds("example", "blowup-chi", *argv)
    assert outputs[0] == outputs[1]
    assert outputs[0].decode() == expected


# The README's session file, with the module OB its grauert and relperf
# examples name.
README_SESSION = """
ring A = QQ[t]
ring B = QQ[t,x] / (x^2 - t)
map f : A -> B = (t)
module M on A = coker [[t]]
module OB on B = free(1)
complex K on A = koszul(t)
family X = blowup(QQ, 2)
point p0 on A = (0)
diagram D = regression(seed=0, index=3)
"""


@pytest.mark.parametrize("command", [
    ["hp-scan", "ring=A", "sheaf=M", "p=0", "points=line(t=s; s={0,1,2,-1,7})",
     "--format", "csv"],
    ["relperf", "OB", "over", "f", "points={(0),(1)}", "--format", "json"],
])
def test_cli_session_example_independent_of_hash_seed(tmp_path, command):
    path = tmp_path / "s.pfx"
    path.write_text(README_SESSION)
    outputs = run_under_hash_seeds(*command, "--input", str(path))
    assert outputs[0] == outputs[1]
    assert outputs[0]


# README session commands that rank fibers over QQ, and their output.
README_SCAN_OUTPUTS = [
    (["chi-scan", "family=X", "sheaf=O(1)", "points=line(y1=s,y2=0; s={0,1,2,-1,7})"],
     "values: [1, 1, 1, 1, 1]\n"
     "constant: True\n"
     "pass: True\n"
     "point,p,dim,audit\n"
     "(0;0),chi,1,constant\n"
     "(1;0),chi,1,constant\n"
     "(2;0),chi,1,constant\n"
     "(-1;0),chi,1,constant\n"
     "(7;0),chi,1,constant\n"),
    (["grauert", "map=f", "sheaf=OB", "p=0", "points={(0),(1),(2)}"],
     "constant: True\n"
     "value: 2\n"
     "rank_dp_constant: True\n"
     "rank_dprev_constant: True\n"
     "base_change_iso_dims: {(0): 2, (1): 2, (2): 2}\n"
     "base_change_pass: True\n"
     "reduced_assumed: True\n"),
]


@pytest.mark.parametrize("command, expected", README_SCAN_OUTPUTS,
                         ids=[c[0] for c, _ in README_SCAN_OUTPUTS])
def test_cli_scan_example_pinned_under_hash_seeds(tmp_path, command, expected):
    path = tmp_path / "s.pfx"
    path.write_text(README_SESSION)
    outputs = run_under_hash_seeds(*command, "--input", str(path))
    assert outputs[0] == outputs[1]
    assert outputs[0].decode() == expected


def test_cli_local_cohomology(tmp_path, capsys):
    path = tmp_path / "s.pfx"
    path.write_text("ring R = QQ[x,y]\n")
    code, out, _ = run_cli(
        capsys,
        "local-cohomology", "ring=R", "t=(x,y)", "--window=-4..0",
        "--format", "csv", "--input", str(path),
    )
    assert code == 0
    rows = {tuple(line.split(",")[:2]): line.split(",")[2]
            for line in out.strip().splitlines()[1:]}
    assert rows[("2", "-4")] == "3"
    assert rows[("2", "-2")] == "1"


def test_cli_relperf_failure_exit(tmp_path, capsys):
    path = tmp_path / "s.pfx"
    path.write_text(
        "ring A = QQ[t]\nring B = QQ[t,x] / (t*x)\nmap f : A -> B = (t)\n"
        "module OB on B = free(1)\npoint p0 on A = (0)\n"
    )
    code, out, _ = run_cli(
        capsys, "relperf", "OB", "over", "f", "points={(0),(1)}",
        "--input", str(path),
    )
    assert code == 1
    assert "not_relatively_perfect" in out


def test_cli_usage_error(capsys):
    code, _out, err = run_cli(capsys, "frobnicate")
    assert code == 2
    assert "unknown command" in err


def test_cli_chi_scan_blowup(tmp_path, capsys):
    path = tmp_path / "s.pfx"
    path.write_text("family X = blowup(QQ, 2)\n")
    code, out, _ = run_cli(
        capsys,
        "chi-scan", "family=X", "sheaf=O(1)",
        "points=line(y1=s,y2=0; s={0,1,2,-1,7})",
        "--format", "csv", "--input", str(path),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "point,p,dim,audit"
    assert all(line.split(",")[2] == "1" for line in lines[1:])


def test_cli_verify_axiom(tmp_path, capsys):
    path = tmp_path / "d.pfx"
    path.write_text("diagram D = regression(seed=5, index=1)\n")
    code, out, _ = run_cli(
        capsys, "verify-axiom", "A123", "diagram=D", "--input", str(path)
    )
    assert code == 0
    assert "equal_evidence" in out


def test_cli_transfer_check(tmp_path, capsys):
    path = tmp_path / "s.pfx"
    path.write_text("ring A = QQ[t]\ncomplex U on A = unit\n")
    code, out, _ = run_cli(
        capsys, "transfer-check", "ring=A", "t=(t)", "n=U", "i=0",
        "--input", str(path),
    )
    assert code == 0


# The README session plus the ring R and complex U that its
# local-cohomology and transfer-check examples name.
README_FULL_SESSION = README_SESSION + "ring R = QQ[x,y]\ncomplex U on A = unit\n"

# The README examples of the remaining commands and the bytes they print.
README_OUTPUTS = [
    (["perfect", "M", "at", "p0", "depth", "6"],
     "verdict: perfect_near_point\n"
     "witness_degree: -2\n"
     "tor1_rank: 0\n"
     "tor_amplitude: (-1, 0)\n"
     "global: True\n"
     "point: (0)\n"),
    (["tor", "M", "at", "p0", "depth", "5"],
     "point: (0)\n"
     "tor_dims: [1, 1, 0, 0, 0, 0]\n"),
    (["local-cohomology", "ring=R", "t=(x,y)", "--window=-6..0", "--format", "csv"],
     "index,degree,dim,audit\n"
     + "".join(f"{i},{d},0,pass\n" for i in (0, 1) for d in range(-6, 1))
     + "".join(f"2,{d},{max(0, -d - 1)},pass\n" for d in range(-6, 1))),
    (["verify-axiom", "A123", "diagram=D"],
     "axiom: A123\n"
     "verdict: equal_evidence\n"
     "tier: literal\n"
     "witness: None\n"
     "tables: {}\n"),
    (["transfer-check", "ring=A", "t=(t)", "n=U", "i=0"],
     "hypothesis_holds: True\n"
     "hom_cohomology_nonzero: False\n"
     "verified_stages: ["
     + ", ".join(f"{{'stage': {s}, 'vanishes': True}}" for s in range(1, 9))
     + "]\n"
     "pass: True\n"),
    (["roundtrip"],
     "roundtrip: True\n"
     "declarations: 11\n"),
]


@pytest.mark.parametrize("command, expected", README_OUTPUTS,
                         ids=[c[0] for c, _ in README_OUTPUTS])
def test_cli_readme_example_pinned_under_hash_seeds(tmp_path, command, expected):
    path = tmp_path / "s.pfx"
    path.write_text(README_FULL_SESSION)
    outputs = run_under_hash_seeds(*command, "--input", str(path))
    assert outputs[0] == outputs[1]
    assert outputs[0].decode() == expected


def test_cli_local_cohomology_module_pinned_under_hash_seeds(tmp_path):
    # no degree window and a module coefficient: the transition-map regime
    path = tmp_path / "s.pfx"
    path.write_text(README_FULL_SESSION)
    outputs = run_under_hash_seeds(
        "local-cohomology", "ring=A", "t=(t)", "n=M", "--format", "json",
        "--input", str(path),
    )
    assert outputs[0] == outputs[1]
    assert outputs[0].decode() == (
        "{\n"
        '  "stabilized_at": 1,\n'
        '  "stable": true,\n'
        '  "caveat": "stabilization is evidence for the colimit value, not a proof, '
        "unless the exact stage bound applies (plain ring, variable sequence, "
        'free graded coefficients)",\n'
        '  "audit_pass": true\n'
        "}\n"
    )
