"""CLI: parsing, round-trips, commands, exit codes and formats."""

import json
import os
import re
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

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


HP_SCAN_JSON = """{
  "p": 0,
  "generic_value": 0,
  "generic_certified": true,
  "audit_pass": true,
  "rows": [
    {
      "point": "(0)",
      "p": 0,
      "dim": 1,
      "audit": "pass"
    },
    {
      "point": "(1)",
      "p": 0,
      "dim": 0,
      "audit": "pass"
    },
    {
      "point": "(2)",
      "p": 0,
      "dim": 0,
      "audit": "pass"
    },
    {
      "point": "(-1)",
      "p": 0,
      "dim": 0,
      "audit": "pass"
    },
    {
      "point": "(7)",
      "p": 0,
      "dim": 0,
      "audit": "pass"
    }
  ]
}
"""


def test_cli_hp_scan_json_pinned_under_hash_seeds(tmp_path):
    path = tmp_path / "s.pfx"
    path.write_text(SESSION)
    outputs = run_under_hash_seeds(
        "hp-scan", "ring=A", "sheaf=M", "p=0", "points=line(t=s; s={0,1,2,-1,7})",
        "--format", "json", "--input", str(path),
    )
    assert outputs[0] == outputs[1]
    assert outputs[0].decode() == HP_SCAN_JSON


def test_cli_hp_scan_without_a_generic_point_fails(tmp_path, capsys):
    """A random probe misses the cusp x^2 = t^3, so there is no generic
    value, and the audit fails."""
    path = tmp_path / "s.pfx"
    path.write_text(SESSION + "ring C = QQ[t,x] / (x^2 - t^3)\nmodule N on C = coker [[t]]\n")
    code, out, _ = run_cli(
        capsys, "hp-scan", "ring=C", "sheaf=N", "p=0", "points={(0,0),(1,1)}",
        "--input", str(path),
    )
    assert code == 1
    assert "generic_value: None\ngeneric_certified: False\naudit_pass: False\n" in out


@pytest.mark.parametrize("command", ["hp-scan", "grauert"])
def test_cli_scan_degree_must_be_an_integer(tmp_path, capsys, command):
    path = tmp_path / "s.pfx"
    path.write_text(SESSION)
    code, out, err = run_cli(
        capsys, command, "ring=A", "sheaf=M", "p=x", "points={(0),(1)}", "--input", str(path),
    )
    assert (code, out) == (2, "")
    assert err == "perfx: usage: p=N: N must be an integer, got 'x'\n"


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


def test_cli_blowup_chi_scan_too_large_exits_2_early(tmp_path, capsys):
    """O(-4) on the blow-up of 6-space takes the Cech route to a strand of
    total rank 22436665: its ranks are counted before any monomial is
    listed, so the size error comes at once."""
    path = tmp_path / "s.pfx"
    path.write_text("family X = blowup(QQ, 6)\n")
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "chi-scan", "family=X", "sheaf=O(-4)", "points={(0,0,0,0,0,0)}",
        "--input", str(path),
    )
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err == "perfx: complex too large: total rank 22436665 exceeds cap 20000\n"


# The flagship table past n = 4: classical chi n at the origin and 1 at
# the four other points, derived chi 1 everywhere.
BLOWUP_CHI_CSV = {
    5: (
        "point,chi_classical,chi_nice\n"
        "(0;0;0;0;0),5,1\n"
        "(1;0;0;0;0),1,1\n"
        "(0;0;0;0;1),1,1\n"
        "(1;1;1;1;1),1,1\n"
        "(2;-3;4;-5;6),1,1\n"
    ),
    6: (
        "point,chi_classical,chi_nice\n"
        "(0;0;0;0;0;0),6,1\n"
        "(1;0;0;0;0;0),1,1\n"
        "(0;0;0;0;0;1),1,1\n"
        "(1;1;1;1;1;1),1,1\n"
        "(2;-3;4;-5;6;-7),1,1\n"
    ),
}


@pytest.mark.parametrize("n", [5, 6])
def test_cli_blowup_example_past_n4(capsys, n):
    """Past n = 4 the strand of the free replacement alone is the
    pushforward, so the table comes out below the rank cap."""
    code, out, err = run_cli(capsys, "example", "blowup-chi", f"n={n}", "--format", "csv")
    assert (code, err) == (0, "")
    assert out == BLOWUP_CHI_CSV[n]


OTHER_RING_POINT = """
ring A = QQ[t]
ring C = {ring}
module N on C = coker [[x - t, y^2 + 3*t*x - 1/2]]
point p0 on A = (0)
"""


@pytest.mark.parametrize("ring", ["QQ[t,x,y]", "QQ[t,x,y] / (x^3 - t*y + 2, y^2 - x*t)"])
@pytest.mark.parametrize("command", [["tor", "N", "at", "p0", "depth", "3"], ["perfect", "N", "at", "p0"]])
def test_cli_point_of_another_ring_exits_2(tmp_path, capsys, ring, command):
    """A point declared on A is refused for a module on C before anything
    is computed: one line naming both rings, exit 2."""
    path = tmp_path / "s.pfx"
    path.write_text(OTHER_RING_POINT.format(ring=ring))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *command, "--input", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("perfx: point (0) is from a different ring: QQ[t], not QQ[t,x,y]")
    assert err.count("\n") == 1 and "internal error" not in err


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
    # out-of-range options and tokens
    ["perfect", "M", "at", "p0", "--depth", "-3"],
    ["relperf", "OB", "over", "f", "points={(0),(1)}", "--depth", "-1"],
    ["tor", "M", "at", "p0", "depth", "-2"],
    ["local-cohomology", "ring=A", "t=(t)", "--max-stage", "0"],
    ["transfer-check", "ring=A", "t=(t)", "n=M", "--max-stage", "0"],
    ["local-cohomology", "ring=A", "t=(t)", "--window=-3"],
    ["local-cohomology", "ring=A", "t=(t)", "--window=a..b"],
    ["local-cohomology", "ring=A", "t=(t)", "--window=0..-3"],
    # a points= option that lists no point
    ["grauert", "map=f", "module=OB", "points={}"],
    ["hp-scan", "map=f", "sheaf=OB", "points={}"],
    ["hp-scan", "map=f", "sheaf=OB", "points=line(t=s; s={})"],
    ["chi-scan", "map=f", "sheaf=OB", "points={}"],
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


@pytest.mark.parametrize("line", [
    "ring B = QQ[t,x] / (x^2 - t*)",  # a polynomial that ends early
    "=ring B = QQ[t,x] / (x^2 - t)",  # a declaration without its kind
])
def test_cli_truncated_session_line_is_a_parse_error(tmp_path, capsys, line):
    path = tmp_path / "s.pfx"
    path.write_text(SESSION.replace("ring B = QQ[t,x] / (x^2 - t)", line))
    code, out, err = run_cli(capsys, "roundtrip", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("perfx: parse error: line 3: ") and err.count("\n") == 1
    assert "internal error" not in err


BAD_INPUT_SESSION = SESSION + """ring G = GF(5)[s]
module MG on G = free(1)
family X = blowup(QQ, 2)
module MX on X = free(1)
"""
TRUNCATED = "ring A2 = QQ[t] / (t^2)\nmodule Q2 on A2 = coker [[t]]"


@pytest.mark.parametrize("extra, tokens, message", [
    # a zero denominator, in a session line or in points=
    ("point z on A = (1/0)", ["roundtrip"], "parse error: line 14: zero denominator in '1/0'"),
    ("point z on G = (1/5)", ["roundtrip"], "parse error: line 14: denominator of '1/5' is 0"),
    ("", ["hp-scan", "map=f", "sheaf=OB", "points={(1/0)}"], "zero denominator in '1/0'"),
    ("", ["hp-scan", "ring=G", "module=MG", "points={(1/5)}"], "denominator of '1/5' is 0"),
    # a sheaf that is a module, or lives on another ring
    ("", ["hp-scan", "family=X", "sheaf=MX", "points={(0,0)}"], "needs a free complex"),
    ("", ["grauert", "family=X", "sheaf=MX", "points={(0,0)}"], "needs a free complex"),
    ("", ["chi-scan", "family=X", "sheaf=MX", "points={(0,0)}"], "needs a free complex"),
    ("", ["hp-scan", "family=X", "sheaf=K", "points={(0,0)}"],
     "input is over QQ[t], not over QQ[y1,y2,x1,x2]/(y2*x1 - y1*x2)"),
    ("", ["chi-scan", "map=f", "sheaf=M", "points={(0)}"],
     "input is over QQ[t], not over QQ[t,x]/(x^2 - t)"),
    # a diagram index before the first
    ("diagram D = regression(seed=1, index=-1)", ["roundtrip"],
     "parse error: line 14: diagram index must be 0 or more, not -1"),
    # a twist that is not an integer
    ("", ["chi-scan", "family=X", "sheaf=O(x)", "points={(0,0)}"],
     "usage: sheaf=O(n): n must be an integer, got 'O(x)'"),
    ("", ["hp-scan", "family=X", "sheaf=O(1", "points={(0,0)}"],
     "usage: sheaf=O(n): n must be an integer, got 'O(1'"),
    ("", ["grauert", "family=X", "sheaf=O()", "points={(0,0)}"],
     "usage: sheaf=O(n): n must be an integer, got 'O()'"),
    # a decimal exponent past the int-string limit
    ("point z on A = (1e999999999)", ["roundtrip"],
     "parse error: line 14: decimal exponent of '1e999999999' is past 4300"),
    # a value whose numerator would pass the int-string limit
    ("point z on A = (1e4300)", ["roundtrip"],
     "parse error: line 14: '1e4300' has a numerator or denominator of more than 4300 digits"),
    ("point z on A = (12345e4299)", ["roundtrip"],
     "parse error: line 14: '12345e4299' has a numerator or denominator of more than 4300"),
    # a negative rank
    ("module Y on A = free(-1)", ["roundtrip"],
     "parse error: line 14: rank must be at least 0, got -1"),
    ("complex C on A = free(-2)", ["perfect", "C", "at", "p0"],
     "parse error: line 14: rank at degree 0 must be at least 0, got -2"),
    # an integer field that is not an integer
    ("module Y on A = free(abc)", ["roundtrip"],
     "parse error: line 14: free(n): n must be an integer, got 'abc'"),
    ("complex C on A = free(abc)", ["roundtrip"],
     "parse error: line 14: free(n): n must be an integer, got 'abc'"),
    ("ring H = GF(x)[s]", ["roundtrip"],
     "parse error: line 14: GF(p): p must be an integer, got 'x'"),
    ("family Z = blowup(QQ, x)", ["roundtrip"],
     "parse error: line 14: blowup(FIELD, n): n must be an integer, got 'x'"),
    ("diagram D = regression(seed=x, index=1)", ["roundtrip"],
     "parse error: line 14: regression(seed=N, index=K): N must be an integer, got 'x'"),
    ("diagram D = regression(seed=1, index=y)", ["roundtrip"],
     "parse error: line 14: regression(seed=N, index=K): K must be an integer, got 'y'"),
    ("complex C on A = matrix [[t]] at y", ["roundtrip"],
     "parse error: line 14: matrix [[..]] at N: N must be an integer, got 'y'"),
    ("", ["transfer-check", "ring=A", "t=(t)", "n=M", "i=abc"],
     "usage: i=N: N must be an integer, got 'abc'"),
    # regression(...) takes seed= and index=, each at most once
    ("diagram D = regression(seed=1=2, index=1)", ["roundtrip"],
     "parse error: line 14: regression(seed=N, index=K): N must be an integer, got '1=2'"),
    ("diagram D = regression(sed=3, index=1)", ["roundtrip"],
     "parse error: line 14: regression(seed=N, index=K): unknown argument 'sed=3'"),
    ("diagram D = regression(junk, index=1)", ["roundtrip"],
     "parse error: line 14: regression(seed=N, index=K): unknown argument 'junk'"),
    ("diagram D = regression(seed=1, seed=2)", ["roundtrip"],
     "parse error: line 14: regression(seed=N, index=K): seed= given twice"),
    # a name declared as another kind
    ("", ["tor", "K", "at", "p0"], "'K' is a complex, not a module"),
    ("", ["perfect", "p0", "at", "p0"], "'p0' is a point, not a module or complex"),
    # an axiom the battery does not run
    ("diagram D = regression(seed=1, index=0)", ["verify-axiom", "A3", "diagram=D"],
     "usage: verify-axiom AXIOM diagram=D: AXIOM is one of A1, A2, A12, A123, got 'A3'"),
    # reduced= other than yes or no
    ("", ["grauert", "map=f", "sheaf=OB", "points={(0)}", "reduced=maybe"],
     "usage: reduced=yes|no, got 'maybe'"),
    # a twist in a complex declaration that is not an integer
    ("complex KX on X = O(x)", ["roundtrip"],
     "parse error: line 14: O(n): n must be an integer, got 'x'"),
    # a line whose parameter binds no coordinate, or that names no variable
    ("", ["hp-scan", "ring=A", "sheaf=M", "points=line(; s={1})"],
     "points=line(..): the parameter 's' binds no coordinate"),
    ("", ["hp-scan", "ring=A", "sheaf=M", "points=line(q=s; s={1})"],
     "points=line(..): q= names no variable of QQ[t]"),
    # h^p below the floor of a truncated pushforward (here free_resolution(Q2, 8))
    (TRUNCATED, ["hp-scan", "ring=A2", "sheaf=Q2", "p=-9", "points={(0)}"],
     "homology at -9 not determined: below the homology floor -7 of a truncated complex"),
    (TRUNCATED, ["grauert", "ring=A2", "sheaf=Q2", "p=-8", "points={(0)}"],
     "homology at -8 not determined: below the homology floor -7 of a truncated complex"),
    # a projective family without fiber variables
    ("family Y = proj(A; )", ["chi-scan", "family=Y", "points={(0)}"],
     "parse error: line 14: a projective family needs at least one fiber variable"),
], ids=[
    "session-1/0", "session-1/5-GF5", "points-1/0", "points-1/5-GF5", "hp-scan-module",
    "grauert-module", "chi-scan-module", "hp-scan-base-complex", "chi-scan-source-module",
    "diagram-index--1", "chi-scan-O(x)", "hp-scan-O(1", "grauert-O()", "session-1e999999999",
    "session-1e4300", "session-12345e4299", "module-free(-1)", "complex-free(-2)",
    "module-free(abc)", "complex-free(abc)", "GF(x)", "blowup(QQ,x)", "regression-seed=x",
    "regression-index=y", "matrix-at-y", "transfer-check-i=abc", "regression-seed=1=2",
    "regression-sed=3", "regression-junk", "regression-seed-twice", "tor-of-a-complex",
    "perfect-of-a-point", "verify-axiom-A3", "grauert-reduced=maybe", "complex-O(x)",
    "line-binds-nothing", "line-binds-no-variable", "hp-scan-below-floor",
    "grauert-below-floor", "proj-without-fiber-variables",
])
def test_cli_bad_input_is_one_error_line(tmp_path, capsys, extra, tokens, message):
    """A zero denominator, a sheaf on the wrong ring, a twist or another
    integer field that is not an integer, a negative rank, an outsized
    exponent or a family without fiber variables: exit 2 with one
    `perfx:` line, never an internal error."""
    path = tmp_path / "s.pfx"
    path.write_text(BAD_INPUT_SESSION + extra)
    code, out, err = run_cli(capsys, *tokens, "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("perfx: ") and message in err and err.count("\n") == 1
    assert "internal error" not in err and "Traceback" not in err


# Session edits: 1-4 inserts, deletes or replacements of characters or of
# tokens (words, numbers, runs of blanks, single symbols), drawing new
# units from the session's own characters and tokens.
SESSION_UNITS = {"char": list(SESSION), "token": re.findall(r"\w+|\s+|.", SESSION)}
SESSION_POOL = sorted(set(SESSION_UNITS["char"]) | set(SESSION_UNITS["token"]))


@st.composite
def edited_sessions(draw):
    units = list(SESSION_UNITS[draw(st.sampled_from(sorted(SESSION_UNITS)))])
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        i = draw(st.integers(0, len(units) - (op != "insert")))
        if op != "insert":
            del units[i]
        if op != "delete":
            units.insert(i, draw(st.sampled_from(SESSION_POOL)))
    return "".join(units)


@settings(max_examples=300, deadline=timedelta(seconds=10),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edited_sessions())
def test_cli_edited_sessions_keep_the_exit_code_contract(tmp_path, capsys, text):
    """Whatever the input, exit 0, 1 or 2; a usage or parse error (2)
    prints nothing on stdout, and nothing ends in a traceback or reads
    as an internal error."""
    path = tmp_path / "s.pfx"
    path.write_text(text)
    for command in (["roundtrip"], ["tor", "M", "at", "p0"]):
        code, out, err = run_cli(capsys, *command, "--input", str(path))
        assert code in (0, 1, 2)
        assert code != 2 or out == ""
        assert "Traceback" not in err and "internal error" not in err


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
  "pass": true,
  "rows": [
    {
      "point": "(0;0;0)",
      "chi_classical": 3,
      "chi_nice": 1
    },
    {
      "point": "(1;0;0)",
      "chi_classical": 1,
      "chi_nice": 1
    },
    {
      "point": "(0;0;1)",
      "chi_classical": 1,
      "chi_nice": 1
    },
    {
      "point": "(1;1;1)",
      "chi_classical": 1,
      "chi_nice": 1
    },
    {
      "point": "(2;-3;4)",
      "chi_classical": 1,
      "chi_nice": 1
    }
  ]
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


def test_cli_local_cohomology_of_the_zero_module(tmp_path, capsys):
    """free(0) is the empty complex: indices 0..r-1, every dim 0."""
    path = tmp_path / "s.pfx"
    path.write_text("ring R = QQ[x,y]\nmodule Z on R = free(0)\n")
    code, out, _ = run_cli(
        capsys,
        "local-cohomology", "ring=R", "t=(x,y)", "n=Z", "--window=-1..0",
        "--format", "csv", "--input", str(path),
    )
    assert code == 0
    assert out.strip().splitlines()[1:] == [
        f"{i},{d},0,pass" for i in (0, 1) for d in (-1, 0)
    ]


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


PUSHFORWARD_SESSION = """
ring A = QQ[t]
ring B = QQ[t,u] / (u^2 - t)
map f : A -> B = (t)
module M on B = coker [[u, u]]
ring A2 = QQ[t] / (t^2)
ring B2 = QQ[t,u] / (t^2, u^2 - t)
map g : A2 -> B2 = (t)
module Q on B2 = coker [[u]]
ring C = QQ[t,u] / (u^2)
map h : A -> C = (t)
module P on C = coker [[u]]
"""


@pytest.mark.parametrize("command, code, lines", [
    (["chi-scan", "map=f", "sheaf=M", "points={(0),(1)}"], 0,
     ["values: [0, 0]", "(0),chi,0,constant", "(1),chi,0,constant"]),
    (["hp-scan", "map=f", "sheaf=M", "p=-1", "points={(0),(1)}"], 0,
     ["generic_value: 0", "(0),-1,1,pass", "(1),-1,0,pass"]),
    (["relperf", "Q", "over", "g", "points={(0)}"], 1,
     ["verdict: not_relatively_perfect_within_depth", "witness_points: ['(0)']"]),
    (["relperf", "P", "over", "h", "points={(0)}"], 0,
     ["verdict: relatively_perfect", "global: True"]),
], ids=["chi-scan", "hp-scan", "relperf-Q-over-g", "relperf-P-over-h"])
def test_cli_affine_pushforward_restricts_presented_modules(tmp_path, capsys, command, code,
                                                           lines):
    """M = B/(u) pushes forward to A/(t); Q is A2/(t) over A2, which is not
    perfect; P is A itself over A.  The relations of M and of Q are not
    injective, so neither module is its two-term relation complex."""
    path = tmp_path / "s.pfx"
    path.write_text(PUSHFORWARD_SESSION)
    got, out, _err = run_cli(capsys, *command, "--input", str(path))
    assert got == code
    assert all(line in out.splitlines() for line in lines), out


DECLARATION_FORMS_SESSION = """
ring A = QQ[t]
ring B = QQ[s]
point p0 on A = (0)
point p1 on A = (1)
"""


@pytest.mark.parametrize("line, command, expected", [
    ("family P = proj(B; x0, x1; s*x0 - x1)",
     ["chi-scan", "family=P", "sheaf=O(1)", "points={(0),(1)}"], "values: [1, 1]"),
    ("module R on A = residue_field(1)", ["tor", "R", "at", "p1", "depth", "2"],
     "tor_dims: [1, 1, 0]"),
    ("ring L = QQ[t,u] lex\nmodule N on L = coker [[t, u^2]]\npoint q on L = (0,0)",
     ["tor", "N", "at", "q", "depth", "2"], "tor_dims: [1, 2, 1]"),
    ("complex C on A = matrix [[t]] at 2",
     ["hp-scan", "ring=A", "sheaf=C", "p=3", "points={(0),(1)}"], "(0),3,1,pass\n(1),3,0,pass"),
], ids=["proj-with-relations", "residue_field(1)", "lex-ring", "matrix-at-2"])
def test_cli_declaration_forms_roundtrip_and_run(tmp_path, capsys, line, command, expected):
    path = tmp_path / "s.pfx"
    path.write_text(DECLARATION_FORMS_SESSION + line + "\n")
    code, out, _err = run_cli(capsys, "roundtrip", "--input", str(path))
    assert (code, out) == (0, "roundtrip: True\ndeclarations: " + str(5 + line.count("\n")) + "\n")
    code, out, _err = run_cli(capsys, *command, "--input", str(path))
    assert code == 0 and expected in out


def test_cli_line_parameter_is_taken_as_written(tmp_path, capsys):
    """A parameter name that contains "in" binds as it is written."""
    path = tmp_path / "s.pfx"
    path.write_text(SESSION)
    code, out, _err = run_cli(capsys, "hp-scan", "ring=A", "sheaf=M",
                              "points=line(t=pin; pin={0,1})", "--input", str(path))
    assert code == 0 and "(0),0,1,pass\n(1),0,0,pass" in out


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


def test_cli_diagram_builds_only_its_index(tmp_path, capsys, monkeypatch):
    """`regression(seed, index)` builds that one diagram (one square) each
    time roundtrip parses it: the session and its printed text."""
    import perfx.ktheory

    built = []

    class CountingSquare(perfx.ktheory.IndependentSquare):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(perfx.ktheory, "IndependentSquare", CountingSquare)
    path = tmp_path / "d.pfx"
    path.write_text("diagram D = regression(seed=0, index=40)\n")
    code, out, _ = run_cli(capsys, "roundtrip", "--input", str(path))
    assert (code, out) == (0, "roundtrip: True\ndeclarations: 1\n")
    assert len(built) == 2


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


_A12_DIMS = "{0: 1, 1: 3, 2: 3, 3: 1}"
_A12_DIMS_JSON = '{\n        "0": 1,\n        "1": 3,\n        "2": 3,\n        "3": 1\n      }'
_A12_EMPTY_ROW_JSON = (
    '{\n      "chi": [\n        0,\n        0\n      ],\n'
    '      "dims_left": {},\n      "dims_right": {}\n    }'
)

# A pointwise verify-axiom report: its fiber-dim table has three rows.
POINTWISE_AXIOM_OUTPUTS = [
    ("text",
     "axiom: A12\n"
     "verdict: equal_evidence\n"
     "tier: pointwise\n"
     "witness: None\n"
     f"tables: {{'(14, 4)': {{'chi': (0, 0), 'dims_left': {_A12_DIMS}, "
     f"'dims_right': {_A12_DIMS}}}, "
     "'(254, 16)': {'chi': (0, 0), 'dims_left': {}, 'dims_right': {}}, "
     "'(79, 9)': {'chi': (0, 0), 'dims_left': {}, 'dims_right': {}}}\n"),
    ("json",
     "{\n"
     '  "axiom": "A12",\n'
     '  "verdict": "equal_evidence",\n'
     '  "tier": "pointwise",\n'
     '  "witness": "None",\n'
     '  "tables": {\n'
     '    "(14, 4)": {\n'
     '      "chi": [\n        0,\n        0\n      ],\n'
     f'      "dims_left": {_A12_DIMS_JSON},\n'
     f'      "dims_right": {_A12_DIMS_JSON}\n'
     "    },\n"
     f'    "(254, 16)": {_A12_EMPTY_ROW_JSON},\n'
     f'    "(79, 9)": {_A12_EMPTY_ROW_JSON}\n'
     "  }\n"
     "}\n"),
]


@pytest.mark.parametrize("fmt, expected", POINTWISE_AXIOM_OUTPUTS,
                         ids=[f for f, _ in POINTWISE_AXIOM_OUTPUTS])
def test_cli_pointwise_verify_axiom_pinned_under_hash_seeds(tmp_path, fmt, expected):
    path = tmp_path / "d.pfx"
    path.write_text("diagram D = regression(seed=1, index=0)\n")
    outputs = run_under_hash_seeds(
        "verify-axiom", "A12", "diagram=D", "--format", fmt, "--input", str(path)
    )
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


@pytest.mark.parametrize("command", [
    ["chi-scan", "family=X", "sheaf=O(1)", "points=line(y1=s,y2=0; s={0,1,2,-1,7})"],
    ["hp-scan", "ring=A", "sheaf=M", "p=0", "points=line(t=s; s={0,1,2,-1,7})"],
    ["local-cohomology", "ring=R", "t=(x,y)", "--window=-2..0"],
], ids=["chi-scan", "hp-scan", "local-cohomology"])
def test_cli_json_rows_mirror_the_csv_rows(tmp_path, capsys, command):
    path = tmp_path / "s.pfx"
    path.write_text(README_FULL_SESSION)
    _, csv_out, _ = run_cli(capsys, *command, "--format", "csv", "--input", str(path))
    _, json_out, _ = run_cli(capsys, *command, "--format", "json", "--input", str(path))
    header, *lines = csv_out.strip().splitlines()
    rows = json.loads(json_out)["rows"]
    assert all(list(row) == header.split(",") for row in rows)
    assert [",".join(str(v) for v in row.values()) for row in rows] == lines


# -- the packed-term cap: a large exponent works, one past the cap exits 2 ----

CAP_SESSION = """
ring R = QQ[x]
module M on R = coker [[{power}]]
point p on R = (0)
"""


def test_cli_tor_of_a_large_power(tmp_path, capsys):
    """x^100000 fits the packed fields; the output is the one perfx gave
    before terms were packed."""
    path = tmp_path / "s.pfx"
    path.write_text(CAP_SESSION.format(power="x^100000"))
    code, out, err = run_cli(capsys, "tor", "M", "at", "p", "depth", "3", "--input", str(path))
    assert (code, out, err) == (0, "point: (0)\ntor_dims: [1, 1, 0, 0]\n", "")


def test_cli_exponent_past_the_cap_exits_2(tmp_path, capsys):
    """(x^1024)^1025 = x^1049600 is past the cap 2^20 - 1: one message
    line naming the cap, exit 2, no traceback."""
    path = tmp_path / "s.pfx"
    path.write_text(CAP_SESSION.format(power="(x^1024)^1025"))
    code, out, err = run_cli(capsys, "tor", "M", "at", "p", "depth", "3", "--input", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "exceeds the packed-term cap 1048575" in err


def test_cli_product_past_the_cap_exits_2(tmp_path, capsys):
    """x^600000 * x^600000 leaves the cap where the product is built."""
    path = tmp_path / "s.pfx"
    path.write_text(CAP_SESSION.format(power="x^600000 * x^600000"))
    code, out, err = run_cli(capsys, "tor", "M", "at", "p", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "degree 1200000 of monomial (1200000,) exceeds the packed-term cap 1048575" in err


def test_cli_roundtrip_past_the_cap_exits_2(tmp_path, capsys):
    """Building (x^1024)^1025 squares x^524288, and that product x^1048576
    is past the cap: the session fails to parse, exit 2, one line."""
    path = tmp_path / "s.pfx"
    path.write_text(CAP_SESSION.format(power="(x^1024)^1025"))
    code, out, err = run_cli(capsys, "roundtrip", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == (
        "perfx: parse error: line 3: malformed polynomial: "
        "degree 1048576 of monomial (1048576,) exceeds the packed-term cap 1048575\n"
    )


# Command tokens for the README session: names, numbers in every literal
# form the fields read, and malformed values.  Each field is well formed
# four times in five, so most commands get past parsing.  Sizes are
# bounded so that one example runs in well under a second: blow-up
# n <= 3, twists and window ends within 8, --depth and `depth N` <= 8,
# --max-stage <= 4.
def mostly(valid, other):
    """valid four times in five, else other."""
    return st.integers(0, 4).flatmap(lambda k: other if k == 0 else valid)


ANY_NAME = st.one_of(
    st.sampled_from(["A", "B", "f", "M", "OB", "K", "X", "p0", "D", "R", "U", "Z", ""]),
    st.text("ABDKMORUXZfp0_,=", min_size=1, max_size=3),
)


def name(*valid):
    return mostly(st.sampled_from(valid), ANY_NAME)


NUMBER = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.tuples(st.integers(-99, 99), st.integers(-9, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.tuples(st.integers(-99, 99), st.integers(0, 99), st.integers(-400, 400)).map(
        lambda t: f"{t[0]}.{t[1]}e{t[2]}"),
    st.sampled_from(["", "x", "1/", "/2", "1//2", "--1", "1e", "0x10", "1_000", "nan",
                     "inf", "1e99999", "(0)", "1,2", " 3 "]),
)
COORD = mostly(st.integers(-3, 3).map(str), NUMBER)
SMALL = mostly(st.integers(0, 8).map(str),
               st.one_of(st.integers(-2, -1).map(str), st.sampled_from(["", "x", "1.5", "1/2"])))


def points(arity):
    coords = st.lists(COORD, min_size=arity, max_size=arity).map(lambda cs: "(" + ",".join(cs) + ")")
    well_formed = st.lists(coords, min_size=1, max_size=3).map(lambda ps: "{" + ",".join(ps) + "}")
    line = "line(t=s; s={{{}}})" if arity == 1 else "line(y1=s,y2=0; s={{{}}})"
    return mostly(st.one_of(well_formed, st.lists(COORD, min_size=1, max_size=3).map(
        lambda vs: line.format(",".join(vs)))), st.one_of(
        st.lists(st.lists(COORD, max_size=3).map(lambda cs: "(" + ",".join(cs) + ")"),
                 max_size=3).map(lambda ps: "{" + ",".join(ps) + "}"),
        st.sampled_from(["", "{", "{(0)", "(0)", "{(0),}", "line(", "line(; s={1})",
                         "line(t=s; s=)", "line(t=s)", "line(u=s; s={1})", "{()}"])))


ELEMENTS = mostly(
    st.lists(st.sampled_from(["t", "x", "y", "x^2", "y^3", "t^2", "x*y"]), min_size=1,
             max_size=3).map(lambda es: "(" + ",".join(es) + ")"),
    st.one_of(st.lists(st.sampled_from(["1", "0", "1/2", "z", "x^", "(x)", ""]), max_size=2).map(
        lambda es: "(" + ",".join(es) + ")"), st.sampled_from(["", "(", ")", "((x)", "x,y"])),
)
WINDOW = mostly(
    st.tuples(st.integers(-8, 0), st.integers(0, 8)).map(lambda t: f"{t[0]}..{t[1]}"),
    st.one_of(st.tuples(st.integers(-8, 8), st.integers(-8, 8)).map(lambda t: f"{t[0]}..{t[1]}"),
              st.sampled_from(["", "..", "1..", "..1", "a..b", "1...2", "1.5..2", "0"])),
)
TWIST = mostly(st.integers(-3, 3).map(lambda n: f"O({n})"),
               st.sampled_from(["O(", "O()", "O(x)", "O(1/2)", "O(1)(2)", "M"]))
# a carrier with its sheaf and the arity of its base points
SCANS = st.one_of(
    st.tuples(st.just("family=X"), TWIST, st.just(2)),
    st.tuples(st.just("map=f"), name("OB"), st.just(1)),
    st.tuples(st.just("ring=A"), name("M", "K", "U"), st.just(1)),
    st.tuples(st.sampled_from(["family", "map", "ring", "fam"]).flatmap(
        lambda key: ANY_NAME.map(lambda n: f"{key}={n}")), ANY_NAME, st.integers(0, 2)),
)


def scan(d, command):
    carrier, sheaf, arity = d(SCANS)
    tokens = [command, carrier, "sheaf=" + sheaf, "points=" + d(points(arity))]
    if command != "chi-scan":
        tokens.append("p=" + d(mostly(st.integers(-3, 3).map(str), NUMBER)))
    if command == "grauert":
        tokens.append("reduced=" + d(mostly(st.sampled_from(["yes", "no"]),
                                            st.sampled_from(["maybe", ""]))))
    return tokens


# local cohomology over R of the unit complex, or over A of a module or complex
COHOMOLOGY = st.one_of(
    st.tuples(st.just("ring=R"), ELEMENTS, st.just([])),
    st.tuples(name("A"), mostly(st.just("(t)"), ELEMENTS),
              name("U", "K", "M").map(lambda n: [f"n={n}"])),
)


def cohomology(d):
    ring, elements, target = d(COHOMOLOGY)
    if not ring.startswith("ring="):
        ring = "ring=" + ring
    return ["local-cohomology", ring, "t=" + elements, *target, "--window=" + d(WINDOW)]


COMMAND_TOKENS = {
    "perfect": lambda d: ["perfect", d(name("M", "K", "U")), "at", d(name("p0")),
                          "depth", d(SMALL)],
    "tor": lambda d: ["tor", d(name("M")), "at", d(name("p0")), "depth", d(SMALL)],
    "hp-scan": lambda d: scan(d, "hp-scan"),
    "chi-scan": lambda d: scan(d, "chi-scan"),
    "grauert": lambda d: scan(d, "grauert"),
    "local-cohomology": cohomology,
    "relperf": lambda d: ["relperf", d(name("OB")), "over", d(name("f")),
                          "points=" + d(points(1)),
                          "mode=" + d(st.sampled_from(["auto", "finite", "pointwise", "x"]))],
    "verify-axiom": lambda d: ["verify-axiom", d(st.sampled_from(["A1", "a2", "A12", "A123",
                                                                  "A3", ""])),
                               "diagram=" + d(name("D"))],
    "transfer-check": lambda d: ["transfer-check", "ring=" + d(name("A")),
                                 "t=" + d(mostly(st.just("(t)"), ELEMENTS)),
                                 "n=" + d(name("U", "M", "K")), "i=" + d(SMALL)],
    "example": lambda d: ["example", "blowup-chi", "n=" + d(mostly(
        st.integers(1, 3).map(str), st.sampled_from(["", "x", "0", "-1", "1.0", "2/1"])))],
    "roundtrip": lambda d: ["roundtrip"],
}
OPTIONS = {
    "--depth": SMALL,
    "--max-stage": mostly(st.integers(1, 4).map(str), st.sampled_from(["0", "-1", "x"])),
    "--format": mostly(st.sampled_from(["text", "csv", "json"]), st.just("xml")),
    "--seed": mostly(st.integers(0, 10**6).map(str), NUMBER),
}


@st.composite
def command_lines(draw):
    tokens = COMMAND_TOKENS[draw(st.sampled_from(sorted(COMMAND_TOKENS)))](draw)
    if draw(st.integers(0, 9)) == 0:
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    for option in draw(st.lists(st.sampled_from(sorted(OPTIONS)), max_size=3, unique=True)):
        tokens.append(f"{option}={draw(OPTIONS[option])}")
    return tokens


@settings(max_examples=1500, deadline=timedelta(seconds=10),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command_lines())
def test_cli_command_tokens_keep_the_exit_code_contract(tmp_path, capsys, tokens):
    """Any command tokens on the README session exit 0, 1 or 2, and none
    ends in a traceback or reads as an internal error.  The size bounds
    above leave out the hangs that no cap stops yet: `example blowup-chi`
    from n=8 on (CHANGES.md FOUND line 38) and a lex `syzygy_basis` over
    QQ that does not end (FOUND line 43)."""
    path = tmp_path / "s.pfx"
    path.write_text(README_FULL_SESSION)
    code, out, err = run_cli(capsys, *tokens, "--input", str(path))
    event(f"exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "internal error" not in err
