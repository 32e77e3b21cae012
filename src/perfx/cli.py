"""Command-line front end.

Declarations are line-oriented (`ring|module|complex|map|family|point|
diagram NAME = EXPR`) and live in a session file passed with --input;
the command itself names declared objects.  Reports print as text, scan
tables as CSV with header point,p,dim,audit; --format json mirrors the
same fields.  Exit codes: 0 all verdicts/audits pass, 1 a verdict
failed, 2 usage or parse errors, or an internal error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .complexes import FreeComplex, koszul, unit_complex
from .derived import (
    boundedness_transfer_check,
    is_perfect_at,
    is_relatively_perfect,
    local_cohomology,
    tor_profile,
)
from .fields import GF, QQ
from .geometry import (
    ProjectiveFamily,
    blowup_family,
    chi,
    classical_chi,
    grauert_check,
    hp_scan,
    push,
    pushforward_projective,
)
from .ktheory import AXIOMS, dims_tables, regression_entry, run_axiom_battery
from .maps import RingMap
from .modules import ModulePresentation
from .rings import Mat, PolyRing, RationalPoint
from .orders import LEX


class ParseError(Exception):
    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


_STORES = {
    "ring": "rings",
    "module": "modules",
    "complex": "complexes",
    "map": "maps",
    "family": "families",
    "point": "points",
    "diagram": "diagrams",
}


class Session:
    """Named declarations; references resolve at parse time."""

    def __init__(self):
        for store in _STORES.values():
            setattr(self, store, {})
        self.order = []  # (kind, name) in declaration order
        self.sources = {}  # (kind, name) -> original declaration line

    def declare(self, kind, name, value, source=None):
        if any(name in getattr(self, store) for store in _STORES.values()):
            raise ParseError(f"duplicate name {name!r}")
        getattr(self, _STORES[kind])[name] = value
        self.order.append((kind, name))
        if source is not None:
            self.sources[(kind, name)] = source

    def lookup(self, name, kinds=None):
        for kind in kinds or _STORES:
            if name in getattr(self, _STORES[kind]):
                return kind, getattr(self, _STORES[kind])[name]
        for kind, store in _STORES.items():
            if name in getattr(self, store):
                raise ParseError(f"{name!r} is a {kind}, not a {' or '.join(kinds)}")
        raise ParseError(f"unknown identifier {name!r}")

    def ring_of(self, name):
        kind, value = self.lookup(name)
        if kind == "ring":
            return value
        if kind == "family":
            return value.total
        raise ParseError(f"{name!r} is not a ring or family")


def _int(text, usage, name):
    """text as an int, or a ParseError naming the field `name` of `usage`."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{usage}: {name} must be an integer, got {text!r}") from None


def _parse_field(token):
    token = token.strip()
    if token == "QQ":
        return QQ
    if token.startswith("GF(") and token.endswith(")"):
        return GF(_int(token[3:-1], "GF(p)", "p"))
    raise ParseError(f"unknown field {token!r} (use QQ or GF(p))")


def _split_top(text):
    """Split on commas at parenthesis/bracket depth zero."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


def _parse_ring(session, rhs, line_no):
    order = None
    body = rhs.strip()
    if body.endswith(" lex"):
        order = LEX
        body = body[: -len(" lex")].strip()
    quotient = []
    if "/" in body:
        main, _, quot = body.partition("/")
        quot = quot.strip()
        if not (quot.startswith("(") and quot.endswith(")")):
            raise ParseError("quotient must be parenthesized", line_no)
        quotient = _split_top(quot[1:-1])
        body = main.strip()
    if "[" not in body or not body.endswith("]"):
        raise ParseError(f"malformed ring {rhs!r}", line_no)
    field_part, _, var_part = body.partition("[")
    field = _parse_field(field_part)
    variables = [v.strip() for v in var_part[:-1].split(",") if v.strip()]
    kwargs = {}
    if order is not None:
        kwargs["order"] = order
    try:
        return PolyRing(field, variables, quotient=[q for q in quotient if q], **kwargs)
    except ValueError as exc:
        raise ParseError(str(exc), line_no)


def _parse_matrix(ring, text, line_no):
    text = text.strip()
    if not (text.startswith("[[") and text.endswith("]]")):
        raise ParseError("matrix literal must look like [[a, b], [c, d]]", line_no)
    rows = []
    for row_text in _split_top(text[1:-1].strip()):
        row_text = row_text.strip()
        if not (row_text.startswith("[") and row_text.endswith("]")):
            raise ParseError(f"malformed matrix row {row_text!r}", line_no)
        entries = _split_top(row_text[1:-1])
        try:
            rows.append([ring.parse(e) if e else ring.zero for e in entries])
        except ValueError as exc:
            raise ParseError(f"malformed polynomial: {exc}", line_no)
    width = {len(r) for r in rows}
    if len(width) > 1:
        raise ParseError("ragged matrix", line_no)
    return Mat(ring, rows, ncols=width.pop() if rows else 0)


def _parse_module(session, rhs, line_no, ring):
    rhs = rhs.strip()
    if rhs.startswith("coker"):
        mat = _parse_matrix(ring, rhs[len("coker"):].strip(), line_no)
        return ModulePresentation(ring, mat.nrows, mat)
    if rhs.startswith("free(") and rhs.endswith(")"):
        return ModulePresentation.free(ring, _int(rhs[5:-1], "free(n)", "n"))
    if rhs == "residue_field" or rhs.startswith("residue_field("):
        if rhs == "residue_field":
            return ModulePresentation.residue_field(ring)
        coords = [ring.field.parse(c) for c in _split_top(rhs[len("residue_field("):-1])]
        return ModulePresentation.residue_field(ring, RationalPoint(ring, coords))
    raise ParseError(f"unknown module expression {rhs!r}", line_no)


def _parse_complex(session, rhs, line_no, carrier, carrier_name):
    rhs = rhs.strip()
    if isinstance(carrier, ProjectiveFamily):
        ring = carrier.total
        if rhs.startswith("O(") and rhs.endswith(")"):
            return carrier.twist(_int(rhs[2:-1], "O(n)", "n"))
    else:
        ring = carrier
    if rhs.startswith("koszul(") and rhs.endswith(")"):
        elements = _split_top(rhs[len("koszul("):-1])
        try:
            return koszul(ring, elements)
        except ValueError as exc:
            raise ParseError(str(exc), line_no)
    if rhs.startswith("free(") and rhs.endswith(")"):
        return FreeComplex.single(ring, _int(rhs[5:-1], "free(n)", "n"), at=0)
    if rhs == "unit":
        return unit_complex(ring)
    if rhs.startswith("matrix"):
        rest = rhs[len("matrix"):].strip()
        at = 0
        if " at " in rest:
            rest, _, at_txt = rest.rpartition(" at ")
            at = _int(at_txt, "matrix [[..]] at N", "N")
        mat = _parse_matrix(ring, rest.strip(), line_no)
        return FreeComplex.from_matrix(ring, mat, at=at)
    raise ParseError(f"unknown complex expression {rhs!r}", line_no)


def _parse_family(session, rhs, line_no):
    rhs = rhs.strip()
    if rhs.startswith("blowup(") and rhs.endswith(")"):
        args = _split_top(rhs[len("blowup("):-1])
        if len(args) != 2:
            raise ParseError("blowup(FIELD, n)", line_no)
        return blowup_family(_parse_field(args[0]), _int(args[1], "blowup(FIELD, n)", "n"))
    if rhs.startswith("proj(") and rhs.endswith(")"):
        sections = rhs[len("proj("):-1].split(";")
        if len(sections) not in (2, 3):
            raise ParseError("proj(BASE; x0, x1[; relations])", line_no)
        base_name = sections[0].strip()
        _, base = session.lookup(base_name, ("ring",))
        fiber_vars = [v.strip() for v in sections[1].split(",") if v.strip()]
        rels = []
        if len(sections) == 3:
            rels = [r.strip() for r in _split_top(sections[2]) if r.strip()]
        return ProjectiveFamily(base, fiber_vars, rels)
    raise ParseError(f"unknown family expression {rhs!r}", line_no)


def parse_session(text):
    """Parse declarations; first error wins, with its line number."""
    session = Session()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rhs = line.partition("=")
        head = head.strip()
        rhs = rhs.strip()
        if not rhs:
            raise ParseError("missing right-hand side", line_no)
        fields = head.split()
        if not fields:
            raise ParseError("missing declaration kind", line_no)
        kind = fields[0]
        try:
            if kind == "ring":
                if len(fields) != 2:
                    raise ParseError("ring NAME = FIELD[vars]", line_no)
                session.declare("ring", fields[1], _parse_ring(session, rhs, line_no))
            elif kind == "module":
                if len(fields) != 4 or fields[2] != "on":
                    raise ParseError("module NAME on RING = coker [[..]]", line_no)
                ring = session.ring_of(fields[3])
                session.declare("module", fields[1], _parse_module(session, rhs, line_no, ring))
            elif kind == "complex":
                if len(fields) != 4 or fields[2] != "on":
                    raise ParseError("complex NAME on RING = koszul(..)", line_no)
                _, carrier = session.lookup(fields[3], ("ring", "family"))
                session.declare(
                    "complex", fields[1],
                    _parse_complex(session, rhs, line_no, carrier, fields[3]),
                    source=line,
                )
            elif kind == "map":
                # map NAME : A -> B = (images)
                if ":" not in head or "->" not in head:
                    raise ParseError("map NAME : A -> B = (images)", line_no)
                name = fields[1].rstrip(":")
                signature = head.split(":", 1)[1]
                src_name, _, tgt_name = signature.partition("->")
                src = session.ring_of(src_name.strip())
                tgt = session.ring_of(tgt_name.strip())
                if not (rhs.startswith("(") and rhs.endswith(")")):
                    raise ParseError("map images must be parenthesized", line_no)
                images = _split_top(rhs[1:-1])
                session.declare("map", name, RingMap(src, tgt, images))
            elif kind == "family":
                if len(fields) != 2:
                    raise ParseError("family NAME = blowup(FIELD, n)", line_no)
                session.declare(
                    "family", fields[1], _parse_family(session, rhs, line_no),
                    source=line,
                )
            elif kind == "point":
                if len(fields) != 4 or fields[2] != "on":
                    raise ParseError("point NAME on RING = (coords)", line_no)
                kind2, carrier = session.lookup(fields[3], ("ring", "family"))
                ring = carrier.base if kind2 == "family" else carrier
                if not (rhs.startswith("(") and rhs.endswith(")")):
                    raise ParseError("point coordinates must be parenthesized", line_no)
                coords = [ring.field.parse(c) for c in _split_top(rhs[1:-1]) if c]
                try:
                    session.declare("point", fields[1], RationalPoint(ring, coords))
                except ValueError as exc:
                    raise ParseError(str(exc), line_no)
            elif kind == "diagram":
                usage = "regression(seed=N, index=K)"
                if len(fields) != 2:
                    raise ParseError(f"diagram NAME = {usage}", line_no)
                if not (rhs.startswith("regression(") and rhs.endswith(")")):
                    raise ParseError(f"unknown diagram expression {rhs!r}", line_no)
                kv = {}
                for item in _split_top(rhs[len("regression("):-1]):
                    key, eq, value = item.partition("=")
                    key = key.strip()
                    if not eq or key not in ("seed", "index"):
                        raise ParseError(f"{usage}: unknown argument {item!r}", line_no)
                    if key in kv:
                        raise ParseError(f"{usage}: {key}= given twice", line_no)
                    kv[key] = value.strip()
                seed = _int(kv.get("seed", "0"), usage, "N")
                index = _int(kv.get("index", "0"), usage, "K")
                if index < 0:
                    raise ParseError(f"diagram index must be 0 or more, not {index}", line_no)
                entry = regression_entry(seed, index)
                session.declare("diagram", fields[1], entry, source=line)
            else:
                raise ParseError(f"unknown declaration kind {kind!r}", line_no)
        except ParseError as exc:
            if str(exc).startswith("line "):
                raise
            raise ParseError(str(exc), line_no) from None
        except (ValueError, KeyError) as exc:
            raise ParseError(str(exc), line_no)
    return session


def print_session(session):
    """Canonical serialization; parse(print_session(s)) reproduces s."""
    lines = []
    for kind, name in session.order:
        store = getattr(session, _STORES[kind])
        value = store[name]
        if kind == "ring":
            lines.append(f"ring {name} = {_ring_literal(value)}")
        elif kind == "module":
            ring_name = _find_ring_name(session, value.ring)
            rel = value.relations
            body = f"coker {_matrix_literal(rel)}" if rel.ncols else f"free({value.ambient_rank})"
            lines.append(f"module {name} on {ring_name} = {body}")
        elif kind in ("complex", "family", "diagram"):
            source = session.sources.get((kind, name))
            if source is not None:
                lines.append(source)
        elif kind == "map":
            src = _find_ring_name(session, value.source)
            tgt = _find_ring_name(session, value.target)
            images = ", ".join(str(im) for im in value.images)
            lines.append(f"map {name} : {src} -> {tgt} = ({images})")
        elif kind == "point":
            ring_name = _find_ring_name(session, value.ring)
            coords = ", ".join(str(c) for c in value.coords)
            lines.append(f"point {name} on {ring_name} = ({coords})")
    return "\n".join(lines)


def _ring_literal(ring):
    field = "QQ" if ring.field.char == 0 else f"GF({ring.field.char})"
    body = f"{field}[{','.join(ring.variables)}]"
    if ring.is_quotient:
        body += " / (" + ", ".join(str(q) for q in ring.quotient_gb) + ")"
    if ring.order.name == "lex":
        body += " lex"
    return body


def _matrix_literal(mat):
    rows = []
    for i in range(mat.nrows):
        rows.append("[" + ", ".join(str(x) for x in mat.row(i)) + "]")
    return "[" + ", ".join(rows) + "]"


def _find_ring_name(session, ring):
    for name, value in session.rings.items():
        if value == ring:
            return name
    for name, value in session.families.items():
        if value.total == ring or value.base == ring:
            return name
    raise ParseError("object's ring was never declared")


# -- commands -----------------------------------------------------------------


def _emit(report, fmt, csv_rows=None, csv_header=None):
    if fmt == "json":
        if csv_rows is not None:
            report = {**report, "rows": [dict(zip(csv_header, row)) for row in csv_rows]}
        print(json.dumps(report, indent=2, default=str))
        return
    if fmt != "csv" or csv_rows is None:
        for key, value in report.items():
            print(f"{key}: {value}")
    if csv_rows is not None:
        print(",".join(csv_header))
        for row in csv_rows:
            print(",".join(str(x) for x in row))


def _required(options, usage, *names):
    """Value of the first of `names` given as an option, or a usage error."""
    for name in names:
        if options.get(name):
            return options[name]
    missing = " or ".join(f"{name}=" for name in names)
    raise ParseError(f"usage: {usage}: missing {missing}")


def _points_from_arg(session, options, usage, ring):
    """The required points= option: line(y1=s,y2=0; s={0,1,..}) or
    {(a,b),(c,d)} or names; an empty list is a usage error."""
    text = _required(options, usage, "points").strip()
    if text.startswith("line(") and text.endswith(")"):
        body = text[len("line("):-1]
        assign_part, _, range_part = body.partition(";")
        assignments = {}
        for item in _split_top(assign_part):
            var, _, expr = item.partition("=")
            assignments[var.strip()] = expr.strip()
        range_part = range_part.strip()
        param, _, values_txt = range_part.partition("=")
        param = param.strip()
        for var in assignments:
            if var not in ring.variables:
                raise ParseError(f"points=line(..): {var}= names no variable of {ring}")
        if param not in assignments.values():
            raise ParseError(f"points=line(..): the parameter {param!r} binds no coordinate")
        values_txt = values_txt.strip()
        if not (values_txt.startswith("{") and values_txt.endswith("}")):
            raise ParseError("parameter values must be braced, s={0,1,2}")
        values = [ring.field.parse(v.strip()) for v in _split_top(values_txt[1:-1])]
        points = []
        for val in values:
            coords = []
            for var in ring.variables:
                expr = assignments.get(var, "0")
                if expr == param:
                    coords.append(val)
                else:
                    coords.append(ring.field.parse(expr))
            points.append(RationalPoint(ring, tuple(coords)))
    elif text.startswith("{") and text.endswith("}"):
        points = []
        for item in _split_top(text[1:-1]):
            item = item.strip()
            if item.startswith("(") and item.endswith(")"):
                coords = [ring.field.parse(c) for c in _split_top(item[1:-1])]
                points.append(RationalPoint(ring, tuple(coords)))
            else:
                points.append(session.points[item])
    else:  # comma list of declared point names
        points = [session.points[name.strip()] for name in text.split(",")]
    if not points:
        raise ParseError(f"usage: {usage}: points= lists no point")
    return points


def _blowup_points(base, n):
    coords = [(0,) * n]
    samples = [
        tuple(1 if i == 0 else 0 for i in range(n)),
        tuple(1 if i == n - 1 else 0 for i in range(n)),
        (1,) * n,
        tuple((i + 2) * (-1) ** i for i in range(n)),
    ]
    coords.extend(samples)
    return [RationalPoint(base, c) for c in coords]


def cmd_example_blowup_chi(options, fmt):
    text = options.get("n", "2")
    if not text.isdecimal() or int(text) < 1:
        raise ParseError(f"n must be a positive integer, got {text!r}")
    n = int(text)
    fam = blowup_family(QQ, n)
    sheaf = fam.twist(1)
    pushed, report = pushforward_projective(fam, sheaf)
    points = _blowup_points(fam.base, n)
    rows = []
    ok = True
    nice_values = []
    for pt in points:
        c_nice = chi(fam, sheaf, pt, pushed=pushed)
        c_classical = classical_chi(fam, sheaf, pt)
        nice_values.append(c_nice)
        rows.append((pt, c_classical, c_nice))
    constant = len(set(nice_values)) == 1
    ok = constant and report.get("bounded", False)
    table = {
        "family": f"blow-up of affine {n}-space at the origin",
        "sheaf": "O(1)",
        "pushforward": str(pushed),
        "stage_report": report,
        "chi_nice_constant": constant,
        "pass": ok,
    }
    _emit(
        table,
        fmt,
        csv_rows=[(str(p).replace(", ", ";"), c_cl, c_n) for p, c_cl, c_n in rows],
        csv_header=["point", "chi_classical", "chi_nice"],
    )
    return 0 if ok else 1


def _name_at_point(session, tokens, usage, default_depth):
    """(name, point, depth) from exactly `NAME at POINT [depth N]`."""
    if len(tokens) not in (3, 5) or tokens[1] != "at" or tokens[3:4] not in ([], ["depth"]):
        raise ParseError(f"usage: {usage}")
    try:
        depth = int(tokens[4]) if len(tokens) == 5 else default_depth
    except ValueError:
        raise ParseError(f"usage: {usage}") from None
    if depth < 0:
        raise ParseError(f"usage: {usage}: depth must be at least 0")
    return tokens[0], session.points[tokens[2]], depth


def cmd_perfect(session, tokens, args, fmt):
    name, point, depth = _name_at_point(session, tokens, "perfect E at p [depth N]", args.depth)
    kind, target = session.lookup(name, ("module", "complex"))
    cert = is_perfect_at(target, point, depth)
    report = {
        "verdict": cert.verdict,
        "witness_degree": cert.witness_degree,
        "tor1_rank": cert.tor1_rank,
        "tor_amplitude": cert.tor_amplitude,
        "global": cert.global_scope,
        "point": str(point),
    }
    _emit(report, fmt)
    return 0 if cert.is_perfect else 1


def cmd_tor(session, tokens, args, fmt):
    name, point, depth = _name_at_point(session, tokens, "tor M at p [depth N]", args.depth)
    _, module = session.lookup(name, ("module",))
    profile = tor_profile(module, point, depth)
    _emit({"point": str(point), "tor_dims": profile}, fmt)
    return 0


def cmd_chi_scan(session, options, args, fmt):
    usage = "chi-scan family=X|map=f|ring=A [sheaf=O(1)] points=..."
    kind, carrier = _scan_carrier(session, options, usage)
    base = carrier.base if kind == "family" else carrier.source
    sheaf = _sheaf(session, kind, carrier, options.get("sheaf", "O(1)"))
    points = _points_from_arg(session, options, usage, base)
    pushed, _rep = push(carrier, sheaf)
    rows = []
    values = []
    for pt in points:
        value = pushed.fiber_euler_characteristic(pt)
        values.append(value)
        rows.append((str(pt).replace(", ", ";"), "chi", value, "constant"))
    constant = len(set(values)) <= 1
    report = {"values": values, "constant": constant, "pass": constant}
    _emit(report, fmt, csv_rows=rows, csv_header=["point", "p", "dim", "audit"])
    return 0 if constant else 1


def _scan_carrier(session, options, usage):
    if options.get("ring"):
        ring = session.ring_of(options["ring"])
        return "map", RingMap.identity(ring)
    carrier_name = _required(options, usage, "family", "map", "ring")
    return session.lookup(carrier_name, ("family", "map"))


def _sheaf(session, kind, carrier, text):
    """The sheaf a `sheaf=` option names: O(n) on a family, otherwise a
    declared complex or module."""
    if kind == "family" and text.startswith("O("):
        twist = re.fullmatch(r"O\(([-+]?\d+)\)", text)
        if twist is None:
            raise ParseError(f"usage: sheaf=O(n): n must be an integer, got {text!r}")
        return carrier.twist(int(twist[1]))
    return session.lookup(text, ("complex", "module"))[1]


def _scan_inputs(session, options, usage):
    """(carrier, sheaf, p, points) of an hp-scan or grauert command."""
    kind, carrier = _scan_carrier(session, options, usage)
    base = carrier.base if kind == "family" else carrier.source
    sheaf = _sheaf(session, kind, carrier, _required(options, usage, "sheaf", "module"))
    p = _int(options.get("p", "0"), "usage: p=N", "N")
    points = _points_from_arg(session, options, usage, base)
    return carrier, sheaf, p, points


def cmd_hp_scan(session, options, args, fmt):
    carrier, sheaf, p, points = _scan_inputs(
        session, options, "hp-scan family=X|map=f|ring=A sheaf=M [p=N] points=..."
    )
    result = hp_scan(carrier, sheaf, p, points, seed=args.seed)
    if result["audit_pass"] is None:
        print("perfx: hp-scan: the probe is off the base's locus, so there is no "
              "generic value and the audit is undetermined", file=sys.stderr)
        return 2
    rows = [
        (str(y).replace(", ", ";"), p, v, "pass" if result["audit_pass"] else "fail")
        for (y, v) in result["values"]
    ]
    report = {
        "p": p,
        "generic_value": result["generic_value"],
        "generic_certified": result["generic_certified"],
        "audit_pass": result["audit_pass"],
    }
    _emit(report, fmt, csv_rows=rows, csv_header=["point", "p", "dim", "audit"])
    return 0 if result["audit_pass"] else 1


def cmd_grauert(session, options, args, fmt):
    carrier, sheaf, p, points = _scan_inputs(
        session, options, "grauert family=X|map=f|ring=A sheaf=M [p=N] points=..."
    )
    reduced = options.get("reduced", "yes")
    if reduced not in ("yes", "no"):
        raise ParseError(f"usage: reduced=yes|no, got {reduced!r}")
    reduced = reduced == "yes"
    result = grauert_check(carrier, sheaf, p, points, reduced=reduced)
    report = {k: str(v) for k, v in result.items() if k != "locally_free_witness"}
    _emit(report, fmt)
    if result["constant"]:
        return 0 if result.get("base_change_pass") else 1
    return 1


def cmd_local_cohomology(session, options, args, fmt):
    usage = "local-cohomology ring=R t=(f1, ..) [n=M]"
    ring = session.ring_of(_required(options, usage, "ring"))
    elements = _split_top(_required(options, usage, "t").strip("()"))
    if not elements:
        raise ParseError(f"usage: {usage}: t is empty")
    target_name = options.get("n", "")
    if target_name:
        _, target = session.lookup(target_name, ("module", "complex"))
    else:
        target = unit_complex(ring)
    window = args.window
    report = local_cohomology(
        ring, elements, target, max_stage=args.max_stage, degree_window=window
    )
    payload = {
        "stabilized_at": report.stabilized_at,
        "stable": report.stable,
        "caveat": report.caveat,
        "audit_pass": report.audit["pass"] if report.audit else None,
    }
    rows = None
    header = None
    if window is not None:
        rows = [
            (i, d, dim, "pass" if report.audit["pass"] else "fail")
            for (i, d), dim in sorted(report.table.items())
        ]
        header = ["index", "degree", "dim", "audit"]
    _emit(payload, fmt, csv_rows=rows, csv_header=header)
    return 0 if report.stable and (report.audit or {}).get("pass") else 1


def cmd_relperf(session, tokens, options, args, fmt):
    usage = "relperf E over f points=... [mode=...]"
    if len(tokens) < 3 or tokens[1] != "over":
        raise ParseError(f"usage: {usage}")
    name = tokens[0]
    _, target = session.lookup(name, ("module", "complex"))
    _, ringmap = session.lookup(tokens[2], ("map",))
    points = _points_from_arg(session, options, usage, ringmap.source)
    mode = options.get("mode", "auto")
    report = is_relatively_perfect(target, ringmap, points, mode=mode, max_depth=args.depth)
    payload = {
        "verdict": report.verdict,
        "mode": report.mode,
        "global": report.global_scope,
        "witness_points": [str(p) for p in report.witness_points()],
    }
    for point, entry in report.per_point:
        towers = {
            str(i): data.get("tor_tower")
            for i, data in entry.get("homology", {}).items()
        }
        if towers:
            payload[f"towers at {point}"] = towers
    _emit(payload, fmt)
    return 0 if report.verdict in ("relatively_perfect", "relatively_perfect_evidence") else 1


def cmd_verify_axiom(session, tokens, options, args, fmt):
    usage = "verify-axiom AXIOM diagram=D"
    if not tokens:
        raise ParseError(f"usage: {usage}")
    which = tokens[0].upper()
    if which not in AXIOMS:
        raise ParseError(f"usage: {usage}: AXIOM is one of {', '.join(AXIOMS)}, got {tokens[0]!r}")
    _, entry = session.lookup(_required(options, usage, "diagram"), ("diagram",))
    results = run_axiom_battery(entry, axioms=(which,), depth=args.depth)
    report = results[which]
    payload = {
        "axiom": which,
        "verdict": report["verdict"],
        "tier": report["tier"],
        "witness": str(report.get("witness")),
        "tables": dims_tables(report),
    }
    _emit(payload, fmt)
    return 0 if report["verdict"] == "equal_evidence" else 1


def cmd_transfer(session, options, args, fmt):
    usage = "transfer-check ring=R t=(f1, ..) n=M [i=N]"
    ring = session.ring_of(_required(options, usage, "ring"))
    elements = _split_top(_required(options, usage, "t").strip("()"))
    _, target = session.lookup(_required(options, usage, "n"), ("module", "complex"))
    index = _int(options.get("i", "0"), "usage: i=N", "N")
    result = boundedness_transfer_check(ring, elements, target, index, max_stage=args.max_stage)
    _emit(result, fmt)
    return 0 if result["pass"] else 1


def cmd_roundtrip(session, fmt):
    text = print_session(session)
    reparsed = parse_session(text)
    same = print_session(reparsed) == text
    _emit({"roundtrip": same, "declarations": len(session.order)}, fmt)
    return 0 if same else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="perfx",
        description="exact relative-perfection computations over polynomial rings",
    )
    parser.add_argument("command", nargs="+", help="command and its tokens")
    parser.add_argument("--input", help="session file with declarations")
    parser.add_argument("--depth", type=int, default=6)
    parser.add_argument("--max-stage", dest="max_stage", type=int, default=8)
    parser.add_argument("--window", default=None, help="degree window A..B")
    parser.add_argument("--format", dest="fmt", default="text",
                        choices=["text", "csv", "json"])
    parser.add_argument("--seed", type=int, default=0)
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 2
    try:
        return _run(args)
    except Exception as exc:  # a crash must not read as a failed verdict (exit 1)
        print(f"perfx: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _check_options(args):
    """Range-check --depth and --max-stage; parse --window A..B into a range."""
    if args.depth < 0:
        raise ParseError("usage: --depth N: N must be at least 0")
    if args.max_stage < 1:
        raise ParseError("usage: --max-stage N: N must be at least 1")
    if args.window is not None:
        text = args.window
        lo, _, hi = text.partition("..")
        try:
            args.window = range(int(lo), int(hi) + 1)
        except ValueError:
            args.window = None
        if not args.window:
            raise ParseError(f"usage: --window A..B: integers A <= B, got {text!r}")


def _run(args):
    tokens = args.command
    options = {}
    positional = []
    for tok in tokens[1:]:
        if "=" in tok and not tok.startswith("["):
            key, _, value = tok.partition("=")
            options[key] = value
        else:
            positional.append(tok)
    session = Session()
    if args.input:
        try:
            with open(args.input) as handle:
                session = parse_session(handle.read())
        except FileNotFoundError:
            print(f"perfx: no such input file: {args.input}", file=sys.stderr)
            return 2
        except ParseError as exc:
            print(f"perfx: parse error: {exc}", file=sys.stderr)
            return 2
    cmd = tokens[0]
    try:
        _check_options(args)
        if cmd == "example":
            if positional and positional[0] == "blowup-chi":
                return cmd_example_blowup_chi(options, args.fmt)
            raise ParseError(f"unknown example {tokens[1:]!r}")
        if cmd == "perfect":
            return cmd_perfect(session, positional, args, args.fmt)
        if cmd == "tor":
            return cmd_tor(session, positional, args, args.fmt)
        if cmd == "chi-scan":
            return cmd_chi_scan(session, options, args, args.fmt)
        if cmd == "hp-scan":
            return cmd_hp_scan(session, options, args, args.fmt)
        if cmd == "grauert":
            return cmd_grauert(session, options, args, args.fmt)
        if cmd == "local-cohomology":
            return cmd_local_cohomology(session, options, args, args.fmt)
        if cmd == "relperf":
            return cmd_relperf(session, positional, options, args, args.fmt)
        if cmd == "verify-axiom":
            return cmd_verify_axiom(session, positional, options, args, args.fmt)
        if cmd == "transfer-check":
            return cmd_transfer(session, options, args, args.fmt)
        if cmd == "roundtrip":
            return cmd_roundtrip(session, args.fmt)
        print(f"perfx: unknown command {cmd!r}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"perfx: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"perfx: unknown identifier {exc}", file=sys.stderr)
        return 2
    except (ValueError,) as exc:
        print(f"perfx: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
