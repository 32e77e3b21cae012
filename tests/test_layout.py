"""Source layout rules, checked on the parsed modules of src/perfx."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "perfx"

# Gröbner reduction and term-packing internals: only the engine and the
# orders that define the packing use them.
ENGINE_NAMES = {"_Basis", "reduce_vector", "leading_term", "posmask", "divmask", "guardmask"}
ENGINE_MODULES = {"groebner.py", "orders.py"}
# Engine entry points take a packed order object, never a key callable.
ENGINE_ENTRY_POINTS = {"buchberger", "_Basis", "syzygy_basis", "ModuleGB", "schreyer_relations"}
# What each module outside groebner.py takes from it; the others take nothing.
ENGINE_IMPORTS = {
    "rings.py": {"ModuleGB", "syzygy_basis", "schreyer_relations"},
    "maps.py": {"syzygy_basis", "mono_divides"},
}
# The term-key callables and heap wrapper that packed terms replaced, the
# tuple-term vector converters that packed engine vectors replaced, the
# polynomial term converters that packed polynomial terms replaced, the
# tail strings, their combiner and the truncation helper that a complex's
# numeric homology floor replaced, and the Hom layout, the chain-map
# tensor fold and the row reader that the tensor's one layout replaced.
RETIRED_NAMES = {
    "_Desc", "leading_term", "elimination_key", "term_over_position",
    "pack_vector", "unpack_vector", "_to_vec", "_from_vec",
    "pack_terms", "unpack_poly", "_pack",
    "ZERO_BELOW", "EXACT_BELOW", "UNKNOWN_BELOW", "_combine_tails", "truncate_below",
    "tensor_map", "_hom_layout", "row_entries",
    # homology(...).fiber_dim, rings.subquotient and Mat.residues replaced these
    "homology_fiber_dim", "subquotient_fiber_dim", "_subquotient_vecs", "_residue_rows",
}
# The function-local `from .x import`s src/perfx keeps, as (module, x):
# none, since the modules import in one order (IMPORT_ORDER).
LOCAL_IMPORTS = set()
# Each module of src/perfx imports only modules listed before it, so the
# module graph has no cycle.  __init__.py, the package's public names,
# may import any of them.
IMPORT_ORDER = (
    "linalg", "fields", "orders", "groebner", "rings", "complexes", "modules",
    "maps", "resolutions", "geometry", "derived", "ktheory", "cli",
)


def _modules():
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        yield path.name, text, ast.parse(text)


def _identifiers(tree):
    """(node, identifier) for every name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node, node.id
        elif isinstance(node, ast.Attribute):
            yield node, node.attr
        elif isinstance(node, ast.alias):
            yield node, node.name


def _imported_names(node):
    """The names an import statement binds."""
    for alias in node.names:
        if alias.asname:
            yield alias.asname
        else:
            yield alias.name.split(".")[0]


def test_no_unused_imports():
    """Every imported name is read somewhere in its module.  __init__.py
    is exempt: its imports are the package's public names."""
    unused = []
    for name, text, tree in _modules():
        if name == "__init__.py":
            continue
        lines = text.splitlines()
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            span = lines[node.lineno - 1 : node.end_lineno]
            if any("# noqa" in line for line in span):
                continue
            for bound in _imported_names(node):
                if bound not in used:
                    unused.append(f"{name}:{node.lineno}: {bound}")
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_function_local_imports_only_break_cycles():
    """A module takes perfx names at its top: no function in src/perfx
    has a relative import."""
    local = set()
    for name, _text, tree in _modules():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local.update((name, node.module) for node in ast.walk(func)
                             if isinstance(node, ast.ImportFrom) and node.level)
    assert local == LOCAL_IMPORTS


def _perfx_imports(tree):
    """The perfx modules a module imports, anywhere in it: `from .x
    import ...` names x, and `from . import x, y` names x and y."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (a.name for a in node.names)


def test_modules_import_in_one_order():
    """Every module of src/perfx is in IMPORT_ORDER and imports only
    modules listed before it, so no import closes a cycle."""
    rank = {mod: k for k, mod in enumerate(IMPORT_ORDER)}
    names = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    assert names == set(rank), f"modules outside IMPORT_ORDER: {sorted(names ^ set(rank))}"
    late = []
    for name, _text, tree in _modules():
        if name == "__init__.py":
            continue
        here = name[:-3]
        late += [f"{here} imports {mod}" for mod in _perfx_imports(tree)
                 if rank[mod] >= rank[here]]
    assert not late, "imports against IMPORT_ORDER:\n" + "\n".join(sorted(set(late)))


def test_only_the_engine_uses_reduction_internals():
    hits = []
    for name, _text, tree in _modules():
        if name in ENGINE_MODULES:
            continue
        for node, named in _identifiers(tree):
            if named in ENGINE_NAMES:
                hits.append(f"{name}:{node.lineno}: {named}")
    listing = "\n".join(hits)
    assert not hits, f"engine internals outside {sorted(ENGINE_MODULES)}:\n{listing}"


def _callables_in(function):
    """Names a function binds to a nested def or to a lambda."""
    names = set()
    for node in ast.walk(function):
        if node is function:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_engine_entry_points_take_no_callables():
    """Orders reach the engine as packed `TermOrder`s: no entry point is
    passed a lambda or a function defined inside the caller."""
    hits = []
    for name, _text, tree in _modules():
        scopes = [tree] + [
            n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            local = _callables_in(scope) if scope is not tree else set()
            for node in ast.walk(scope):
                if not (isinstance(node, ast.Call) and _called_name(node) in ENGINE_ENTRY_POINTS):
                    continue
                for arg in [*node.args, *(k.value for k in node.keywords)]:
                    if isinstance(arg, ast.Lambda) or (
                        isinstance(arg, ast.Name) and arg.id in local
                    ):
                        hits.append(f"{name}:{node.lineno}: {_called_name(node)}")
    assert not hits, "callables passed to the engine:\n" + "\n".join(sorted(set(hits)))


def test_retired_term_keys_stay_gone():
    """Terms are packed ints compared as ints, and a complex carries its
    homology floor as a number; the names these retired are defined
    nowhere in src/perfx."""
    hits = []
    for name, _text, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            hits += [f"{name}:{node.lineno}: {b}" for b in bound if b in RETIRED_NAMES]
    assert not hits, "retired names defined again:\n" + "\n".join(hits)


def test_only_rings_rebuilds_a_polynomial_from_terms():
    """A polynomial's terms are packed in its own ring's order and kept
    reduced, so only rings.py builds one from terms: moving one to another
    ring goes through `rings.recast`, and a sum of rewrite-table rows
    through `PolyRing.combine`.  No other module calls `Polynomial(`."""
    hits = []
    for name, _text, tree in _modules():
        if name == "rings.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) == "Polynomial":
                hits.append(f"{name}:{node.lineno}")
    assert not hits, "polynomials rebuilt from terms outside rings.py:\n" + "\n".join(hits)


def test_only_fields_builds_a_fraction():
    """QQ holds an integral value as an int and any other as a Fraction
    with denominator above 1, and `fields.rational` is where that form is
    made: no module but fields.py calls `Fraction(`."""
    hits = []
    for name, _text, tree in _modules():
        if name == "fields.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) == "Fraction":
                hits.append(f"{name}:{node.lineno}")
    assert not hits, "Fractions built outside fields.py:\n" + "\n".join(hits)


def test_monomial_orders_define_no_key_or_elimination():
    """A ring order sorts monomials by their packed value in its module
    order, and elimination orders come from `TermOrder.elimination`: no
    `MonomialOrder` in orders.py defines `key` or `elimination`."""
    tree = ast.parse((SRC / "orders.py").read_text())
    classes = {"MonomialOrder"}
    hits = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and (
            node.name in classes
            or any(isinstance(b, ast.Name) and b.id in classes for b in node.bases)
        ):
            classes.add(node.name)
            for d in node.body:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    bound = [d.name]
                elif isinstance(d, ast.Assign):
                    bound = [t.id for t in d.targets if isinstance(t, ast.Name)]
                else:
                    continue
                hits += [
                    f"orders.py:{d.lineno}: {node.name}.{b}"
                    for b in bound
                    if b in ("key", "elimination")
                ]
    assert "GrevLex" in classes and not hits, "\n".join(hits)


def test_no_check_switch():
    """Validation is decided by which constructor a builder calls (the
    public one or the trusted `_make`), never by a `check` argument."""
    hits = []
    for name, _text, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs
                if any(p.arg == "check" for p in params):
                    hits.append(f"{name}:{node.lineno}: parameter check")
            elif isinstance(node, ast.Call):
                if any(k.arg == "check" for k in node.keywords):
                    hits.append(f"{name}:{node.lineno}: call passes check=")
    assert not hits, "check switches in src/perfx:\n" + "\n".join(hits)


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Definitions that nothing in src/perfx names, kept for readers outside it.
UNREFERENCED_ALLOWED = {
    "total_rank": "perfbench's minimize counter reads it",
    "orientation_multiplicativity": "a perfbench workload checks it",
    "regression_suite": "a perfbench workload builds its diagrams with it",
    "cyclic": "the README's library quick start builds modules with it",
    "of_complex": "K0 API: the class of a free complex",
    "negate": "K0 API: the additive inverse of a class",
    "rewrite_to_source": "RingMap API: a target element over the source basis",
}


def test_no_unreferenced_definitions():
    """Every top-level function or class and every method that is not a
    dunder is named somewhere in src/perfx besides its own def."""
    defined = []
    named = set()
    for name, _text, tree in _modules():
        for node in tree.body:
            defs = [node] + (node.body if isinstance(node, ast.ClassDef) else [])
            for d in defs:
                if isinstance(d, DEFINITIONS) and not (
                    d.name.startswith("__") and d.name.endswith("__")
                ):
                    defined.append((name, d.lineno, d.name))
        named.update(ident for _node, ident in _identifiers(tree))
    unused = [
        f"{module}:{line}: {ident}"
        for module, line, ident in defined
        if ident not in named and ident not in UNREFERENCED_ALLOWED
    ]
    assert not unused, "definitions nothing in src/perfx names:\n" + "\n".join(unused)


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_only_the_engine_calls_buchberger():
    """Gröbner bases come from the engine's entry points: only groebner.py
    names `buchberger`, `interreduce`, `_Basis` or `reduce_vector`; the
    other modules reach them through `ModuleGB`, `syzygy_basis`,
    `schreyer_relations` and the ring layer."""
    internals = {"buchberger", "interreduce", "_Basis", "reduce_vector"}
    hits = []
    for name, _text, tree in _modules():
        if name == "groebner.py":
            continue
        hits += [f"{name}:{node.lineno}: {named}" for node, named in _identifiers(tree)
                 if named in internals]
    assert not hits, "engine internals named outside groebner.py:\n" + "\n".join(hits)


def _engine_names(tree):
    """The names a module takes from groebner.py: imported from it, or read
    as attributes of the module bound by `from . import groebner`."""
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "groebner":
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            aliases.update(a.asname or a.name for a in node.names if a.name == "groebner")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


def test_engine_imports_are_the_entry_points():
    """rings.py takes only `ModuleGB`, `syzygy_basis` and
    `schreyer_relations` from the engine, maps.py only `syzygy_basis` and
    `mono_divides`, and no other module outside groebner.py takes any."""
    got = {name: _engine_names(tree) for name, _text, tree in _modules()
           if name != "groebner.py"}
    got = {name: names for name, names in got.items() if names}
    assert got == ENGINE_IMPORTS


def test_no_projected_syzygies():
    """Syzygies modulo a span come from `syzygy_matrix(mat, modulo=...)`,
    never from projecting the syzygies of a wider matrix to some rows."""
    hits = []
    for name, _text, tree in _modules():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "select_rows"
                and isinstance(node.func.value, ast.Call)
                and _called_name(node.func.value) == "syzygy_matrix"
            ):
                hits.append(f"{name}:{node.lineno}")
    assert not hits, "projected syzygies in src/perfx:\n" + "\n".join(hits)


def test_k0_verdict_reads_no_fiber_dims():
    """`k0_evidence_equal` decides on term lists, chi and the K-polynomial;
    the per-point fiber dims are descriptive output of `dims_tables`, so
    the verdict's body names neither `dims_at` nor `fiber_dims`."""
    tree = ast.parse((SRC / "ktheory.py").read_text())
    (verdict,) = [n for n in tree.body
                  if isinstance(n, ast.FunctionDef) and n.name == "k0_evidence_equal"]
    named = {ident for _node, ident in _identifiers(verdict)}
    assert not named & {"dims_at", "fiber_dims"}
