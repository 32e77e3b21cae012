"""Outside-in tracer for perfx: wraps public functions without editing them.

`Tracer.install()` replaces each traced function by a wrapper in every
`perfx.*` namespace that binds the very same object, so that
`from .rings import syzygy_matrix` style imports, aliases such as
`derived.field_rank`, and calls inside a module (`buchberger` ->
`interreduce` -> `reduce_vector`) all pass through it.  Methods are
wrapped on their class.  `Tracer.uninstall()` puts every original back.

Each call becomes a span (id, name, start, end, parent id, job id) kept
in memory.  Work counts are read only from arguments and return values.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref

# (module, qualified name, span name); a dotted qualified name is a method.
TRACED = [
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "interreduce", "groebner.interreduce"),
    ("groebner", "reduce_vector", "groebner.reduce_vector"),
    ("groebner", "syzygy_basis", "groebner.syzygy_basis"),
    ("groebner", "ModuleGB.__init__", "groebner.ModuleGB"),
    ("rings", "MatrixGB.__init__", "rings.MatrixGB"),
    ("rings", "MatrixGB.lift_column", "rings.MatrixGB.lift_column"),
    ("rings", "syzygy_matrix", "rings.syzygy_matrix"),
    ("rings", "Mat.__mul__", "rings.Mat.mul"),
    ("rings", "Mat.evaluate", "rings.Mat.evaluate"),
    ("modules", "prune_redundant_columns", "modules.prune_redundant_columns"),
    ("complexes", "minimize", "complexes.minimize"),
    ("complexes", "tensor", "complexes.tensor"),
    ("complexes", "cone", "complexes.cone"),
    ("complexes", "koszul_dual_stage", "complexes.koszul_dual_stage"),
    ("complexes", "FreeComplex.fiber_dims", "complexes.fiber_dims"),
    ("resolutions", "free_replacement", "resolutions.free_replacement"),
    ("resolutions", "free_resolution", "resolutions.free_resolution"),
    ("resolutions", "homology_data", "resolutions.homology_data"),
    ("derived", "tor_profile", "derived.tor_profile"),
    ("derived", "local_cohomology", "derived.local_cohomology"),
    ("geometry", "pushforward_projective", "geometry.pushforward_projective"),
    ("geometry", "relative_strand", "geometry.relative_strand"),
    ("geometry", "pushforward_affine", "geometry.pushforward_affine"),
    ("geometry", "restrict_scalars", "geometry.restrict_scalars"),
    ("geometry", "classical_chi", "geometry.classical_chi"),
    ("geometry", "hp_scan", "geometry.hp_scan"),
    ("maps", "RingMap.source_module_presentation", "maps.source_module_presentation"),
    ("ktheory", "verify_axiom", "ktheory.verify_axiom"),
    ("linalg", "rank", "linalg.rank"),
    ("cli", "main", "cli.main"),
]

# Counters derived from the arguments and the return value of one call.
# Each takes (args, kwargs, result) and returns {counter: amount}.


def _buchberger(args, kwargs, out):
    return {"gens_in": sum(1 for g in args[0] if g), "basis_out": len(out)}


def _interreduce(args, kwargs, out):
    return {"elems_in": sum(1 for e in args[0] if e), "kept": len(out)}


def _reduce_vector(args, kwargs, out):
    return {"zero": 0 if out else 1}


def _prune(args, kwargs, out):
    cols = args[0].ncols
    return {"cols_in": cols, "dropped": cols - out.ncols}


def _minimize(args, kwargs, out):
    # each pivot splits off one rank in two adjacent degrees
    return {"pivots": (args[0].total_rank() - out.total_rank()) // 2}


def _evaluate(args, kwargs, out):
    return {"entries": sum(len(row) for row in out)}


def _rank(args, kwargs, out):
    rows = args[0]
    return {"entries": len(rows) * (len(rows[0]) if rows else 0)}


COUNTERS = {
    "groebner.buchberger": _buchberger,
    "groebner.interreduce": _interreduce,
    "groebner.reduce_vector": _reduce_vector,
    "modules.prune_redundant_columns": _prune,
    "complexes.minimize": _minimize,
    "rings.Mat.evaluate": _evaluate,
    "linalg.rank": _rank,
}


def _rank_name(args, kwargs):
    field = args[1] if len(args) > 1 else kwargs["field"]
    return "linalg.rank.qq" if field.char == 0 else "linalg.rank.gfp"


# Span names chosen per call from the arguments.
RENAME = {"linalg.rank": _rank_name}


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, job)
        self.counts = {}  # name -> {counter: total}
        self.job = None
        self._stack = []  # ids of the open spans
        self._plan_cache = None
        self._lifted = weakref.WeakSet()  # MatrixGB instances lifted at least once

    # -- spans ---------------------------------------------------------

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        rename = RENAME.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = rename(args, kwargs) if rename else name
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, span, start, end, parent, self.job))
            if counter is not None:
                bucket = counts.setdefault(span, {})
                for key, value in counter(args, kwargs, out).items():
                    bucket[key] = bucket.get(key, 0) + value
            return out

        return traced

    def _wrap_lift(self, fn):
        lifted, counts = self._lifted, self.counts

        @functools.wraps(fn)
        def lift(mgb, *args, **kwargs):
            if mgb not in lifted:
                lifted.add(mgb)
                bucket = counts.setdefault("rings.MatrixGB", {})
                bucket["lifted"] = bucket.get("lifted", 0) + 1
            return fn(mgb, *args, **kwargs)

        return lift

    # -- install / uninstall ----------------------------------------------

    def _plan(self):
        """[(owner, attribute, original, wrapper)] for every binding."""
        for module_name in sorted({m for m, _q, _n in TRACED}):
            importlib.import_module(f"perfx.{module_name}")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "perfx" or n.startswith("perfx."))]
        plan = []
        for module_name, qualname, name in TRACED:
            module = sys.modules[f"perfx.{module_name}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                wrapped = self._wrap(name, original)
                if name == "rings.MatrixGB.lift_column":
                    wrapped = self._wrap_lift(wrapped)
                plan.append((owner, attr, original, wrapped))
                continue
            original = getattr(module, qualname)
            wrapped = self._wrap(name, original)
            for ns in namespaces:
                for attr, value in vars(ns).items():
                    if value is original:
                        plan.append((ns, attr, original, wrapped))
        return plan

    def install(self):
        if self._plan_cache is None:
            self._plan_cache = self._plan()
        for owner, attr, _original, wrapped in self._plan_cache:
            setattr(owner, attr, wrapped)
        return self

    def uninstall(self):
        for owner, attr, original, _wrapped in reversed(self._plan_cache or ()):
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- summaries -------------------------------------------------------

    def summary(self):
        """{span name: {calls, self_s, incl_s, counters...}}.

        Self time is the span's duration minus the time its child spans
        cover; inclusive time counts only the outermost span of a name,
        so recursion is not counted twice.
        """
        child = {}
        by_id = {}
        for sid, name, start, end, parent, _job in self.spans:
            by_id[sid] = (name, parent)
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out = {}
        for sid, name, start, end, parent, _job in self.spans:
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            row["calls"] += 1
            dur = end - start
            row["self_s"] += dur - child.get(sid, 0.0)
            p = parent
            while p is not None and by_id[p][0] != name:
                p = by_id[p][1]
            if p is None:
                row["incl_s"] += dur
        for name, counters in self.counts.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0}).update(counters)
        return out

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w") as handle:
            for sid, name, start, end, parent, job in self.spans:
                handle.write(json.dumps([sid, name, start, end, parent, job]) + "\n")
