"""Spans and counts at mfsym's layer boundaries, recorded from outside.

``Tracer.install`` wraps every public function of the eleven mfsym modules
and the arithmetic methods of ``Scalar`` and ``Poly``.  A wrapped module
function is rebound under every name an mfsym module or a named caller
holds it by (the ``from .x import f`` copies), so calls between modules
are seen too.

Each wrapped call adds to its name's ``[calls, total_s, self_s]``; self
time is the call's duration minus the time of the wrapped calls inside it.
Calls outside ``AGGREGATE_ONLY`` also leave a span ``(id, name, start,
end, parent id, verdict)``.  Probes read sizes from the arguments and
results of a few calls; their time is charged to no layer.  Everything is
kept in memory and written once, by the caller, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from fractions import Fraction
from math import comb, gcd
from time import perf_counter

from mfsym.polys import Poly
from mfsym.scalars import Scalar, euler_phi

LAYERS = ("scalars", "polys", "mf", "groups", "linalg", "cohomology", "real",
          "orientifold", "clifford", "cli", "catalog")

SCALAR_METHODS = {
    "add": ("__add__", "__radd__"), "sub": ("__sub__", "__rsub__"), "neg": ("__neg__",),
    "mul": ("__mul__", "__rmul__"), "div": ("__truediv__", "__rtruediv__"),
    "pow": ("__pow__",), "eq": ("__eq__",), "inverse": ("inverse",),
    "conjugate": ("conjugate",), "promote": ("promote",), "is_zero": ("is_zero",),
    "from_rational": ("from_rational",), "zero": ("zero",), "one": ("one",),
    "zeta": ("zeta",),
}
POLY_METHODS = {
    "add": ("__add__", "__radd__"), "sub": ("__sub__", "__rsub__"), "neg": ("__neg__",),
    "mul": ("__mul__", "__rmul__"), "pow": ("__pow__",), "eq": ("__eq__",),
    "conjugate_coeffs": ("conjugate_coeffs",), "partial": ("partial",),
    "constant": ("constant",), "zero": ("zero",), "variable": ("variable",),
}

# Called up to millions of times per pass: timed and counted, no span each.
AGGREGATE_ONLY = (
    {f"scalars.{m}" for m in SCALAR_METHODS}
    | {f"polys.{m}" for m in POLY_METHODS}
    | {"polys.apply_ring_map", "mf.mat_shape", "mf.lift_poly", "mf.rename_to",
       "scalars.euler_phi", "scalars.cyclotomic_poly"}
)

# Orientifold sub-layers reported as one self time each.
ORIENTIFOLD_GROUPS = {
    "witness": ("rank_one_contra_condition",),
    "theta": ("theta_component", "theta_cocycle_check"),
    "knorrer": ("orientifold_knorrer", "double_knorrer"),
    "eta_coherence": ("eta_component", "eta_coherence_check"),
    "duality": ("fixed_point_duality", "duality_comparison", "comparison_torsor_check",
                "verify_duality", "verify_form_functor"),
}

_NO_CALLS = (0, 0.0, 0.0)


class Tracer:
    def __init__(self):
        self.stats: dict = {}      # name -> [calls, total_s, self_s]
        self.counts: dict = {}     # counter -> number
        self.spans: list = []      # (id, name, start, end, parent id, verdict)
        self.echelons: list = []   # (rows, cols, nnz_in, rank, nnz_out) per call
        self.probe_s = 0.0
        self.verdict = "setup"
        self._seen: dict = {}      # probe name -> set of input fingerprints
        self._stack = [[0.0, 0]]   # frames: [child time, span id for children]
        self._next_id = 1
        self._patches: list = []   # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self, callers=()) -> None:
        """Wrap the layer boundaries; `callers` are further modules whose
        imported mfsym names are rebound too."""
        modules = {layer: importlib.import_module(f"mfsym.{layer}") for layer in LAYERS}
        holders = list(modules.values()) + list(callers)
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(fn, type) or not callable(fn)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(name, fn, count=None, probe=_PROBES.get(name))
                for other in holders:
                    for other_attr, value in list(vars(other).items()):
                        if value is fn:
                            self._patch(other, other_attr, wrapped)
        for cls, layer, methods in ((Scalar, "scalars", SCALAR_METHODS),
                                    (Poly, "polys", POLY_METHODS)):
            for short, attrs in methods.items():
                count = _SCALAR_COUNTS.get(short) if cls is Scalar else None
                wrappers = {}  # __radd__ = __add__ shares one wrapper; __rsub__ has its own
                for attr in attrs:
                    raw = vars(cls)[attr]
                    static = isinstance(raw, staticmethod)
                    fn = raw.__func__ if static else raw
                    if fn not in wrappers:
                        wrappers[fn] = self._wrap(f"{layer}.{short}", fn, count=count, probe=None)
                    self._patch(cls, attr, staticmethod(wrappers[fn]) if static else wrappers[fn])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name, fn, count, probe):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        keep_span = name not in AGGREGATE_ONLY
        stack, spans, tracer = self._stack, self.spans, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(tracer.counts, args)
            parent = stack[-1]
            if keep_span:
                sid = tracer._next_id
                tracer._next_id += 1
            else:
                sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                parent[0] += duration
                if keep_span:
                    spans.append((sid, name, start, end, parent[1], tracer.verdict))
            if probe is not None:
                p0 = perf_counter()
                probe(tracer, args, result)
                spent = perf_counter() - p0
                parent[0] += spent
                tracer.probe_s += spent
            return result

        return traced

    # -- verdict scopes ----------------------------------------------------

    @contextmanager
    def verdict_span(self, verdict: str):
        """Root span of one verdict; spans inside carry its id."""
        previous, self.verdict = self.verdict, verdict
        sid = self._next_id
        self._next_id += 1
        frame = [0.0, sid]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self._stack[-1][0] += end - start
            self.spans.append((sid, "verdict", start, end, 0, verdict))
            self.verdict = previous

    # -- results -----------------------------------------------------------

    def add(self, counter: str, amount=1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def seen(self, probe: str, key) -> None:
        self._seen.setdefault(probe, set()).add(hash(key))

    def distinct(self, probe: str) -> int:
        return len(self._seen.get(probe, ()))

    def calls(self, name: str) -> int:
        return self.stats.get(name, _NO_CALLS)[0]

    def self_s(self, *names: str) -> float:
        return sum(self.stats.get(n, _NO_CALLS)[2] for n in names)

    def layer_self_s(self, layer: str) -> float:
        return sum(s[2] for n, s in self.stats.items() if n.split(".")[0] == layer)

    def per_layer(self, overhead_ratio: float) -> dict:
        """Every per-layer metric, by the names BENCHMARK.json lists."""
        c, s = self.calls, self.self_s
        count = self.counts.get

        def share(part, whole):
            return part / whole if whole else 0.0

        echelon = [sum(col) for col in zip(*self.echelons)] or [0, 0, 0, 0, 0]
        rows, cols, nnz_in, rank, nnz_out = echelon
        binary = count("scalars.binary", 0)
        out = {
            "groups.twist_mf.calls": c("groups.twist_mf"),
            "groups.twist_mf.self_s": s("groups.twist_mf"),
            "groups.twist_mf.total_s": self.stats.get("groups.twist_mf", _NO_CALLS)[1],
            "groups.twist_mf.distinct_share": share(self.distinct("groups.twist_mf"),
                                                    c("groups.twist_mf")),
            "polys.apply_ring_map.calls": c("polys.apply_ring_map"),
            "polys.apply_ring_map.self_s": s("polys.apply_ring_map"),
            "linalg.echelon.calls": c("linalg.sparse_echelon"),
            "linalg.echelon.self_s": s("linalg.sparse_echelon"),
            "linalg.echelon.rows": rows,
            "linalg.echelon.cols": cols,
            "linalg.echelon.nnz_in": nnz_in,
            "linalg.echelon.rank": rank,
            "linalg.echelon.fill_ratio": share(nnz_out, nnz_in),
            "linalg.rank.distinct_share": share(self.distinct("linalg.sparse_rank"),
                                                c("linalg.sparse_rank")),
            "mf.mat_mul.calls": c("mf.mat_mul"),
            "mf.mat_mul.self_s": s("mf.mat_mul"),
            "mf.compose.calls": c("mf.compose"),
            "mf.hom_diff.calls": c("mf.hom_diff"),
            "cohomology.hom_cohomology.self_s": s("cohomology.hom_cohomology"),
            "cohomology.window_unknowns": count("cohomology.window_unknowns", 0),
            "real.fixed_hom.self_s": s("real.fixed_hom"),
            "real.fixed_hom.unknowns": count("real.fixed_hom.unknowns", 0),
            "real.closed_dimension.self_s": s("real.closed_dimension"),
            "real.verify.self_s": s("real.verify_real_structure"),
            "mf.mat_inverse.calls": c("mf.mat_inverse"),
            "mf.mat_inverse.self_s": s("mf.mat_inverse"),
            "mf.mat_det.calls": c("mf.mat_det"),
            "mf.external_tensor.self_s": s("mf.external_tensor"),
            "clifford.module_validate.calls": c("clifford.module_validate"),
            "clifford.module_validate.self_s": s("clifford.module_validate"),
            "clifford.module_hom_dim.self_s": s("clifford.module_hom_dim"),
            "clifford.graded_tensor.self_s": s("clifford.graded_tensor"),
            "scalars.mul.calls": c("scalars.mul"),
            "scalars.add.calls": c("scalars.add"),
            "scalars.inverse.calls": c("scalars.inverse"),
            "scalars.mul.rational_share": share(count("scalars.mul.rational", 0),
                                                c("scalars.mul")),
            "scalars.promote.mixed_share": share(count("scalars.mixed", 0), binary),
            "cli.load_scenario.self_s": s("cli.load_scenario"),
            "trace.overhead_ratio": overhead_ratio,
        }
        for group, names in ORIENTIFOLD_GROUPS.items():
            out[f"orientifold.{group}.self_s"] = s(*(f"orientifold.{n}" for n in names))
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self_s(layer)
        return out


# ---------------------------------------------------------------------------
# counts on Scalar operands (cheap, untimed) and probes (timed, uncharged)

def _conductor(value):
    if isinstance(value, Scalar):
        return value.conductor
    if isinstance(value, (int, Fraction)):
        return 1
    return None


def _count_binary(kind):
    def count(counts, args):
        a, b = args[0].conductor, _conductor(args[1])
        if b is None:
            return
        counts["scalars.binary"] = counts.get("scalars.binary", 0) + 1
        if a != b:
            counts["scalars.mixed"] = counts.get("scalars.mixed", 0) + 1
        if kind == "mul" and a == 1 and b == 1:
            counts["scalars.mul.rational"] = counts.get("scalars.mul.rational", 0) + 1
    return count


_SCALAR_COUNTS = {"add": _count_binary("add"), "mul": _count_binary("mul"),
                  "eq": _count_binary("eq")}


def _scalar_key(c):
    return (c.conductor, c.coeffs) if isinstance(c, Scalar) else c


def _poly_key(p):
    return tuple(sorted((e, _scalar_key(c)) for e, c in p.terms.items()))


def _matrix_key(m):
    return tuple(tuple(_poly_key(p) for p in row) for row in m)


def _probe_twist_mf(tracer, args, result):
    rm, M = args
    tracer.seen("groups.twist_mf", (
        tuple(_poly_key(p) for p in rm.images), rm.antilinear,
        M.ring, _poly_key(M.w), _matrix_key(M.d0), _matrix_key(M.d1),
    ))


def _probe_echelon(tracer, args, result):
    rows = args[0]
    columns = set()
    for row in rows:
        columns.update(row)
    tracer.echelons.append((
        len(rows), len(columns), sum(len(row) for row in rows),
        len(result), sum(len(row) for row in result.values()),
    ))


def _probe_rank(tracer, args, result):
    tracer.seen("linalg.sparse_rank", tuple(
        tuple(sorted((col, _scalar_key(v)) for col, v in row.items())) for row in args[0]
    ))


def _block_entries(M, N, parity):
    """Entries of a degree-`parity` morphism M -> N, over both blocks."""
    if parity == 0:
        return N.r0 * M.r0 + N.r1 * M.r1
    return N.r1 * M.r0 + N.r0 * M.r1


def _lcm_conductor(*structs) -> int:
    L = 1
    for s in structs:
        scalars = [c for i in s.group.elements() for img in s.action.map_of(i).images
                   for c in img.terms.values()]
        scalars += [c for u in s.u for blk in (u.f0, u.f1) for row in blk for p in row
                    for c in p.terms.values()]
        for m in [c.conductor for c in scalars] + [s.base.ring.conductor]:
            L = L * m // gcd(L, m)
    return L


def _probe_fixed_hom(tracer, args, result):
    """Unknowns of the fixed-Hom solve: entries x monomials x field degree."""
    s, sp = result.source, result.target
    M, N = s.base, sp.base
    monomials = comb(M.ring.nvars + result.cutoff, M.ring.nvars)
    tracer.add("real.fixed_hom.unknowns", _block_entries(M, N, result.parity) * monomials
               * euler_phi(_lcm_conductor(s, sp)))


def _probe_hom_cohomology(tracer, args, result):
    """Unknowns of the source windows of both parities at cutoff and cutoff + 1."""
    M, N = args[0], args[1]
    nvars = M.ring.nvars
    tracer.add("cohomology.window_unknowns", sum(
        _block_entries(M, N, parity) * comb(nvars + c, nvars)
        for c in (result.cutoff, result.cutoff + 1) for parity in (0, 1)
    ))


_PROBES = {
    "groups.twist_mf": _probe_twist_mf,
    "linalg.sparse_echelon": _probe_echelon,
    "linalg.sparse_rank": _probe_rank,
    "real.fixed_hom": _probe_fixed_hom,
    "cohomology.hom_cohomology": _probe_hom_cohomology,
}
