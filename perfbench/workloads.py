"""The four benchmark workloads, built only from mfsym's public functions.

A workload has a ``setup(seed, root)`` that builds its inputs and a
``verdicts(state, pass_index)`` that returns the verdicts of one pass as
``(label, thunk, expected)`` triples.  A thunk returns a JSON-able summary
of what mfsym computed; the verdict holds when it equals ``expected``,
which comes from ``oracle`` and never from the program under test.

Only ``hom-cohomology`` draws its inputs from the seed; the other three
have one fixed input each and ignore it.
"""

from __future__ import annotations

import random
from pathlib import Path

from mfsym import catalog
from mfsym.cli import load_scenario, run_scenario
from mfsym.clifford import (
    cl_rs, graded_tensor, mf_to_clifford_module, module_hom_dim, parity_shift,
    signature,
)
from mfsym.cohomology import default_cutoff, hom_cohomology
from mfsym.groups import twist_mf
from mfsym.mf import MFMor, external_tensor, identity_mor, rank_one
from mfsym.polys import Poly, RingSpec
from mfsym.real import (
    RealStruct, closed_dimension, fixed_hom, real_knorrer, verify_real_structure,
)

import oracle


def _spinor_structure() -> RealStruct:
    """The one-variable spinor (x, x) of x^2 with the conjugation action and
    identity components, as in the eightfold consistency check."""
    ring = RingSpec(("x",), conductor=4)
    x = Poly.variable(ring, "x")
    base = rank_one(x, x)
    act = catalog.conjugation_action(ring)
    ident = identity_mor(base)
    conj = MFMor(base, twist_mf(act.map_of(1), base), 0, ident.f0, ident.f1)
    return RealStruct(base, act, (ident, conj))


# ---------------------------------------------------------------------------
# real-tower: Real Knoerrer steps up to ranks (8, 8)

TOWER_STEPS = 3


def _real_tower_setup(seed: int, root: Path):
    return _spinor_structure()


def _real_tower_verdicts(start: RealStruct, pass_index: int):
    held = {"cur": start}

    def step(s: int):
        def run():
            cur = held["cur"] if s == 0 else real_knorrer(held["cur"])
            held["cur"] = cur
            out = {
                "ranks": list(cur.base.ranks),
                "verified": verify_real_structure(cur).ok,
                "closed_fixed_dims": [
                    closed_dimension(fixed_hom(cur, cur, p, cutoff=0)) for p in (0, 1)
                ],
            }
            if s == 0:
                # the spinor is the A-series pair n=2, k=j=1
                cutoff = default_cutoff(cur.base.w)
                out["cohomology_dims"] = list(hom_cohomology(cur.base, cur.base, cutoff).dims)
            return out

        expected = {
            "ranks": list(oracle.spinor_tower_ranks(s)),
            "verified": True,
            "closed_fixed_dims": list(oracle.SPINOR_CLOSED_FIXED_DIMS),
        }
        if s == 0:
            expected["cohomology_dims"] = list(oracle.a_series_hom_dims(2, 1, 1))
        return f"step{s}", run, expected

    return [step(s) for s in range(TOWER_STEPS + 1)]


# ---------------------------------------------------------------------------
# hom-cohomology: seeded A-series pairs

# The Knoerrer image at n >= 4 costs 7-11 s per pair on a 2-core box, too
# much for several passes in one run, so pairs of larger n are checked
# without it; they carry the answers with m > 1.
TENSORED_N = 3
PLAIN_N = (4, 5, 6, 7, 8)
DRAWS = 16


def draw_pairs(seed: int):
    """DRAWS passes' worth of (n, k, j, tensored) pairs: one pair per n."""
    rng = random.Random(seed)
    return [
        [(n, rng.randint(1, n - 1), rng.randint(1, n - 1), n == TENSORED_N)
         for n in (TENSORED_N,) + PLAIN_N]
        for _ in range(DRAWS)
    ]


def _hom_setup(seed: int, root: Path):
    rx = RingSpec(("x",), conductor=1)
    x = Poly.variable(rx, "x")
    ryz = RingSpec(("y", "z"), conductor=1)
    K = rank_one(Poly.variable(ryz, "y"), Poly.variable(ryz, "z"))
    draws = []
    for draw in draw_pairs(seed):
        cases = []
        for n, k, j, tensored in draw:
            M = rank_one(x ** k, x ** (n - k))
            N = rank_one(x ** j, x ** (n - j))
            cases.append((f"n{n}k{k}j{j}", n, k, j, M, N))
            if tensored:
                cases.append((f"n{n}k{k}j{j}-yz", n, k, j,
                              external_tensor(M, K), external_tensor(N, K)))
        draws.append(cases)
    return {"x": x, "draws": draws}


def _hom_verdicts(state, pass_index: int):
    x = state["x"]

    def verdict(label, n, k, j, M, N):
        def run():
            report = hom_cohomology(M, N, default_cutoff(x ** n))
            return {"dims": list(report.dims), "stable": report.stable}

        return label, run, {"dims": list(oracle.a_series_hom_dims(n, k, j)), "stable": True}

    return [verdict(*case) for case in state["draws"][pass_index % DRAWS]]


# ---------------------------------------------------------------------------
# orientifold: the two bundled contravariant scenarios

def _orientifold_setup(seed: int, root: Path):
    paths = [str(root / "scenarios" / name) for name in oracle.ORIENTIFOLD_SCENARIOS]
    for path in paths:
        load_scenario(path)
    return paths


def _orientifold_verdicts(paths, pass_index: int):
    def verdict(path):
        expected_tasks = oracle.ORIENTIFOLD_SCENARIOS[Path(path).name]

        def run():
            report = run_scenario(path)
            return {
                r.name: {"ok": r.ok, **{key: r.detail.get(key) for key in
                                        expected_tasks.get(r.name, {})}}
                for r in report.results
            }

        expected = {name: {"ok": True, **detail} for name, detail in expected_tasks.items()}
        return Path(path).stem, run, expected

    return [verdict(p) for p in paths]


# ---------------------------------------------------------------------------
# clifford-module: graded modules recovered from the tower

MODULE_STEPS = (3, 4)


def _clifford_setup(seed: int, root: Path):
    cur = _spinor_structure()
    bases = []
    for step in range(1, max(MODULE_STEPS) + 1):
        cur = real_knorrer(cur)
        if step in MODULE_STEPS:
            bases.append((step, cur.base))
    return bases


def _clifford_verdicts(bases, pass_index: int):
    def module_verdict(step, M):
        def run():
            mod = mf_to_clifford_module(M)
            return {"dims": list(mod.dims),
                    "hom_dims": [module_hom_dim(mod, mod),
                                 module_hom_dim(mod, parity_shift(mod))]}

        return (f"module-step{step}", run,
                {"dims": list(oracle.spinor_tower_ranks(step)),
                 "hom_dims": list(oracle.SPINOR_MODULE_HOM_DIMS)})

    def tensor_tower():
        alg = cl_rs(1, 1)
        acc, ok = alg, True
        for _ in range(oracle.TENSOR_TOWER_STEPS):
            acc, step_ok = graded_tensor(acc, alg)
            ok = ok and step_ok
        return {"steps_ok": ok, "signature": list(signature(acc.quad))}

    return [module_verdict(step, M) for step, M in bases] + [
        ("tensor-tower", tensor_tower,
         {"steps_ok": True, "signature": list(oracle.TENSOR_TOWER_SIGNATURE)}),
    ]


WORKLOADS = {
    "real-tower": (_real_tower_setup, _real_tower_verdicts),
    "hom-cohomology": (_hom_setup, _hom_verdicts),
    "orientifold": (_orientifold_setup, _orientifold_verdicts),
    "clifford-module": (_clifford_setup, _clifford_verdicts),
}
