"""Hand-written known answers for the benchmark verdicts.

Nothing here is computed by mfsym: every value is the mathematical answer
the verdict must reproduce, written down independently of the program
under test.
"""

from __future__ import annotations


def a_series_hom_dims(n: int, k: int, j: int) -> tuple[int, int]:
    """(dim H0, dim H1) of Hom between the rank-one A-series factorizations
    M = (x^k, x^(n-k)) and N = (x^j, x^(n-j)) of x^n.

    Both groups equal k[x]/(x^m) with m = min(k, j, n-k, n-j); Knoerrer
    periodicity (tensoring both sides with y*z) leaves them unchanged.
    """
    m = min(k, j, n - k, n - j)
    return (m, m)


# Real Knoerrer tower from the one-variable spinor (x, x) of x^2 under the
# conjugation action.  Step s has ranks (2^s, 2^s); every step carries a
# verified Real structure whose closed fixed Hom space at cutoff 0 has
# dimension 1 in each parity.
def spinor_tower_ranks(step: int) -> tuple[int, int]:
    return (2 ** step, 2 ** step)


SPINOR_CLOSED_FIXED_DIMS = (1, 1)

# The graded Clifford module recovered from a tower factorization is
# irreducible: degree-zero module maps to itself and to its parity shift
# are each one-dimensional.
SPINOR_MODULE_HOM_DIMS = (1, 1)

# cl(1,1) tensored with itself four times (three graded tensor steps) is
# the signature algebra cl(4,4).
TENSOR_TOWER_STEPS = 3
TENSOR_TOWER_SIGNATURE = (4, 4)

# Bundled orientifold scenarios: every task passes.  The witness has ranks
# (1,1); a single Knoerrer step toggles the variant (plain <-> shifted)
# and gives ranks (2,2), which the scenario report does not print; the
# double step restores the variant (its task fails otherwise) and gives
# ranks (4,4).
ORIENTIFOLD_SCENARIOS = {
    "orientifold-plain-c4.json": {
        "validate-action": {"invariance": [True, True, True, True]},
        "rank-one-orientifold": {},
        "theta-cocycle": {},
        "orientifold-knorrer": {"coherent": True, "variant": "shifted"},
        "double-knorrer": {"coherent": True, "ranks": [4, 4]},
        "duality-suite": {"g1": True, "g3": True, "comparison": True, "torsor": True},
    },
    "orientifold-shifted-c2.json": {
        "validate-action": {"invariance": [True, True]},
        "rank-one-orientifold": {},
        "theta-cocycle": {},
        "orientifold-knorrer": {"coherent": True, "variant": "plain"},
        "double-knorrer": {"coherent": True, "ranks": [4, 4]},
        "hyperbolic-transport": {},
    },
}
