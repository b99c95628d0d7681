"""Named example factorizations, Real structures, and Clifford modules.

The catalogs back the verification suites: a spread of factorizations
over one and several variables (rank-one kernels, external tensor
products, Knoerrer images, bridge images of Clifford modules), Real
structures for the conjugation and dihedral actions, and the small
Clifford module list used for the bridge comparisons.
"""

from __future__ import annotations

from .scalars import Scalar
from .polys import Poly, RingSpec
from .mf import MF, rank_one, external_tensor, identity_mor, scaled_identity
from .groups import (
    ActionSpec, ANTILINEAR, ContraRep, cyclic_group, dihedral_group,
    diagonal_action, scaled_fixed_point, twist_mf,
)
from .real import RealStruct, rank_one_real_condition, tensor_real_structure, real_knorrer
from .clifford import (
    QuadForm, CliffAlg, CliffMod, smat, beh_phi, parity_shift, module_validate,
)


def _ring(names, conductor=1):
    return RingSpec(tuple(names), conductor=conductor)


def mf_catalog():
    """Named factorizations over assorted rings; every entry passes the
    exact twisted-differential identity by construction."""
    out = []

    Ruv = _ring(("u", "v"))
    u, v = Poly.variable(Ruv, "u"), Poly.variable(Ruv, "v")
    out.append(("hyperbolic-uv", rank_one(u, v)))

    Rx = _ring(("x",))
    x = Poly.variable(Rx, "x")
    out.append(("square-spinor", rank_one(x, x)))
    for n in range(2, 6):
        out.append((f"a-series-{n}", rank_one(x, x ** n)))
    w3 = x ** 3
    out.append(("trivial-w", rank_one(Poly.constant(Rx, 1), w3)))

    Rxy = _ring(("x", "y"), conductor=3)
    xx, yy = Poly.variable(Rxy, "x"), Poly.variable(Rxy, "y")
    out.append(("fermat-cubic-line", rank_one(xx + yy, xx * xx - xx * yy + yy * yy)))

    Ry = _ring(("y", "z"))
    yv, zv = Poly.variable(Ry, "y"), Poly.variable(Ry, "z")
    K = rank_one(yv, zv)
    out.append(("tensor-uv-yz", external_tensor(rank_one(u, v), K)))
    out.append(("knorrer-square", external_tensor(rank_one(x, x), K)))
    out.append(("knorrer-a2", external_tensor(rank_one(x, x * x), K)))
    Rst = _ring(("s", "t"), conductor=3)
    K2 = rank_one(Poly.variable(Rst, "s"), Poly.variable(Rst, "t"))
    out.append(("knorrer-cubic-line",
                external_tensor(rank_one(xx + yy, xx * xx - xx * yy + yy * yy), K2)))

    Rq1 = _ring(("x",))
    spin = spinor_module()
    out.append(("bridge-spinor", beh_phi(spin, Rq1)))
    Rq2 = _ring(("x", "y"), conductor=4)
    out.append(("bridge-pauli", beh_phi(pauli_module(), Rq2)))
    out.append(("bridge-pauli-shift", beh_phi(parity_shift(pauli_module()), Rq2)))
    out.append(("bridge-pauli-double", beh_phi(double_pauli_module(), Rq2)))

    return out


def an_rank_one(n: int) -> MF:
    """The rank-one factorization {x, x^n} of the A-series potential."""
    x = Poly.variable(_ring(("x",)), "x")
    return rank_one(x, x ** n)


# ---------------------------------------------------------------------------
# Real structures

def conjugation_action(ring: RingSpec, signs=None) -> ActionSpec:
    """The antilinear action whose odd generator conjugates coefficients
    and scales the variables by the given signs (default all +1)."""
    g = cyclic_group(2, graded=True)
    if signs is None:
        signs = (1,) * ring.nvars
    eigen = {
        0: tuple(Scalar.one() for _ in signs),
        1: tuple(Scalar.from_rational(s) for s in signs),
    }
    return diagonal_action(g, ring, ANTILINEAR, eigen)


def search_scaled_structure(act: ActionSpec, base: MF):
    """The first Real structure whose components are scalar multiples of
    the identity blocks (groups.scaled_fixed_point over the units zeta_L^k,
    L = max(conductor, 4)) that passes the cocycle law; None if none does.
    The action itself is verify_real_structure's to check."""
    L = max(act.ring.conductor, 4)
    u = scaled_fixed_point(ContraRep(act.group, act, base.w), base,
                           [Scalar.zeta(L, k) for k in range(L)])
    return None if u is None else RealStruct(base, act, tuple(u.values()))


def dihedral_cubic_action(m: int = 3) -> ActionSpec:
    """The dihedral action on the Fermat potential x^m + y^m: rotations
    scale both variables by roots of unity, reflections conjugate."""
    g = dihedral_group(m)
    ring = _ring(("x", "y"), conductor=m)
    eigen = {}
    for i in g.elements():
        k = i % m
        if i < m:
            z = Scalar.zeta(m, k)
        else:
            # reflection s r^k composed as conjugation after the rotation
            z = Scalar.zeta(m, (-k) % m)
        eigen[i] = (z, z)
    return diagonal_action(g, ring, ANTILINEAR, eigen)


def real_catalog():
    """Named Real structures over the conjugation and dihedral groups."""
    out = []

    Rx = _ring(("x",))
    x = Poly.variable(Rx, "x")
    base = rank_one(x, x)
    act = conjugation_action(Rx)
    conj = scaled_identity(base, twist_mf(act.map_of(1), base), 1, 1)
    s_spin = RealStruct(base, act, (identity_mor(base), conj))
    out.append(("conjugation-spinor", s_spin))

    Ruv = _ring(("u", "v"))
    act_uv = conjugation_action(Ruv, signs=(-1, -1))
    found = rank_one_real_condition(act_uv)
    if found is None:
        raise ValueError("no Real structure on the hyperbolic rank-one factorization")
    out.append(("conjugation-hyperbolic", found[1]))

    out.append(("conjugation-knorrer-spinor", real_knorrer(s_spin)))
    out.append(("conjugation-tensor", tensor_real_structure(s_spin, found[1])))

    act_d = dihedral_cubic_action(3)
    Rxy = act_d.ring
    xx, yy = Poly.variable(Rxy, "x"), Poly.variable(Rxy, "y")
    base_d = rank_one(xx + yy, xx * xx - xx * yy + yy * yy)
    s_d = search_scaled_structure(act_d, base_d)
    if s_d is None:
        raise ValueError("no scaled Real structure on the dihedral cubic line")
    out.append(("dihedral-cubic-line", s_d))
    out.append(("dihedral-knorrer", real_knorrer(s_d)))

    return out


# ---------------------------------------------------------------------------
# Clifford modules

def spinor_module() -> CliffMod:
    alg = CliffAlg(QuadForm.diagonal([1]))
    return CliffMod(alg, (1, 1), ((smat([[1]]), smat([[1]])),))


def pauli_module() -> CliffMod:
    i = Scalar.i()
    alg = CliffAlg(QuadForm.diagonal([1, 1]))
    return CliffMod(alg, (1, 1), (
        (smat([[1]]), smat([[1]])),
        (smat([[i]]), smat([[-i]])),
    ))


def double_pauli_module() -> CliffMod:
    """The direct sum of two copies of the Pauli module; dims (2, 2)."""
    i = Scalar.i()
    z = Scalar.zero()
    alg = CliffAlg(QuadForm.diagonal([1, 1]))
    return CliffMod(alg, (2, 2), (
        (smat([[1, z], [z, 1]]), smat([[1, z], [z, 1]])),
        (smat([[i, z], [z, i]]), smat([[-i, z], [z, -i]])),
    ))


def clifford_module_catalog():
    """Named graded modules for forms of dimension at most two."""
    spin = spinor_module()
    pauli = pauli_module()
    entries = [
        ("spinor", spin),
        ("spinor-shift", parity_shift(spin)),
        ("pauli", pauli),
        ("pauli-shift", parity_shift(pauli)),
        ("pauli-double", double_pauli_module()),
    ]
    for name, m in entries:
        if module_validate(m):
            raise ValueError(f"catalog module {name} fails its relations")
    return entries


def clifford_ring_for(m: CliffMod) -> RingSpec:
    n = m.alg.quad.dimension
    names = ("x", "y", "z", "t")[:n]
    return _ring(names, conductor=4 if n > 1 else 1)
