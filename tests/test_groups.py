"""Graded groups, actions, characters, and cocycles."""

import subprocess
import sys
from pathlib import Path

import pytest

from mfsym.scalars import Scalar
from mfsym.polys import Poly, RingSpec, RingMap
from mfsym.groups import (
    GroupSpec, cyclic_group, dihedral_group, product_group, ActionSpec, validate_action,
    potential_invariance,
    cocycle_check, universal_sign_cocycle,
    ANTILINEAR, CONTRAVARIANT, twist_mf, diagonal_action,
    fresh_variable_pair, join_actions,
)
from mfsym.mf import rank_one, identity_mor
from mfsym.real import rank_one_real_condition
import mfsym.catalog as catalog
from oracles import twist_mor


def test_group_presets_validate():
    for g in (cyclic_group(2, graded=True), cyclic_group(4, graded=True),
              cyclic_group(3), dihedral_group(3), dihedral_group(4)):
        g.validate()


@pytest.mark.parametrize("labels, table, grading", [
    (("e", "g"), ((0, 1), (1, 0)), (0, 0)),
    (("e", "g"), ((0, 1), (1, 0)), (True, -1)),
    (("e", "g"), ((0, 1), (1, 0), (0, 1)), (1, -1)),
    (("e", "e"), ((0, 1), (1, 0)), (1, -1)),
], ids=["grading-zero", "grading-bool", "extra-row", "duplicate-labels"])
def test_validate_checks_the_table_against_its_size(labels, table, grading):
    """Each passed the identity, associativity and homomorphism tests: 0 * 0
    is 0, and the loops read only the first n rows."""
    with pytest.raises(ValueError):
        GroupSpec(labels, table, 0, grading).validate()


def test_gradings():
    g2 = cyclic_group(2, graded=True)
    assert g2.grading == (1, -1)
    assert g2.kernel() == [0]
    assert g2.odd_elements() == [1]
    g4 = cyclic_group(4, graded=True)
    assert g4.kernel() == [0, 2]
    d3 = dihedral_group(3)
    # reflections are the odd elements
    assert len(d3.odd_elements()) == 3


def test_product_group():
    g = product_group(cyclic_group(2, graded=True), cyclic_group(2))
    g.validate()
    assert g.order == 4
    assert g.grading == (1, 1, -1, -1)


def test_dihedral_multiplication():
    d3 = dihedral_group(3)
    # r s = s r^{-1}: with elements 0..2 rotations, 3..5 reflections
    r, s = 1, 3
    assert d3.mul(r, d3.mul(s, r)) == s


def test_validate_action_antilinear():
    ring = RingSpec(("u", "v"), conductor=4)
    u, v = Poly.variable(ring, "u"), Poly.variable(ring, "v")
    act = catalog.conjugation_action(ring)
    rep = validate_action(act, u * v)
    assert rep.ok
    bad = ActionSpec(act.group, ANTILINEAR,
                     (RingMap.identity(ring), RingMap((-u, v), True)))
    assert not validate_action(bad, u * v).ok
    nonhom = ActionSpec(act.group, ANTILINEAR,
                        (RingMap.identity(ring), RingMap((u, u), True)))
    with pytest.raises(ValueError):
        validate_action(nonhom, u * v)


def test_validate_action_contravariant_semi_invariance():
    ring = RingSpec(("u", "v"), conductor=4)
    u, v = Poly.variable(ring, "u"), Poly.variable(ring, "v")
    g = cyclic_group(2, graded=True)
    act = ActionSpec(g, CONTRAVARIANT,
                     (RingMap.identity(ring), RingMap((-u, v), False)))
    rep = validate_action(act, u * v)
    assert rep.ok
    # without the sign the odd element fails semi-invariance
    act2 = ActionSpec(g, CONTRAVARIANT,
                      (RingMap.identity(ring), RingMap((u, v), False)))
    assert not validate_action(act2, u * v).ok


@pytest.mark.parametrize("images, antilinear, identity", [
    (lambda u, v: (u, v), False, "action flags"),
    (lambda u, v: (-u + v * v, v), True, "linear images"),
    (lambda u, v: (-u, v), True, "potential invariance"),
], ids=["flags", "nonlinear", "invariance"])
def test_validate_action_names_the_failing_identity_and_element(images, antilinear, identity):
    """Each antilinear C2 action is a homomorphism whose odd element fails
    one check; the verdict names that check and the element."""
    ring = RingSpec(("u", "v"), conductor=4)
    u, v = Poly.variable(ring, "u"), Poly.variable(ring, "v")
    act = ActionSpec(cyclic_group(2, graded=True), ANTILINEAR,
                     (RingMap.identity(ring), RingMap(images(u, v), antilinear)))
    verdict = validate_action(act, u * v)
    assert (verdict.ok, verdict.identity, verdict.at) == (False, identity, ("g1",))
    assert potential_invariance(act, u * v) == [True, identity == "action flags"]


def test_char_crossed_law():
    """rank_one_real_condition checks chi's crossed law on the C4 action
    that scales u by chi and v by its inverse, odd elements antilinear."""
    g = cyclic_group(4, graded=True)
    ring = RingSpec(("u", "v"), conductor=4)
    i = Scalar.i()

    def action(chi):
        return diagonal_action(g, ring, ANTILINEAR,
                               {k: (c, c.inverse()) for k, c in enumerate(chi)})

    # chi(r) = i works antilinearly: chi(r^2) = i * conj(i) = 1
    chi = (Scalar.one(), i, Scalar.one(), i)
    found = rank_one_real_condition(action(chi))
    assert found is not None and found[0] == chi
    assert rank_one_real_condition(action((Scalar.one(), i, -Scalar.one(), i))) is None


def test_universal_sign_cocycle():
    for g in (cyclic_group(2, graded=True), cyclic_group(4, graded=True),
              dihedral_group(3)):
        for setting in (ANTILINEAR, CONTRAVARIANT):
            mu = universal_sign_cocycle(g, setting)
            assert cocycle_check(mu)
            odd = g.odd_elements()
            if odd:
                s = odd[0]
                assert mu.value(s, s) == -Scalar.one()


def test_twist_mf_and_mor():
    ring = RingSpec(("u", "v"), conductor=4)
    u, v = Poly.variable(ring, "u"), Poly.variable(ring, "v")
    M = rank_one(u, v)
    rm = RingMap((-u, -v), False)
    T = twist_mf(rm, M)
    assert T.d0[0][0] == -u
    assert T.w == u * v
    f = twist_mor(rm, identity_mor(M))
    assert f.f0[0][0] == Poly.constant(ring, 1)


def test_join_actions_acts_by_both_maps():
    g = cyclic_group(2, graded=True)
    uv, yz = RingSpec(("u", "v"), conductor=4), RingSpec(("y", "z"), conductor=4)
    one, minus = Scalar.one(), -Scalar.one()
    a = diagonal_action(g, uv, CONTRAVARIANT, {0: (one, one), 1: (minus, one)})
    b = diagonal_action(g, yz, CONTRAVARIANT, {0: (one, one), 1: (one, minus)})
    joined = join_actions(a, b)
    ring = joined.ring
    assert ring.variables == ("u", "v", "y", "z")
    u, v, y, z = (Poly.variable(ring, name) for name in ring.variables)
    assert joined.map_of(1).images == (-u, v, y, -z)
    assert validate_action(joined, u * v - y * z).ok


def test_fresh_variable_pair():
    assert fresh_variable_pair({"x"}) == ("u", "v")
    assert fresh_variable_pair({"u", "v"}) == ("u1", "v1")
    assert fresh_variable_pair({"v"}) == ("u1", "v1")
    assert fresh_variable_pair({"u", "v", "u1", "v1"}) == ("u2", "v2")


_BAD_INPUT = """
import sys
sys.path[:0] = sys.argv[1:]
from mfsym.polys import RingSpec, RingMap
from mfsym.groups import (
    ActionSpec, Cocycle2, cyclic_group, join_actions, ANTILINEAR, CONTRAVARIANT,
)
g = cyclic_group(2, graded=True)
uv, yz = RingSpec(("u", "v")), RingSpec(("y", "z"))
ident = RingMap.identity(uv)
linear = ActionSpec(g, CONTRAVARIANT, (RingMap.identity(yz),) * 2)
flagged = ActionSpec(g, CONTRAVARIANT, (ident, RingMap(ident.images, True)))
bad = {
    "setting": lambda: ActionSpec(g, "covariant", (ident, ident)),
    "map count": lambda: ActionSpec(g, ANTILINEAR, (ident,)),
    "odd graded cyclic": lambda: cyclic_group(3, graded=True),
    "join groups": lambda: join_actions(
        ActionSpec(cyclic_group(4), CONTRAVARIANT, (ident,) * 4), linear),
    "join settings": lambda: join_actions(ActionSpec(g, ANTILINEAR, (ident, ident)), linear),
    "join flags": lambda: join_actions(flagged, linear),
    "cocycle groups": lambda: Cocycle2.trivial(g, ANTILINEAR).multiply(
        Cocycle2.trivial(cyclic_group(4), ANTILINEAR)),
}
for name, build in bad.items():
    try:
        build()
    except ValueError:
        continue
    sys.exit(f"no ValueError for {name}")
"""


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_bad_input_raises_value_error_without_asserts(optimize):
    src_dir = Path(__file__).resolve().parent.parent / "src"
    flags = ["-O"] if optimize else []
    run = subprocess.run([sys.executable, *flags, "-c", _BAD_INPUT, str(src_dir)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
