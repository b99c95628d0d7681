"""Every input that the scenario bounds admit finishes in bounded time.

One in-process case per admitted bound, built to be the worst case for
that bound, asserts a wall-clock limit at least 10x above what it takes
on a 2-core machine.  Two bounds have no case yet, because their worst
cases do not finish in bounded time today:

- the conductor bound admits divisions by zeta(359) + 2, which take
  seconds each, and nothing bounds their number in one expression; that
  case lands with a faster Scalar inverse;
- the monomial bounds count terms, not the cost of their coefficients:
  the expression case below has rational ones, and one admitted product
  whose coefficients are dense in Q(zeta_359) takes seconds;
- the group-order bound admits witness searches over up to
  units^(|G| - 1) families at |G| = 64; that case lands with the witness
  search by propagation from generators.
"""

import json
import time

from mfsym import cli
import pytest

from mfsym.cli import (
    MAX_ITERATIONS, SCHEMA, ScenarioError, _eightfold_consistency, main, parse_poly,
)
from mfsym.polys import RingSpec


def _timed(f, *args):
    start = time.perf_counter()
    out = f(*args)
    return out, time.perf_counter() - start


def test_eightfold_consistency_at_the_iteration_bound():
    """About 0.5 s at MAX_ITERATIONS = 5."""
    (_, verdict), seconds = _timed(_eightfold_consistency, MAX_ITERATIONS)
    assert verdict.ok
    assert seconds < 10, seconds


def _window_task(tmp_path, cutoff):
    """rank_one(x^3, x^5) tensored with rank_one(y, z), against itself: 8
    block entries per parity, so cutoff c needs 8 * comb(c + 4, 3)
    unknowns, 18400 at c = 21 and 20800 at c = 22."""
    p = tmp_path / f"window-{cutoff}.json"
    p.write_text(json.dumps({
        "schema": SCHEMA, "ring": {"variables": ["x", "y", "z"]}, "potential": "x^8 + y*z",
        "tasks": [{"op": "hom-cohomology", "d0": [["x^3", "y"], ["z", "-x^5"]],
                   "d1": [["x^5", "y"], ["z", "-x^3"]], "cutoff": cutoff, "expect": [3, 3]}]}))
    out = tmp_path / f"report-{cutoff}.json"
    code, seconds = _timed(main, ["run", str(p), "--json", str(out)])
    return code, seconds, json.loads(out.read_text())["tasks"][0]


def test_hom_cohomology_at_the_largest_admitted_window(tmp_path):
    """About 0.3 s for 18400 of the MAX_WINDOW_UNKNOWNS = 20000 unknowns;
    one more degree is refused."""
    assert cli.MAX_WINDOW_UNKNOWNS == 20000
    code, seconds, task = _window_task(tmp_path, 21)
    assert code == 0 and task["ok"], task
    assert seconds < 5, seconds
    code, _, task = _window_task(tmp_path, 22)
    assert code == 2 and "error" in task["detail"]


def test_parse_poly_at_the_monomial_bound():
    """About 0.05 s for a product of 496 of the MAX_POWER_MONOMIALS = 500
    monomials of its degree or lower."""
    assert cli.MAX_POWER_MONOMIALS == 500
    poly, seconds = _timed(parse_poly, "(u+v+1)^15*(u+v+1)^15", RingSpec(("u", "v")))
    assert len(poly.terms) == 496
    assert seconds < 1, seconds


def test_parse_poly_at_the_expression_bound():
    """About 0.12 s for products and powers that count 1971 of the
    MAX_EXPRESSION_MONOMIALS = 2000 monomials together: two products of 496
    monomials, each of two powers of 136, and a power of 435; the same
    product once more is refused."""
    assert (cli.MAX_POWER_MONOMIALS, cli.MAX_EXPRESSION_MONOMIALS) == (500, 2000)
    ring = RingSpec(("u", "v"))
    product = "(u+v+1)^15*(u+v+1)^15"
    poly, seconds = _timed(parse_poly, f"{product}+{product}+(u+v+1)^28", ring)
    assert len(poly.terms) == 496
    assert seconds < 2, seconds
    with pytest.raises(ScenarioError):
        parse_poly(f"{product}+{product}+{product}", ring)
