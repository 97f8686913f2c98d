import math
from fractions import Fraction

import pytest

from weylhull.absorption import (
    WalkFamily,
    absorption_probability,
    absorption_probability_float,
    one_dimensional_reference,
    wendel_probability,
)


def test_walk_b_one_dimensional():
    assert absorption_probability(WalkFamily("walk-B", 3, 1)).absorb == Fraction(3, 8)
    got = absorption_probability(WalkFamily("walk-B", 4, 1)).non_absorb
    assert got == 2 * Fraction(math.comb(8, 4), 4**4)


def test_walk_b_two_dimensional():
    # n=4, d=2: non-absorb = 11/12
    res = absorption_probability(WalkFamily("walk-B", 4, 2))
    assert res.non_absorb == Fraction(11, 12)
    assert res.absorb == Fraction(1, 12)


def test_bridge_sign_constant():
    for n in range(2, 12):
        res = absorption_probability(WalkFamily("bridge-A", n, 1))
        assert res.non_absorb == Fraction(2, n)


def test_walk_d_small():
    # D row (6, 11, 6, 1), order 2^2 3! = 24: d=1 non-absorb = 2*6/24
    res = absorption_probability(WalkFamily("walk-D", 3, 1))
    assert res.non_absorb == Fraction(1, 2)


def test_joint_b_is_product_family():
    joint = absorption_probability(WalkFamily("joint-B", (2, 3), 2))
    assert joint.absorb + joint.non_absorb == 1
    assert 0 < joint.absorb < 1


def test_wendel_closed_form():
    for r in range(1, 10):
        for d in range(1, r + 1):
            got = absorption_probability(WalkFamily("wendel", r, d)).non_absorb
            assert got == wendel_probability(r, d)


def test_wendel_degenerate_cases():
    assert wendel_probability(1, 1) == 1
    assert wendel_probability(3, 1) == Fraction(1, 4)
    assert wendel_probability(4, 4) == 1


def test_absorb_monotone_in_dimension():
    for n in (5, 8):
        vals = [absorption_probability(WalkFamily("walk-B", n, d)).absorb for d in range(1, n + 1)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_float_route_matches_exact():
    for kind in ("bridge-A", "walk-B", "walk-D"):
        for n, d in [(50, 2), (200, 4)]:
            fam = WalkFamily(kind, n, d)
            exact = float(absorption_probability(fam).absorb)
            assert absorption_probability_float(fam) == pytest.approx(exact, abs=1e-11)


def test_one_dimensional_references():
    assert one_dimensional_reference("sparre-positive", 2) == Fraction(3, 8)
    assert one_dimensional_reference("bridge-sign", 5) == Fraction(2, 5)
    assert one_dimensional_reference("simple-bridge-sign", 4) == Fraction(1, 3)


def test_invalid_families_rejected():
    with pytest.raises(ValueError):
        WalkFamily("walk-X", 3, 1)
    with pytest.raises(ValueError):
        WalkFamily("walk-B", 0, 1)
    with pytest.raises(ValueError):
        WalkFamily("walk-B", 3, 0)


def test_outside_hypotheses_flagged():
    res = absorption_probability(WalkFamily("walk-B", 2, 5))
    assert not res.within_hypotheses


def test_joint_and_wendel_families_are_products_of_factors():
    # one joint factor is a plain walk, and Wendel's r points are r one-step walks
    for n in (1, 2, 5, 9):
        for d in range(1, n + 2):
            joint = absorption_probability(WalkFamily("joint-B", (n,), d))
            walk = absorption_probability(WalkFamily("walk-B", n, d))
            assert (joint.absorb, joint.within_hypotheses) == (walk.absorb, walk.within_hypotheses)
    for r in (1, 2, 6, 11):
        for d in range(1, r + 2):
            wendel = absorption_probability(WalkFamily("wendel", r, d))
            joint = absorption_probability(WalkFamily("joint-B", (1,) * r, d))
            assert (wendel.absorb, wendel.within_hypotheses) == (joint.absorb, joint.within_hypotheses)


def test_step_counts_without_a_chamber_rejected():
    # a one-step bridge has no hull points, and D needs two coordinates
    for kind, steps in (("bridge-A", 1), ("walk-D", 1), ("joint-B", (3, 0)), ("wendel", 0)):
        with pytest.raises(ValueError):
            WalkFamily(kind, steps, 1)
    with pytest.raises(ValueError):
        one_dimensional_reference("bridge-sign", 1)
