import dataclasses
import decimal
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylhull import coefficients as coef
from weylhull.absorption import (
    WalkFamily,
    absorption_probability,
    absorption_probability_float,
    float_tails,
    non_absorption_probability_float,
    one_dimensional_reference,
    wendel_probability,
)

from closed_forms import family_order


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


# every kind with n <= 60 steps in all
_small_families = st.one_of(
    st.builds(lambda kind, n: (kind, n), st.sampled_from(("bridge-A", "walk-D")), st.integers(2, 60)),
    st.builds(lambda n: ("walk-B", n), st.integers(1, 60)),
    st.builds(lambda ns: ("joint-B", tuple(ns)), st.lists(st.integers(1, 20), min_size=1, max_size=3)),
    st.builds(lambda r: ("wendel", r), st.integers(1, 60)),
)


def _assert_float_tails_match_exact(fam, rel=1e-9):
    exact = absorption_probability(fam)
    for got, want in ((absorption_probability_float(fam), exact.absorb),
                      (non_absorption_probability_float(fam), exact.non_absorb)):
        assert got >= 0.0
        assert got == pytest.approx(float(want), rel=rel, abs=0.0)


@settings(max_examples=150, deadline=None)
@given(_small_families, st.integers(1, 12))
def test_float_tails_match_exact_on_small_families(family, d):
    _assert_float_tails_match_exact(WalkFamily(*family, d))


#: walks of distinct lengths: each run builds its own pmf before it joins the rest
_DISTINCT_RUNS = [("joint-B", (18, 21), 5), ("joint-B", (100, 7), 8), ("joint-B", (4, 3, 4), 5)]


@pytest.mark.parametrize("kind, steps, d", [
    ("walk-B", 2000, 26), ("walk-D", 200, 21), ("walk-B", 2000, 20), ("joint-B", (300, 500, 700), 20),
] + _DISTINCT_RUNS)
def test_float_tails_match_exact_in_both_tails(kind, steps, d):
    rel = 1e-13 if (kind, steps, d) in _DISTINCT_RUNS else 1e-9
    _assert_float_tails_match_exact(WalkFamily(kind, steps, d), rel)


@pytest.mark.parametrize("kind, steps, d, absorb, non_absorb", [
    ("bridge-A", 50, 2, "0x1.a444105cc8d64p-1", "0x1.6eefbe8cdca6ep-3"),
    ("bridge-A", 4900, 5, "0x1.c2a03a6ee55d4p-1", "0x1.eafe2c88d515cp-4"),
    ("bridge-A", 10**6, 3, "0x1.ffe4cd444a7efp-1", "0x1.b32bbb5810817p-13"),
    ("walk-B", 59, 21, "0x1.36f8fb3cee145p-61", "0x1.0000000000000p+0"),
    ("walk-B", 10**6, 20, "0x1.354c2521adb0fp-16", "0x1.fffd9567b5bcap-1"),
    ("walk-D", 157, 5, "0x1.43c22bf494580p-4", "0x1.d787ba816d750p-1"),
    ("walk-D", 10**5, 10, "0x1.b636309b6a430p-5", "0x1.e49c9cf6495bdp-1"),
    ("wendel", 60, 5, "0x1.fffffffffe221p-1", "0x1.ddef800000000p-41"),
    ("wendel", 1000, 30, "0x1.0000000000000p+0", "0x1.8831e9d9378c1p-814"),
])
def test_float_tails_keep_their_bits(kind, steps, d, absorb, non_absorb):
    # recorded bit for bit: the head recurrence, the power sums past it, the
    # powered repeated runs and the direct upper sum of a tiny absorb tail
    assert [x.hex() for x in float_tails(WalkFamily(kind, steps, d))] == [absorb, non_absorb]


@settings(max_examples=300, deadline=None)
@given(_small_families, st.integers(1, 80))
def test_float_tails_are_probabilities_summing_to_one(family, d):
    fam = WalkFamily(*family, d)
    absorb, non_absorb = absorption_probability_float(fam), non_absorption_probability_float(fam)
    assert 0.0 <= absorb <= 1.0 and 0.0 <= non_absorb <= 1.0
    assert abs(absorb + non_absorb - 1.0) <= math.ulp(1.0)


@settings(max_examples=100, deadline=None)
@given(_small_families)
def test_exact_absorb_is_a_probability_decreasing_in_d(family):
    vals = [absorption_probability(WalkFamily(*family, d)).absorb for d in range(1, 13)]
    assert all(0 <= v <= 1 for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def _full_row(factors):
    """The family's whole row: the product of its factors' rows."""
    row = [1]
    for t, n in factors:
        out = [0] * (len(row) + n)
        for (i, x), (j, y) in itertools.product(enumerate(row), enumerate(t.row(n).coeffs)):
            out[i + j] += x * y
        row = out
    return row


def _assert_parity_sums(fam, row):
    # the paper's form: 2 / |G| times the row's coefficients d - 1 + L,
    # d - 3 + L, ... for non_absorb and d + 1 + L, d + 3 + L, ... for absorb
    start = fam.dimension - 1 + fam.lineality
    res = absorption_probability(fam)
    order = family_order(fam.factors)
    assert res.non_absorb == Fraction(2 * sum(row[k] for k in range(start, -1, -2) if k < len(row)), order)
    assert res.absorb == Fraction(2 * sum(row[start + 2::2]), order)


def _families_up_to(nmax):
    for kind in ("bridge-A", "walk-B", "walk-D"):
        for n in range(coef.TYPES[kind[-1]].chamber_min_n, nmax + 1):
            yield kind, n
    for k in (1, 2, 3):
        for steps in itertools.combinations_with_replacement((1, 2, 3, 7, 12), k):
            if sum(steps) <= nmax:
                yield "joint-B", steps
    for r in range(1, nmax + 1):
        yield "wendel", r


def test_tails_equal_the_parity_sums_of_the_full_row():
    # every d up to two past n, so the absorb tail also reaches 0
    for kind, steps in _families_up_to(30):
        fam = WalkFamily(kind, steps, 1)
        row = _full_row(fam.factors)
        for d in range(1, fam.n_total + 3):
            _assert_parity_sums(WalkFamily(kind, steps, d), row)


_families_to_200 = st.one_of(
    st.builds(lambda kind, n: (kind, n), st.sampled_from(("bridge-A", "walk-D")), st.integers(2, 200)),
    st.builds(lambda n: ("walk-B", n), st.integers(1, 200)),
    st.builds(lambda ns: ("joint-B", tuple(ns)), st.lists(st.integers(1, 66), min_size=1, max_size=3)),
    st.builds(lambda r: ("wendel", r), st.integers(1, 200)),
)


@settings(max_examples=60, deadline=None)
@given(_families_to_200, st.data())
def test_tails_equal_the_parity_sums_up_to_n_200(family, data):
    fam = WalkFamily(*family, 1)
    d = data.draw(st.integers(1, fam.n_total + 2))
    _assert_parity_sums(WalkFamily(*family, d), _full_row(fam.factors))


def test_tail_roots_drop_the_zero_roots_and_one_unit_root():
    a, b, d = coef.TYPES["A"], coef.TYPES["B"], coef.TYPES["D"]
    assert coef.tail_roots(((a, 5),)) == (range(2, 5),)
    assert coef.tail_roots(((b, 4),)) == (range(3, 8, 2),)
    assert coef.tail_roots(((d, 2),)) == (range(0), range(1, 2))
    assert coef.tail_roots(((b, 1),) * 3) == (range(0), range(1, 2), range(1, 2))
    with pytest.raises(ValueError, match="root 1"):
        coef.tail_roots(((a, 1),))


def test_float_tail_past_the_exact_cap_matches_its_closed_form():
    # walk-B, d = 2: Y sums Bernoulli(1/(2k)) over k = 2..n, so
    # P(Y <= 1) = 2 C(2n, n) / 4^n * (1 + sum_{k=2}^{n} 1/(2k - 1))
    n = 10**5
    with decimal.localcontext(decimal.Context(prec=50)):
        one = decimal.Decimal(1)
        p0 = 2 * math.prod((one * (2 * k - 1) / (2 * k) for k in range(1, n + 1)), start=one)
        want = p0 * (1 + sum(one / (2 * k - 1) for k in range(2, n + 1)))
    got = non_absorption_probability_float(WalkFamily("walk-B", n, 2))
    assert abs(decimal.Decimal(got) - want) <= decimal.Decimal("1e-12") * want


def test_float_wendel_matches_its_closed_form():
    cases = [(r, d) for r in range(1, 61) for d in range(1, r + 3)]
    cases += [(1000, d) for d in (1, 2, 10, 200, 499, 500, 501, 990, 999, 1000, 1002)]
    for r, d in cases:
        absorb, non_absorb = float_tails(WalkFamily("wendel", r, d))
        want = wendel_probability(r, d)
        assert non_absorb == pytest.approx(float(want), rel=1e-12, abs=0.0)
        assert absorb == pytest.approx(float(1 - want), rel=1e-12, abs=0.0)


def test_wendel_reads_its_repeated_factor_once(monkeypatch):
    # r one-point factors are one (B, 1) pair: its step minimum and its roots
    # are read once, not r times
    b, chamber_min_n = coef.TYPES["B"], coef.ReflectionType.chamber_min_n.fget
    roots_calls, min_n_reads = [], []

    def roots(n):
        roots_calls.append(n)
        return b.roots(n)

    def counted_min_n(t):
        min_n_reads.append(t.name)
        return chamber_min_n(t)

    monkeypatch.setitem(coef.TYPES, "B", dataclasses.replace(b, roots=roots))
    monkeypatch.setattr(coef.ReflectionType, "chamber_min_n", property(counted_min_n))
    # the patched record's lineality and u each read its roots once, when
    # first asked for; the count starts after that
    assert (coef.TYPES["B"].lineality, coef.TYPES["B"].u) == (0, 0.5)
    roots_calls.clear()
    r, d = 1000, 2
    assert float_tails(WalkFamily("wendel", r, d))[1] == pytest.approx(float(wendel_probability(r, d)), rel=1e-12)
    assert roots_calls == [1] and min_n_reads == ["B"]


def test_float_wendel_convolves_log_r_times(monkeypatch):
    # r one-point factors are one run repeated r - 1 times, powered by squaring
    calls = []
    convolve = np.convolve

    def counted(*args):
        calls.append(None)
        return convolve(*args)

    monkeypatch.setattr(np, "convolve", counted)
    r = 10**5
    float_tails(WalkFamily("wendel", r, 3))
    assert 0 < len(calls) <= 3 * r.bit_length()


def test_one_dimensional_references():
    assert one_dimensional_reference("sparre-positive", 2) == Fraction(3, 8)
    assert one_dimensional_reference("bridge-sign", 5) == Fraction(2, 5)


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


@pytest.mark.parametrize("steps", [(5, 7), (5,), [3], 2.0])
def test_wendel_takes_one_integer_point_count(steps):
    # a list is no point count: read as its length, (5, 7) would give r = 2
    with pytest.raises(ValueError, match="^wendel takes one integer point count r$"):
        WalkFamily("wendel", steps, 2)


def test_step_counts_without_a_chamber_rejected():
    # a one-step bridge has no hull points, and D needs two coordinates
    for kind, steps in (("bridge-A", 1), ("walk-D", 1), ("joint-B", (3, 0)), ("wendel", 0)):
        with pytest.raises(ValueError):
            WalkFamily(kind, steps, 1)
    with pytest.raises(ValueError):
        one_dimensional_reference("bridge-sign", 1)
