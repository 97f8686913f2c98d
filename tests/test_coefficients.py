import math
from dataclasses import dataclass
from itertools import chain, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylhull import coefficients as coef

from closed_forms import LINEALITY, ORDERS, U


def test_stirling_row_small():
    assert coef.stirling_row(1).coeffs == (0, 1)
    assert coef.stirling_row(3).coeffs == (0, 2, 3, 1)
    assert coef.stirling_row(5).coeffs == (0, 24, 50, 35, 10, 1)


def test_b_row_small():
    assert coef.b_row(1).coeffs == (1, 1)
    assert coef.b_row(2).coeffs == (3, 4, 1)
    assert coef.b_row(3).coeffs == (15, 23, 9, 1)


def test_d_row_small():
    # (t+1)(t+3)(t+2) for n=3: roots 1, 3 and n-1=2
    assert coef.d_row(3).coeffs == (6, 11, 6, 1)
    assert coef.d_row(4).coeffs == (45, 84, 50, 12, 1)


def test_row_sums_are_group_orders():
    for n in range(1, 9):
        assert sum(coef.stirling_row(n).coeffs) == math.factorial(n)
        assert sum(coef.b_row(n).coeffs) == 2**n * math.factorial(n)
        if n >= 2:
            assert sum(coef.d_row(n).coeffs) == 2 ** (n - 1) * math.factorial(n)


def test_derived_fields_match_the_closed_forms():
    for name, t in coef.TYPES.items():
        assert (t.lineality, t.u) == (LINEALITY[name], U[name])
        for n in range(t.min_n, 301):
            assert coef.product_at_one(t.roots(n)) == ORDERS[name](n), (name, n)


def stirling_unsigned(n: int, k: int) -> int:
    """Coefficient of t^k in t(t+1)...(t+n-1); 0 outside 1..n."""
    return coef.stirling_row(n)[k]


def test_stirling_recurrence():
    for n, k in product(range(2, 10), range(1, 10)):
        expect = stirling_unsigned(n - 1, k - 1) + (n - 1) * stirling_unsigned(n - 1, k)
        assert stirling_unsigned(n, k) == expect


def test_prefixes_match_rows():
    for n in (1, 3, 6, 10):
        for kmax in range(n + 1):
            assert coef.stirling_prefix(n, kmax) == coef.stirling_row(n).coeffs[: kmax + 1]
            assert coef.b_prefix(n, kmax) == coef.b_row(n).coeffs[: kmax + 1]
            if n >= 2:
                assert coef.d_prefix(n, kmax) == coef.d_row(n).coeffs[: kmax + 1]


def test_prefix_reaches_large_n():
    # the truncated-column recurrence must not expand the full row
    prefix = coef.b_prefix(5000, 3)
    assert len(prefix) == 4
    assert all(c > 0 for c in prefix)


def test_exact_cap_enforced():
    cap = coef.EXACT_N_CAP
    with pytest.raises(coef.ExactModeCapError):
        coef.stirling_row(cap + 1)
    # prefixes and products share the check, on the runs' total number of roots
    with pytest.raises(coef.ExactModeCapError, match="use the float route"):
        coef.b_prefix(cap + 1, 2)
    b, d = coef.TYPES["B"], coef.TYPES["D"]
    with pytest.raises(coef.ExactModeCapError):
        coef.product_prefix(b.roots(cap // 2) + d.roots(cap - cap // 2 + 1), 2)
    assert len(coef.product_prefix(b.roots(cap // 2) + d.roots(cap - cap // 2), 2)) == 3


def test_product_row_two_walks():
    # generating product of B2 and B1 rows
    got = coef.product_prefix(coef.TYPES["B"].roots(2) + coef.TYPES["B"].roots(1), 3)
    b2, b1 = coef.b_row(2).coeffs, coef.b_row(1).coeffs
    expect = [0] * (len(b2) + len(b1) - 1)
    for i, x in enumerate(b2):
        for j, y in enumerate(b1):
            expect[i + j] += x * y
    assert got == tuple(expect)


def plain_prefix(roots, kmax):
    """Coefficients 0..kmax of prod (t + r) by one recurrence over all the
    roots, zero roots included: the oracle of the blocked product tree."""
    row = [1] + [0] * kmax
    for i, r in enumerate(roots, 1):
        for k in range(min(i, kmax), 0, -1):
            row[k] = r * row[k] + row[k - 1]
        row[0] *= r
    return tuple(row)


# run lengths on either side of a block edge: the 64-root floor, and 16 m^2
# for the highest index m that the tree keeps
_EDGES = sorted({63, 64, 65} | {16 * m * m + e for m in range(2, 5) for e in (-1, 0, 1)})
# ascending runs as the types and tails give them; a start of 0 is a zero root
_RUNS = st.builds(lambda start, step, length: range(start, start + step * length, step),
                  st.integers(0, 40), st.integers(1, 3),
                  st.one_of(st.integers(0, 8), st.sampled_from(_EDGES)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_product_prefix_matches_the_plain_recurrence(data):
    runs = data.draw(st.lists(_RUNS, max_size=3), label="runs")
    # Wendel's family is many one-root runs, here around the 64-root floor
    runs += [range(1, 2)] * data.draw(st.sampled_from([0, 1, 63, 64, 65]), label="one-root runs")
    runs = tuple(runs)
    n = sum(map(len, runs))
    kmax = data.draw(st.one_of(st.integers(0, 5), st.integers(0, n + 2)), label="kmax")
    assert coef.product_prefix(runs, kmax) == plain_prefix(chain(*runs), kmax)


# lengths on either side of a stored run: within and just past BLOCK = 64 roots
_OFFSETS = st.one_of(st.sampled_from([-65, -64, -63, -1, 0, 1, 63, 64, 65]), st.integers(-70, 70))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_runs_derived_from_stored_neighbours_match_the_plain_recurrence(data):
    # runs that share (start, step) as the tails of nearby n and the B and D
    # rows do, so each is derived from a stored one where one is close
    start, step = data.draw(st.integers(0, 20), label="start"), data.draw(st.integers(1, 3), label="step")
    base = data.draw(st.integers(64, 140), label="base length")
    for _ in range(data.draw(st.integers(1, 6), label="calls")):
        if data.draw(st.booleans(), label="clear the store"):
            coef._run_store.cache_clear()
        length = max(0, base + data.draw(_OFFSETS, label="offset"))
        run = range(start, start + step * length, step)
        # a D row's second run, n - 1
        runs = (run,) + data.draw(st.sampled_from([(), (range(length, length + 1),)]), label="extra")
        n = sum(map(len, runs))
        kmax = data.draw(st.one_of(st.integers(0, 5), st.just(n), st.integers(0, n + 2)), label="kmax")
        assert coef.product_prefix(runs, kmax) == plain_prefix(chain(*runs), kmax)


def test_clearing_the_module_caches_empties_the_run_store():
    coef.b_prefix(300, 4)
    assert coef._run_store()
    for value in vars(coef).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    assert coef._run_store() == {}


def test_d_row_is_derived_from_the_b_row(monkeypatch):
    n = 300
    coef.product_prefix.cache_clear()
    coef._run_store.cache_clear()
    fresh = coef.d_row(n)
    coef.product_prefix.cache_clear()
    coef._run_store.cache_clear()
    coef.b_row(n)
    expand = coef._expand

    def short_expand(roots, *args):
        assert len(roots) < coef.BLOCK, "a run went through the product tree"
        return expand(roots, *args)

    # D_n's long run is B_n's less the root 2n - 1, so it is divided out of the
    # stored B row; only the one root n - 1 is expanded
    monkeypatch.setattr(coef, "_expand", short_expand)
    assert coef.d_row(n) == fresh


def test_dividing_out_a_root_that_is_not_a_factor_raises():
    # (t + 1)(t + 2) = t^2 + 3t + 2
    assert coef._divide_out((2, 3, 1), range(2, 3)) == [1, 1, 0]
    with pytest.raises(ArithmeticError, match="not divisible by t \\+ 3"):
        coef._divide_out((2, 3, 1), range(3, 4))


@dataclass(frozen=True)
class PoissonBinomialPMF:
    """Distribution of a sum of independent Bernoulli(p_i) variables."""

    probs: tuple[float, ...]
    pmf: tuple[float, ...]

    def __post_init__(self):
        total = math.fsum(self.pmf)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"pmf does not sum to 1: {total!r}")
        if any(p < 0.0 for p in self.pmf):
            raise ValueError("pmf has negative entries")


def poisson_binomial_pmf(probs) -> PoissonBinomialPMF:
    """Full pmf of sum of independent Bernoulli(p_i) by the convolution DP."""
    p = np.asarray(probs, dtype=float)
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise ValueError("success probabilities must lie in [0, 1]")
    pmf = np.zeros(p.size + 1)
    pmf[0] = 1.0
    for pi in p:
        pmf[1:] = pmf[1:] * (1.0 - pi) + pmf[:-1] * pi
        pmf[0] *= 1.0 - pi
    return PoissonBinomialPMF(tuple(float(x) for x in p), tuple(float(x) for x in pmf))


def _brute_pmf(probs):
    dist = [1.0]
    for p in probs:
        new = [0.0] * (len(dist) + 1)
        for k, mass in enumerate(dist):
            new[k] += mass * (1 - p)
            new[k + 1] += mass * p
        dist = new
    return dist


def test_poisson_binomial_matches_convolution():
    probs = [1 / i for i in range(1, 9)]
    got = poisson_binomial_pmf(probs)
    expect = _brute_pmf(probs)
    assert np.allclose(got.pmf, expect, atol=1e-14)
    # the same oracle checks each type's float route, p_i = 1/(1 + r_i)
    for t in coef.TYPES.values():
        want = poisson_binomial_pmf([1 / (1 + r) for run in t.roots(9) for r in run]).pmf
        assert coef.product_pmf(t.roots(9), 9) == pytest.approx(want, abs=1e-12)


def test_family_pmf_matches_exact_row():
    n = 40
    pmf = coef.product_pmf(coef.TYPES["B"].roots(n), 6)
    row = coef.b_row(n).coeffs
    order = 2**n * math.factorial(n)
    for k in range(7):
        assert pmf[k] == pytest.approx(row[k] / order, rel=1e-9)


def test_family_pmf_large_n_normalizes():
    pmf = coef.product_pmf(coef.TYPES["A"].roots(10**6), 10)
    assert np.all(pmf >= 0)
    assert pmf.sum() < 1.0
