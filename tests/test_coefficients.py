import math
from dataclasses import dataclass
from itertools import product

import numpy as np
import pytest

from weylhull import coefficients as coef


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
    with pytest.raises(coef.ExactModeCapError):
        coef.stirling_row(coef.EXACT_N_CAP + 1)


def test_product_row_two_walks():
    # generating product of B2 and B1 rows
    got = coef.product_row((2, 1)).coeffs
    b2, b1 = coef.b_row(2).coeffs, coef.b_row(1).coeffs
    expect = [0] * (len(b2) + len(b1) - 1)
    for i, x in enumerate(b2):
        for j, y in enumerate(b1):
            expect[i + j] += x * y
    assert got == tuple(expect)


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
    for name, t in coef.TYPES.items():
        want = poisson_binomial_pmf([1 / (1 + r) for r in t.roots(9)]).pmf
        assert coef.bernoulli_family_lower_pmf(name, 9, 9) == pytest.approx(want, abs=1e-12)


def test_family_pmf_matches_exact_row():
    n = 40
    pmf = coef.bernoulli_family_lower_pmf("B", n, 6)
    row = coef.b_row(n).coeffs
    order = 2**n * math.factorial(n)
    for k in range(7):
        assert pmf[k] == pytest.approx(row[k] / order, rel=1e-9)


def test_family_pmf_large_n_normalizes():
    pmf = coef.bernoulli_family_lower_pmf("A", 10**6, 10)
    assert np.all(pmf >= 0)
    assert pmf.sum() < 1.0


def test_family_mgf_at_zero():
    for fam in ("A", "B"):
        assert coef.bernoulli_family_mgf(fam, 100, 0.0) == pytest.approx(1.0, abs=1e-12)
