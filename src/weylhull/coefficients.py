"""Reflection types and the integer coefficient rows behind the exact formulas.

Each reflection type -- A_{n-1}, B_n and D_n acting on R^n -- is one
``ReflectionType`` record in ``TYPES``.  Its characteristic roots r_1..r_n
give the ascending-power coefficient row of prod_i (t + r_i):

* type A -- roots 0, 1, ..., n-1 (unsigned Stirling numbers, first kind)
* type B -- roots 1, 3, ..., 2n-1
* type D -- roots 1, 3, ..., 2n-3 and n-1

The row divided by the group order is the chamber's conic intrinsic volume
vector, and the rest of the package reads group orders, mirrors, lineality,
asymptotic scale and walk family from the same record.  ``product_row(ns)``
multiplies the type-B rows of several walks.

Exact rows are arbitrary-precision integers.  For step counts far beyond the
exact cap there is a floating-point route through the equivalent
Poisson-binomial distributions, with success probabilities p_i = 1/(1 + r_i).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import special as sp

#: largest n for which full exact rows are computed
EXACT_N_CAP = 5000


class ExactModeCapError(ValueError):
    """Raised when an exact full-row computation exceeds EXACT_N_CAP."""


@dataclass(frozen=True)
class CoefficientVector:
    """Ascending-power integer coefficients of a monic polynomial.

    Index ``k`` is the power of ``t``.  Lookups outside ``0..degree`` return 0.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("coefficient vector must be nonempty")
        if self.coeffs[-1] != 1:
            raise ValueError("expected a monic expansion")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        if 0 <= k <= self.degree:
            return self.coeffs[k]
        return 0

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)


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


@dataclass(frozen=True)
class ReflectionType:
    """One reflection type: everything else about it is derived from here.

    The mirror arrangement has characteristic polynomial prod_i (t - r_i), so
    the same roots give the Whitney numbers, the region counts, the chamber's
    intrinsic volumes and the absorption tails.
    """

    name: str
    #: characteristic roots r_1..r_n
    roots: Callable[[int], list[int]]
    #: group order, in closed form
    order: Callable[[int], int]
    #: smallest n whose roots define a row
    min_n: int
    #: dimension of the chamber's lineality space (the line R(1, ..., 1) for A)
    lineality: int
    #: asymptotic scale: the absorption transition sits at d = u log n
    u: float
    #: mirror normals in R^n, in the order the arrangement lists them
    mirrors: Callable[[int], list[tuple[int, ...]]]
    #: the walk family whose absorption probability the row gives
    walk: str
    #: (n, kmax) -> pmf[0..kmax] of the Bernoulli sum, in floating point
    lower_pmf: Callable[[int, int], np.ndarray]

    def check(self, n: int) -> None:
        if n < self.min_n:
            raise ValueError(f"type {self.name} needs n >= {self.min_n}")

    @property
    def chamber_min_n(self) -> int:
        """Smallest n with a chamber that is not a linear subspace, i.e. not
        all lineality."""
        return max(self.min_n, self.lineality + 1)

    def check_chamber(self, n: int) -> None:
        if n < self.chamber_min_n:
            raise ValueError(f"type {self.name} chamber needs n >= {self.chamber_min_n}")

    def row(self, n: int) -> CoefficientVector:
        """Coefficients of prod_i (t + r_i)."""
        _check_cap(n)
        return CoefficientVector(_coefficients(self.name, n, n))

    def prefix(self, n: int, kmax: int) -> tuple[int, ...]:
        """The row's coefficients 0..kmax in O(n * kmax) big-int operations:
        what makes exact low-index tail sums cheap at n in the thousands."""
        if kmax < 0:
            raise ValueError("need kmax >= 0")
        return _coefficients(self.name, n, kmax)


def _check_cap(n: int) -> None:
    if n > EXACT_N_CAP:
        raise ExactModeCapError(
            f"exact full-row computation capped at n={EXACT_N_CAP}; "
            f"got n={n} (use the float route for large n)"
        )


def _expand(roots: Iterable[int], kmax: int) -> list[int]:
    """Coefficients 0..kmax of prod_i (t + r_i).

    One recurrence serves full rows (kmax = number of roots) and truncated
    prefixes: each factor updates c_k <- r c_k + c_{k-1} in place, top index
    first, so a prefix costs O(n * kmax) big-int operations.
    """
    row = [1] + [0] * kmax
    for i, r in enumerate(roots, 1):
        for k in range(min(i, kmax), 0, -1):
            row[k] = r * row[k] + row[k - 1]
        row[0] *= r
    return row


# ---------------------------------------------------------------------------
# Floating-point route

def poisson_binomial_pmf(probs: Sequence[float]) -> PoissonBinomialPMF:
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


def _newton_pmf(power_sums: np.ndarray, log_q: float, kmax: int) -> np.ndarray:
    """pmf[0..kmax] from odds power sums s_j and log prod (1 - p_i).

    Newton's identities turn the power sums of the odds r_i = p_i / (1 - p_i)
    into elementary symmetric functions e_k; then P[X = k] = e_k * prod(1-p_i).
    """
    e = np.zeros(kmax + 1)
    e[0] = 1.0
    for k in range(1, kmax + 1):
        acc = 0.0
        sign = 1.0
        for j in range(1, k + 1):
            acc += sign * e[k - j] * power_sums[j]
            sign = -sign
        e[k] = acc / k
    return np.exp(log_q) * e


def _odd_reciprocal_power_sums(n: int, jmax: int) -> np.ndarray:
    """s[j] = sum_{i=1}^{n} (2i-1)^(-j) for j = 1..jmax, via digamma/zeta."""
    s = np.zeros(jmax + 1)
    if jmax >= 1:
        s[1] = 0.5 * (sp.digamma(n + 0.5) - sp.digamma(0.5))
    for j in range(2, jmax + 1):
        s[j] = 2.0 ** (-j) * (sp.zeta(j, 0.5) - sp.zeta(j, n + 0.5))
    return s


def _unit_reciprocal_power_sums(n: int, jmax: int) -> np.ndarray:
    """s[j] = sum_{i=1}^{n} i^(-j) for j = 1..jmax."""
    s = np.zeros(jmax + 1)
    if n <= 0:
        return s
    if jmax >= 1:
        s[1] = sp.digamma(n + 1.0) - sp.digamma(1.0)
    for j in range(2, jmax + 1):
        s[j] = sp.zeta(j, 1.0) - sp.zeta(j, n + 1.0)
    return s


def _a_lower_pmf(n: int, kmax: int) -> np.ndarray:
    """p_i = 1/i: row s(n,k) / n!."""
    # p_1 = 1 shifts the count by one; the remaining odds are 1/j, j < n
    inner = _newton_pmf(_unit_reciprocal_power_sums(n - 1, max(kmax - 1, 0)),
                        -math.log(n), max(kmax - 1, 0)) if n > 1 else np.array([1.0])
    pmf = np.zeros(kmax + 1)
    pmf[1:1 + inner.size] = inner[:kmax]
    return pmf


def _b_lower_pmf(n: int, kmax: int) -> np.ndarray:
    """p_i = 1/(2i): row B(n,k) / (2^n n!)."""
    s = _odd_reciprocal_power_sums(n, kmax)
    log_q = sp.gammaln(2 * n + 1) - 2 * sp.gammaln(n + 1) - 2 * n * math.log(2.0)
    return _newton_pmf(s, log_q, kmax)


def _d_lower_pmf(n: int, kmax: int) -> np.ndarray:
    """p_i = 1/(2i) for i < n and p_n = 1/n: row D(n,k) / (2^{n-1} n!)."""
    s = _odd_reciprocal_power_sums(n - 1, kmax)
    s[1:] += np.array([(n - 1.0) ** (-j) for j in range(1, kmax + 1)])
    log_q = (sp.gammaln(2 * n - 1) - 2 * sp.gammaln(n) - (2 * n - 2) * math.log(2.0)
             + math.log1p(-1.0 / n))
    return _newton_pmf(s, log_q, kmax)


# ---------------------------------------------------------------------------
# The three reflection types

def _pairs(n: int, sign: int) -> list[tuple[int, ...]]:
    """e_i + sign * e_j for i < j, in lexicographic order of (i, j)."""
    out = []
    for i, j in itertools.combinations(range(n), 2):
        v = [0] * n
        v[i], v[j] = 1, sign
        out.append(tuple(v))
    return out


def _units(n: int) -> list[tuple[int, ...]]:
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


TYPES = {
    t.name: t
    for t in (
        ReflectionType(
            "A", roots=lambda n: list(range(n)), order=math.factorial, min_n=1,
            lineality=1, u=1.0, mirrors=lambda n: _pairs(n, -1), walk="bridge-A",
            lower_pmf=_a_lower_pmf,
        ),
        ReflectionType(
            "B", roots=lambda n: list(range(1, 2 * n, 2)),
            order=lambda n: 2**n * math.factorial(n), min_n=1, lineality=0, u=0.5,
            mirrors=lambda n: _units(n) + _pairs(n, -1) + _pairs(n, 1), walk="walk-B",
            lower_pmf=_b_lower_pmf,
        ),
        ReflectionType(
            "D", roots=lambda n: list(range(1, 2 * n - 2, 2)) + [n - 1],
            order=lambda n: 2 ** (n - 1) * math.factorial(n), min_n=2, lineality=0, u=0.5,
            mirrors=lambda n: _pairs(n, -1) + _pairs(n, 1), walk="walk-D",
            lower_pmf=_d_lower_pmf,
        ),
    )
}

#: the record behind each single-type walk family, keyed by family name
WALK_TYPES = {t.walk: t for t in TYPES.values()}


def reflection_type(name: str) -> ReflectionType:
    """The record of type 'A', 'B' or 'D'."""
    if name not in TYPES:
        raise ValueError(f"unknown reflection type {name!r}")
    return TYPES[name]


@lru_cache(maxsize=128)
def _coefficients(kind: str, n: int, kmax: int) -> tuple[int, ...]:
    t = TYPES[kind]
    t.check(n)
    return tuple(_expand(t.roots(n), kmax))


#: the rows and prefixes under their classical names
stirling_row, stirling_prefix = TYPES["A"].row, TYPES["A"].prefix
b_row, b_prefix = TYPES["B"].row, TYPES["B"].prefix
d_row, d_prefix = TYPES["D"].row, TYPES["D"].prefix


@lru_cache(maxsize=64)
def product_row(ns: tuple[int, ...]) -> CoefficientVector:
    """Coefficients of prod_i (t+1)(t+3)...(t+2 n_i - 1): the product of the
    type-B rows, expanded over all their roots at once."""
    ns = tuple(int(n) for n in ns)
    if not ns or any(n < 1 for n in ns):
        raise ValueError("each n_i must be >= 1")
    _check_cap(sum(ns))
    roots = [r for n in ns for r in TYPES["B"].roots(n)]
    return CoefficientVector(tuple(_expand(roots, len(roots))))


def stirling_unsigned(n: int, k: int) -> int:
    """Coefficient of t^k in t(t+1)...(t+n-1); 0 outside 1..n."""
    return stirling_row(n)[k]


def bernoulli_family_lower_pmf(family: str, n: int, kmax: int) -> np.ndarray:
    """pmf[0..kmax] of the Bernoulli-sum representation of a coefficient row,
    with p_i = 1/(1 + r_i) over the roots of type ``family``.

    Exact for every k <= kmax regardless of how much mass sits above kmax.
    """
    t = reflection_type(family)
    t.check(n)
    return t.lower_pmf(n, min(kmax, n))


def bernoulli_family_mgf(family: str, n: int, z: float) -> float:
    """E[exp(z X_n)] for the Bernoulli-sum representation, computed directly."""
    p = 1.0 / (1.0 + np.asarray(reflection_type(family).roots(n), dtype=float))
    return float(np.exp(np.sum(np.log1p(p * (math.exp(z) - 1.0)))))
