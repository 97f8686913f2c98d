"""Exact absorption probabilities for convex hulls of random walks and bridges.

The probability that the origin lands inside the convex hull of the partial
sums is a parity-tail sum over one of the coefficient families in
:mod:`weylhull.coefficients`, divided by the order of the matching reflection
group.  Everything here is distribution-free: only the step count, the
dimension, and the symmetry type enter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import coefficients as coef

#: largest n for which the absorb-side tail is recomputed from the full row
#: as an internal cross-check of the parity identity
_CROSS_CHECK_CAP = 200

#: kind -> steps -> the family's factors, one (type, steps) pair per
#: independent walk: a joint walk is a product of type-B chambers, and
#: Wendel's r i.i.d. points are r one-step walks
_FACTORS = {t.walk: lambda steps, t=t: ((t, steps),) for t in coef.TYPES.values()}
_FACTORS["joint-B"] = lambda steps: tuple(
    (coef.TYPES["B"], n) for n in ((steps,) if isinstance(steps, int) else steps))
_FACTORS["wendel"] = lambda r: ((coef.TYPES["B"], 1),) * (r if isinstance(r, int) else len(r))

KINDS = tuple(_FACTORS)


@dataclass(frozen=True)
class WalkFamily:
    """A walk/bridge family: symmetry type, step count(s) and dimension.

    The family's chamber is the direct product of its factors' chambers, so
    its row is the product of their rows and its group order, lineality and
    step count are the factors' totals.  kind 'joint-B' (and 'wendel') takes
    a tuple of step counts; the others a single positive integer.
    """

    kind: str
    steps: int | tuple[int, ...]
    dimension: int
    factors: tuple[tuple[coef.ReflectionType, int], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown walk kind {self.kind!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        factors = _FACTORS[self.kind](self.steps)
        if not factors:
            raise ValueError("need at least one walk")
        for t, n in factors:
            # fewer steps leave no chamber, e.g. a one-step bridge has no hull points
            if not isinstance(n, int) or n < t.chamber_min_n:
                raise ValueError(f"{self.kind} needs integer step counts >= {t.chamber_min_n}")
        object.__setattr__(self, "factors", factors)

    @property
    def n_total(self) -> int:
        return sum(n for _, n in self.factors)

    @property
    def lineality(self) -> int:
        return sum(t.lineality for t, _ in self.factors)

    @property
    def group_order(self) -> int:
        return math.prod(t.order(n) for t, n in self.factors)

    @property
    def within_hypotheses(self) -> bool:
        return self.n_total >= self.dimension + self.lineality


@dataclass(frozen=True)
class AbsorptionResult:
    absorb: Fraction
    non_absorb: Fraction
    family: WalkFamily
    within_hypotheses: bool

    def __post_init__(self):
        if self.absorb + self.non_absorb != 1:
            raise ValueError("absorb and non_absorb must sum to 1")
        if self.within_hypotheses and not (0 <= self.absorb <= 1):
            raise ValueError("absorption probability outside [0, 1]")


def _parity_tail(values: Sequence[int], start: int) -> int:
    """values[start] + values[start+2] + ... (missing indices count as 0)."""
    return sum(values[k] for k in range(start, len(values), 2))


def _prefix_parity_tail(prefix: Sequence[int], start: int) -> int:
    """prefix[start] + prefix[start-2] + ... down to index >= 0."""
    return sum(prefix[k] for k in range(start, -1, -2))


def _clamp_same_parity(start: int, n: int) -> int:
    """Largest index <= n with the same parity as start (indices above n are 0)."""
    if start <= n:
        return start
    return n if (start - n) % 2 == 0 else n - 1


def absorption_probability(family: WalkFamily) -> AbsorptionResult:
    """Exact absorption probability for the given walk family.

    Outside the formula's hypotheses (e.g. n < d) it is still
    evaluated and the result is flagged via ``within_hypotheses``.
    """
    n, d = family.n_total, family.dimension
    # the non-absorb side indexes downward from d - 1 plus the lineality, so
    # it only ever needs a short prefix of the row; the absorb side follows
    # by complement
    lo_start = d - 1 + family.lineality
    start = _clamp_same_parity(lo_start, n)
    prefix = coef.product_prefix(family.factors, start)
    non_absorb = Fraction(2 * _prefix_parity_tail(prefix, start), family.group_order)
    absorb = 1 - non_absorb
    if n <= _CROSS_CHECK_CAP and family.within_hypotheses:
        row = coef.product_prefix(family.factors, n)
        direct = Fraction(2 * _parity_tail(row, lo_start + 2), family.group_order)
        if direct != absorb:
            raise AssertionError(
                f"parity identity violated for {family}: {direct} vs {absorb}"
            )
    return AbsorptionResult(absorb, non_absorb, family, family.within_hypotheses)


def wendel_probability(r: int, d: int) -> Fraction:
    """P[0 not in hull of r symmetric i.i.d. points in R^d]: the classical
    (1/2^{r-1}) * sum_{k<d} C(r-1, k)."""
    if r < 1 or d < 1:
        raise ValueError("need r >= 1 and d >= 1")
    return Fraction(sum(math.comb(r - 1, k) for k in range(min(d, r))), 2 ** (r - 1))


def one_dimensional_reference(kind: str, n: int) -> Fraction:
    """Classical one-dimensional stay-positive / constant-sign probabilities."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "sparre-positive":
        return Fraction(math.comb(2 * n, n), 4 ** n)
    if kind == "bridge-sign":
        if n < 2:
            raise ValueError("bridge-sign requires n >= 2")
        return Fraction(2, n)
    if kind == "simple-bridge-sign":
        if n % 2 != 0 or n < 2:
            raise ValueError("simple-bridge-sign requires even n >= 2")
        return Fraction(1, n - 1)
    raise ValueError(f"unknown reference kind {kind!r}")


def absorption_probability_float(family: WalkFamily) -> float:
    """Floating-point absorption probability; the large-n evaluation path."""
    n, d = family.n_total, family.dimension
    if len(family.factors) > 1:
        # joint families stay exact (individual walks are short)
        return float(absorption_probability(family).absorb)
    ((t, _),) = family.factors
    start = _clamp_same_parity(d - 1 + t.lineality, n)
    pmf = coef.bernoulli_family_lower_pmf(t.name, n, max(start, 0))
    non_absorb = 2.0 * sum(pmf[k] for k in range(start, -1, -2))
    return 1.0 - non_absorb


def non_absorption_probability_float(family: WalkFamily) -> float:
    return 1.0 - absorption_probability_float(family)
