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

#: below this the float absorb is summed directly over the upper tail
#: instead of taken as 1 - non_absorb, which would cancel
_DIRECT_ABSORB = 1e-3
#: degrees above start that the direct upper sum covers
_UPPER_MARGIN = 40

#: kind -> steps -> the family's factors, one (type, steps) pair per
#: independent walk: a joint walk is a product of type-B chambers, and
#: Wendel's r i.i.d. points are r one-step walks
_FACTORS = {t.walk: lambda steps, t=t: ((t, steps),) for t in coef.TYPES.values()}
_FACTORS["joint-B"] = lambda steps: tuple(
    (coef.TYPES["B"], n) for n in ((steps,) if isinstance(steps, int) else steps))
_FACTORS["wendel"] = lambda r: ((coef.TYPES["B"], 1),) * r

KINDS = tuple(_FACTORS)


@dataclass(frozen=True)
class WalkFamily:
    """A walk/bridge family: symmetry type, step count(s) and dimension.

    The family's chamber is the direct product of its factors' chambers, so
    its row is the product of their rows and its group order, lineality and
    step count are the factors' totals.  kind 'joint-B' takes a tuple of step
    counts, 'wendel' one point count r, and the others one step count.
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
        if self.kind == "wendel" and not isinstance(self.steps, int):
            raise ValueError("wendel takes one integer point count r")
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
    raise ValueError(f"unknown reference kind {kind!r}")


def float_tails(family: WalkFamily) -> tuple[float, float]:
    """(absorb, non_absorb) in floating point, each summed from its own side
    of one pmf so that a tiny tail is never the complement of a large one.

    Each parity class of the Bernoulli sum holds exactly 1/2 (every type has
    a root with p = 1/2), so absorb is also twice the parity sum above start.
    """
    n = family.n_total
    start = _clamp_same_parity(family.dimension - 1 + family.lineality, n)
    pmf = coef.product_pmf(family.factors, min(start + _UPPER_MARGIN, n))
    non_absorb = 2.0 * float(pmf[start::-2].sum())
    absorb = 1.0 - non_absorb
    if absorb < _DIRECT_ABSORB:
        absorb = 2.0 * float(pmf[start + 2::2].sum())
        # the large tail as the complement of the small one stays in [0, 1]
        non_absorb = 1.0 - absorb
    return absorb, non_absorb


def absorption_probability_float(family: WalkFamily) -> float:
    """Floating-point absorption probability; the large-n evaluation path."""
    return float_tails(family)[0]


def non_absorption_probability_float(family: WalkFamily) -> float:
    return float_tails(family)[1]
