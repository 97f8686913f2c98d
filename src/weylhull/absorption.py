"""Exact absorption probabilities for convex hulls of random walks and bridges.

Each family's roots hold a root 1, and type A one zero root per bridge (its
lineality L), so the chamber's row is t^L (t + 1) R(t).  The paper's sum of
every other coefficient of the row, over the group order |G|, is then a lower
tail: non_absorb = (R_0 + ... + R_{d-1}) / R(1) = P(Y <= d - 1), where Y
sums independent Bernoulli(1/(1 + r)) over R's roots, ``coefficients.tail_roots``,
and R(1) = prod (1 + r) is |G| / 2.  A has its root 1 from n >= 2, its smallest
chamber; for r one-step walks Y is r - 1 fair coins (Wendel).  Only the step
count, the dimension, and the symmetry type enter.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import coefficients as coef

#: below this the float absorb is summed directly over the upper tail
#: instead of taken as 1 - non_absorb, which would cancel
_DIRECT_ABSORB = 1e-3
#: terms of the pmf from d up that the direct upper sum covers
_UPPER_MARGIN = 40
#: most pmf terms the float route computes; its Newton loop is quadratic in
#: them: d = 80,000 takes about 4.5 s on a 2-core host, and a larger d asked
#: NumPy for terabytes
FLOAT_KMAX_CAP = 100_000

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
    its row is the product of their rows and its lineality and step count
    are the factors' totals.  kind 'joint-B' takes a tuple of step
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
        # its r factor pairs are one tuple, whose length a C ssize_t must hold
        if self.kind == "wendel" and self.steps > sys.maxsize:
            raise ValueError(f"wendel takes at most {sys.maxsize} points; got {self.steps}")
        factors = _FACTORS[self.kind](self.steps)
        if not factors:
            raise ValueError("need at least one walk")
        # each distinct factor is checked once: Wendel's r factors are one pair
        for t, n in dict.fromkeys(factors):
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
    def within_hypotheses(self) -> bool:
        return self.n_total >= self.dimension + self.lineality


@dataclass(frozen=True)
class AbsorptionResult:
    absorb: Fraction
    non_absorb: Fraction
    within_hypotheses: bool

    def __post_init__(self):
        if self.absorb + self.non_absorb != 1:
            raise ValueError("absorb and non_absorb must sum to 1")
        if self.within_hypotheses and not (0 <= self.absorb <= 1):
            raise ValueError("absorption probability outside [0, 1]")


def absorption_probability(family: WalkFamily) -> AbsorptionResult:
    """Exact absorption probability for the given walk family.

    Outside the formula's hypotheses (e.g. n < d) it is still
    evaluated and the result is flagged via ``within_hypotheses``.
    """
    coef.check_exact_n(family.n_total)
    runs = coef.tail_roots(family.factors)
    # coefficients past the number of roots are 0
    prefix = coef.product_prefix(runs, min(family.dimension - 1, sum(map(len, runs))))
    non_absorb = Fraction(sum(prefix), coef.product_at_one(runs))
    return AbsorptionResult(1 - non_absorb, non_absorb, family.within_hypotheses)


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
    """(absorb, non_absorb) in floating point from one pmf of Y, the sum of
    Bernoulli(1/(1 + r)) over ``coefficients.tail_roots``: non_absorb is
    P(Y <= d - 1), the sum of pmf[:d].  A tiny absorb is summed directly over
    pmf[d:d + _UPPER_MARGIN] so that it is never the complement of a large tail.
    """
    d = family.dimension
    runs = coef.tail_roots(family.factors)
    kmax = min(d - 1 + _UPPER_MARGIN, sum(map(len, runs)))
    if kmax > FLOAT_KMAX_CAP:
        raise ValueError(f"the float route computes at most {FLOAT_KMAX_CAP} pmf terms, "
                         f"min(d + {_UPPER_MARGIN - 1}, number of roots); got {kmax} at d={d}")
    pmf = coef.product_pmf(runs, kmax)
    non_absorb = float(pmf[:d].sum())
    absorb = 1.0 - non_absorb
    if absorb < _DIRECT_ABSORB:
        absorb = float(pmf[d:d + _UPPER_MARGIN].sum())
        # the large tail as the complement of the small one stays in [0, 1]
        non_absorb = 1.0 - absorb
    return absorb, non_absorb


def absorption_probability_float(family: WalkFamily) -> float:
    """Floating-point absorption probability; the large-n evaluation path."""
    return float_tails(family)[0]


def non_absorption_probability_float(family: WalkFamily) -> float:
    return float_tails(family)[1]
