"""Reflection types and the integer coefficient rows behind the exact formulas.

Each reflection type -- A_{n-1}, B_n and D_n acting on R^n -- is one
``ReflectionType`` record in ``TYPES``.  Its characteristic roots r_1..r_n
give the ascending-power coefficient row of prod_i (t + r_i):

* type A -- roots 0, 1, ..., n-1 (unsigned Stirling numbers, first kind)
* type B -- roots 1, 3, ..., 2n-1
* type D -- roots 1, 3, ..., 2n-3 and n-1

The record keeps them as ``range``s, so n can run far past the exact cap.

The row divided by the group order is the chamber's conic intrinsic volume
vector, and the rest of the package reads group orders, mirrors, chamber
walls, lineality, asymptotic scale, walk family and hull points from the same
record.  A product of chambers, one factor per independent walk, has the
product of the factors' rows.  ``product_prefix`` expands prod (t + r) over
any runs of roots: a type's for its row, ``tail_roots`` for a tail.  It keeps
the expansions of recent runs, so a run close to a stored one is derived from
it in a few steps: the D_n row from the B_n row, a tail from one at nearby n.

Exact rows are arbitrary-precision integers.  The float twin of
``product_prefix`` is ``product_pmf``: the pmf, over the same runs, of the
sum of independent Bernoulli(p) with p = 1/(1 + r), whose k-th entry is
coefficient k divided by prod (1 + r).
"""
from __future__ import annotations

import collections
import itertools
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np

#: largest total n for which exact rows and prefixes are computed
EXACT_N_CAP = 5000


class ExactModeCapError(ValueError):
    """Raised when an exact row or prefix exceeds EXACT_N_CAP."""


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

    def __iter__(self):
        return iter(self.coeffs)


@dataclass(frozen=True, eq=False)
class ReflectionType:
    """One reflection type: everything else about it is derived from here.

    The mirror arrangement has characteristic polynomial prod_i (t - r_i), so
    the same roots give the Whitney numbers, the region counts, the chamber's
    intrinsic volumes and the absorption tails.  The records in ``TYPES`` are
    the only ones, so a record compares and hashes by identity.
    """

    name: str
    #: characteristic roots r_1..r_n as ascending ``range``s, so arithmetic
    #: runs over start, step and length and no list of n roots is built
    roots: Callable[[int], tuple[range, ...]]
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
    #: the chamber's walls: normals g with the chamber {x : g . x >= 0}
    walls: Callable[[int], list[tuple[int, ...]]]
    #: the walk family whose absorption probability the row gives
    walk: str
    #: increments (count, n, d) -> the walk's hull points (count, m, d)
    hull_points: Callable[[np.ndarray], np.ndarray]

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
        return CoefficientVector(self.prefix(n, n))

    def prefix(self, n: int, kmax: int) -> tuple[int, ...]:
        """The row's coefficients 0..min(kmax, n), from ``product_prefix``,
        which derives each run from a stored neighbour or expands it by a
        blocked product tree: the recurrence runs only inside blocks, on
        small numbers, and the large ones meet in balanced products, which
        is what makes exact low-index tail sums cheap at n in the thousands.
        n is checked against EXACT_N_CAP before any run is built."""
        self.check(n)
        check_exact_n(n)
        return product_prefix(self.roots(n), min(kmax, n))


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


def _chain(n: int) -> list[tuple[int, ...]]:
    """e_{i+1} - e_i for i = 1..n-1: the walls of x_1 <= x_2 <= ... <= x_n."""
    return [tuple(int(j == i + 1) - int(j == i) for j in range(n)) for i in range(n - 1)]


def _reflected_walk_points(inc: np.ndarray) -> np.ndarray:
    """The partial sums and S_{n-1} - X_n, the endpoint with its last step reflected."""
    # imported here so that the exact paths never load NumPy
    import numpy as np

    s = inc.cumsum(axis=1)
    star = s[:, -2, :] - inc[:, -1, :]
    return np.concatenate([s, star[:, None, :]], axis=1)


TYPES = {
    t.name: t
    for t in (
        ReflectionType(
            "A", roots=lambda n: (range(n),), order=math.factorial, min_n=1,
            lineality=1, u=1.0, mirrors=lambda n: _pairs(n, -1), walls=_chain, walk="bridge-A",
            # the centred walk's final sum is 0 by construction, so it is dropped
            hull_points=lambda inc: (inc - inc.mean(axis=1, keepdims=True)).cumsum(axis=1)[:, :-1],
        ),
        ReflectionType(
            "B", roots=lambda n: (range(1, 2 * n, 2),),
            order=lambda n: 2**n * math.factorial(n), min_n=1, lineality=0, u=0.5,
            mirrors=lambda n: _units(n) + _pairs(n, -1) + _pairs(n, 1),
            walls=lambda n: _units(n)[:1] + _chain(n), walk="walk-B",
            hull_points=lambda inc: inc.cumsum(axis=1),
        ),
        ReflectionType(
            "D", roots=lambda n: (range(1, 2 * n - 2, 2), range(n - 1, n)),
            order=lambda n: 2 ** (n - 1) * math.factorial(n), min_n=2, lineality=0, u=0.5,
            mirrors=lambda n: _pairs(n, -1) + _pairs(n, 1),
            walls=lambda n: [(1, 1) + (0,) * (n - 2)] + _chain(n), walk="walk-D",
            hull_points=_reflected_walk_points,
        ),
    )
}


def reflection_type(name: str) -> ReflectionType:
    """The record of type 'A', 'B' or 'D'."""
    if name not in TYPES:
        raise ValueError(f"unknown reflection type {name!r}")
    return TYPES[name]


def check_exact_n(n: int) -> None:
    """Exact rows, prefixes and tails are capped at EXACT_N_CAP total steps."""
    if n > EXACT_N_CAP:
        raise ExactModeCapError(f"exact computation capped at n={EXACT_N_CAP}; "
                                f"got n={n} (use the float route for large n)")


def tail_roots(factors: tuple[tuple[ReflectionType, int], ...]) -> tuple[range, ...]:
    """The roots of an absorption tail: every factor's runs without the zero
    roots (factors t of the row) and without exactly one root 1 (a factor
    t + 1).  Runs ascend, so a zero root, then a root 1, comes first."""
    # each distinct factor is read once: Wendel's r factors are one pair
    roots = {}
    for t, n in dict.fromkeys(factors):
        t.check(n)
        # the tails take len() of each run, which a C ssize_t must hold
        if n > sys.maxsize:
            raise ValueError(f"absorption tails take at most {sys.maxsize} steps per walk; got {n}")
        roots[t, n] = t.roots(n)
    runs, unit = [], False
    for factor in factors:
        for run in roots[factor]:
            if run and run[0] == 0:
                run = run[1:]
            if run and run[0] == 1 and not unit:
                run, unit = run[1:], True
            runs.append(run)
    if not unit:
        raise ValueError("an absorption tail needs a root 1")
    return tuple(runs)


#: the smallest block of the product tree; a run within this many roots of a
#: stored run with the same start and step is derived from it
BLOCK = 64
#: runs whose expansions the store keeps; the oldest goes first
STORE_SIZE = 64


@lru_cache(maxsize=1)
def _run_store() -> dict[tuple[int, int, int], tuple[int, ...]]:
    """(start, step, length) -> the longest prefix of that run's expansion
    computed so far, for runs of at least BLOCK roots.  It sits behind an
    ``lru_cache`` so that clearing the module's caches empties it too."""
    return {}


@lru_cache(maxsize=128)
def product_prefix(runs: tuple[range, ...], kmax: int) -> tuple[int, ...]:
    """Coefficients 0..kmax of prod (t + r) over the roots r of the runs,
    which ascend over nonnegative roots, as the types and tails give them.

    The truncated product of the runs' expansions.  A zero root is a factor
    t, so it shifts the indices and is never multiplied.  Equal runs are
    expanded once and raised to their count by squaring, as in
    ``product_pmf``.  Each run is expanded by ``_run_prefix``: from a stored
    neighbour when one is close, else by a blocked product tree.  The
    number of roots is capped at EXACT_N_CAP.
    """
    if kmax < 0:
        raise ValueError("need kmax >= 0")
    n = sum(map(len, runs))
    check_exact_n(n)
    runs = [run[1:] if run and run[0] == 0 else run for run in runs]
    shift = n - sum(map(len, runs))
    m = min(kmax - shift, n - shift)
    if m < 0:
        return (0,) * (kmax + 1)
    row = None
    # a Counter keeps the runs' first-seen order
    for run, count in collections.Counter(filter(None, runs)).items():
        row = _power(row, _run_prefix(run, m), count, lambda a, b: _times(a, b, m))
    return (0,) * shift + tuple(row or (1,)) + (0,) * (kmax - shift - m)


def _run_prefix(run: range, m: int) -> tuple[int, ...]:
    """Coefficients 0..min(m, len(run)) of prod (t + r) over one run.

    A run of at least BLOCK roots is derived, when it can be, from the stored
    run of the same start and step that is nearest in length, within BLOCK
    roots, and holds enough coefficients: a longer run multiplies in its
    extra end roots, and a shorter one divides out the stored run's surplus
    roots.  That costs the difference in length times the coefficients kept.
    So the D_n row is the B_n row divided by (t + 2n - 1), times the run of
    n - 1, and the tails of walks at nearby n share all but a few roots.
    Otherwise it goes through the blocked product tree: blocks of
    max(BLOCK, 16 m^2) roots are expanded by the one-root recurrence and
    adjacent block prefixes are multiplied pairwise, truncated at m, until
    one is left.  The products near the root of the tree multiply numbers
    of equal size, where CPython's Karatsuba pays (Bernstein, "Fast
    multiplication and its applications", 2008).  A full row (m = len(run))
    is one block, the recurrence alone.  The result joins the store.  A run
    of fewer than BLOCK roots is one block too, and is not stored.
    """
    top = min(m, len(run))
    if len(run) < BLOCK:
        return tuple(_expand(run, top))
    store = _run_store()
    near = [(length, coeffs) for (start, step, length), coeffs in list(store.items())
            if (start, step) == (run.start, run.step) and abs(length - len(run)) <= BLOCK
            # a complete expansion (degree = length) has every coefficient
            and (len(coeffs) > top or len(coeffs) - 1 == length)]
    if near:
        length, coeffs = min(near, key=lambda e: abs(e[0] - len(run)))
        if length <= len(run):
            coeffs = _expand(run[length:], top, coeffs)
        else:
            stored = range(run.start, run.start + length * run.step, run.step)
            coeffs = _divide_out(coeffs[:top + 1], stored[len(run):])
    else:
        size = max(BLOCK, 16 * top * top)
        polys = [_expand(run[i:i + size], top) for i in range(0, len(run), size)]
        while len(polys) > 1:
            polys = [_times(*polys[i:i + 2], top) if i + 1 < len(polys) else polys[i]
                     for i in range(0, len(polys), 2)]
        coeffs = polys[0]
    coeffs = tuple(coeffs)
    key = (run.start, run.step, len(run))
    if len(coeffs) > len(store.get(key, ())):
        store.pop(key, None)
        store[key] = coeffs
        while len(store) > STORE_SIZE:
            store.pop(next(iter(store)), None)
    return coeffs


def _expand(roots: range, kmax: int, row: tuple[int, ...] = (1,)) -> list[int]:
    """Coefficients 0..min(kmax, deg + len(roots)) of row times prod (t + r),
    deg the highest index of row (its highest kept index, if truncated):
    root i updates c_k <- r c_k + c_{k-1} in place for k = min(deg + i,
    kmax)..1."""
    row = list(row[:kmax + 1])
    deg = len(row) - 1
    top = min(kmax, deg + len(roots))
    row += [0] * (top - deg)
    # every root past the first top - deg reaches index top, so that range is built once
    full = range(top, 0, -1)
    for i, r in enumerate(roots, deg + 1):
        for k in range(i, 0, -1) if i < top else full:
            row[k] = r * row[k] + row[k - 1]
        row[0] *= r
    return row


def _divide_out(row: tuple[int, ...], roots: range) -> list[int]:
    """The coefficients of row divided by prod (t + r), as many as row has,
    from the low end: q_k = (c_k - q_{k-1}) / r.  Each division must leave
    no remainder; one that does means row has no factor t + r."""
    for r in roots:
        quotient, q = [], 0
        for c in row:
            q, rest = divmod(c - q, r)
            if rest:
                raise ArithmeticError(f"coefficients are not divisible by t + {r}")
            quotient.append(q)
        row = quotient
    return row


def _times(a: list[int], b: list[int], kmax: int) -> list[int]:
    """The product of two coefficient lists, truncated after index kmax:
    one pass over the longer list per entry of the shorter, so that a run of
    one root costs two passes."""
    if len(a) < len(b):
        a, b = b, a
    out = [0] * min(len(a) + len(b) - 1, kmax + 1)
    for j, y in enumerate(b[:len(out)]):
        for k, x in enumerate(a[:len(out) - j], j):
            out[k] += x * y
    return out


def _power(head, base, count: int, times: Callable):
    """head times count copies of base under ``times``, by binary powering;
    a head of None is the unit, so a count of 1 returns base itself."""
    while count:
        if count & 1:
            head = base if head is None else times(head, base)
        count >>= 1
        if count:
            base = times(base, base)
    return head


#: roots at the start of each run that go through the positive-term
#: recurrence; every later root r of the run has odds 1/r <= 1/HEAD
HEAD = 64


def product_pmf(runs: tuple[range, ...], kmax: int) -> np.ndarray:
    """pmf[0..kmax] of the sum of independent Bernoulli(1/(1 + r)) over the
    roots r of the runs: the float twin of ``product_prefix``, whose
    coefficient k divided by prod (1 + r) it is.

    The first HEAD roots of each run convolve the pmf with Bernoulli(p),
    pmf_k <- (1 - p) pmf_k + p pmf_{k-1}, in which every term is positive
    (Hong, CSDA 59, 2013); r = 0 gives p = 1, a shift.  The rest of each run
    has small odds x = 1/r, whose power sums over a range are digamma and
    Hurwitz-zeta differences.  Newton's identities turn them into the
    elementary symmetric functions e_k of the odds without cancelling,
    because the odds are small, and log prod (1 - p) = -sum log(1 + x) is the
    log1p series of the same power sums.  The two parts are independent, so
    their pmfs convolve.  Equal runs are grouped: a run repeated c times
    builds its head pmf once and raises it to the c-th power by squaring,
    and adds c times its power sums, so Wendel's r one-root runs take
    O(log r) convolutions.
    """
    if kmax < 0:
        raise ValueError("need kmax >= 0")
    # imported here so that the exact paths never load NumPy
    import numpy as np

    # enough power sums for the log1p series, whose terms fall like HEAD^-j
    jmax = max(kmax, math.ceil(53 / math.log2(HEAD)) + 1)
    power = np.zeros(jmax + 1)
    head = np.ones(1)
    # a Counter keeps the runs' first-seen order
    for run, count in collections.Counter(runs).items():
        # Newton's identities lose accuracy as k nears the number of odds,
        # so a run whose tail is short next to kmax stays in the recurrence
        cut = HEAD if len(run) > HEAD + 2 * kmax else len(run)
        pmf = np.ones(1)
        for r in run[:cut]:
            p = 1.0 / (1.0 + r)
            pmf = np.convolve(pmf, (1.0 - p, p))[:kmax + 1]
        head = _power(head, pmf, count, lambda a, b: np.convolve(a, b)[:kmax + 1])
        if len(run) > cut:
            power += count * _odds_power_sums(run[cut:], jmax)
    # signed[j] = (-1)^(j-1) s_j: e_k = sum_j signed[j] e_(k-j) / k, and
    # log prod (1 - p) = sum_j (-1)^j s_j / j
    signed = (-1.0) ** np.arange(1, jmax + 2) * power
    log_q = -np.sum(signed[1:] / np.arange(1, jmax + 1))
    e = np.zeros(kmax + 1)
    e[0] = 1.0
    for k in range(1, kmax + 1):
        e[k] = np.dot(e[k - 1::-1], signed[1:k + 1]) / k
    return np.convolve(head, math.exp(log_q) * e)[:kmax + 1]


def _odds_power_sums(run: range, jmax: int) -> np.ndarray:
    """s[j] = sum of r^-j over the run for j = 1..jmax (s[0] = 0), from the
    digamma and Hurwitz-zeta functions at start / step."""
    # imported here so that the exact paths never load NumPy or SciPy
    import numpy as np
    from scipy import special as sp

    q, m, step = run.start / run.step, len(run), float(run.step)
    s = np.zeros(jmax + 1)
    s[1] = (sp.digamma(q + m) - sp.digamma(q)) / step
    j = np.arange(2, jmax + 1)
    s[2:] = (sp.zeta(j, q) - sp.zeta(j, q + m)) * step ** -j  # step**j would overflow
    return s


#: the rows and prefixes under their classical names
stirling_row, stirling_prefix = TYPES["A"].row, TYPES["A"].prefix
b_row, b_prefix = TYPES["B"].row, TYPES["B"].prefix
d_row, d_prefix = TYPES["D"].row, TYPES["D"].prefix

