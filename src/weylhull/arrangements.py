"""Central hyperplane arrangements with exact region combinatorics.

Characteristic polynomials come from deletion and restriction, region counts
from the alternating evaluation at -1, and regions themselves from
sign-vector enumeration by the same deletion step, which solves no LP.
Whitney's subset expansion stays as an independent, capped oracle for the
characteristic polynomial; it skips each subtree whose next normal lies in
the span of those already taken, because such a subtree cancels to 0.
Everything is integer or Fraction arithmetic; nothing here depends on
floating point.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from dataclasses import dataclass
from typing import Sequence

from . import exactlp
from .coefficients import reflection_type

#: hard cap on the 2^m Whitney subset sum
WHITNEY_CAP = 20
#: hard cap on brute-force region enumeration
ENUMERATION_CAP = 16


class CapExceededError(ValueError):
    """An exponential brute-force path was asked to exceed its size cap."""


def _normalize_normal(normal: Sequence) -> tuple[int, ...]:
    ints = exactlp.primitive_row(normal)
    if not any(ints):
        raise ValueError("hyperplane normal must be nonzero")
    if next(v for v in ints if v != 0) < 0:
        ints = [-v for v in ints]
    return tuple(ints)


@dataclass(frozen=True)
class Hyperplane:
    """A central hyperplane, stored as a canonical primitive integer normal.

    The gcd of the entries is 1 and the first nonzero entry is positive, so
    equal hyperplanes compare equal and sets deduplicate exactly.
    """

    normal: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "normal", _normalize_normal(self.normal))

    @property
    def dim(self) -> int:
        return len(self.normal)


@dataclass(frozen=True)
class Arrangement:
    ambient_dim: int
    hyperplanes: tuple[Hyperplane, ...]

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise ValueError("ambient_dim must be >= 1")
        hs = tuple(self.hyperplanes)
        if len(set(hs)) != len(hs):
            raise ValueError("duplicate hyperplanes")
        for h in hs:
            if h.dim != self.ambient_dim:
                raise ValueError("hyperplane dimension mismatch")
        object.__setattr__(self, "hyperplanes", hs)

    @property
    def size(self) -> int:
        return len(self.hyperplanes)


@dataclass(frozen=True)
class CharacteristicPolynomial:
    """chi(t) = sum_k (-1)^(n-k) a_k t^k with unsigned coefficients a_k >= 0.

    For a nonempty central arrangement chi(1) = 0, i.e. the even-index and
    odd-index coefficient sums agree (the arrangement has no bounded
    regions).
    """

    ambient_dim: int
    a: tuple[int, ...]

    def __post_init__(self):
        n = self.ambient_dim
        a = tuple(int(x) for x in self.a)
        if len(a) != n + 1:
            raise ValueError("need n + 1 coefficients")
        if a[n] != 1:
            raise ValueError("leading coefficient must be 1")
        if any(x < 0 for x in a):
            raise ValueError("coefficients must be nonnegative")
        if n >= 1 and a[n - 1] > 0:
            if sum(a[0::2]) != sum(a[1::2]):
                raise ValueError("even/odd coefficient sums differ")
        object.__setattr__(self, "a", a)

    def __call__(self, t):
        n = self.ambient_dim
        return sum((-1) ** (n - k) * self.a[k] * t**k for k in range(n + 1))


@dataclass(frozen=True)
class Subspace:
    """A linear subspace given by an exact rational basis (columns).

    Each basis vector is stored scaled to coprime integers: the span is the
    same, every count here is invariant under positive rescaling of the
    basis, and the traces stay in integer arithmetic.
    """

    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]  # each entry one basis vector

    def __post_init__(self):
        vecs = tuple(tuple(exactlp.primitive_row(v)) for v in self.basis)
        if not vecs or any(len(v) != self.ambient_dim for v in vecs):
            raise ValueError("basis vectors must match ambient dimension")
        if exactlp.integer_rank(vecs) != len(vecs):
            raise ValueError("basis is linearly dependent")
        object.__setattr__(self, "basis", vecs)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.dim


def build_reflection_arrangement(kind: str, n: int) -> Arrangement:
    """Mirror arrangement of the reflection group A_{n-1}, B_n or D_n in R^n:
    the walls closed under their reflections, which generate the group.  It
    reads no roots, so deletion-restriction on it is independent of the rows.
    The sort lists units, e_i - e_j, then e_i + e_j, each lexicographically."""
    t = reflection_type(kind)
    t.check_chamber(n)
    walls = [(w, _dot(w, w)) for w in t.walls(n)]
    mirrors = frontier = {Hyperplane(w) for w, _ in walls}
    while frontier:
        # v reflected in w, times w.w: (w.w) v - 2 (w.v) w
        frontier = {Hyperplane([ww * a - c * b for a, b in zip(h.normal, w)])
                    for h in frontier for w, ww in walls for c in [2 * _dot(w, h.normal)]} - mirrors
        mirrors |= frontier
    key = lambda h: (sum(map(bool, h.normal)), sum(h.normal), [-abs(x) for x in h.normal])
    return Arrangement(n, tuple(sorted(mirrors, key=key)))


def whitney_characteristic_polynomial(arr: Arrangement) -> CharacteristicPolynomial:
    """Characteristic polynomial by the signed sum over normal subsets.

    chi(t) = sum over subsets S of (-1)^#S t^(n - rank S); ranks accumulate
    incrementally along an include/exclude recursion over one shared echelon.
    Normal i is reduced against the echelon before the recursion branches on
    it.  If it lies in the span of the normals included so far, leaving it
    out and putting it in reach the same echelon with opposite signs, so the
    subtree sums to 0 (a sign-reversing involution) and is skipped.  The sum
    reads only the normals: no deletion, restriction or closed form.
    """
    if arr.size > WHITNEY_CAP:
        raise CapExceededError(f"Whitney sum capped at {WHITNEY_CAP} hyperplanes")
    n = arr.ambient_dim
    normals = [h.normal for h in arr.hyperplanes]
    signed = [0] * (n + 1)  # signed[r] = sum of (-1)^#S over subsets of rank r

    def rec(i, echelon, size_sign):
        if i == len(normals):
            signed[len(echelon)] += size_sign
            return
        step = exactlp.reduce_row(echelon, normals[i])
        if step is None:
            # a normal in the span changes no later rank, so leaving it out
            # and putting it in cancel term by term
            return
        rec(i + 1, echelon, size_sign)
        rec(i + 1, echelon + [step], -size_sign)

    rec(0, [], 1)
    a = []
    for k in range(n + 1):
        coeff = signed[n - k]
        if (-1) ** (n - k) * coeff < 0:
            raise AssertionError("characteristic coefficient with unexpected sign")
        a.append(abs(coeff))
    return CharacteristicPolynomial(n, tuple(a))


def reflection_characteristic_polynomial(kind: str, n: int) -> CharacteristicPolynomial:
    """Closed-form characteristic polynomial of a reflection arrangement:
    prod_i (t - r_i) over the type's characteristic roots."""
    t = reflection_type(kind)
    t.check_chamber(n)
    return CharacteristicPolynomial(n, t.row(n).coeffs)


def zaslavsky_region_count(chi: CharacteristicPolynomial) -> int:
    """Number of open regions: (-1)^n chi(-1) = sum of the a_k."""
    return sum(chi.a)


def intersected_region_count(chi: CharacteristicPolynomial, d: int) -> int:
    """Number of regions met by a generic subspace of codimension d."""
    n = chi.ambient_dim
    if not 0 <= d <= n - 1:
        raise ValueError("codimension out of range")
    if d == 0:
        return zaslavsky_region_count(chi)
    return 2 * sum(chi.a[k] for k in range(d + 1, n + 1, 2))


def _delete_last(arr: Arrangement) -> tuple[Arrangement, tuple[int, ...], list, Arrangement | None]:
    """One deletion step on a nonempty arrangement: the rest A', the last
    normal h, an integer basis of the hyperplane h, and A'', the trace of A'
    on h in that basis.  In R^1 there is no basis and no trace: h is the
    origin."""
    n = arr.ambient_dim
    rest = Arrangement(n, arr.hyperplanes[:-1])
    h = arr.hyperplanes[-1].normal
    basis = exactlp.integer_nullspace([h], n)
    trace = induced_arrangement(rest, Subspace(n, tuple(basis))) if basis else None
    return rest, h, basis, trace


@lru_cache(maxsize=1024)
def characteristic_polynomial(arr: Arrangement) -> CharacteristicPolynomial:
    """Characteristic polynomial by deletion and restriction.

    chi(A) = chi(A') - chi(A''), so in unsigned coefficients
    a_k(A) = a_k(A') + a_k(A''), with chi = t^n for the empty arrangement
    and chi = 1 for the origin, the trace in R^1 (Zaslavsky 1975).
    """
    n = arr.ambient_dim
    if arr.size == 0:
        return CharacteristicPolynomial(n, (0,) * n + (1,))
    rest, _, _, trace = _delete_last(arr)
    a = list(characteristic_polynomial(rest).a)
    for k, x in enumerate(characteristic_polynomial(trace).a if trace is not None else (1,)):
        a[k] += x
    return CharacteristicPolynomial(n, tuple(a))


@lru_cache(maxsize=64)
def enumerate_regions(arr: Arrangement) -> frozenset[tuple[int, ...]]:
    """All sign vectors of nonempty open regions, by deletion and restriction."""
    check_enumeration(arr.size)
    return frozenset(_witnesses(arr))


def check_enumeration(size: int) -> None:
    """Region enumeration is capped at ENUMERATION_CAP hyperplanes."""
    if size > ENUMERATION_CAP:
        raise CapExceededError(f"region enumeration capped at {ENUMERATION_CAP} hyperplanes")


@lru_cache(maxsize=256)
def _witnesses(arr: Arrangement) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each region's sign vector, mapped to an integer point inside it.

    The last hyperplane h splits exactly the regions of the rest that meet
    it, which are the regions of the rest's trace on h: r(A) = r(A') + r(A'').
    A trace region lifts to a point x on h; x +- t h, with t below every
    |g.x| / |g.h|, lies on either side of h and on x's side of every g.
    """
    n = arr.ambient_dim
    if arr.size == 0:
        return {(): (0,) * n}
    rest, h, basis, trace = _delete_last(arr)
    # unsplit regions keep their witness; split ones are overwritten below
    regions = {sigma + (1 if _dot(h, w) > 0 else -1,): w for sigma, w in _witnesses(rest).items()}
    points = _witnesses(trace).values() if trace is not None else [()]
    for y in points:
        x = [sum(yi * b[j] for yi, b in zip(y, basis)) for j in range(n)]
        gx = [_dot(g.normal, x) for g in rest.hyperplanes]
        gh = [_dot(g.normal, h) for g in rest.hyperplanes]
        # t = p / 2q with p / q the least |g.x| / |g.h|, found by
        # cross-multiplying, or t = 1 when no g meets h
        ratios = [(abs(a), abs(b)) for a, b in zip(gx, gh) if b]
        p, q = ratios[0] if ratios else (2, 1)
        for a, b in ratios:
            if a * q < p * b:
                p, q = a, b
        sigma = tuple(1 if a > 0 else -1 for a in gx)
        for s in (1, -1):
            # 2q x +- p h, a positive multiple of x +- t h
            regions[sigma + (s,)] = tuple(exactlp.primitive_row([2 * q * a + s * p * b for a, b in zip(x, h)]))
    return regions


def _dot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v))


@dataclass(frozen=True)
class SubspaceMeetCount:
    count: int
    general_position: bool
    mode: str


def _traces(arr: Arrangement, sub: Subspace) -> list[tuple[int, ...]]:
    """Each normal restricted to the subspace, in basis coordinates."""
    return [tuple(_dot(h.normal, b) for b in sub.basis) for h in arr.hyperplanes]


def is_general_position(arr: Arrangement, sub: Subspace) -> bool:
    """Every flat of the arrangement meets the subspace with the expected
    dimension: any k = min(dim L, rank) independent normals keep independent
    traces.  Smaller independent sets extend to k normals (matroid
    augmentation), so checking the k-subsets suffices."""
    normals = [h.normal for h in arr.hyperplanes]
    traces = _traces(arr, sub)
    k = min(sub.dim, exactlp.integer_rank(normals))
    for subset in itertools.combinations(range(len(normals)), k):
        if (exactlp.integer_rank([normals[i] for i in subset]) == k
                and exactlp.integer_rank([traces[i] for i in subset]) < k):
            return False
    return True


def count_regions_meeting_subspace(
    arr: Arrangement, sub: Subspace, mode: str = "open"
) -> SubspaceMeetCount:
    """Count regions R with R cap L nonempty (open mode) or with closure
    meeting L outside the origin (closed mode).

    Open mode counts the regions of the trace arrangement on L, unless some
    hyperplane contains L: then L misses every open region.  Closed mode
    finds the lines on which dim L - 1 independent traces vanish, once: a
    closed region meets L outside the origin exactly when it holds one of
    them (its extreme rays lie on such lines), or every region does when the
    traces have rank below dim L.
    """
    if mode not in ("open", "closed"):
        raise ValueError("mode must be 'open' or 'closed'")
    if sub.ambient_dim != arr.ambient_dim:
        raise ValueError("dimension mismatch")
    if not 1 <= sub.codim <= arr.ambient_dim - 1:
        raise ValueError("subspace codimension out of range")
    projected = _traces(arr, sub)
    if mode == "open":
        count = len(enumerate_regions(induced_arrangement(arr, sub))) if all(map(any, projected)) else 0
    elif exactlp.integer_rank(projected) < sub.dim:
        # every closed region holds the traces' common kernel
        count = len(enumerate_regions(arr))
    else:
        # sigma holds the line through v when sigma agrees in sign with v's
        # sign vector or with its negative
        patterns = [exactlp.signs(projected, v) for v in exactlp.lines(projected, sub.dim)]
        count = sum(any(not {1, -1} <= {a * b for a, b in zip(sigma, p)} for p in patterns)
                    for sigma in enumerate_regions(arr))
    return SubspaceMeetCount(count, is_general_position(arr, sub), mode)


def induced_arrangement(arr: Arrangement, sub: Subspace) -> Arrangement:
    """The trace arrangement on the subspace, in basis coordinates.

    Hyperplanes containing the subspace drop out; coincident traces merge
    through normal canonicalization.
    """
    seen = {Hyperplane(row) for row in _traces(arr, sub) if any(row)}
    return Arrangement(sub.dim, tuple(sorted(seen, key=lambda h: h.normal)))


def parse_arrangement(text: str) -> Arrangement:
    """Read the text format: 'dim n' then one integer normal per line."""
    dim = None
    normals = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if dim is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "dim":
                raise ValueError(f"line {lineno}: expected 'dim n'")
            dim = int(parts[1])
            continue
        entries = [int(tok) for tok in line.split()]
        if len(entries) != dim:
            raise ValueError(f"line {lineno}: expected {dim} integers")
        normals.append(Hyperplane(tuple(entries)))
    if dim is None:
        raise ValueError("missing 'dim n' header")
    return Arrangement(dim, tuple(normals))
