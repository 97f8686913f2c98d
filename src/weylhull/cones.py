"""Conic intrinsic volumes of Weyl chambers and their integral-geometry checks.

Exact volumes come straight from the coefficient families; the Steiner and
Crofton formulas are implemented as Monte Carlo verifiers so the exact
values can be tested against geometry instead of against themselves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.optimize import isotonic_regression
from scipy.special import betainc

from . import coefficients as coef
from . import hull, mc
from .arrangements import (
    build_reflection_arrangement,
    reflection_characteristic_polynomial,
    schlafli_count,
    whitney_characteristic_polynomial,
)

#: relative decision band for the Crofton subspace-hit test
_CROFTON_BAND = 1e-9


@dataclass(frozen=True)
class IntrinsicVolumeVector:
    """v_0..v_n for a closed convex cone in R^n.

    The entries sum to 1; for a cone that is not a linear subspace the
    even-index and odd-index sums both equal 1/2.
    """

    n: int
    v: tuple
    exact: bool

    def __post_init__(self):
        if len(self.v) != self.n + 1:
            raise ValueError("need n + 1 intrinsic volumes")
        total = sum(self.v)
        if self.exact:
            if total != 1:
                raise ValueError("intrinsic volumes must sum to 1")
            if any(x < 0 for x in self.v):
                raise ValueError("intrinsic volumes must be nonnegative")
        elif abs(float(total) - 1.0) > 1e-9:
            raise ValueError("intrinsic volumes must sum to 1")

    def as_floats(self) -> list[float]:
        return [float(x) for x in self.v]


@dataclass(frozen=True)
class HalfTailValue:
    k: int
    value: object  # Fraction in exact mode, float otherwise


@dataclass(frozen=True)
class WeylChamber:
    """Fundamental cone of a finite reflection group acting on R^n.

    kind 'A': x_1 <= ... <= x_n (group of order n!),
    kind 'B': 0 <= x_1 <= ... <= x_n (order 2^n n!),
    kind 'D': -x_2 <= x_1 <= x_2 <= ... <= x_n (order 2^(n-1) n!).
    """

    kind: str
    n: int

    def __post_init__(self):
        coef.reflection_type(self.kind).check_chamber(self.n)

    @property
    def group_order(self) -> int:
        return coef.TYPES[self.kind].order(self.n)

    def inequality_normals(self) -> np.ndarray:
        """Rows g with the chamber equal to {x : g @ x >= 0 for all g}: the
        differences e_i - e_{i-1}, after e_1 for B and after e_1 + e_2 for D."""
        eye = np.eye(self.n)
        rows = [eye[i] - eye[i - 1] for i in range(1, self.n)]
        if self.kind == "B":
            rows.insert(0, eye[0])
        elif self.kind == "D":
            rows.insert(0, eye[0] + eye[1])
        return np.array(rows)

    def generators(self) -> np.ndarray:
        """Columns spanning the chamber: conic hull of these equals the
        chamber (for type A together with the lineality line).

        They are the tails e_{n-j+1} + ... + e_n, j = 1..n; type A drops the
        last one, which spans the lineality line, and type D replaces the
        last two by (1, 1, ..., 1) and (-1, 1, ..., 1).
        """
        n = self.n
        tails = [np.concatenate([np.zeros(n - j), np.ones(j)]) for j in range(1, n + 1)]
        if self.kind == "A":
            return np.column_stack(tails[:-1])
        if self.kind == "D":
            minus = np.ones(n)
            minus[0] = -1.0
            tails = tails[:-2] + [np.ones(n), minus]
        return np.column_stack(tails)

    def lineality(self) -> np.ndarray | None:
        """The direction spanning the lineality line, if there is one."""
        if coef.TYPES[self.kind].lineality:
            return np.ones(self.n)
        return None


def weyl_intrinsic_volumes(kind: str, n: int) -> IntrinsicVolumeVector:
    """Exact conic intrinsic volumes of the Weyl chamber: the coefficient
    row of the matching reflection group divided by the group order."""
    order = WeylChamber(kind, n).group_order
    row = coef.TYPES[kind].row(n).coeffs
    return IntrinsicVolumeVector(n, tuple(Fraction(c, order) for c in row), exact=True)


def half_tail(v: IntrinsicVolumeVector, k: int) -> HalfTailValue:
    """h_k = v_k + v_{k+2} + ..."""
    if not 0 <= k <= v.n:
        raise ValueError("index out of range")
    return HalfTailValue(k, sum(v.v[k::2]))


def steiner_tail_cdf(v: IntrinsicVolumeVector, lam: float) -> float:
    """P[dist^2(theta, C) <= lam] for theta uniform on the sphere.

    Beta mixture over the intrinsic volumes: conditioned on the projection
    landing on a k-dimensional part, the squared distance splits the unit
    norm as normal-part/(normal+tangent), i.e. Beta((n-k)/2, k/2).  The
    k = n term is the unit step at 0 (points inside the cone stay put) and
    the k = 0 term is the unit step at 1 (points projecting to the apex).
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    n = v.n
    total = float(v.v[n])
    if lam >= 1.0:
        total += float(v.v[0])
    for k in range(1, n):
        if v.v[k] == 0:
            continue
        total += float(v.v[k]) * float(betainc((n - k) / 2.0, k / 2.0, lam))
    return total


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a CDF
    that may carry atoms (the sup is taken over both one-sided limits)."""
    xs = np.sort(np.asarray(samples, dtype=float))
    uniq, first = np.unique(xs, return_index=True)
    counts = np.diff(np.append(first, len(xs)))
    hi = np.cumsum(counts) / len(xs)
    lo = first / len(xs)
    th = np.array([cdf(x) for x in uniq])
    th_left = np.array([cdf(max(x - 1e-12, 0.0)) if x > 0 else 0.0 for x in uniq])
    return float(max(np.abs(th - hi).max(), np.abs(th_left - lo).max()))


def _project_nonnegative_monotone(y: np.ndarray) -> np.ndarray:
    # the B chamber: nonnegative isotonic regression, pool first, clamp after
    return np.maximum(isotonic_regression(y).x, 0.0)


def project_onto_weyl_chamber(chamber: WeylChamber, x: Sequence[float]) -> tuple[np.ndarray, float]:
    """Euclidean projection onto the closed chamber and squared distance."""
    y = np.asarray(x, dtype=float)
    if y.shape != (chamber.n,):
        raise ValueError("dimension mismatch")
    if chamber.kind == "A":
        p = isotonic_regression(y).x
    elif chamber.kind == "B":
        p = _project_nonnegative_monotone(y)
    else:
        # the D chamber |x_1| <= x_2 <= ... <= x_n is the B chamber together
        # with its mirror image under x_1 -> -x_1, so the projection is the
        # nearer of the two clamped isotonic projections.  That is the one on
        # y_1's side: the flip maps D onto itself, and a point of D across
        # from y_1 is farther from y than its own mirror image.  Choosing by
        # sign avoids comparing two nearly equal distances in floating point
        flip = np.ones(chamber.n)
        if y[0] < 0.0:
            flip[0] = -1.0
        p = flip * _project_nonnegative_monotone(flip * y)
    return p, float(np.sum((y - p) ** 2))


def crofton_mc_estimate(
    chamber: WeylChamber,
    d: int,
    samples: int,
    seed: int = mc.DEFAULT_SEED,
    threads: int | None = None,
) -> mc.MCEstimate:
    """Monte Carlo estimate of h_{d+1} via random subspace hits.

    h_{d+1} = (1/2) P[C meets a uniform subspace of codimension d outside
    the origin].  The hit test projects the chamber generators onto a
    uniform d-dimensional orthonormal frame (the orthogonal complement of
    the sampled subspace) and asks whether the origin lies in their convex
    hull.  A chamber with a lineality line L is C' + L for the cone C'
    spanned by the generators, so the hit test runs modulo the projection
    of L: on the complement of that direction inside the frame.
    """
    n = chamber.n
    if not 0 <= d <= n - 1:
        raise ValueError("codimension out of range")
    if d <= coef.TYPES[chamber.kind].lineality:
        # W = R^n at d = 0; for d <= dim L, W meets span(L, g) for a generator
        # g in a line with one ray in C.  Either way h_{d+1} = 1/2 exactly
        return mc.MCEstimate(0.5, 0.0, samples, seed, 0.0)
    gens = chamber.generators()
    line = chamber.lineality()
    band = _CROFTON_BAND * max(1.0, float(np.linalg.norm(gens, axis=0).max()))

    def chunk(rng: np.random.Generator, size: int) -> tuple[int, int]:
        g = rng.standard_normal((size, n, d))
        q, _ = np.linalg.qr(g)
        pts = np.einsum("snd,nm->smd", q, gens)
        if line is not None:
            # the QR factorisation of [q^T line | I] puts the line's image
            # first, so Q's other columns are orthonormal on its complement
            w = np.einsum("snd,n->sd", q, line)[:, :, None]
            basis, _ = np.linalg.qr(np.concatenate([w, np.broadcast_to(np.eye(d), (size, d, d))], axis=2))
            pts = pts @ basis[:, :, 1:]
        inside, amb = hull.batch_origin_in_hull(pts, band)
        return int(inside.sum()), int(amb.sum())

    return mc.run_bernoulli_chunks(samples, seed, chunk, threads=threads, scale=0.5)


def sample_sphere_distances(
    chamber: WeylChamber, samples: int, seed: int = mc.DEFAULT_SEED
) -> np.ndarray:
    """Squared distances to the chamber from uniform points on the sphere."""
    out = np.empty(samples)
    pos = 0
    stream = 0
    while pos < samples:
        size = min(mc.CHUNK, samples - pos)
        rng = mc.stream_rng(seed, stream)
        g = rng.standard_normal((size, chamber.n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        for i in range(size):
            _, dsq = project_onto_weyl_chamber(chamber, g[i])
            out[pos + i] = dsq
        pos += size
        stream += 1
    return out


def schlafli_expected_volumes(m: int, n: int) -> list[Fraction]:
    """Expected intrinsic volumes of a cone cut by m generic central
    hyperplanes, chosen uniformly among the resulting regions.

    The k >= 1 entries are C(m, n-k)/C(m, n).  The k = 0 entry uses
    C(m-1, n-1)/C(m, n): the constant coefficient of the generic
    characteristic polynomial, which is what makes the vector sum to 1.
    """
    if not m >= n >= 1:
        raise ValueError("need m >= n >= 1")
    total = schlafli_count(m, n)
    out = [Fraction(math.comb(m - 1, n - 1), total)]
    out += [Fraction(math.comb(m, n - k), total) for k in range(1, n + 1)]
    assert sum(out) == 1
    return out


def klivans_swartz_check(kind: str, n: int) -> bool:
    """Group order times chamber volumes equals the characteristic
    coefficients of the mirror arrangement.

    For n <= 4 the right-hand side is recomputed independently through the
    Whitney subset sum; beyond that the closed-form roots are used.
    """
    if n > 6:
        raise ValueError("check supported for n <= 6")
    vols = weyl_intrinsic_volumes(kind, n)
    if n <= 4:
        chi = whitney_characteristic_polynomial(build_reflection_arrangement(kind, n))
    else:
        chi = reflection_characteristic_polynomial(kind, n)
    order = coef.TYPES[kind].order(n)
    return all(chi.a[k] == order * vols.v[k] for k in range(n + 1))
