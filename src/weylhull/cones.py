"""Conic intrinsic volumes of Weyl chambers and their integral-geometry checks.

Exact volumes come straight from the coefficient families; the Steiner and
Crofton formulas are implemented as Monte Carlo verifiers so the exact
values can be tested against geometry instead of against themselves.  The
Steiner check projects and evaluates whole arrays of points at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import coefficients as coef
from . import exactlp, hull, mc
from .arrangements import build_reflection_arrangement, characteristic_polynomial

#: relative decision band for the Crofton subspace-hit test
_CROFTON_BAND = 1e-9


@dataclass(frozen=True)
class IntrinsicVolumeVector:
    """v_0..v_n for a closed convex cone in R^n.

    The entries are rationals (``Fraction`` or ``int``) and sum to 1; for a
    cone that is not a linear subspace the even-index and odd-index sums both
    equal 1/2.
    """

    n: int
    v: tuple

    def __post_init__(self):
        if len(self.v) != self.n + 1:
            raise ValueError("need n + 1 intrinsic volumes")
        # the sum over one common denominator L: no gcd per partial sum
        lcm = math.lcm(*(x.denominator for x in self.v))
        if sum(x.numerator * (lcm // x.denominator) for x in self.v) != lcm:
            raise ValueError("intrinsic volumes must sum to 1")
        if any(x < 0 for x in self.v):
            raise ValueError("intrinsic volumes must be nonnegative")

    def as_floats(self) -> list[float]:
        return [float(x) for x in self.v]


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

    def lineality(self) -> np.ndarray | None:
        """The direction spanning the lineality line, if any: the walls' kernel."""
        kernel = exactlp.integer_nullspace(coef.TYPES[self.kind].walls(self.n), self.n)
        return np.array(kernel[0], dtype=float) if kernel else None

    @lru_cache(maxsize=8)
    def group_elements(self) -> np.ndarray:
        """The group as (order, n, n) integer matrices, generated by the wall
        reflections; built once per chamber and returned read-only."""
        n = self.n
        walls = np.array(coef.TYPES[self.kind].walls(n))
        eye = np.eye(n, dtype=int)
        # x -> x - 2 (w . x) w / (w . w), integral for the walls of a Weyl group
        norms = (walls * walls).sum(axis=1)[:, None, None]
        reflections = eye - 2 * walls[:, :, None] * walls[:, None, :] // norms
        elements, frontier = {}, [eye]
        while frontier:
            elements.update((g.tobytes(), g) for g in frontier)
            products = (reflections[:, None] @ np.array(frontier)).reshape(-1, n, n)
            frontier = list({g.tobytes(): g for g in products if g.tobytes() not in elements}.values())
        group = np.array(list(elements.values()))
        group.flags.writeable = False
        return group


def weyl_intrinsic_volumes(kind: str, n: int) -> IntrinsicVolumeVector:
    """Exact conic intrinsic volumes of the Weyl chamber: the coefficient
    row of the matching reflection group divided by its sum, the group order."""
    t = coef.reflection_type(kind)
    t.check_chamber(n)
    row = t.row(n).coeffs
    order = sum(row)
    return IntrinsicVolumeVector(n, tuple(Fraction(c, order) for c in row))


def half_tail(v: IntrinsicVolumeVector, k: int) -> Fraction:
    """h_k = v_k + v_{k+2} + ..."""
    if not 0 <= k <= v.n:
        raise ValueError("index out of range")
    return sum(v.v[k::2], Fraction(0))


def steiner_tail_cdf(v: IntrinsicVolumeVector, lam: float | np.ndarray) -> float | np.ndarray:
    """P[dist^2(theta, C) <= lam] for theta uniform on the sphere, at a
    scalar lam (a float back) or at each entry of an array.

    Beta mixture over the intrinsic volumes: conditioned on the projection
    landing on a k-dimensional part, the squared distance splits the unit
    norm as normal-part/(normal+tangent), i.e. Beta((n-k)/2, k/2).  The
    k = n term is the unit step at 0 (points inside the cone stay put) and
    the k = 0 term is the unit step at 1 (points projecting to the apex).
    """
    # imported here so that exact volumes never load SciPy
    from scipy.special import betainc

    x = np.asarray(lam, dtype=float)
    # NaN fails both comparisons, so it is rejected too
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValueError("lambda must lie in [0, 1]")
    n = v.n
    total = float(v.v[n]) + np.where(x >= 1.0, float(v.v[0]), 0.0)
    for k in range(1, n):
        if v.v[k] == 0:
            continue
        total += float(v.v[k]) * betainc((n - k) / 2.0, k / 2.0, x)
    return float(total) if total.ndim == 0 else total


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a CDF
    that may carry atoms (the sup is taken over both one-sided limits); cdf
    maps an array of points to an array of values and is called twice."""
    xs = np.sort(np.asarray(samples, dtype=float))
    uniq, first = np.unique(xs, return_index=True)
    counts = np.diff(np.append(first, len(xs)))
    hi = np.cumsum(counts) / len(xs)
    lo = first / len(xs)
    th = cdf(uniq)
    th_left = np.where(uniq > 0, cdf(np.maximum(uniq - 1e-12, 0.0)), 0.0)
    return float(max(np.abs(th - hi).max(), np.abs(th_left - lo).max()))


#: floats per (rows, n, n) temporary of the projection; a chunk of mc.CHUNK
#: rows fits in one block up to n = 8
_PROJECTION_BLOCK = 1 << 20


def _isotonic_rows(y: np.ndarray) -> np.ndarray:
    # p_k = max_{i <= k} min_{j >= k} mean(y_i..y_j): block means from prefix
    # sums, then a suffix minimum over j and a prefix maximum over i.  Entry
    # (k, k) has then seen exactly i <= k and j >= k, so the entries with
    # j < i, divided by 1 to stay finite, never reach it
    n = y.shape[1]
    s = np.cumsum(np.pad(y, ((0, 0), (1, 0))), axis=1)
    k = np.arange(n)
    means = (s[:, None, 1:] - s[:, :-1, None]) / np.maximum(k - k[:, None] + 1, 1)
    means = np.minimum.accumulate(means[:, :, ::-1], axis=2)[:, :, ::-1]
    return np.maximum.accumulate(means, axis=1)[:, k, k]


def project_onto_weyl_chamber(
    chamber: WeylChamber, x: Sequence[float] | np.ndarray
) -> tuple[np.ndarray, float | np.ndarray]:
    """Euclidean projection onto the closed chamber and squared distance,
    for a point (n,) or for each row of a stack (N, n).

    The A chamber's projection is the isotonic regression, in its closed
    min-max form (Barlow, Bartholomew, Bremner and Brunk 1972); B clamps it
    at 0.  A point returns (p, float), a stack (P, dsq) with dsq of shape
    (N,); a point equals its row of a stack bit for bit.
    """
    y = np.asarray(x, dtype=float)
    if y.shape[-1:] != (chamber.n,) or y.ndim > 2:
        raise ValueError("dimension mismatch")
    rows = y.reshape(-1, chamber.n)
    # the D chamber |x_1| <= x_2 <= ... <= x_n is the B chamber together
    # with its mirror image under x_1 -> -x_1, so the projection is the
    # nearer of the two clamped isotonic projections.  That is the one on
    # y_1's side: the flip maps D onto itself, and a point of D across
    # from y_1 is farther from y than its own mirror image.  Choosing by
    # sign avoids comparing two nearly equal distances in floating point
    flip = np.ones_like(rows)
    if chamber.kind == "D":
        flip[rows[:, 0] < 0.0, 0] = -1.0
    z, p = flip * rows, np.empty_like(rows)
    step = max(1, _PROJECTION_BLOCK // chamber.n**2)
    for i in range(0, len(rows), step):
        p[i : i + step] = _isotonic_rows(z[i : i + step])
    if chamber.kind != "A":
        p = flip * np.maximum(p, 0.0)
    dsq = np.sum((rows - p) ** 2, axis=1)
    return (p[0], float(dsq[0])) if y.ndim == 1 else (p, dsq)


def crofton_mc_estimate(
    chamber: WeylChamber,
    d: int,
    samples: int,
    seed: int = mc.DEFAULT_SEED,
    threads: int | None = None,
) -> mc.MCEstimate:
    """Monte Carlo estimate of h_{d+1} via random subspace hits.

    h_{d+1} = (1/2) P[C meets a uniform subspace of codimension d outside
    the origin].  That subspace is Ker(G^T) for a Gaussian n x d frame G, so
    the hit test asks whether the origin lies in the convex hull of G^T times
    the rays: the hull points of the walk with steps G reversed, as the rays
    are those at the reversed unit steps.  No QR is needed, since an invertible
    map of R^d keeps the origin's place in a hull.  A chamber with a lineality
    line L is C' + L for the cone C' spanned by the rays, so the hit test runs
    modulo the image of L: on the complement of that direction.
    """
    n = chamber.n
    if not 0 <= d <= n - 1:
        raise ValueError("codimension out of range")
    t = coef.TYPES[chamber.kind]
    if d <= t.lineality:
        # W = R^n at d = 0; for d <= dim L, W meets span(L, g) for a ray g
        # in a line with one ray in C.  Either way h_{d+1} = 1/2 exactly
        return mc.MCEstimate(0.5, 0.0, mc.check_samples(samples), seed, 0.0)
    rays = t.hull_points(np.eye(n)[None, ::-1])[0]
    line = chamber.lineality()
    band = _CROFTON_BAND * max(1.0, float(hull.row_norms(rays).max()))

    def chunk(rng: np.random.Generator, size: int) -> tuple[int, int]:
        g = rng.standard_normal((size, n, d))
        pts = t.hull_points(g[:, ::-1])
        if line is not None:
            # the QR factorisation of [g^T line | I] puts the line's image
            # first, so Q's other columns are orthonormal on its complement
            w = np.einsum("snd,n->sd", g, line)[:, :, None]
            basis, _ = np.linalg.qr(np.concatenate([w, np.broadcast_to(np.eye(d), (size, d, d))], axis=2))
            pts = pts @ basis[:, :, 1:]
        inside, amb = hull.batch_origin_in_hull(pts, band)
        return int(inside.sum()), int(amb.sum())

    return mc.run_bernoulli_chunks(samples, seed, chunk, threads=threads, scale=0.5)


def sample_sphere_distances(
    chamber: WeylChamber, samples: int, seed: int = mc.DEFAULT_SEED
) -> np.ndarray:
    """Squared distances to the chamber from uniform points on the sphere."""

    def chunk(rng: np.random.Generator, size: int) -> np.ndarray:
        g = rng.standard_normal((size, chamber.n))
        g /= hull.row_norms(g)[:, None]
        return project_onto_weyl_chamber(chamber, g)[1]

    return np.concatenate(mc.run_chunks(samples, seed, chunk))


def klivans_swartz_check(kind: str, n: int) -> bool:
    """Group order times chamber volumes equals the characteristic
    coefficients of the mirror arrangement.

    The right-hand side is recomputed independently by deletion and
    restriction, which reads the mirrors and neither the roots nor the rows.
    """
    vols = weyl_intrinsic_volumes(kind, n)
    chi = characteristic_polynomial(build_reflection_arrangement(kind, n)).a
    order = coef.product_at_one(coef.TYPES[kind].roots(n))
    return all(chi[k] == order * vols.v[k] for k in range(n + 1))
