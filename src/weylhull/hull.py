"""Origin-in-convex-hull tests.

Two layers: the min-norm point of a single point set in any dimension by
nonnegative least squares (with distance output, so callers can build
certificates and tolerance bands), and fully vectorized batch deciders for
d = 1 and d = 2 where hull membership reduces to a sign or circular-gap
condition.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import nnls


def min_norm_point(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Min-norm point of conv(points) by nonnegative least squares.

    points has shape (m, d).  Returns (x, lam, dist) with x = lam @ points,
    lam a full-length convex coefficient vector and dist = |x|.  The
    minimiser y >= 0 of |P^T y|^2 + (sum(y) - 1)^2 is a positive multiple of
    the min-norm convex weights (Lawson & Hanson, 1974); P is the points
    divided by their largest norm, which keeps degenerate and badly scaled
    sets well conditioned.
    """
    pts = np.asarray(points, dtype=float)
    scaled = pts / (np.linalg.norm(pts, axis=1).max() or 1.0)
    y, _ = nnls(np.vstack([scaled.T, np.ones(len(pts))]), np.eye(pts.shape[1] + 1)[-1])
    lam = y / y.sum()
    x = lam @ pts
    return x, lam, float(np.linalg.norm(x))


def batch_origin_in_hull_1d(
    points: np.ndarray, band: float, closed: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized decision for point sets on the line.

    points: (N, m).  Origin is inside iff min <= 0 <= max; samples with an
    endpoint within +-band of zero are flagged ambiguous (open mode) or
    counted as inside (closed mode, for lattice walks where the origin can
    sit on the hull boundary with positive probability).
    """
    lo = points.min(axis=1)
    hi = points.max(axis=1)
    if closed:
        inside = (lo <= band) & (hi >= -band)
        return inside, np.zeros(len(points), dtype=bool)
    inside = (lo < -band) & (hi > band)
    outside = (lo > band) | (hi < -band)
    return inside, ~(inside | outside)


def batch_origin_in_hull_2d(
    points: np.ndarray, band: float, closed: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized decision in the plane via the largest circular angle gap.

    points: (N, m, 2).  The origin lies in the hull iff the directions of
    the points leave no open half-plane free, i.e. the largest gap between
    consecutive angles is at most pi.  A gap of exactly pi means the origin
    lies on a segment between two antipodal directions: boundary, so inside
    in closed mode and ambiguous in open mode.
    """
    norms = np.linalg.norm(points, axis=2)
    tiny = norms.min(axis=1) <= band
    ang = np.sort(np.arctan2(points[:, :, 1], points[:, :, 0]), axis=1)
    gaps = np.diff(ang, axis=1)
    wrap = 2.0 * np.pi - (ang[:, -1] - ang[:, 0])
    maxgap = np.maximum(gaps.max(axis=1) if gaps.shape[1] else np.zeros(len(points)), wrap)
    # angular safety margin: a point at distance r moves its angle by about
    # band/r under a band-sized perturbation
    with np.errstate(divide="ignore"):
        angtol = np.where(norms.min(axis=1) > 0, band / np.maximum(norms.min(axis=1), band), np.inf)
    if closed:
        inside = (maxgap <= np.pi + angtol) | tiny
        return inside, np.zeros(len(points), dtype=bool)
    inside = (maxgap < np.pi - angtol) & ~tiny
    outside = (maxgap > np.pi + angtol) & ~tiny
    return inside, ~(inside | outside)


def batch_origin_in_hull(
    points: np.ndarray, band: float, closed: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Batch decision dispatching on dimension; loops min_norm_point for d >= 3."""
    d = points.shape[2]
    if d == 1:
        return batch_origin_in_hull_1d(points[:, :, 0], band, closed)
    if d == 2:
        return batch_origin_in_hull_2d(points, band, closed)
    n = len(points)
    inside = np.zeros(n, dtype=bool)
    ambiguous = np.zeros(n, dtype=bool)
    for i in range(n):
        _, _, dist = min_norm_point(points[i])
        if dist <= band:
            inside[i] = True
        elif dist < 100.0 * band and not closed:
            ambiguous[i] = True
    return inside, ambiguous
