"""Origin-in-convex-hull tests.

Two layers: the min-norm point of a single point set in any dimension by
nonnegative least squares (with distance output, so callers can build
certificates and tolerance bands), and batch deciders.  For d = 1 and d = 2
hull membership reduces to a sign or circular-gap condition and is fully
vectorized.  For d >= 3 a vectorized Frank-Wolfe separation bound settles the
sets that are clearly outside, and only the rest go through min_norm_point,
so every verdict is either certified or the one min_norm_point gives.
"""
from __future__ import annotations

import numpy as np

#: Frank-Wolfe steps of the vectorized separation bound for d >= 3
_FW_STEPS = 8

#: NumPy sums a reduction axis shorter than this one term at a time and a
#: longer one pairwise, in eight partial sums; only below it does a
#: column-by-column sum give the same bits
_SEQUENTIAL_SUM_WIDTH = 8


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis of a float array, bit for bit
    np.linalg.norm(x, axis=-1).

    Below _SEQUENTIAL_SUM_WIDTH columns the squares are summed column by
    column, in the order NumPy's reduction adds them, which avoids the
    reduction's slow inner loop over a short axis; wider or empty rows go
    through np.linalg.norm itself.
    """
    width = x.shape[-1]
    if not 0 < width < _SEQUENTIAL_SUM_WIDTH:
        return np.linalg.norm(x, axis=-1)
    sq = np.square(x[..., 0])
    for j in range(1, width):
        sq += np.square(x[..., j])
    return np.sqrt(sq, out=sq)


def min_norm_point(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Min-norm point of conv(points) by nonnegative least squares.

    points has shape (m, d).  Returns (x, lam, dist) with x = lam @ points,
    lam a full-length convex coefficient vector and dist = |x|.  The
    minimiser y >= 0 of |P^T y|^2 + (sum(y) - 1)^2 is a positive multiple of
    the min-norm convex weights (Lawson & Hanson, 1974); P is the points
    divided by their largest norm, which keeps degenerate and badly scaled
    sets well conditioned.
    """
    # imported here so that only the d >= 3 fallbacks load SciPy
    from scipy.optimize import nnls

    pts = np.asarray(points, dtype=float)
    scaled = pts / (row_norms(pts).max() or 1.0)
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
    rmin = row_norms(points).min(axis=1)
    tiny = rmin <= band
    ang = np.sort(np.arctan2(points[:, :, 1], points[:, :, 0]), axis=1)
    gaps = np.diff(ang, axis=1)
    wrap = 2.0 * np.pi - (ang[:, -1] - ang[:, 0])
    maxgap = np.maximum(gaps.max(axis=1) if gaps.shape[1] else np.zeros(len(points)), wrap)
    # angular safety margin: a point at distance r moves its angle by about
    # band/r under a band-sized perturbation
    with np.errstate(divide="ignore"):
        angtol = np.where(rmin > 0, band / np.maximum(rmin, band), np.inf)
    if closed:
        inside = (maxgap <= np.pi + angtol) | tiny
        return inside, np.zeros(len(points), dtype=bool)
    inside = (maxgap < np.pi - angtol) & ~tiny
    outside = (maxgap > np.pi + angtol) & ~tiny
    return inside, ~(inside | outside)


def _separation_bound(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower bounds on dist(0, conv P) for a stack of point sets, and each
    set's largest point norm.

    points has shape (N, m, d).  For any unit u, every point of conv P has
    u-component at least min_i p_i . u, so that minimum bounds the distance
    from below (the certificate behind Gilbert's algorithm).  The directions
    tried are the iterates x/|x| of _FW_STEPS Frank-Wolfe steps with exact
    line search, starting at each set's shortest point; the bound is the
    largest minimum seen, -inf where every iterate is 0.
    """
    n = len(points)
    rows = np.arange(n)
    sq = np.einsum("nmd,nmd->nm", points, points)
    x = points[rows, sq.argmin(axis=1)]
    bound = np.full(n, -np.inf)
    for _ in range(_FW_STEPS):
        dots = np.einsum("nmd,nd->nm", points, x)
        s = dots.argmin(axis=1)
        low = dots[rows, s]
        xx = np.einsum("nd,nd->n", x, x)
        norm = np.sqrt(xx)
        np.maximum(bound, np.divide(low, norm, out=np.full(n, -np.inf), where=norm > 0), out=bound)
        step = points[rows, s] - x
        ss = np.einsum("nd,nd->n", step, step)
        x = x + np.clip(np.divide(xx - low, ss, out=np.zeros(n), where=ss > 0), 0.0, 1.0)[:, None] * step
    return bound, np.sqrt(sq.max(axis=1, initial=0.0))


def batch_origin_in_hull(
    points: np.ndarray, band: float, closed: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Batch decision dispatching on dimension.

    For d >= 3 a sample whose separation bound is at least 100 band, plus
    1e-13 times its largest point norm for the rounding of the dot products,
    is outside; only the others go through min_norm_point, with distance
    <= band inside and, in open mode, distance < 100 band ambiguous.
    """
    d = points.shape[2]
    if d == 1:
        return batch_origin_in_hull_1d(points[:, :, 0], band, closed)
    if d == 2:
        return batch_origin_in_hull_2d(points, band, closed)
    n = len(points)
    inside = np.zeros(n, dtype=bool)
    ambiguous = np.zeros(n, dtype=bool)
    bound, reach = _separation_bound(points)
    for i in np.flatnonzero(~(bound >= 100.0 * band + 1e-13 * reach)):
        _, _, dist = min_norm_point(points[i])
        if dist <= band:
            inside[i] = True
        elif dist < 100.0 * band and not closed:
            ambiguous[i] = True
    return inside, ambiguous
