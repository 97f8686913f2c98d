"""Walk and bridge sampling, hull membership with certificates, Monte Carlo
absorption estimates, and the per-sample kernel-chamber count.

The sampling models are chosen to exercise the distribution-free claim: the
exact absorption probabilities depend only on (symmetry type, n, d), so
Gaussian, spherical and heavy-tailed walks must all land on the same value,
while the simple lattice walk deliberately breaks general position and only
obeys a one-sided bound.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import coefficients as coef
from . import exactlp, hull, mc
from .absorption import WalkFamily
from .cones import WeylChamber

MODEL_FAMILIES = ("gaussian", "uniform-sphere", "heavy-tail", "lattice-simple", "matrix")

#: default hull-membership tolerance band
DEFAULT_TOL = 1e-10

#: singular values below this fraction of the largest count as zero
_RANK_RTOL = 1e-10

#: chamber enumeration cap: 2^n n! grows too fast beyond this
CHAMBER_N_CAP = 6


@dataclass(frozen=True)
class IncrementModel:
    """An increment distribution: model family plus ambient dimension.

    'matrix' wraps a fixed user-supplied d x n increment matrix (stored as a
    nested tuple so the model stays hashable).
    """

    family: str
    dimension: int
    matrix: tuple | None = None

    def __post_init__(self):
        if self.family not in MODEL_FAMILIES:
            raise ValueError(f"unknown increment model {self.family!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.family == "matrix":
            if self.matrix is None:
                raise ValueError("matrix model needs the matrix")
            arr = np.asarray(self.matrix, dtype=float)
            if arr.ndim != 2 or arr.shape[0] != self.dimension:
                raise ValueError("matrix must be d x n")
        elif self.matrix is not None:
            raise ValueError("matrix only valid for the matrix model")

    @property
    def continuous(self) -> bool:
        return self.family in ("gaussian", "uniform-sphere", "heavy-tail")


def _draw_batch(model: IncrementModel, rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """(count, n, d) array of i.i.d. increment rows."""
    d = model.dimension
    if model.family == "gaussian":
        return rng.standard_normal((count, n, d))
    if model.family == "uniform-sphere":
        g = rng.standard_normal((count, n, d))
        return g / np.linalg.norm(g, axis=2, keepdims=True)
    if model.family == "heavy-tail":
        # componentwise standard Cauchy: symmetric, no finite moments
        return rng.standard_cauchy((count, n, d))
    if model.family == "lattice-simple":
        axis = rng.integers(0, d, size=(count, n))
        sign = rng.integers(0, 2, size=(count, n)) * 2 - 1
        out = np.zeros((count, n, d))
        np.put_along_axis(out, axis[:, :, None], sign[:, :, None].astype(float), axis=2)
        return out
    arr = np.asarray(model.matrix, dtype=float)
    if arr.shape[1] != n:
        raise ValueError(f"matrix model has {arr.shape[1]} steps, asked for {n}")
    return np.broadcast_to(arr.T, (count, n, d)).copy()


def make_bridge(increments: np.ndarray) -> np.ndarray:
    """Center the columns so they sum to the zero vector exactly.

    Centering an exchangeable sample keeps it exchangeable, which is all the
    bridge absorption formula needs; for non-Gaussian models the result is a
    residual bridge rather than a conditioned one.
    """
    inc = np.asarray(increments, dtype=float)
    if inc.ndim != 2:
        raise ValueError("increments must be a d x n matrix")
    out = inc - inc.mean(axis=1, keepdims=True)
    # second pass removes the O(eps) residual of the first
    out -= out.mean(axis=1, keepdims=True)
    return out


@dataclass(frozen=True)
class HullMembership:
    """Origin-in-hull verdict with a checkable certificate.

    inside carries convex coefficients lam (sum 1, nonnegative, with
    lam @ points within the tolerance of 0); outside carries a unit vector u
    with min_i <u, S_i> > 0.  boundary_ambiguous flags distances inside the
    (tol, 100 tol) band, where neither certificate is trustworthy.
    """

    inside: bool
    certificate_kind: str  # "convex" or "separator"
    certificate: np.ndarray
    boundary_ambiguous: bool
    distance: float


def _is_integral(pts: np.ndarray) -> bool:
    return bool(np.all(pts == np.round(pts)) and np.all(np.abs(pts) < 2**52))


def origin_in_hull(points, tol: float = DEFAULT_TOL) -> HullMembership:
    """Membership of the origin in the convex hull of the given points.

    Numeric path: min-norm point, inside iff distance <= tol.  Integer
    inputs take an exact rational LP path instead, so lattice walks get
    boundary cases right (closed-hull semantics, never ambiguous).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("need at least one point")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    m, d = pts.shape
    if _is_integral(pts):
        # a u with u.p > 0 for every point p separates the origin from the hull
        u = exactlp.open_cone_point(pts.astype(int).tolist(), d)
        if u is not None:
            u = np.array([float(x) for x in u])
            u /= np.linalg.norm(u)
            return HullMembership(False, "separator", u, False, float("nan"))
        _, lam, _ = hull.min_norm_point(pts)
        return HullMembership(True, "convex", lam, False, 0.0)
    x, lam, dist = hull.min_norm_point(pts)
    if dist <= tol:
        return HullMembership(True, "convex", lam, False, dist)
    u = x / dist
    return HullMembership(False, "separator", u, tol < dist < 100.0 * tol, dist)


def _point_sets(family: WalkFamily, inc: np.ndarray) -> np.ndarray:
    """Hull point sets (count, m, d) from increment batches (count, n, d):
    each factor's hull points from its own steps, pooled."""
    ends = np.cumsum([n for _, n in family.factors])
    parts = np.split(inc, ends[:-1], axis=1)
    pieces = [t.hull_points(part) for (t, _), part in zip(family.factors, parts)]
    # a single walk's points are used as they are, not copied
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)


def estimate_absorption(
    model: IncrementModel,
    family: WalkFamily,
    samples: int,
    seed: int = mc.DEFAULT_SEED,
    tol: float = DEFAULT_TOL,
    threads: int | None = None,
) -> mc.MCEstimate:
    """Monte Carlo absorption probability P[0 in hull of the walk points].

    Lattice models use closed-hull semantics (the origin can land on the
    boundary with positive probability); continuous models use the open
    decision with the ambiguity band reported in the estimate.
    """
    if model.dimension != family.dimension:
        raise ValueError("model and family dimensions differ")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if family.lineality and model.family == "lattice-simple":
        raise ValueError("lattice-simple is not closed under exact centering")
    n = family.n_total
    closed = not model.continuous

    def chunk(rng: np.random.Generator, size: int) -> tuple[int, int]:
        pts = _point_sets(family, _draw_batch(model, rng, size, n))
        # hull membership is scale-invariant: normalize per sample so the
        # band is relative (heavy-tail samples span many orders of magnitude)
        scale = np.linalg.norm(pts, axis=2).max(axis=1, keepdims=True)
        pts = pts / np.maximum(scale, 1e-300)[:, :, None]
        inside, amb = hull.batch_origin_in_hull(pts, tol, closed=closed)
        return int(inside.sum()), int(amb.sum())

    return mc.run_bernoulli_chunks(samples, seed, chunk, threads=threads)


def chamber_intersection_count(increments: np.ndarray, group: str) -> int:
    """Number of closed group chambers meeting Ker(increments) nontrivially.

    For generic increments this count is deterministic: it equals the number
    of arrangement regions met by a generic subspace of the kernel's
    dimension, which is the per-sample mechanism behind the exact absorption
    formulas.  Group A expects bridged increments (columns summing to zero)
    and counts chambers modulo the common diagonal line.
    """
    inc = np.asarray(increments, dtype=float)
    if inc.ndim != 2:
        raise ValueError("increments must be a d x n matrix")
    d, n = inc.shape
    if n > CHAMBER_N_CAP:
        raise ValueError(f"chamber enumeration capped at n <= {CHAMBER_N_CAP}")
    chamber = WeylChamber(group, n)
    normals = chamber.inequality_normals()
    line = chamber.lineality()
    stacked = inc
    if line is not None:
        if np.max(np.abs(inc @ line)) > 1e-9 * max(1.0, np.abs(inc).max()):
            raise ValueError(f"group {group} needs bridged increments (zero column sums)")
        # chambers are counted modulo the lineality line
        stacked = np.vstack([inc, line])
    lineality = coef.TYPES[group].lineality
    if d > n - lineality:
        raise ValueError(f"group {group} needs d <= {n - lineality}")
    group_elements = chamber.group_elements()
    if _is_integral(inc):
        kernel = exactlp.integer_nullspace([[int(round(x)) for x in r] for r in stacked], n)
        if not kernel:
            return 0
        count = 0
        for g in group_elements:
            rows = [[sum(int(x) * y for x, y in zip(w, b)) for b in kernel] for w in normals @ g]
            count += exactlp.cone_is_nontrivial(rows, len(kernel))
        return count
    _, sv, vt = np.linalg.svd(stacked)
    rank = int(np.sum(sv > _RANK_RTOL * sv[0]))
    if rank != min(d + lineality, n):
        raise ValueError("rank-deficient increments: general position violated")
    kernel = vt[rank:].T
    k = kernel.shape[1]
    if k == 0:
        return 0
    mats = normals @ group_elements @ kernel
    scale = np.linalg.norm(mats, axis=2).max(axis=1)
    mats = mats / np.maximum(scale, 1e-300)[:, None, None]
    # the restricted cone is trivial exactly when the restricted normals
    # positively span the kernel, i.e. 0 is interior to their convex hull
    inside, amb = hull.batch_origin_in_hull(mats, 1e-9)
    # ambiguous samples are settled by the exact cone test
    resolved = sum(exactlp.cone_is_nontrivial(mats[i].tolist(), k)
                   for i in np.flatnonzero(amb))
    return int(len(mats) - inside.sum() - amb.sum() + resolved)
