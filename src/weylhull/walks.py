"""Walk and bridge sampling, Monte Carlo absorption estimates, and the
per-sample kernel-chamber count as hull tests of the group-rearranged walk.

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
from . import hull, mc
from .absorption import WalkFamily
from .cones import WeylChamber
from .mc import DEFAULT_TOL, MODEL_FAMILIES

#: singular values below this fraction of the largest count as zero
_RANK_RTOL = 1e-10

#: chamber enumeration cap: 2^n n! grows too fast beyond this
CHAMBER_N_CAP = 6


@dataclass(frozen=True)
class IncrementModel:
    """An increment distribution: model family plus ambient dimension."""

    family: str
    dimension: int

    def __post_init__(self):
        if self.family not in MODEL_FAMILIES:
            raise ValueError(f"unknown increment model {self.family!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

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
        g /= hull.row_norms(g)[:, :, None]
        return g
    if model.family == "heavy-tail":
        # componentwise standard Cauchy: symmetric, no finite moments
        return rng.standard_cauchy((count, n, d))
    # lattice-simple: one signed unit step along a uniform axis
    axis = rng.integers(0, d, size=(count, n))
    sign = rng.integers(0, 2, size=(count, n)) * 2 - 1
    out = np.zeros((count, n, d))
    np.put_along_axis(out, axis[:, :, None], sign[:, :, None].astype(float), axis=2)
    return out


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


def _is_integral(pts: np.ndarray) -> bool:
    return bool(np.all(pts == np.round(pts)) and np.all(np.abs(pts) < 2**52))


def _normalise(pts: np.ndarray) -> np.ndarray:
    """The stack of point sets (N, m, d), each divided in place by its
    largest point norm.

    Hull membership is scale-invariant, so this makes a hull test's band
    relative (heavy-tail samples span many orders of magnitude); dividing in
    place keeps a single copy of the stack alive during the test.  The norms
    are hull.row_norms, the same bits as np.linalg.norm over the last axis
    in one pass over each column.
    """
    scale = hull.row_norms(pts).max(axis=1)
    pts /= np.maximum(scale, 1e-300)[:, None, None]
    return pts


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
    if not 0 < tol < np.inf:  # also false for nan
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if family.lineality and model.family == "lattice-simple":
        raise ValueError("lattice-simple is not closed under exact centering")
    n = family.n_total
    closed = not model.continuous

    def chunk(rng: np.random.Generator, size: int) -> tuple[int, int]:
        pts = _normalise(_point_sets(family, _draw_batch(model, rng, size, n)))
        inside, amb = hull.batch_origin_in_hull(pts, tol, closed=closed)
        return int(inside.sum()), int(amb.sum())

    return mc.run_bernoulli_chunks(samples, seed, chunk, threads=threads)


def chamber_intersection_count(increments: np.ndarray, group: str) -> int:
    """Number of closed group chambers meeting Ker(increments) outside the
    lineality line (outside 0 for B and D).

    The chamber gC is the cone over g's image of the chamber's rays, plus the
    lineality line, which Ker(X) contains for bridged X.  The rays are the
    hull points of the type's walk at the reversed unit steps J, and g J runs
    over the group with g.  So the count is that of the g whose walk with
    steps X g (the increments permuted and, for B and D, sign-flipped) holds
    the origin in its closed hull.  For generic increments the count is
    deterministic: it equals the number of arrangement regions met by a
    generic subspace of the kernel's dimension, which is the per-sample
    mechanism behind the exact absorption formulas.  Group A expects bridged
    increments (columns summing to zero).
    """
    inc = np.asarray(increments, dtype=float)
    if inc.ndim != 2:
        raise ValueError("increments must be a d x n matrix")
    d, n = inc.shape
    if n > CHAMBER_N_CAP:
        raise ValueError(f"chamber enumeration capped at n <= {CHAMBER_N_CAP}")
    chamber = WeylChamber(group, n)
    line = chamber.lineality()
    if line is not None and np.max(np.abs(inc @ line)) > 1e-9 * max(1.0, np.abs(inc).max()):
        raise ValueError(f"group {group} needs bridged increments (zero column sums)")
    lineality = coef.TYPES[group].lineality
    if d > n - lineality:
        raise ValueError(f"group {group} needs d <= {n - lineality}")
    stacked = inc if line is None else np.vstack([inc, line])
    # integer increments may be degenerate: their points are exact
    if not _is_integral(inc) and np.linalg.matrix_rank(stacked, rtol=_RANK_RTOL) != min(d + lineality, n):
        raise ValueError("rank-deficient increments: general position violated")
    pts = coef.TYPES[group].hull_points(np.einsum("dn,gnm->gmd", inc, chamber.group_elements()))
    inside, _ = hull.batch_origin_in_hull(_normalise(pts), 1e-9, closed=True)
    return int(inside.sum())
