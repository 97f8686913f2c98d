import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from weylhull import cones, exactlp, hull, mc, walks
from weylhull.absorption import WalkFamily, absorption_probability
from weylhull.arrangements import (Subspace, build_reflection_arrangement, count_regions_meeting_subspace,
                                   intersected_region_count, reflection_characteristic_polynomial)
from weylhull.coefficients import TYPES

import lp_oracle
from closed_forms import ORDERS


def sample_increments(model, n, seed=mc.DEFAULT_SEED):
    """One d x n increment matrix, deterministic in (model, n, seed)."""
    return walks._draw_batch(model, mc.stream_rng(seed, 0), 1, n)[0].T


def test_sample_increments_deterministic():
    model = walks.IncrementModel("gaussian", 2)
    a = sample_increments(model, 5, seed=1)
    b = sample_increments(model, 5, seed=1)
    assert a.shape == (2, 5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_increments(model, 5, seed=2))


def test_uniform_sphere_unit_norms():
    model = walks.IncrementModel("uniform-sphere", 3)
    inc = sample_increments(model, 50, seed=1)
    assert np.allclose(np.linalg.norm(inc, axis=0), 1.0, atol=1e-12)


def test_lattice_columns_are_signed_units():
    model = walks.IncrementModel("lattice-simple", 2)
    inc = sample_increments(model, 100, seed=1)
    norms = np.abs(inc).sum(axis=0)
    assert np.array_equal(norms, np.ones(100))
    assert set(np.unique(inc)) <= {-1.0, 0.0, 1.0}


def test_make_bridge_zero_sum():
    rng = np.random.default_rng(3)
    inc = rng.standard_normal((2, 10)) + 5.0
    out = walks.make_bridge(inc)
    assert np.max(np.abs(out.sum(axis=1))) <= 1e-13
    # algebra: output sum = input sum - n * mean = 0
    assert out.shape == inc.shape


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


def origin_in_hull(points, tol=walks.DEFAULT_TOL):
    """Membership of the origin in the convex hull of the given points, one
    sample at a time: the oracle for the batched hull tests.

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
    d = pts.shape[1]
    if walks._is_integral(pts):
        # a u with u.p > 0 for every point p separates the origin from the hull
        u = lp_oracle.open_cone_point(pts.astype(int).tolist(), d)
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


def test_origin_in_hull_certificates():
    res = origin_in_hull([(1.0, 0.0), (0.0, 1.0)])
    assert not res.inside and res.certificate_kind == "separator"
    pts = np.array([(1.0, 0.0), (0.0, 1.0)])
    assert np.min(pts @ res.certificate) > 0
    assert res.certificate == pytest.approx([2**-0.5, 2**-0.5])

    res = origin_in_hull([(1.0, 0.0), (-1.0, 1.0), (-1.0, -1.0)])
    assert res.inside and res.certificate_kind == "convex"
    lam = res.certificate
    assert lam == pytest.approx([0.5, 0.25, 0.25], abs=1e-9)
    assert lam.sum() == pytest.approx(1.0, abs=1e-12)

    res = origin_in_hull([(1.0,)])
    assert not res.inside


def test_origin_in_hull_certificate_soundness_fuzz():
    rng = np.random.default_rng(8)
    tol = 1e-10
    for _ in range(100):
        pts = rng.standard_normal((rng.integers(2, 8), rng.integers(1, 4)))
        res = origin_in_hull(pts, tol=tol)
        if res.inside:
            lam = res.certificate
            assert abs(lam.sum() - 1.0) <= 1e-12
            assert np.all(lam >= 0)
            assert np.linalg.norm(lam @ pts) <= 10 * tol
        elif not res.boundary_ambiguous:
            assert np.min(pts @ res.certificate) > 0


def test_origin_in_hull_exact_lattice_boundary():
    # origin on a segment: closed-hull semantics, never ambiguous
    res = origin_in_hull([(2, 0), (-3, 0)])
    assert res.inside and not res.boundary_ambiguous
    res = origin_in_hull([(1, 1), (2, 1)])
    assert not res.inside and not res.boundary_ambiguous


def test_origin_in_hull_rejects_non_finite_points():
    for pts in ([[1.0, np.nan, 0.0], [-1.0, 0.0, 0.0]], [[np.inf, 0.0, 0.0], [-1.0, 0.0, 1.0]]):
        with pytest.raises(ValueError, match="points must be finite"):
            origin_in_hull(pts)


def test_lattice_estimate_raises_no_runtime_warning():
    # lattice walks repeat points and put the origin on hull faces
    family = WalkFamily("walk-B", 16, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est = walks.estimate_absorption(walks.IncrementModel("lattice-simple", 3), family, 3000, seed=7)
    assert est.estimate >= float(absorption_probability(family).absorb)


def test_estimate_absorption_matches_exact():
    fam = WalkFamily("walk-B", 3, 1)
    model = walks.IncrementModel("gaussian", 1)
    est = walks.estimate_absorption(model, fam, 20000, seed=2)
    assert abs(est.estimate - 0.375) <= 5 * est.stderr
    assert est.ambiguous_fraction < 1e-3


def test_estimate_absorption_joint_family():
    fam = WalkFamily("joint-B", (2, 2), 1)
    model = walks.IncrementModel("gaussian", 1)
    est = walks.estimate_absorption(model, fam, 20000, seed=2)
    exact = float(absorption_probability(fam).absorb)
    assert abs(est.estimate - exact) <= 5 * est.stderr


def test_estimate_absorption_deterministic_across_threads():
    fam = WalkFamily("walk-B", 5, 2)
    model = walks.IncrementModel("uniform-sphere", 2)
    e1 = walks.estimate_absorption(model, fam, 40000, seed=6, threads=1)
    e2 = walks.estimate_absorption(model, fam, 40000, seed=6, threads=4)
    assert e1 == e2


def test_estimate_rejects_mismatched_dimension():
    with pytest.raises(ValueError):
        walks.estimate_absorption(
            walks.IncrementModel("gaussian", 2), WalkFamily("walk-B", 3, 1), 10
        )
    with pytest.raises(ValueError):
        walks.estimate_absorption(
            walks.IncrementModel("lattice-simple", 1), WalkFamily("bridge-A", 3, 1), 10
        )


def test_d_hull_union_identity():
    # the D point set hull equals the union of the two n-point hulls
    rng = np.random.default_rng(10)
    for _ in range(20):
        inc = rng.standard_normal((2, 4))
        s = np.cumsum(inc, axis=1).T
        star = s[-2] - inc[:, -1]
        full = np.vstack([s, star])
        for _ in range(5):
            q = rng.standard_normal(2) * 1.5
            in_full = origin_in_hull(full - q).inside
            in_a = origin_in_hull(s - q).inside
            in_b = origin_in_hull(np.vstack([s[:-1], star]) - q).inside
            assert in_full == (in_a or in_b)


def test_chamber_count_constancy_and_prediction():
    rng = np.random.default_rng(14)
    chi = reflection_characteristic_polynomial("B", 3)
    pred = intersected_region_count(chi, 1)
    counts = {
        walks.chamber_intersection_count(rng.standard_normal((1, 3)), "B") for _ in range(10)
    }
    assert counts == {pred}


def test_chamber_count_exact_path_agrees_with_float():
    # kernel of [2, 3, 7] avoids every codimension-2 mirror intersection,
    # so the exact closed-cone count matches the generic prediction
    inc = np.array([[2.0, 3.0, 7.0]])
    exact = walks.chamber_intersection_count(inc, "B")
    fuzz = walks.chamber_intersection_count(inc + 1e-7 * np.array([[0.1, 0.3, 0.7]]), "B")
    assert exact == fuzz == 18


def test_chamber_count_exact_path_sees_degeneracy():
    # kernel of [3, 1, -2] contains (1, -1, 1), a codimension-2 mirror line,
    # so extra chambers are touched along boundaries only
    assert walks.chamber_intersection_count(np.array([[3.0, 1.0, -2.0]]), "B") > 18


@pytest.mark.parametrize("group, n", [("A", 3), ("A", 4), ("A", 5), ("A", 6), ("B", 3), ("B", 4),
                                      ("D", 3), ("D", 4)])
def test_chamber_count_matches_the_closed_count_on_the_integer_kernel(group, n):
    # an exact oracle: the mirror arrangement's closed regions that meet the
    # integer kernel, taken modulo the lineality line, degenerate draws included
    arr = build_reflection_arrangement(group, n)
    t = TYPES[group]
    rng = np.random.default_rng(n)
    for d in range(1, n - t.lineality + 1):
        for trial in range(6):
            inc = rng.integers(-2, 3, (d, n))
            if t.lineality:
                inc[:, -1] -= inc.sum(axis=1)
            if trial == 0 and d > 1:
                inc[-1] = inc[0]  # rank-deficient
            kernel = exactlp.integer_nullspace(inc.tolist() + [[1] * n] * t.lineality, n)
            if not kernel:
                want = 0
            elif len(kernel) == n:
                want = ORDERS[group](n)
            else:
                sub = Subspace(n, tuple(map(tuple, kernel)))
                want = count_regions_meeting_subspace(arr, sub, "closed").count
            assert walks.chamber_intersection_count(inc.astype(float), group) == want, inc


def test_chamber_count_input_validation():
    with pytest.raises(ValueError):
        walks.chamber_intersection_count(np.zeros((1, 7)), "B")
    with pytest.raises(ValueError):
        walks.chamber_intersection_count(np.ones((1, 3)), "A")  # not bridged
    dup = np.array([[0.3, 1.7, -0.4], [0.3, 1.7, -0.4]])
    with pytest.raises(ValueError):
        walks.chamber_intersection_count(dup, "B")  # rank-deficient


def test_group_is_built_once_per_chamber_and_read_only(monkeypatch):
    group = cones.WeylChamber("B", 4).group_elements()
    assert cones.WeylChamber("B", 4).group_elements() is group
    with pytest.raises(ValueError):
        group[0, 0, 0] = 2
    # counts from the cached group equal counts from a group built anew
    rng = np.random.default_rng(19)
    draws = []
    for kind, n in (("A", 4), ("B", 4), ("D", 4)):
        for d in range(1, n - TYPES[kind].lineality + 1):
            inc = rng.standard_normal((d, n))
            draws.append((walks.make_bridge(inc) if TYPES[kind].lineality else inc, kind))
    cached = [walks.chamber_intersection_count(inc, kind) for inc, kind in draws]
    monkeypatch.setattr(cones.WeylChamber, "group_elements", cones.WeylChamber.group_elements.__wrapped__)
    assert [walks.chamber_intersection_count(inc, kind) for inc, kind in draws] == cached


def test_single_factor_families_sample_the_same_points():
    model = walks.IncrementModel("gaussian", 2)
    walk = walks.estimate_absorption(model, WalkFamily("walk-B", 5, 2), 3000, seed=4)
    joint = walks.estimate_absorption(model, WalkFamily("joint-B", (5,), 2), 3000, seed=4)
    assert walk == joint
    wendel = walks.estimate_absorption(model, WalkFamily("wendel", 4, 2), 3000, seed=4)
    joint = walks.estimate_absorption(model, WalkFamily("joint-B", (1,) * 4, 2), 3000, seed=4)
    assert wendel == joint
