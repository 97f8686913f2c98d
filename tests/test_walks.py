import warnings

import numpy as np
import pytest

from weylhull import mc, walks
from weylhull.absorption import WalkFamily, absorption_probability
from weylhull.arrangements import reflection_characteristic_polynomial, intersected_region_count


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


def test_matrix_model_round_trip():
    mat = ((1.0, 2.0, -1.0), (0.0, 1.0, 1.0))
    model = walks.IncrementModel("matrix", 2, matrix=mat)
    inc = sample_increments(model, 3, seed=9)
    assert np.array_equal(inc, np.asarray(mat))
    with pytest.raises(ValueError):
        sample_increments(model, 4, seed=9)


def test_make_bridge_zero_sum():
    rng = np.random.default_rng(3)
    inc = rng.standard_normal((2, 10)) + 5.0
    out = walks.make_bridge(inc)
    assert np.max(np.abs(out.sum(axis=1))) <= 1e-13
    # algebra: output sum = input sum - n * mean = 0
    assert out.shape == inc.shape


def test_origin_in_hull_certificates():
    res = walks.origin_in_hull([(1.0, 0.0), (0.0, 1.0)])
    assert not res.inside and res.certificate_kind == "separator"
    pts = np.array([(1.0, 0.0), (0.0, 1.0)])
    assert np.min(pts @ res.certificate) > 0
    assert res.certificate == pytest.approx([2**-0.5, 2**-0.5])

    res = walks.origin_in_hull([(1.0, 0.0), (-1.0, 1.0), (-1.0, -1.0)])
    assert res.inside and res.certificate_kind == "convex"
    lam = res.certificate
    assert lam == pytest.approx([0.5, 0.25, 0.25], abs=1e-9)
    assert lam.sum() == pytest.approx(1.0, abs=1e-12)

    res = walks.origin_in_hull([(1.0,)])
    assert not res.inside


def test_origin_in_hull_certificate_soundness_fuzz():
    rng = np.random.default_rng(8)
    tol = 1e-10
    for _ in range(100):
        pts = rng.standard_normal((rng.integers(2, 8), rng.integers(1, 4)))
        res = walks.origin_in_hull(pts, tol=tol)
        if res.inside:
            lam = res.certificate
            assert abs(lam.sum() - 1.0) <= 1e-12
            assert np.all(lam >= 0)
            assert np.linalg.norm(lam @ pts) <= 10 * tol
        elif not res.boundary_ambiguous:
            assert np.min(pts @ res.certificate) > 0


def test_origin_in_hull_exact_lattice_boundary():
    # origin on a segment: closed-hull semantics, never ambiguous
    res = walks.origin_in_hull([(2, 0), (-3, 0)])
    assert res.inside and not res.boundary_ambiguous
    res = walks.origin_in_hull([(1, 1), (2, 1)])
    assert not res.inside and not res.boundary_ambiguous


def test_origin_in_hull_rejects_non_finite_points():
    for pts in ([[1.0, np.nan, 0.0], [-1.0, 0.0, 0.0]], [[np.inf, 0.0, 0.0], [-1.0, 0.0, 1.0]]):
        with pytest.raises(ValueError, match="points must be finite"):
            walks.origin_in_hull(pts)


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
            in_full = walks.origin_in_hull(full - q).inside
            in_a = walks.origin_in_hull(s - q).inside
            in_b = walks.origin_in_hull(np.vstack([s[:-1], star]) - q).inside
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


def test_chamber_count_input_validation():
    with pytest.raises(ValueError):
        walks.chamber_intersection_count(np.zeros((1, 7)), "B")
    with pytest.raises(ValueError):
        walks.chamber_intersection_count(np.ones((1, 3)), "A")  # not bridged
    dup = np.array([[0.3, 1.7, -0.4], [0.3, 1.7, -0.4]])
    with pytest.raises(ValueError):
        walks.chamber_intersection_count(dup, "B")  # rank-deficient


def test_single_factor_families_sample_the_same_points():
    model = walks.IncrementModel("gaussian", 2)
    walk = walks.estimate_absorption(model, WalkFamily("walk-B", 5, 2), 3000, seed=4)
    joint = walks.estimate_absorption(model, WalkFamily("joint-B", (5,), 2), 3000, seed=4)
    assert walk == joint
    wendel = walks.estimate_absorption(model, WalkFamily("wendel", 4, 2), 3000, seed=4)
    joint = walks.estimate_absorption(model, WalkFamily("joint-B", (1,) * 4, 2), 3000, seed=4)
    assert wendel == joint
