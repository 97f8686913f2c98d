import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from weylhull import coefficients, cones, verify
from weylhull.arrangements import WHITNEY_CAP
from weylhull.coefficients import TYPES


def test_intrinsic_volumes_small():
    v = cones.weyl_intrinsic_volumes("B", 2)
    assert v.v == (Fraction(3, 8), Fraction(1, 2), Fraction(1, 8))
    v = cones.weyl_intrinsic_volumes("A", 3)
    assert v.v == (0, Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))


def test_volumes_sum_and_half_split():
    for kind, n in [("A", 4), ("B", 5), ("D", 4)]:
        v = cones.weyl_intrinsic_volumes(kind, n)
        assert sum(v.v) == 1
        assert cones.half_tail(v, 0) == Fraction(1, 2)
        assert cones.half_tail(v, 1) == Fraction(1, 2)


def test_chamber_group_orders():
    assert cones.WeylChamber("A", 4).group_order == 24
    assert cones.WeylChamber("B", 3).group_order == 48
    assert cones.WeylChamber("D", 3).group_order == 24


def test_generators_satisfy_inequalities():
    for kind, n in [("A", 4), ("B", 4), ("D", 4)]:
        ch = cones.WeylChamber(kind, n)
        normals = ch.inequality_normals()
        gens = ch.generators()
        assert np.all(normals @ gens >= -1e-12)


@pytest.mark.parametrize("kind", "ABD")
def test_generators_are_the_dual_basis_of_the_walls(kind):
    # each generator lies on every wall but one, and on the positive side of that one
    for n in range(TYPES[kind].chamber_min_n, 8):
        ch = cones.WeylChamber(kind, n)
        pairing = ch.inequality_normals() @ ch.generators()
        scale = pairing.max(axis=0)
        assert np.all(scale >= 1) and np.array_equal(scale, np.round(scale))
        perm = pairing / scale
        assert set(np.unique(perm)) <= {0.0, 1.0}
        assert np.all(perm.sum(axis=0) == 1) and np.all(perm.sum(axis=1) == 1)
        if ch.lineality() is not None:
            assert np.all(ch.inequality_normals() @ ch.lineality() == 0)


@pytest.mark.parametrize("kind", "ABD")
def test_group_elements_are_the_whole_reflection_group(kind):
    for n in range(TYPES[kind].chamber_min_n, 6):
        ch = cones.WeylChamber(kind, n)
        g = ch.group_elements()
        assert g.shape == (TYPES[kind].order(n), n, n)
        assert len({m.tobytes() for m in g}) == len(g)
        # signed permutation matrices: one entry +-1 in each row and column
        assert np.all(np.abs(g).sum(axis=1) == 1) and np.all(np.abs(g).sum(axis=2) == 1)
        assert set(np.unique(g)) <= {-1, 0, 1}


def test_klivans_swartz_fails_against_a_wrong_whitney_sum(monkeypatch):
    # every line of criterion 5 must rest on the independent Whitney side
    monkeypatch.setattr(cones, "whitney_characteristic_polynomial",
                        lambda arr: SimpleNamespace(a=(0,) * (arr.ambient_dim + 1)))
    results = verify.check_klivans_swartz()
    assert results and not any(r.passed for r in results)


def _projection_oracle(chamber, y):
    # proj = y + N^T lam with lam = nnls residual multipliers
    normals = chamber.inequality_normals()
    lam, _ = nnls(normals.T, -y)
    return y + normals.T @ lam


def test_projection_matches_kkt_oracle():
    rng = np.random.default_rng(12)
    for kind in ("A", "B", "D"):
        ch = cones.WeylChamber(kind, 5)
        for _ in range(30):
            y = rng.standard_normal(5)
            p, dsq = cones.project_onto_weyl_chamber(ch, y)
            q = _projection_oracle(ch, y)
            assert np.allclose(p, q, atol=1e-7)
            assert dsq == pytest.approx(float(np.sum((y - q) ** 2)), abs=1e-7)
            assert np.all(ch.inequality_normals() @ p >= -1e-9)


@pytest.mark.parametrize("kind", "ABD")
@pytest.mark.parametrize("n", range(2, 8))
@settings(max_examples=50, deadline=None)
@given(st.data())
def test_projection_is_the_moreau_decomposition(kind, n, data):
    # p is the projection of y onto the closed convex cone C exactly when
    # p lies in C, y - p lies in the polar cone, and the two are orthogonal
    coords = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    y = np.array(data.draw(st.lists(coords, min_size=n, max_size=n)))
    ch = cones.WeylChamber(kind, n)
    p, dsq = cones.project_onto_weyl_chamber(ch, y)
    size = float(np.abs(y).sum())  # bounds |y| and does not underflow
    residual = y - p
    assert np.all(ch.inequality_normals() @ p >= -1e-9 * size)
    assert abs(residual @ p) <= 1e-9 * max(size, 1.0) ** 2
    assert np.all(ch.generators().T @ residual <= 1e-9 * size)
    if ch.lineality() is not None:
        assert abs(residual @ ch.lineality()) <= 1e-9 * size
    assert dsq == pytest.approx(float(residual @ residual), abs=1e-12 * max(size, 1.0) ** 2)


def test_steiner_cdf_endpoints_and_monotone():
    for kind, n in [("B", 3), ("A", 3), ("D", 3)]:
        v = cones.weyl_intrinsic_volumes(kind, n)
        assert cones.steiner_tail_cdf(v, 0.0) == pytest.approx(float(v.v[n]))
        assert cones.steiner_tail_cdf(v, 1.0) == pytest.approx(1.0)
        grid = np.linspace(0, 1, 30)
        vals = [cones.steiner_tail_cdf(v, float(x)) for x in grid]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_steiner_arcsine_sector():
    # plane sector of angle pi/4: continuous part is the arcsine law
    v = cones.weyl_intrinsic_volumes("B", 2)
    got = cones.steiner_tail_cdf(v, 0.5)
    assert got == pytest.approx(1 / 8 + math.asin(math.sqrt(0.5)) / math.pi)


def test_ks_statistic_handles_atoms():
    # sample exactly from a half-atom distribution
    samples = np.array([0.0] * 500 + [1.0] * 500)

    def cdf(x):
        return 0.5 if x < 1.0 else 1.0

    assert cones.ks_statistic(samples, cdf) < 1e-12


def test_crofton_exact_at_codim_zero():
    est = cones.crofton_mc_estimate(cones.WeylChamber("B", 3), 0, 1000)
    assert est.estimate == 0.5 and est.stderr == 0.0


def test_crofton_matches_half_tail():
    for kind, n, d in [("B", 3, 1), ("B", 3, 2), ("D", 3, 1), ("A", 4, 2), ("A", 4, 3), ("A", 5, 3)]:
        ch = cones.WeylChamber(kind, n)
        v = cones.weyl_intrinsic_volumes(kind, n)
        exact = float(cones.half_tail(v, d + 1))
        est = cones.crofton_mc_estimate(ch, d, 30000, seed=21)
        assert abs(est.estimate - exact) <= 5 * max(est.stderr, 1e-12)
        assert est.ambiguous_fraction < 1e-3


def schlafli_expected_volumes(m, n):
    """Expected intrinsic volumes of a cone cut by m generic central
    hyperplanes, chosen uniformly among the resulting regions.

    The k >= 1 entries are C(m, n-k)/C(m, n).  The k = 0 entry uses
    C(m-1, n-1)/C(m, n): the constant coefficient of the generic
    characteristic polynomial, which is what makes the vector sum to 1.
    """
    total = 2 * sum(math.comb(m - 1, k) for k in range(n))  # Schlafli's region count
    out = [Fraction(math.comb(m - 1, n - 1), total)]
    return out + [Fraction(math.comb(m, n - k), total) for k in range(1, n + 1)]


def test_schlafli_expected_volumes():
    vols = schlafli_expected_volumes(4, 2)
    assert vols == [Fraction(3, 8), Fraction(1, 2), Fraction(1, 8)]
    assert sum(schlafli_expected_volumes(7, 4)) == 1


def test_klivans_swartz_small():
    for kind, n in [("A", 3), ("B", 3), ("B", 5), ("D", 4)]:
        assert cones.klivans_swartz_check(kind, n)


def test_klivans_swartz_fails_against_a_wrong_row_above_the_whitney_cap(monkeypatch):
    # swapping two same-parity coefficients keeps the row's sum and its
    # even/odd split, so every validation passes; only the group count can
    # catch it for B5 and D6, whose mirrors exceed the Whitney cap
    real = coefficients.product_prefix

    def swapped(factors, kmax):
        row = list(real(factors, kmax))
        row[0], row[2] = row[2], row[0]
        return tuple(row)

    monkeypatch.setattr(coefficients, "product_prefix", swapped)
    for kind, n in [("B", 5), ("D", 6)]:
        assert len(TYPES[kind].mirrors(n)) > WHITNEY_CAP
        assert not cones.klivans_swartz_check(kind, n)


def test_sample_sphere_distances_deterministic():
    ch = cones.WeylChamber("B", 3)
    a = cones.sample_sphere_distances(ch, 50, seed=3)
    b = cones.sample_sphere_distances(ch, 50, seed=3)
    assert np.array_equal(a, b)
    assert np.all((a >= 0) & (a <= 1 + 1e-12))
