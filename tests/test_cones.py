import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression, nnls
from scipy.special import betainc

from weylhull import coefficients, cones, exactlp, mc, verify
from weylhull.arrangements import build_reflection_arrangement, characteristic_polynomial
from weylhull.coefficients import TYPES

from closed_forms import ORDERS


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


_small_rationals = st.fractions(min_value=-2, max_value=2, max_denominator=30)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_small_rationals, st.integers(-1, 2)), min_size=1, max_size=8),
       st.booleans())
def test_volume_vector_checks_its_sum_exactly(v, complete):
    if complete:
        # make the sum exactly 1 with a last entry
        v = v + [1 - sum(v, Fraction(0))]
    v = tuple(v)
    if sum(v, Fraction(0)) != 1:
        with pytest.raises(ValueError, match="^intrinsic volumes must sum to 1$"):
            cones.IntrinsicVolumeVector(len(v) - 1, v)
    elif any(x < 0 for x in v):
        with pytest.raises(ValueError, match="^intrinsic volumes must be nonnegative$"):
            cones.IntrinsicVolumeVector(len(v) - 1, v)
    else:
        assert cones.IntrinsicVolumeVector(len(v) - 1, v).v == v


def test_volume_vector_rejects_a_wrong_length():
    with pytest.raises(ValueError, match="^need n \\+ 1 intrinsic volumes$"):
        cones.IntrinsicVolumeVector(2, (Fraction(1, 2), Fraction(1, 2)))


def walls(chamber):
    """Rows g with the chamber equal to {x : g @ x >= 0 for all g}."""
    return np.array(TYPES[chamber.kind].walls(chamber.n), dtype=float)


def test_chamber_group_orders():
    # the derived order, the row at t = 1, and its closed form
    for kind, n, order in (("A", 4, 24), ("B", 3, 48), ("D", 3, 24)):
        assert coefficients.product_at_one(TYPES[kind].roots(n)) == ORDERS[kind](n) == order


def rays(chamber):
    """Rows generating the chamber (with the lineality line for A): the
    hull points of the type's walk at the reversed unit steps."""
    return TYPES[chamber.kind].hull_points(np.eye(chamber.n)[None, ::-1])[0]


def dual_basis(chamber):
    """Columns of the dual basis of the walls, each scaled to coprime
    integers: column j lies on every wall but wall j, on its positive side,
    and on x_i = 0 for i up to the lineality's dimension, which fixes it
    modulo the lineality.  Columns run from the last wall to the first."""
    t = TYPES[chamber.kind]
    rows = t.walls(chamber.n) + np.eye(chamber.n, dtype=int)[: t.lineality].tolist()
    cols = []
    for j in reversed(range(len(rows) - t.lineality)):
        (g,) = exactlp.integer_nullspace(rows[:j] + rows[j + 1 :], chamber.n)
        cols.append(g if np.dot(rows[j], g) > 0 else [-x for x in g])
    return np.array(cols, dtype=float).T


def test_generators_satisfy_inequalities():
    # the walk's rays generate the chamber, so they lie in it
    for kind, n in [("A", 4), ("B", 4), ("D", 4)]:
        ch = cones.WeylChamber(kind, n)
        assert np.all(walls(ch) @ rays(ch).T >= -1e-12)


@pytest.mark.parametrize("kind", "ABD")
def test_generators_are_the_dual_basis_of_the_walls(kind):
    # the oracle's generators lie on every wall but one, and on the positive
    # side of that one
    for n in range(TYPES[kind].chamber_min_n, 8):
        ch = cones.WeylChamber(kind, n)
        pairing = walls(ch) @ dual_basis(ch)
        scale = pairing.max(axis=0)
        assert np.all(scale >= 1) and np.array_equal(scale, np.round(scale))
        perm = pairing / scale
        assert set(np.unique(perm)) <= {0.0, 1.0}
        assert np.all(perm.sum(axis=0) == 1) and np.all(perm.sum(axis=1) == 1)
        if ch.lineality() is not None:
            assert np.all(walls(ch) @ ch.lineality() == 0)


def _modulo_lineality(ch, vectors):
    # rows projected onto the complement of the lineality line
    line = ch.lineality()
    if line is None:
        return vectors
    return vectors - np.outer(vectors @ line, line) / (line @ line)


@pytest.mark.parametrize("kind", "ABD")
def test_walk_rays_generate_the_chamber(kind):
    # cone(rays) + L = cone(dual basis) + L = C: the rays lie in C, and each
    # dual-basis generator is a positive multiple of a ray modulo L
    for n in range(TYPES[kind].chamber_min_n, 7):
        ch = cones.WeylChamber(kind, n)
        r = rays(ch)
        assert np.all(walls(ch) @ r.T >= -1e-12)
        r = _modulo_lineality(ch, r)
        r /= np.linalg.norm(r, axis=1, keepdims=True)
        for g in _modulo_lineality(ch, dual_basis(ch).T):
            assert np.isclose((r @ g).max(), np.linalg.norm(g), rtol=1e-12, atol=0), (kind, n, g)


@pytest.mark.parametrize("kind", "ABD")
def test_group_elements_are_the_whole_reflection_group(kind):
    for n in range(TYPES[kind].chamber_min_n, 6):
        ch = cones.WeylChamber(kind, n)
        g = ch.group_elements()
        assert g.shape == (ORDERS[kind](n), n, n)
        assert len({m.tobytes() for m in g}) == len(g)
        # signed permutation matrices: one entry +-1 in each row and column
        assert np.all(np.abs(g).sum(axis=1) == 1) and np.all(np.abs(g).sum(axis=2) == 1)
        assert set(np.unique(g)) <= {-1, 0, 1}


def shephard_todd_coefficients(kind, n):
    """Unsigned characteristic coefficients of the mirror arrangement from the
    group alone: sum over w of t^(dim ker(w - I)) = prod (t + r_i)."""
    eye = np.eye(n, dtype=int)
    fixed = [n - exactlp.integer_rank((g - eye).tolist()) for g in cones.WeylChamber(kind, n).group_elements()]
    return tuple(fixed.count(k) for k in range(n + 1))


@pytest.mark.parametrize("kind", "ABD")
def test_deletion_restriction_matches_the_group_count(kind):
    for n in range(TYPES[kind].chamber_min_n, 6):
        chi = characteristic_polynomial(build_reflection_arrangement(kind, n))
        assert chi.a == shephard_todd_coefficients(kind, n)


def test_klivans_swartz_fails_against_a_wrong_characteristic_polynomial(monkeypatch):
    # every line of criterion 5 must rest on the independent deletion-restriction side
    monkeypatch.setattr(cones, "characteristic_polynomial",
                        lambda arr: SimpleNamespace(a=(0,) * (arr.ambient_dim + 1)))
    results = verify.check_klivans_swartz()
    assert len(results) == 16 and not any(r.passed for r in results)


def _projection_oracle(chamber, y):
    # proj = y + N^T lam with lam = nnls residual multipliers
    normals = walls(chamber)
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
            assert np.all(walls(ch) @ p >= -1e-9)


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
    assert np.all(walls(ch) @ p >= -1e-9 * size)
    assert abs(residual @ p) <= 1e-9 * max(size, 1.0) ** 2
    assert np.all(rays(ch) @ residual <= 1e-9 * size)
    if ch.lineality() is not None:
        assert abs(residual @ ch.lineality()) <= 1e-9 * size
    assert dsq == pytest.approx(float(residual @ residual), abs=1e-12 * max(size, 1.0) ** 2)


def _isotonic_oracle(kind, y):
    # SciPy's pool-adjacent-violators isotonic regression, clamped at 0 for
    # B and D, and for D taken on y_1's side of the mirror x_1 = 0
    if kind == "A":
        return isotonic_regression(y).x
    flip = np.ones(len(y))
    if kind == "D" and y[0] < 0.0:
        flip[0] = -1.0
    return flip * np.maximum(isotonic_regression(flip * y).x, 0.0)


def _assert_rows_match_oracle(kind, ys):
    ch = cones.WeylChamber(kind, ys.shape[1])
    p, dsq = cones.project_onto_weyl_chamber(ch, ys)
    assert p.shape == ys.shape and dsq.shape == (len(ys),)
    for y, row, d in zip(ys, p, dsq):
        scale = max(1.0, float(np.abs(y).max()))
        assert np.allclose(row, _isotonic_oracle(kind, y), rtol=0, atol=1e-12 * scale)
        assert d == float(np.sum((y - row) ** 2))
    return ch, p, dsq


@pytest.mark.parametrize("kind", "ABD")
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batched_projection_matches_the_isotonic_oracle(kind, data):
    n = data.draw(st.integers(TYPES[kind].chamber_min_n, 8))
    # small integers give exact ties and zero rows, floats the generic case
    coords = st.one_of(st.integers(-2, 2).map(float), st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False))
    rows = data.draw(st.lists(st.one_of(st.just([0.0] * n), st.lists(coords, min_size=n, max_size=n)),
                              min_size=1, max_size=50))
    ys = np.array(rows)
    ch, p, dsq = _assert_rows_match_oracle(kind, ys)
    for y, row, d in zip(ys, p, dsq):
        one, d1 = cones.project_onto_weyl_chamber(ch, y)
        assert np.array_equal(one, row) and type(d1) is float and d1 == d


@pytest.mark.parametrize("kind", "ABD")
def test_wide_stack_is_projected_in_blocks(kind):
    # 64^2 floats per row put the 300 rows in several blocks
    ys = np.random.default_rng(5).standard_normal((300, 64))
    assert 300 * 64**2 > cones._PROJECTION_BLOCK
    _assert_rows_match_oracle(kind, ys)


def test_projection_memory_is_bounded():
    # unblocked, each (2048, 64, 64) temporary would take about 67 MB
    ys = np.random.default_rng(6).standard_normal((2048, 64))
    ch = cones.WeylChamber("B", 64)
    tracemalloc.start()
    try:
        cones.project_onto_weyl_chamber(ch, ys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


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


def _steiner_cdf_loop(v, lam):
    # the Beta mixture at one point, summed in Python floats in order of k
    n = v.n
    total = float(v.v[n]) + (float(v.v[0]) if lam >= 1.0 else 0.0)
    for k in range(1, n):
        if v.v[k]:
            total += float(v.v[k]) * float(betainc((n - k) / 2.0, k / 2.0, lam))
    return total


def test_steiner_cdf_on_an_array_is_the_scalar_loop():
    grid = np.linspace(0.0, 1.0, 1001)
    for kind, n in [("D", 4), ("B", 7), ("A", 6), ("B", 1)]:
        v = cones.weyl_intrinsic_volumes(kind, n)
        loop = [_steiner_cdf_loop(v, float(x)) for x in grid]
        scalar = [cones.steiner_tail_cdf(v, float(x)) for x in grid]
        assert all(type(c) is float for c in scalar) and scalar == loop
        assert np.array_equal(cones.steiner_tail_cdf(v, grid), loop)


@pytest.mark.parametrize("bad", [math.nan, -0.1, 1.1])
def test_steiner_cdf_rejects_lambda_outside_the_unit_interval(bad):
    v = cones.weyl_intrinsic_volumes("B", 3)
    with pytest.raises(ValueError):
        cones.steiner_tail_cdf(v, np.array([0.0, 0.5, bad, 1.0]))
    with pytest.raises(ValueError):
        cones.steiner_tail_cdf(v, bad)


def test_ks_statistic_handles_atoms():
    # sample exactly from a half-atom distribution
    samples = np.array([0.0] * 500 + [1.0] * 500)

    def cdf(x):
        return np.where(x < 1.0, 0.5, 1.0)

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


@pytest.mark.parametrize("kind, n", [("A", 4), ("B", 4), ("D", 5)])
def test_crofton_hits_on_the_raw_frame_equal_those_on_its_qr_frame(kind, n, monkeypatch):
    # hull membership is invariant under the invertible R^T that
    # orthonormalising each Gaussian frame would divide out
    ch = cones.WeylChamber(kind, n)
    raw = {(d, seed): cones.crofton_mc_estimate(ch, d, 4000, seed=seed) for d in (1, 2, 3) for seed in (3, 8)}

    class QRFrames:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, shape):
            return np.linalg.qr(self.rng.standard_normal(shape))[0]

    real = mc.run_bernoulli_chunks
    monkeypatch.setattr(mc, "run_bernoulli_chunks", lambda samples, seed, chunk, **kw: real(
        samples, seed, lambda rng, size: chunk(QRFrames(rng), size), **kw))
    for (d, seed), est in raw.items():
        assert cones.crofton_mc_estimate(ch, d, 4000, seed=seed) == est
        assert est.ambiguous_fraction == 0.0


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
    # even/odd split, so every validation passes; only the characteristic
    # polynomial of the mirrors can catch it for B5 and D6, whose mirrors
    # exceed the Whitney cap
    real = coefficients.product_prefix

    def swapped(runs, kmax):
        row = list(real(runs, kmax))
        row[0], row[2] = row[2], row[0]
        return tuple(row)

    monkeypatch.setattr(coefficients, "product_prefix", swapped)
    for kind, n in [("B", 5), ("D", 6)]:
        assert not cones.klivans_swartz_check(kind, n)


def test_sample_sphere_distances_deterministic():
    ch = cones.WeylChamber("B", 3)
    a = cones.sample_sphere_distances(ch, 50, seed=3)
    b = cones.sample_sphere_distances(ch, 50, seed=3)
    assert np.array_equal(a, b)
    assert np.all((a >= 0) & (a <= 1 + 1e-12))
