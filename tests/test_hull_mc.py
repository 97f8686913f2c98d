import concurrent.futures

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from weylhull import hull, mc


def _origin_in_hull_lp(points):
    m = len(points)
    res = linprog(
        np.zeros(m),
        A_eq=np.vstack([points.T, np.ones(m)]),
        b_eq=np.append(np.zeros(points.shape[1]), 1.0),
        bounds=[(0, None)] * m,
        method="highs",
    )
    return res.status == 0


def test_min_norm_point_triangle():
    pts = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
    x, lam, dist = hull.min_norm_point(pts)
    assert dist < 1e-12
    assert lam == pytest.approx([0.5, 0.25, 0.25], abs=1e-9)


def test_min_norm_point_outside_distance():
    pts = np.array([[2.0, 0.0], [2.0, 1.0], [3.0, -1.0]])
    _, lam, dist = hull.min_norm_point(pts)
    assert dist == pytest.approx(2.0, abs=1e-10)
    assert lam.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(lam >= 0)


def test_min_norm_point_agrees_with_lp_fuzz():
    rng = np.random.default_rng(4)
    for _ in range(150):
        m = rng.integers(2, 9)
        d = rng.integers(1, 5)
        pts = rng.standard_normal((m, d)) + 0.3 * rng.standard_normal(d)
        _, _, dist = hull.min_norm_point(pts)
        assert (dist < 1e-9) == _origin_in_hull_lp(pts)


def _shaped_points(rng, shape, m, d):
    """m points in R^d of one shape: general, a few repeated points, collinear
    (on a line through the origin or not) or small integers."""
    shift = rng.uniform(-2.0, 2.0) * rng.standard_normal(d)
    if shape == "general":
        return rng.standard_normal((m, d)) + shift
    if shape == "duplicated":
        distinct = rng.standard_normal((int(rng.integers(1, 4)), d)) + shift
        return distinct[rng.integers(0, len(distinct), size=m)]
    if shape == "collinear":
        return np.outer(rng.standard_normal(m), rng.standard_normal(d)) + rng.integers(2) * shift
    return rng.integers(-2, 3, size=(m, d)).astype(float)


SHAPES = ["general", "duplicated", "collinear", "integer"]


@st.composite
def _scaled_point_sets(draw):
    """m <= 30 points in d <= 6 dimensions of one of SHAPES, scaled by 10^k
    for k in [-8, 8]."""
    m = draw(st.integers(1, 30))
    d = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(SHAPES))
    k = draw(st.integers(-8, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _shaped_points(rng, shape, m, d) * 10.0**k


@settings(max_examples=300, deadline=None)
@given(_scaled_point_sets())
def test_min_norm_point_certificates(pts):
    x, lam, dist = hull.min_norm_point(pts)
    scale = float(np.linalg.norm(pts, axis=1).max()) or 1.0
    assert lam.shape == (len(pts),) and np.all(lam >= 0)
    assert abs(lam.sum() - 1.0) <= 1e-12
    assert np.array_equal(x, lam @ pts) and dist == np.linalg.norm(x)
    # p . x >= |x|^2 for every point p certifies x as the min-norm point of
    # the hull, whatever solver produced it
    assert np.min(pts @ x) >= x @ x - 1e-12 * scale**2
    # outside the ambiguity band (tol, 100 tol) the verdict is the LP's
    tol = 1e-10
    if not tol < dist / scale < 100 * tol:
        assert (dist <= tol * scale) == _origin_in_hull_lp(pts / scale)


@st.composite
def _norm_stacks(draw):
    """(N, m, w) stacks with w = 1..12 of Cauchy entries, about a fifth of
    the rows zero, each row scaled by 10^k for k in [-300, 300], so that
    squares underflow to 0 and overflow to inf."""
    n = draw(st.integers(0, 12))
    m = draw(st.integers(1, 8))
    w = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_cauchy((n, m, w)) * 10.0 ** rng.integers(-300, 301, size=(n, m, 1))
    x[rng.random((n, m)) < 0.2] = 0.0
    return x


@settings(max_examples=300, deadline=None)
@given(_norm_stacks())
@example(np.zeros((3, 2, 5)))
@example(np.array([[[1e200, 1e200, 0.0], [3e-200, 4e-200, 0.0], [1e300, -1e-300, 1e5]]]))
def test_row_norms_equal_numpys_norm_bit_for_bit(x):
    with np.errstate(over="ignore"):
        want = np.linalg.norm(x, axis=-1)
        # the stack, a view with reversed rows and columns, and one 2-D slice
        for view in (x, x[::-1, :, ::-1]):
            got = hull.row_norms(view)
            assert got.dtype == want.dtype and np.array_equal(got, np.linalg.norm(view, axis=-1))
        assert np.array_equal(hull.row_norms(x.reshape(-1, x.shape[-1])), want.reshape(-1))


def test_batch_matches_single_solver():
    rng = np.random.default_rng(7)
    for d in (1, 2, 3, 4, 5):
        pts = np.cumsum(rng.standard_normal((200, 6, d)), axis=1)
        inside, amb = hull.batch_origin_in_hull(pts, 1e-10)
        assert not amb.any()
        for i in range(len(pts)):
            _, _, dist = hull.min_norm_point(pts[i])
            assert inside[i] == (dist <= 1e-10)


def _loop_origin_in_hull(points, band, closed):
    """The per-sample decision by min_norm_point alone: the oracle of the
    batched d >= 3 path."""
    inside = np.zeros(len(points), dtype=bool)
    ambiguous = np.zeros(len(points), dtype=bool)
    for i in range(len(points)):
        _, _, dist = hull.min_norm_point(points[i])
        if dist <= band:
            inside[i] = True
        elif dist < 100.0 * band and not closed:
            ambiguous[i] = True
    return inside, ambiguous


@st.composite
def _scaled_point_stacks(draw):
    """N <= 40 sets of m <= 30 points in d = 3..5 dimensions, each set of one
    of SHAPES, the whole stack scaled by one 10^k for k in [-8, 8]."""
    n = draw(st.integers(0, 40))
    m = draw(st.integers(1, 30))
    d = draw(st.integers(3, 5))
    k = draw(st.integers(-8, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets = [_shaped_points(rng, SHAPES[rng.integers(len(SHAPES))], m, d) for _ in range(n)]
    return np.array(sets).reshape(n, m, d) * 10.0**k


@settings(max_examples=200, deadline=None)
@given(_scaled_point_stacks(), st.sampled_from([1e-10, 1e-9]), st.booleans())
@example(np.zeros((0, 7, 3)), 1e-10, False)
@example(np.array([[[1.0, 2.0, -3.0]], [[0.0, 0.0, 0.0]], [[0.0, 0.0, 5e-10]]]), 1e-10, False)
@example(np.array([[[1.0, 2.0, -3.0]], [[0.0, 0.0, 0.0]], [[0.0, 0.0, 5e-10]]]), 1e-9, True)
def test_batch_matches_per_sample_loop(points, band, closed):
    inside, ambiguous = hull.batch_origin_in_hull(points, band, closed)
    expected = _loop_origin_in_hull(points, band, closed)
    assert np.array_equal(inside, expected[0]) and np.array_equal(ambiguous, expected[1])
    # the separation bound never exceeds the distance the solver finds, up to
    # the rounding of the dot products
    bound, reach = hull._separation_bound(points)
    for i in range(len(points)):
        scale = float(np.linalg.norm(points[i], axis=1).max())
        assert reach[i] == pytest.approx(scale, rel=1e-12)
        assert bound[i] <= hull.min_norm_point(points[i])[2] + 1e-13 * scale


def test_batch_closed_counts_boundary():
    seg = np.array([[[1.0], [-1.0]], [[1.0], [0.0]], [[1.0], [2.0]]])
    inside_open, amb = hull.batch_origin_in_hull(seg, 1e-9)
    inside_closed, _ = hull.batch_origin_in_hull(seg, 1e-9, closed=True)
    assert inside_open.tolist() == [True, False, False]
    assert amb.tolist() == [False, True, False]
    assert inside_closed.tolist() == [True, True, False]


def test_batch_2d_antipodal_is_boundary():
    pts = np.array([[[2.0, 0.0], [-1.0, 0.0], [0.5, 0.0]]])
    inside_open, amb = hull.batch_origin_in_hull(pts, 1e-9)
    inside_closed, _ = hull.batch_origin_in_hull(pts, 1e-9, closed=True)
    assert not inside_open[0] and amb[0]
    assert inside_closed[0]


def test_stream_rng_reproducible_and_distinct():
    a = mc.stream_rng(1, 0).standard_normal(4)
    b = mc.stream_rng(1, 0).standard_normal(4)
    c = mc.stream_rng(1, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_rng_rejects_aliasing_seeds():
    # the Philox key holds 64 bits of seed: 0 and 2**64 would share a stream
    mc.stream_rng(2**64 - 1, 0)
    for seed in (2**64, -1):
        with pytest.raises(ValueError):
            mc.stream_rng(seed, 0)


def test_chunked_estimate_thread_independent():
    def chunk(rng, size):
        draws = rng.random(size)
        return int((draws < 0.3).sum()), 0

    samples = 3 * mc.CHUNK + 17
    e1 = mc.run_bernoulli_chunks(samples, 5, chunk, threads=1)
    e4 = mc.run_bernoulli_chunks(samples, 5, chunk, threads=4)
    assert e1 == e4
    assert e1.estimate == pytest.approx(0.3, abs=0.01)


def test_pool_is_no_larger_than_the_chunk_count(monkeypatch):
    workers = []

    class SerialPool:
        """Records max_workers and runs the jobs in this thread."""

        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    def chunk(rng, size):
        return size, 0

    # run_chunks imports the pool from concurrent.futures only when it needs one
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    for samples, threads in ((2 * mc.CHUNK + 1, 64), (5 * mc.CHUNK, 2), (mc.CHUNK, 64), (3 * mc.CHUNK, 1)):
        assert mc.run_bernoulli_chunks(samples, 5, chunk, threads=threads).estimate == 1.0
    assert workers == [3, 2]


def test_mcestimate_interface():
    est = mc.MCEstimate(0.5, 0.01, 1000, 7, 0.0)
    lo, hi = est.ci()
    assert lo == pytest.approx(0.5 - 1.96 * 0.01)
    assert hi == pytest.approx(0.5 + 1.96 * 0.01)
    assert est.z_score(0.48) == pytest.approx(2.0)


def test_resolve_threads_env(monkeypatch):
    monkeypatch.setenv("WEYLHULL_THREADS", "3")
    assert mc.resolve_threads(None) == 3
    assert mc.resolve_threads(2) == 2
    monkeypatch.delenv("WEYLHULL_THREADS")
    assert mc.resolve_threads(None) == 1
