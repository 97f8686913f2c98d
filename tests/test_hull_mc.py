import numpy as np
import pytest
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


def test_batch_matches_single_solver():
    rng = np.random.default_rng(7)
    for d in (1, 2, 3):
        pts = np.cumsum(rng.standard_normal((200, 6, d)), axis=1)
        inside, amb = hull.batch_origin_in_hull(pts, 1e-10)
        assert not amb.any()
        for i in range(len(pts)):
            _, _, dist = hull.min_norm_point(pts[i])
            assert inside[i] == (dist <= 1e-10)


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
