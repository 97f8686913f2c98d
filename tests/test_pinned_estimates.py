"""Fixed-seed Monte Carlo estimates pinned to recorded values.

The hull tests, the walk normalisation and the Crofton band compute their
norms with hull.row_norms, which must give np.linalg.norm's bits.  These
values were recorded with np.linalg.norm in every one of those places; an
estimate or an ambiguous fraction that moves by one sample fails here.
"""
import pytest

from weylhull import cones, walks
from weylhull.absorption import WalkFamily

SAMPLES, SEED = 3000, 2021

#: (kind, steps, d, model) -> (estimate, ambiguous_fraction)
ABSORPTION = [
    (('walk-B', 7, 1, 'gaussian'), (0.5743333333333334, 0.0)),
    (('walk-B', 7, 1, 'uniform-sphere'), (0.44366666666666665, 0.23833333333333334)),
    (('walk-B', 7, 1, 'heavy-tail'), (0.586, 0.0)),
    (('walk-B', 7, 1, 'lattice-simple'), (0.6846666666666666, 0.0)),
    (('walk-D', 6, 1, 'gaussian'), (0.587, 0.0)),
    (('walk-D', 6, 1, 'uniform-sphere'), (0.37766666666666665, 0.37166666666666665)),
    (('walk-D', 6, 1, 'heavy-tail'), (0.5883333333333334, 0.0)),
    (('walk-D', 6, 1, 'lattice-simple'), (0.7473333333333333, 0.0)),
    (('bridge-A', 8, 1, 'gaussian'), (0.7483333333333333, 0.0)),
    (('bridge-A', 8, 1, 'uniform-sphere'), (0.699, 0.084)),
    (('bridge-A', 8, 1, 'heavy-tail'), (0.7373333333333333, 0.0)),
    (('joint-B', (4, 3), 1, 'gaussian'), (0.8263333333333334, 0.0)),
    (('joint-B', (4, 3), 1, 'uniform-sphere'), (0.7103333333333334, 0.194)),
    (('joint-B', (4, 3), 1, 'heavy-tail'), (0.8383333333333334, 0.0)),
    (('joint-B', (4, 3), 1, 'lattice-simple'), (0.8986666666666666, 0.0)),
    (('walk-B', 7, 2, 'gaussian'), (0.166, 0.0)),
    (('walk-B', 7, 2, 'uniform-sphere'), (0.17166666666666666, 0.0)),
    (('walk-B', 7, 2, 'heavy-tail'), (0.18033333333333335, 0.0)),
    (('walk-B', 7, 2, 'lattice-simple'), (0.3873333333333333, 0.0)),
    (('walk-D', 6, 2, 'gaussian'), (0.186, 0.0)),
    (('walk-D', 6, 2, 'uniform-sphere'), (0.18533333333333332, 0.0)),
    (('walk-D', 6, 2, 'heavy-tail'), (0.179, 0.0)),
    (('walk-D', 6, 2, 'lattice-simple'), (0.41733333333333333, 0.0)),
    (('bridge-A', 8, 2, 'gaussian'), (0.3566666666666667, 0.0)),
    (('bridge-A', 8, 2, 'uniform-sphere'), (0.3506666666666667, 0.0)),
    (('bridge-A', 8, 2, 'heavy-tail'), (0.353, 0.0)),
    (('joint-B', (4, 3), 2, 'gaussian'), (0.43966666666666665, 0.0)),
    (('joint-B', (4, 3), 2, 'uniform-sphere'), (0.45166666666666666, 0.0)),
    (('joint-B', (4, 3), 2, 'heavy-tail'), (0.44766666666666666, 0.0)),
    (('joint-B', (4, 3), 2, 'lattice-simple'), (0.6893333333333334, 0.0)),
]

#: (type, n, codimension) -> (estimate, ambiguous_fraction)
CROFTON = [
    (('A', 5, 1), (0.5, 0.0)),
    (('A', 5, 2), (0.29933333333333334, 0.0)),
    (('B', 4, 1), (0.2185, 0.0)),
    (('B', 4, 2), (0.045, 0.0)),
    (('D', 4, 1), (0.25966666666666666, 0.0)),
    (('D', 4, 2), (0.0645, 0.0)),
]


@pytest.mark.parametrize("case, pinned", ABSORPTION, ids=[" ".join(map(str, c)) for c, _ in ABSORPTION])
def test_absorption_estimate_is_pinned(case, pinned):
    kind, steps, d, model = case
    est = walks.estimate_absorption(walks.IncrementModel(model, d), WalkFamily(kind, steps, d), SAMPLES, seed=SEED)
    assert (est.estimate, est.ambiguous_fraction) == pinned


@pytest.mark.parametrize("case, pinned", CROFTON, ids=[" ".join(map(str, c)) for c, _ in CROFTON])
def test_crofton_estimate_is_pinned(case, pinned):
    kind, n, codim = case
    est = cones.crofton_mc_estimate(cones.WeylChamber(kind, n), codim, SAMPLES, seed=SEED)
    assert (est.estimate, est.ambiguous_fraction) == pinned
