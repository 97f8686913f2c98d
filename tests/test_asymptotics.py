import cmath
import math

import numpy as np
import pytest

from weylhull import asymptotics as asy
from weylhull.absorption import WalkFamily, non_absorption_probability_float
from weylhull.coefficients import reflection_type


def bernoulli_family_mgf(family: str, n: int, z: float) -> float:
    """E[exp(z X_n)] for the Bernoulli-sum representation, computed directly."""
    roots = np.concatenate([np.arange(r.start, r.stop, r.step, dtype=float)
                            for r in reflection_type(family).roots(n)])
    p = 1.0 / (1.0 + roots)
    return float(np.exp(np.sum(np.log1p(p * (math.exp(z) - 1.0)))))


def test_fixed_dimension_plug_ins():
    n = math.exp(10)
    assert asy.fixed_dimension_asymptotic("A", n, 2) == pytest.approx(2 * 10 / n)
    assert asy.fixed_dimension_asymptotic("B", 100, 2) == pytest.approx(
        math.log(100) / math.sqrt(100 * math.pi)
    )
    with pytest.raises(ValueError):
        asy.fixed_dimension_asymptotic("B", 100, 1)


def test_clt_approximation_center_and_shift():
    # d = u log n exactly gives a = 0
    assert asy.clt_approximation("A", math.exp(10.0), 10) == pytest.approx(0.5, abs=1e-12)
    # u log n = 9, d = 12 gives a = 1
    assert asy.clt_approximation("B", math.exp(18.0), 12) == pytest.approx(
        0.8413447460685429, abs=1e-12
    )


def test_normal_cdf_symmetry_and_table():
    for a in (-3.0, -1.0, -0.2, 0.0, 0.7, 2.5):
        assert asy.normal_cdf(a) + asy.normal_cdf(-a) == pytest.approx(1.0, abs=1e-14)
    assert asy.normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)
    assert asy.normal_cdf(0.0) == 0.5


def test_mod_poisson_limit_values():
    assert asy.mod_poisson_limit(0.0) == 1.0
    assert asy.mod_poisson_limit(math.log(2.0)) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)
    z = 0.3 + 0.4j
    val = asy.mod_poisson_limit(z)
    assert isinstance(val, complex)
    # conjugate symmetry of a real-coefficient analytic function
    assert asy.mod_poisson_limit(z.conjugate()) == pytest.approx(val.conjugate())


def test_mod_poisson_removable_singularity():
    # at e^z = -2 both Gamma factors have poles, but their ratio 1 / Gamma(-1/2) is finite
    val = asy.mod_poisson_limit(cmath.log(2) + 1j * math.pi)
    assert val == pytest.approx(-1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-14)


def test_large_deviation_prefactor_examples():
    # A case at x = 2: constant 2 / Gamma(2) = 2 over |1 - 4|
    n = 10**6
    d = round(2 * math.log(n))
    value, side = asy.large_deviation_asymptotic("A", n, d)
    assert side == "absorb"
    x = d / math.log(n)
    expect = n ** (-(x * math.log(x) - x + 1)) / math.sqrt(
        2 * math.pi * x * math.log(n)
    ) * (2 / math.gamma(x)) / abs(1 - x * x)
    assert value == pytest.approx(expect, rel=1e-12)


def test_large_deviation_sides():
    n = 10**5
    _, side = asy.large_deviation_asymptotic("B", n, 2)
    assert side == "non-absorb"
    _, side = asy.large_deviation_asymptotic("B", n, 12)
    assert side == "absorb"


def test_large_deviation_guard_band():
    n = round(math.exp(8.0))  # u log n = 4, so d = 4 sits on the singularity
    with pytest.raises(ValueError):
        asy.large_deviation_asymptotic("B", n, 4)


def phase_boundary(case, d):
    """The transition location n* = e^(d/u): absorption goes from near 0
    for n much smaller to near 1 for n much larger, passing 1/2 at n*."""
    return math.exp(d / asy.scale_parameter(case))


def test_phase_boundary():
    assert phase_boundary("B", 3) == pytest.approx(math.exp(6))
    assert phase_boundary("A", 3) == pytest.approx(math.exp(3))


def test_phase_transition_sides():
    # float-mode absorption straddles 1/2 around the boundary
    d = 4
    nstar = phase_boundary("B", d)
    hi = int(4 * nstar)
    lo = int(nstar / 4)
    p_hi = 1.0 - non_absorption_probability_float(WalkFamily("walk-B", hi, d))
    p_lo = 1.0 - non_absorption_probability_float(WalkFamily("walk-B", lo, d))
    assert p_hi > 0.5 > p_lo


def test_family_mgf_at_zero():
    for fam in ("A", "B"):
        assert bernoulli_family_mgf(fam, 100, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_mod_poisson_is_mgf_limit():
    for z in (1.0, -1.0):
        gaps = []
        for n in (10**3, 10**4, 10**5):
            ratio = bernoulli_family_mgf("B", n, z) / math.exp(
                0.5 * math.log(n) * (math.exp(z) - 1.0)
            )
            gaps.append(abs(ratio - asy.mod_poisson_limit(z)))
        assert gaps[2] < gaps[1] < gaps[0]


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        asy.scale_parameter("E")


@pytest.mark.parametrize("regime, d", [("fixed", None), ("ld", 3), ("Clt", 3)])
def test_regime_comparison_rejects_a_d_its_regime_cannot_use(regime, d):
    # fixed needs a d, and ld sets its own from x
    with pytest.raises(ValueError, match="fixed needs a d and ld takes none"):
        asy.regime_comparison("B", regime, 1000, d)
