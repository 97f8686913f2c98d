"""Asymptotic approximations of the absorption probabilities.

Three regimes in the step count n for dimension d = d(n): fixed dimension
(polynomial-log decay of non-absorption), the central limit window around
d = u log n, and large deviations for d = u x log n with x bounded away
from 1.  The scale parameter u is 1 for bridges (type A symmetry) and 1/2
for walks (types B and D).
"""
from __future__ import annotations

import cmath
import math

from .absorption import WalkFamily, float_tails
from .coefficients import reflection_type

#: guard band around the x = 1 singularity of the large-deviation prefactor
X_GUARD = 0.05


def scale_parameter(case: str) -> float:
    return reflection_type(case).u


def fixed_dimension_asymptotic(case: str, n: float, d: int) -> float:
    """Leading-order non-absorption probability for fixed d >= 2:
    2 (u log n)^(d-1) / ((d-1)! Gamma(u) n^u).

    That is 2 (log n)^(d-1) / ((d-1)! n) for A (u = 1) and
    (log n)^(d-1) / (2^(d-2) (d-1)! sqrt(pi n)) for B/D (u = 1/2).
    The d = 1 values are exact classical constants and live in absorption.
    """
    u = scale_parameter(case)
    if d < 2:
        raise ValueError("fixed-dimension formula needs d >= 2")
    if n < 3:
        raise ValueError("need n >= 3")
    # in log space: (u log n)^(d-1) and (d-1)! overflow a double from d ~ 170
    log_value = (d - 1) * math.log(u * math.log(n)) - math.lgamma(d) - u * math.log(n)
    return 2.0 * math.exp(log_value) / math.gamma(u)


def normal_cdf(a: float) -> float:
    return 0.5 * (1.0 + math.erf(a / math.sqrt(2.0)))


def clt_approximation(case: str, n: float, d: int) -> float:
    """Phi(a) with a = (d - u log n) / sqrt(u log n): the limiting
    non-absorption probability in the critical window d ~ u log n."""
    u = scale_parameter(case)
    if n < 3:
        raise ValueError("need n >= 3")
    mean = u * math.log(n)
    a = (d - mean) / math.sqrt(mean)
    return normal_cdf(a)


def mod_poisson_limit(z):
    """Limit of the tilted generating-function ratio: 2^w Gamma(w/2) /
    (2 sqrt(pi) Gamma(w)) with w = e^z, which Legendre's duplication formula
    turns into 1 / Gamma((1 + w)/2), an entire function of z.  Accepts real
    or complex z and returns the same kind."""
    # imported here so that the other approximations never load SciPy
    from scipy.special import rgamma

    if isinstance(z, complex):
        return complex(rgamma((1.0 + cmath.exp(z)) / 2.0))
    return float(rgamma((1.0 + math.exp(z)) / 2.0))


def _prefactor(u: float, x: float) -> float:
    """Constant of the sharp large-deviation formula, including the
    geometric-series denominator of the lattice-point sum:
    2 x^(1/u - 1) / Gamma(1 - u + u x) over |1 - x^2|.

    Type A (u = 1): 2 / Gamma(x).  Types B/D (u = 1/2): 2 x / Gamma((x+1)/2),
    which Legendre's duplication formula turns into the tilt-step form
    2^x x Gamma(x/2) / (sqrt(pi) Gamma(x)) of the occupancy distribution.
    """
    return 2.0 * x ** (1.0 / u - 1.0) / math.gamma(1.0 - u + u * x) / abs(1.0 - x * x)


def large_deviation_asymptotic(case: str, n: float, d: int) -> tuple[float, str]:
    """Sharp asymptotic of the smaller of the two absorption tails.

    With x = d / (u log n), returns (value, side): the non-absorption
    probability for x < 1 and the absorption probability for x > 1,
    n^(-u (x log x - x + 1)) / sqrt(2 pi x u log n) times the prefactor.
    """
    u = scale_parameter(case)
    if n < 3 or d < 1:
        raise ValueError("need n >= 3 and d >= 1")
    x = d / (u * math.log(n))
    if abs(x - 1.0) <= X_GUARD:
        raise ValueError("x too close to the critical point 1; use clt_approximation")
    rate = u * (x * math.log(x) - x + 1.0)
    value = n ** (-rate) / math.sqrt(2.0 * math.pi * x * u * math.log(n)) * _prefactor(u, x)
    side = "non-absorb" if x < 1.0 else "absorb"
    return value, side


def regime_comparison(case: str, regime: str, n: int, d: int | None = None,
                      x: float = 0.5) -> tuple[int, float, float]:
    """(d, float tail, approximation) at step count n.  'fixed' needs d, 'clt'
    takes d or sets round(u log n), and 'ld' sets d = round(x u log n) and
    compares the smaller tail, the absorption one past x = 1."""
    u = scale_parameter(case)
    if regime == "ld" and d is None:
        d = round(x * u * math.log(n))
        if d < 1:
            raise ValueError(f"--x {x} gives d = round(x u log n) = 0 at n={n}; "
                             f"the ld regime needs d >= 1, so raise --x or n")
        approx, side = large_deviation_asymptotic(case, n, d)
    elif regime == "clt":
        d = round(u * math.log(n)) if d is None else d
        approx, side = clt_approximation(case, n, d), "non-absorb"
    elif regime == "fixed" and d is not None:
        approx, side = fixed_dimension_asymptotic(case, n, d), "non-absorb"
    else:
        raise ValueError(f"regime {regime!r} with d={d}: fixed needs a d and ld takes none")
    if approx == 0.0:
        raise ValueError(f"the {regime} approximation underflows to 0 at n={n}, d={d}; "
                         f"no ratio to it can be formed")
    absorb, non_absorb = float_tails(WalkFamily(reflection_type(case).walk, n, d))
    return d, absorb if side == "absorb" else non_absorb, approx
