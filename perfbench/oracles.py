"""Independent reference computations for the benchmark's output checks.

Nothing here calls weylhull: every value a check compares against is
rebuilt from first principles (subset sums, exact Gaussian elimination,
Poisson-binomial dynamic programming, Beta mixtures, scipy's HiGHS LP), so a
fault in the package cannot also hide in its own reference.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog
from scipy.special import betainc


def group_order(kind: str, n: int) -> int:
    """Order of the reflection group A_{n-1}, B_n or D_n."""
    if kind == "A":
        return math.factorial(n)
    if kind == "B":
        return 2**n * math.factorial(n)
    return 2 ** (n - 1) * math.factorial(n)


def chi_roots(kind: str, n: int) -> list[int]:
    """Roots r_i with chi(t) = prod (t - r_i) for the mirror arrangement in R^n."""
    if kind == "A":
        return list(range(n))
    if kind == "B":
        return list(range(1, 2 * n, 2))
    return list(range(1, 2 * n - 2, 2)) + [n - 1]


def expand(roots) -> list[int]:
    """Ascending coefficients of prod (t + r)."""
    out = [1]
    for r in roots:
        nxt = [0] * (len(out) + 1)
        for k, c in enumerate(out):
            nxt[k] += r * c
            nxt[k + 1] += c
        out = nxt
    return out


def rank(rows) -> int:
    """Exact rank by Gauss-Jordan elimination over Fraction."""
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def whitney_coefficients(normals, n: int) -> list[int]:
    """Unsigned characteristic coefficients a_0..a_n from the subset sum
    chi(t) = sum_S (-1)^|S| t^(n - rank S), each subset ranked afresh."""
    signed = [0] * (n + 1)
    for size in range(len(normals) + 1):
        for subset in itertools.combinations(normals, size):
            signed[n - (rank(subset) if subset else 0)] += (-1) ** size
    return [abs(x) for x in signed]


def general_position(normals, basis) -> bool:
    """Every flat spanned by at most n normals meets span(basis) with the
    expected rank: rank of the restricted normals = min(rank, dim L)."""
    n = len(basis[0])
    projected = [tuple(sum(Fraction(h[i]) * b[i] for i in range(n)) for b in basis) for h in normals]
    for size in range(1, min(len(normals), n) + 1):
        for idx in itertools.combinations(range(len(normals)), size):
            if rank([projected[i] for i in idx]) != min(rank([normals[i] for i in idx]), len(basis)):
                return False
    return True


def intersected_count(a: list[int], d: int) -> int:
    """Regions met by a generic codimension-d subspace: 2 (a_{d+1} + a_{d+3} + ...)."""
    return 2 * sum(a[k] for k in range(d + 1, len(a), 2))


def sign_vectors(normals, points: np.ndarray) -> set[tuple[int, ...]]:
    """Sign vectors of sample points (none of which lies on a hyperplane)."""
    vals = points @ np.asarray(normals, dtype=float).T
    return {tuple(int(s) for s in row) for row in np.sign(vals).astype(int)}


# ---------------------------------------------------------------------------
# Absorption probabilities from the Poisson-binomial representation

def step_denominators(kind: str, steps, d: int) -> tuple[list[int], int]:
    """(m_i, start): X = sum Bernoulli(1/m_i), non-absorb = 2 P[X <= start, X = start mod 2]."""
    if kind == "bridge-A":
        return list(range(1, steps + 1)), d
    if kind == "walk-B":
        return [2 * i for i in range(1, steps + 1)], d - 1
    if kind == "walk-D":
        return [2 * i for i in range(1, steps)] + [steps], d - 1
    if kind == "joint-B":
        return [2 * i for n in steps for i in range(1, n + 1)], d - 1
    if kind == "wendel":
        return [2] * steps, d - 1
    raise ValueError(kind)


def poisson_binomial_head(dens: list[int], kmax: int) -> list[Fraction]:
    """Exact P[X = k], k = 0..kmax, for X = sum of Bernoulli(1/m_i).

    Each factor (t + m_i - 1) / m_i is multiplied in with integer arithmetic
    and the common denominator prod m_i divides out at the end.
    """
    head = [1] + [0] * kmax
    for m in dens:
        r = m - 1
        for k in range(kmax, 0, -1):
            head[k] = r * head[k] + head[k - 1]
        head[0] *= r
    total = math.prod(dens)
    return [Fraction(c, total) for c in head]


def absorb_exact(kind: str, steps, d: int) -> Fraction:
    """P[0 in hull] = 1 - 2 (P[X = s] + P[X = s - 2] + ...)."""
    dens, start = step_denominators(kind, steps, d)
    if start < 0:
        return Fraction(1)
    head = poisson_binomial_head(dens, start)
    return 1 - 2 * sum(head[k] for k in range(start, -1, -2))


# ---------------------------------------------------------------------------
# Cones: chamber inequalities and extreme rays, Steiner distribution

def chamber_normals(kind: str, n: int) -> np.ndarray:
    """Rows g with the closed chamber equal to {x : g.x >= 0}."""
    rows = []
    if kind == "B":
        rows.append([1.0] + [0.0] * (n - 1))
    if kind == "D":
        rows.append([1.0, 1.0] + [0.0] * (n - 2))
    for i in range(1, n):
        r = [0.0] * n
        r[i - 1], r[i] = -1.0, 1.0
        rows.append(r)
    return np.array(rows)


def chamber_rays(kind: str, n: int) -> np.ndarray:
    """Rows spanning the chamber as a cone (type A with +-(1,...,1) added)."""
    tails = [[0.0] * (n - j) + [1.0] * j for j in range(1, n + 1)]
    if kind == "B":
        return np.array(tails)
    if kind == "A":
        return np.array(tails[: n - 1] + [[1.0] * n, [-1.0] * n])
    minus = [-1.0] + [1.0] * (n - 1)
    return np.array(tails[: n - 2] + [[1.0] * n, minus])


def moreau_residual(kind: str, y: np.ndarray, p: np.ndarray) -> float:
    """Largest violation of: p in C, (y - p).p = 0, y - p in the polar of C."""
    z = y - p
    feas = -min(0.0, float((chamber_normals(kind, len(y)) @ p).min()))
    orth = abs(float(z @ p))
    polar = max(0.0, float((chamber_rays(kind, len(y)) @ z).max()))
    return max(feas, orth, polar)


def chamber_volumes(kind: str, n: int) -> list[float]:
    order = group_order(kind, n)
    return [float(Fraction(c, order)) for c in expand(chi_roots(kind, n))]


def steiner_cdf(v: list[float], lam: np.ndarray) -> np.ndarray:
    """P[dist^2 <= lam] for a uniform direction: the Beta((n-k)/2, k/2) mixture
    over the intrinsic volumes, with atoms v_n at 0 and v_0 at 1."""
    n = len(v) - 1
    out = np.full(lam.shape, v[n]) + np.where(lam >= 1.0, v[0], 0.0)
    for k in range(1, n):
        out += v[k] * betainc((n - k) / 2.0, k / 2.0, lam)
    return out


def ks_distance(samples: np.ndarray, v: list[float]) -> float:
    """Two-sided Kolmogorov-Smirnov distance to the Steiner mixture, taking
    both one-sided limits so the two atoms are handled exactly."""
    xs = np.sort(np.where(samples > 1.0 - 1e-9, 1.0, np.where(samples < 1e-18, 0.0, samples)))
    uniq, first = np.unique(xs, return_index=True)
    last = np.append(first[1:], len(xs))
    upper = steiner_cdf(v, uniq)
    lower = upper - np.where(uniq <= 0.0, v[-1], 0.0) - np.where(uniq >= 1.0, v[0], 0.0)
    return float(max(np.abs(upper - last / len(xs)).max(), np.abs(lower - first / len(xs)).max()))


def dkw_bound(samples: int, alpha: float = 1e-6) -> float:
    """Dvoretzky-Kiefer-Wolfowitz radius: P[KS > radius] <= alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * samples))


# ---------------------------------------------------------------------------
# Hull membership by a floating-point LP

def origin_in_hull_highs(points: np.ndarray) -> bool:
    """Whether some convex combination of the rows of points is 0 (HiGHS)."""
    m, d = points.shape
    a_eq = np.vstack([points.T, np.ones(m)])
    b_eq = np.append(np.zeros(d), 1.0)
    res = linprog(np.zeros(m), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status not in (0, 2):
        raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
    return res.status == 0
