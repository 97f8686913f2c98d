"""Self-verification suites: every check compares an implementation result
against an independent oracle (closed form, brute-force enumeration, or a
Monte Carlo bound) and reports expected vs observed.

The thirteen checks here are the package's acceptance gate; the `verify`
CLI subcommand and the test suite both run them.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import arrangements as arr_mod
from . import asymptotics as asy
from . import cones, mc, walks
from .absorption import (
    WalkFamily,
    absorption_probability,
    absorption_probability_float,
    non_absorption_probability_float,
    one_dimensional_reference,
    wendel_probability,
)
from .coefficients import TYPES


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    expected: str
    observed: str


#: random rational subspaces per (chamber, codimension) in criterion 4
_SUBSPACE_DRAWS = 10
#: random increment matrices per configuration in criterion 6
_KERNEL_DRAWS = 20


def _result(name: str, passed: bool, expected, observed) -> CheckResult:
    return CheckResult(name, bool(passed), str(expected), str(observed))


def check_one_dimensional_identities(**_) -> list[CheckResult]:
    """Walk non-absorption at d=1 is twice the stay-positive probability;
    bridge non-absorption is the constant-sign probability 2/n."""
    out = []
    for n in range(1, 26):
        walk = absorption_probability(WalkFamily("walk-B", n, 1)).non_absorb
        ref = 2 * one_dimensional_reference("sparre-positive", n)
        out.append(_result(f"walk-positivity n={n}", walk == ref, ref, walk))
        if n >= 2:  # a one-step bridge has no hull points
            bridge = absorption_probability(WalkFamily("bridge-A", n, 1)).non_absorb
            ref = one_dimensional_reference("bridge-sign", n)
            out.append(_result(f"bridge-sign n={n}", bridge == ref, ref, bridge))
    return out


def check_wendel(**_) -> list[CheckResult]:
    """r one-step symmetric walks reduce to the classical r-point formula."""
    out = []
    for r in range(1, 13):
        for d in range(1, r + 1):
            got = absorption_probability(WalkFamily("wendel", r, d)).non_absorb
            ref = wendel_probability(r, d)
            out.append(_result(f"wendel r={r} d={d}", got == ref, ref, got))
    return out


def _random_integer_arrangements(count: int, seed: int):
    rng = random.Random(seed)
    made = 0
    while made < count:
        n = rng.randint(1, 4)
        m = rng.randint(1, min(8, 3**n))
        normals = set()
        for _ in range(200):
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            if any(v):
                normals.add(arr_mod.Hyperplane(v))
            if len(normals) == m:
                break
        if len(normals) < m:
            continue
        made += 1
        yield arr_mod.Arrangement(n, tuple(sorted(normals, key=lambda h: h.normal)))


def _chambers(nmax: int) -> list[tuple[str, int]]:
    """Every (type, n) with n <= nmax that has a chamber."""
    return [(k, n) for k, t in TYPES.items() for n in range(t.chamber_min_n, nmax + 1)]


def check_region_counts(seed: int = mc.DEFAULT_SEED, **_) -> list[CheckResult]:
    """Alternating-coefficient region count vs brute-force enumeration."""
    out = []
    for kind, n in _chambers(4):
        arr = arr_mod.build_reflection_arrangement(kind, n)
        chi = arr_mod.whitney_characteristic_polynomial(arr)
        pred = arr_mod.zaslavsky_region_count(chi)
        got = len(arr_mod.enumerate_regions(arr))
        out.append(_result(f"regions {kind}{n}", pred == got, pred, got))
    for i, arr in enumerate(_random_integer_arrangements(20, seed)):
        chi = arr_mod.whitney_characteristic_polynomial(arr)
        pred = arr_mod.zaslavsky_region_count(chi)
        got = len(arr_mod.enumerate_regions(arr))
        out.append(_result(f"regions random#{i}", pred == got, pred, got))
    return out


def check_subspace_counts(seed: int = mc.DEFAULT_SEED, **_) -> list[CheckResult]:
    """Closed-form intersected-region count vs per-region LP counting on
    random rational subspaces."""
    out = []
    rng = np.random.default_rng(seed)
    for kind, n in _chambers(4):
        arr = arr_mod.build_reflection_arrangement(kind, n)
        chi = arr_mod.reflection_characteristic_polynomial(kind, n)
        for d in range(1, n):
            pred = arr_mod.intersected_region_count(chi, d)
            got = []
            for _ in range(_SUBSPACE_DRAWS):
                basis = rng.standard_normal((n - d, n))
                rows = [
                    tuple(Fraction(float(x)).limit_denominator(1000) for x in b)
                    for b in basis
                ]
                sub = arr_mod.Subspace(n, tuple(rows))
                got.append(arr_mod.count_regions_meeting_subspace(arr, sub).count)
            ok = all(g == pred for g in got)
            out.append(_result(f"subspace {kind}{n} d={d}", ok, pred, sorted(set(got))))
    return out


def check_klivans_swartz(**_) -> list[CheckResult]:
    """Group order times chamber intrinsic volumes equals the arrangement
    coefficient row, recomputed by the Whitney sum up to WHITNEY_CAP mirrors."""
    out = []
    for kind, n in _chambers(6):
        if len(TYPES[kind].mirrors(n)) > arr_mod.WHITNEY_CAP:
            continue
        ok = cones.klivans_swartz_check(kind, n)
        out.append(_result(f"klivans-swartz {kind}{n}", ok, True, ok))
    return out


def _chamber_prediction(group: str, n: int, d: int) -> int:
    # chambers are counted modulo the lineality space, so the prediction uses
    # the essential arrangement: the row without the lineality's zero roots
    t = TYPES[group]
    chi = arr_mod.CharacteristicPolynomial(n - t.lineality, t.row(n).coeffs[t.lineality:])
    return arr_mod.intersected_region_count(chi, d)


def check_kernel_chambers(seed: int = mc.DEFAULT_SEED, **_) -> list[CheckResult]:
    """The kernel of a generic increment matrix meets a deterministic number
    of group chambers, equal to the arrangement prediction."""
    out = []
    configs = [(3, 1, "B"), (4, 1, "B"), (4, 2, "B"), (3, 1, "A"), (4, 2, "A"), (3, 1, "D")]
    rng = np.random.default_rng(seed)
    for n, d, group in configs:
        pred = _chamber_prediction(group, n, d)
        counts = set()
        for _ in range(_KERNEL_DRAWS):
            inc = rng.standard_normal((d, n))
            if TYPES[group].lineality:
                inc = walks.make_bridge(inc)
            counts.add(walks.chamber_intersection_count(inc, group))
        ok = counts == {pred}
        out.append(_result(f"kernel-chambers {group} n={n} d={d}", ok, pred, sorted(counts)))
    return out


def check_distribution_freeness(
    samples: int = 100000, seed: int = mc.DEFAULT_SEED, threads: int | None = None
) -> list[CheckResult]:
    """Gaussian, spherical and heavy-tailed walks all match the exact value."""
    out = []
    for n, d in [(6, 2), (8, 3), (10, 2)]:
        fam = WalkFamily("walk-B", n, d)
        exact = float(absorption_probability(fam).absorb)
        for model_name in ("gaussian", "uniform-sphere", "heavy-tail"):
            model = walks.IncrementModel(model_name, d)
            est = walks.estimate_absorption(model, fam, samples, seed=seed, threads=threads)
            ok = (
                abs(est.estimate - exact) <= 4 * est.stderr
                and est.stderr <= 0.005
                and est.ambiguous_fraction < 1e-3
            )
            out.append(
                _result(
                    f"distribution-free {model_name} n={n} d={d}",
                    ok,
                    f"{exact:.5f} +- {4 * est.stderr:.5f}",
                    f"{est.estimate:.5f} (amb {est.ambiguous_fraction:.2e})",
                )
            )
    return out


def check_lattice_lower_bound(
    samples: int = 100000, seed: int = mc.DEFAULT_SEED, threads: int | None = None
) -> list[CheckResult]:
    """Simple lattice walks break general position; their closed-hull
    absorption can only exceed the generic value."""
    out = []
    for n, d in [(10, 2), (12, 3)]:
        fam = WalkFamily("walk-B", n, d)
        exact = float(absorption_probability(fam).absorb)
        model = walks.IncrementModel("lattice-simple", d)
        est = walks.estimate_absorption(model, fam, samples, seed=seed, threads=threads)
        ok = est.estimate >= exact - 4 * est.stderr
        out.append(
            _result(
                f"lattice-bound n={n} d={d}",
                ok,
                f">= {exact - 4 * est.stderr:.5f}",
                f"{est.estimate:.5f}",
            )
        )
    return out


def check_crofton(
    samples: int = 100000, seed: int = mc.DEFAULT_SEED, threads: int | None = None
) -> list[CheckResult]:
    """Random-subspace hit rates against the exact half-tail functionals."""
    out = []
    for kind, n in [("B", 3), ("B", 4), ("A", 4)]:
        chamber = cones.WeylChamber(kind, n)
        v = cones.weyl_intrinsic_volumes(kind, n)
        for d in (1, 2):
            exact = float(cones.half_tail(v, d + 1))
            est = cones.crofton_mc_estimate(chamber, d, samples, seed=seed, threads=threads)
            ok = abs(est.estimate - exact) <= 4 * est.stderr or est.estimate == exact
            out.append(
                _result(
                    f"crofton {kind}{n} d={d}",
                    ok,
                    f"{exact:.5f} +- {4 * est.stderr:.5f}",
                    f"{est.estimate:.5f}",
                )
            )
    return out


def check_steiner(samples: int = 100000, seed: int = mc.DEFAULT_SEED, **_) -> list[CheckResult]:
    """Spherical distance distribution against the Beta mixture."""
    out = []
    for kind, n in [("B", 2), ("B", 3), ("A", 3)]:
        chamber = cones.WeylChamber(kind, n)
        v = cones.weyl_intrinsic_volumes(kind, n)
        dist = cones.sample_sphere_distances(chamber, samples, seed=seed)
        # snap float residue at the two atoms (exact 0 and exact 1)
        dist = np.where(dist > 1.0 - 1e-9, 1.0, np.where(dist < 1e-18, 0.0, dist))
        ks = cones.ks_statistic(dist, lambda x: cones.steiner_tail_cdf(v, x))
        out.append(_result(f"steiner {kind}{n}", ks < 0.01, "KS < 0.01", f"KS = {ks:.4f}"))
    return out


def check_critical_window(**_) -> list[CheckResult]:
    """Exact non-absorption near d = (1/2) log n against the normal limit."""
    out = []
    n = 5000
    mean = TYPES["B"].u * math.log(n)
    for a in (-1, 0, 1):
        d = round(mean + a * math.sqrt(mean))
        exact = float(absorption_probability(WalkFamily("walk-B", n, d)).non_absorb)
        approx = asy.clt_approximation("B", n, d)
        gap = abs(exact - approx)
        out.append(
            _result(
                f"critical-window a={a} d={d}",
                gap <= 0.05,
                f"|{exact:.4f} - Phi| <= 0.05",
                f"Phi = {approx:.4f}, gap = {gap:.4f}",
            )
        )
    return out


def check_large_deviations(**_) -> list[CheckResult]:
    """Sharp tail formula: bounded ratio at n = 10^6 and improving trend."""
    out = []
    for x in (0.5, 2.0):
        gaps = {}
        ratio6 = None
        for n in (10**4, 10**5, 10**6):
            d = max(1, round(x * TYPES["B"].u * math.log(n)))
            value, side = asy.large_deviation_asymptotic("B", n, d)
            fam = WalkFamily("walk-B", n, d)
            exact = (
                non_absorption_probability_float(fam)
                if side == "non-absorb"
                else absorption_probability_float(fam)
            )
            ratio = exact / value
            gaps[n] = abs(ratio - 1.0)
            if n == 10**6:
                ratio6 = ratio
        ok = 0.5 <= ratio6 <= 2.0 and gaps[10**6] < gaps[10**4]
        out.append(
            _result(
                f"large-deviation x={x}",
                ok,
                "ratio in [0.5, 2] and trend improving",
                f"ratio(1e6) = {ratio6:.4f}, |ratio-1|: "
                f"{gaps[10**4]:.4f} -> {gaps[10**6]:.4f}",
            )
        )
    return out


def check_fixed_dimension_trend(**_) -> list[CheckResult]:
    """Fixed-d formula: |exact/asymptotic - 1| strictly decreasing in n."""
    out = []
    for case in ("A", "B"):
        for d in (2, 3):
            gaps = []
            for n in (10**3, 10**4, 10**5, 10**6):
                exact = non_absorption_probability_float(WalkFamily(TYPES[case].walk, n, d))
                gaps.append(abs(exact / asy.fixed_dimension_asymptotic(case, n, d) - 1.0))
            ok = all(b < a for a, b in zip(gaps, gaps[1:]))
            out.append(
                _result(
                    f"fixed-dim {case} d={d}",
                    ok,
                    "strictly decreasing",
                    " > ".join(f"{g:.4f}" for g in gaps),
                )
            )
    return out


#: number -> (name, check, suite)
CRITERIA = {
    1: ("one-dimensional identities", check_one_dimensional_identities, "combinatorics"),
    2: ("Wendel equivalence", check_wendel, "combinatorics"),
    3: ("region-count oracle", check_region_counts, "arrangements"),
    4: ("subspace-count oracle", check_subspace_counts, "arrangements"),
    5: ("Klivans-Swartz", check_klivans_swartz, "conic"),
    6: ("kernel-chamber constancy", check_kernel_chambers, "simulation"),
    7: ("distribution-freeness", check_distribution_freeness, "simulation"),
    8: ("lattice lower bound", check_lattice_lower_bound, "simulation"),
    9: ("Crofton Monte Carlo", check_crofton, "conic"),
    10: ("Steiner Monte Carlo", check_steiner, "conic"),
    11: ("critical window", check_critical_window, "asymptotics"),
    12: ("large deviations", check_large_deviations, "asymptotics"),
    13: ("fixed-dimension trend", check_fixed_dimension_trend, "asymptotics"),
}

SUITES = {suite: tuple(k for k, c in CRITERIA.items() if c[2] == suite)
          for _, _, suite in CRITERIA.values()}
SUITES["all"] = tuple(CRITERIA)


def run_criterion(
    number: int,
    samples: int = 100000,
    seed: int = mc.DEFAULT_SEED,
    threads: int | None = None,
) -> list[CheckResult]:
    """Run one check; every check takes these keywords and ignores the ones
    it has no use for."""
    return CRITERIA[number][1](samples=samples, seed=seed, threads=threads)

