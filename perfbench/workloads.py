"""The four workloads: fixed op lists built from a seed, each op with its check.

An op is one call into a public weylhull function, or one
``python -m weylhull.cli`` child process.  ``call`` is timed; ``check`` runs
afterwards, untimed, and returns None when the output is right or a message
saying what is wrong.  References are computed by :mod:`oracles` on first
use and kept for later rounds, which repeat the same inputs.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import os
import subprocess
import sys
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

import oracles as O

WORKLOADS = ("arrangement-oracle", "hull-highdim", "sampling-lowdim", "exact-tables")

#: MC thread count: the machine's cores, at most two
THREADS = max(1, min(2, len(os.sched_getaffinity(0))))

#: the hull tolerance band estimate_absorption uses by default
HULL_BAND = 1e-10


class OpFailed(Exception):
    """The op did not produce an output (a CLI child exited non-zero)."""

    def __init__(self, message: str, output: str = ""):
        super().__init__(message)
        self.output = output


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    #: a fault of the program named in the benchmark's README: a failed
    #: check counts the op as failed instead of making the run incorrect
    known_fault: bool = False
    cli: bool = False


@dataclass
class Workload:
    ops: list[Op]
    #: untimed checks run once per run, after the rounds
    extra_checks: list[Callable[[], str | None]] = field(default_factory=list)


def _stream_seed(name: str) -> int:
    """Fixed Monte Carlo seed of an op, the same for every --seed.

    A 4-sigma check on a freshly seeded estimate fails by chance about once
    in 16000 draws; with some forty estimates per run that would make a
    correct program fail on a few seeds in a thousand.  Fixed stream seeds
    make every estimate and its verdict repeat exactly.
    """
    return zlib.crc32(name.encode())


def _memo(fn):
    return lru_cache(maxsize=None)(fn)


@contextlib.contextmanager
def _no_digit_limit():
    """Parse CLI integers of any length; the children keep the default limit."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _mc_check(est, exact: Fraction, samples: int, scale: float = 1.0, lattice: bool = False):
    """Estimate within 4 sigma of the exact value (sigma of the exact
    proportion); lattice walks only obey the one-sided bound."""
    p = float(exact) / scale
    sigma = scale * (p * (1.0 - p) / samples) ** 0.5
    if est.samples != samples:
        return f"samples {est.samples} != {samples}"
    if lattice:
        if est.estimate < float(exact) - 4 * sigma:
            return f"lattice estimate {est.estimate:.5f} below {float(exact):.5f} - 4 sigma"
        return None
    if abs(est.estimate - float(exact)) > 4 * sigma:
        return f"estimate {est.estimate:.5f} vs exact {float(exact):.5f} (4 sigma {4 * sigma:.5f})"
    if est.ambiguous_fraction >= 1e-3:
        return f"ambiguous fraction {est.ambiguous_fraction}"
    return None


def _hull_check(points: np.ndarray, rows: np.ndarray):
    """A sample of the direct hull decisions against HiGHS."""

    def check(out):
        inside, amb = out
        if inside.shape != (len(points),) or amb.shape != (len(points),):
            return "decision arrays have the wrong shape"
        if amb.mean() >= 1e-3:
            return f"ambiguous fraction {amb.mean()}"
        for i in rows:
            if amb[i]:
                continue
            if bool(inside[i]) != O.origin_in_hull_highs(points[i]):
                return f"sample {i}: decision {bool(inside[i])} disagrees with HiGHS"
        return None

    return check


def _hull_points(rng: np.random.Generator, count: int, m: int, d: int) -> np.ndarray:
    """Gaussian point sets shifted by a random offset, so both verdicts occur."""
    pts = rng.standard_normal((count, m, d))
    shift = rng.standard_normal((count, 1, d)) * rng.uniform(0.0, 1.5, (count, 1, 1))
    pts = pts + shift
    return pts / np.linalg.norm(pts, axis=2).max(axis=1)[:, None, None]


# ---------------------------------------------------------------------------
# arrangement-oracle

def arrangement_oracle(seed: int, root: str) -> Workload:
    from weylhull import arrangements as A

    rng = np.random.default_rng(seed)
    ops: list[Op] = []

    def add_reflection(kind, n, enumerate_too):
        arr = A.build_reflection_arrangement(kind, n)
        order = O.group_order(kind, n)
        a_ref = O.expand(O.chi_roots(kind, n))
        ops.append(Op(f"whitney {kind}{n}", lambda: A.whitney_characteristic_polynomial(arr),
                      lambda chi: None if list(chi.a) == a_ref and sum(chi.a) == order
                      else f"chi {chi.a} != {a_ref}"))
        if enumerate_too:
            points = rng.standard_normal((2000, n))
            ops.append(Op(f"enumerate {kind}{n}", lambda: A.enumerate_regions(arr),
                          _regions_check(arr, points, lambda: order)))
        return arr

    reflection = {}
    for kind, n in (("A", 2), ("A", 3), ("A", 4), ("B", 2), ("D", 3)):
        reflection[kind, n] = add_reflection(kind, n, True)
    add_reflection("B", 3, False)
    add_reflection("D", 4, False)

    for n, m in ((2, 4), (2, 5), (3, 4), (3, 5), (4, 5)):
        arr = _random_arrangement(A, rng, n, m)
        normals = [h.normal for h in arr.hyperplanes]
        a_ref = _memo(lambda normals=tuple(normals), n=n: tuple(O.whitney_coefficients(normals, n)))
        points = rng.standard_normal((2000, n))
        ops.append(Op(f"whitney random n={n} m={m}", lambda arr=arr: A.whitney_characteristic_polynomial(arr),
                      lambda chi, a_ref=a_ref: None if tuple(chi.a) == a_ref() else f"chi {chi.a} != {a_ref()}"))
        ops.append(Op(f"enumerate random n={n} m={m}", lambda arr=arr: A.enumerate_regions(arr),
                      _regions_check(arr, points, lambda a_ref=a_ref: sum(a_ref()))))

    for kind, n, draws in (("A", 3, 2), ("A", 4, 1), ("D", 3, 2)):
        arr = reflection[kind, n]
        a_ref = O.expand(O.chi_roots(kind, n))
        normals = [h.normal for h in arr.hyperplanes]
        for codim, draw in itertools.product(range(1, n), range(draws)):
            sub = _generic_subspace(A, rng, normals, n, n - codim)
            want = O.intersected_count(a_ref, codim)
            for mode in ("open", "closed"):
                ops.append(Op(
                    f"subspace {kind}{n} codim={codim} #{draw} {mode}",
                    lambda arr=arr, sub=sub, mode=mode: A.count_regions_meeting_subspace(arr, sub, mode),
                    lambda res, want=want, mode=mode: None
                    if (res.count, res.general_position, res.mode) == (want, True, mode)
                    else f"count {res.count} (general position {res.general_position}) != {want}",
                ))
    return Workload(ops)


def _regions_check(arr, points: np.ndarray, expected: Callable[[], int]):
    normals = [h.normal for h in arr.hyperplanes]

    def check(regions):
        if len(regions) != expected():
            return f"{len(regions)} regions, expected {expected()}"
        if any(len(s) != len(normals) for s in regions):
            return "sign vector of the wrong length"
        if any(tuple(-x for x in s) not in regions for s in regions):
            return "region set not closed under negation"
        missing = O.sign_vectors(normals, points) - regions
        if missing:
            return f"sampled point in no listed region: {sorted(missing)[0]}"
        return None

    return check


def _random_arrangement(A, rng: np.random.Generator, n: int, m: int):
    """m central hyperplanes in R^n with integer normals in [-3, 3], every n
    of them independent by the benchmark's own rank routine.

    General position fixes the region count for each (n, m), so the work a
    seed draws varies only with the entries, not with the lattice of flats.
    """
    while True:
        normals = [tuple(int(x) for x in rng.integers(-3, 4, n)) for _ in range(m)]
        if all(O.rank(sub) == n for sub in itertools.combinations(normals, n)):
            return A.Arrangement(n, tuple(A.Hyperplane(v) for v in normals))


def _generic_subspace(A, rng: np.random.Generator, normals, n: int, dim: int):
    """A rational subspace (entries p/q, |p| <= 3, q <= 2) in general
    position to the arrangement, by the benchmark's own test."""
    while True:
        basis = [tuple(Fraction(int(p), int(q)) for p, q in zip(rng.integers(-3, 4, n), rng.integers(1, 3, n)))
                 for _ in range(dim)]
        if O.rank(basis) == dim and O.general_position(normals, basis):
            return A.Subspace(n, tuple(basis))


# ---------------------------------------------------------------------------
# hull-highdim and sampling-lowdim share their op factories

FAMILIES = (("walk-B", 16), ("walk-D", 16), ("bridge-A", 13), ("joint-B", (6, 6)))
MODELS = ("gaussian", "heavy-tail", "lattice-simple")


def _estimate_op(kind, steps, model_name, d, samples):
    from weylhull import walks
    from weylhull.absorption import WalkFamily

    family = WalkFamily(kind, steps, d)
    model = walks.IncrementModel(model_name, d)
    name = f"estimate {kind} {model_name} d={d} samples={samples}"
    mc_seed = _stream_seed(name)
    exact = _memo(lambda: O.absorb_exact(kind, steps, d))
    return Op(
        name,
        lambda: walks.estimate_absorption(model, family, samples, seed=mc_seed, threads=THREADS),
        lambda est: _mc_check(est, exact(), samples, lattice=model_name == "lattice-simple"),
    )


def _absorption_ops(dims, samples):
    """Every family with every model (bridge-A rejects the lattice model by design)."""
    return [_estimate_op(kind, steps, model_name, d, samples)
            for d in dims for kind, steps in FAMILIES for model_name in MODELS
            if not (kind == "bridge-A" and model_name == "lattice-simple")]


def _crofton_ops(cases, samples):
    from weylhull import cones

    ops = []
    for kind, n, codim in cases:
        chamber = cones.WeylChamber(kind, n)
        v = [Fraction(c, O.group_order(kind, n)) for c in O.expand(O.chi_roots(kind, n))]
        exact = sum(v[codim + 1 :: 2])
        name = f"crofton {kind}{n} codim={codim}"
        mc_seed = _stream_seed(name)
        ops.append(Op(
            name,
            lambda chamber=chamber, codim=codim, mc_seed=mc_seed: cones.crofton_mc_estimate(
                chamber, codim, samples, seed=mc_seed, threads=THREADS),
            lambda est, exact=exact: _mc_check(est, exact, samples, scale=0.5),
        ))
    return ops


def _direct_hull_ops(rng, shapes):
    from weylhull import hull

    ops = []
    for count, m, d in shapes:
        points = _hull_points(rng, count, m, d)
        rows = rng.choice(count, 24, replace=False)
        ops.append(Op(f"batch_origin_in_hull {count}x{m}x{d}",
                      lambda points=points: hull.batch_origin_in_hull(points, HULL_BAND),
                      _hull_check(points, rows)))
    return ops


def _invariance(kind, steps, d, model_name):
    """One MC op at 1 thread and at THREADS threads, over two chunks."""
    from weylhull import mc, walks
    from weylhull.absorption import WalkFamily

    family = WalkFamily(kind, steps, d)
    model = walks.IncrementModel(model_name, d)
    mc_seed = _stream_seed(f"invariance {kind} {model_name} d={d}")
    samples = mc.CHUNK + 512

    def check():
        one, many = (walks.estimate_absorption(model, family, samples, seed=mc_seed, threads=t)
                     for t in (1, max(2, THREADS)))
        return None if one == many else f"threads change the estimate: {one} vs {many}"

    return check


def _steiner_ks(kind, n, samples, limit):
    """Untimed: KS distance of a large sphere sample to the Beta mixture."""
    from weylhull import cones

    def check():
        dist = cones.sample_sphere_distances(cones.WeylChamber(kind, n), samples,
                                             seed=_stream_seed(f"steiner {kind}{n} samples={samples}"))
        ks = O.ks_distance(dist, O.chamber_volumes(kind, n))
        return None if ks < limit else f"steiner {kind}{n}: KS {ks:.4f} >= {limit}"

    return check


def hull_highdim(seed: int, root: str) -> Workload:
    rng = np.random.default_rng(seed)
    ops = _absorption_ops((3, 4), samples=150)
    ops += _crofton_ops((("B", 6, 3), ("D", 6, 3), ("D", 7, 3)), samples=300)
    ops += _direct_hull_ops(rng, ((100, 10, 3), (100, 12, 4)))
    return Workload(ops, [_invariance("walk-B", 5, 3, "lattice-simple")])


def sampling_lowdim(seed: int, root: str) -> Workload:
    from weylhull import cones

    rng = np.random.default_rng(seed)
    ops = _absorption_ops((1, 2), samples=4000)
    # two chunks each, so the thread pool runs inside the timed loop too
    ops += [_estimate_op("walk-B", 16, "gaussian", 2, 20000), _estimate_op("walk-D", 16, "heavy-tail", 1, 20000)]
    ops += _crofton_ops((("B", 4, 1), ("B", 4, 2), ("B", 5, 2), ("D", 4, 1), ("D", 4, 2), ("D", 5, 2)),
                        samples=4000)
    ops += _direct_hull_ops(rng, ((5000, 10, 1), (5000, 10, 2)))
    # Dykstra costs about 1 ms per D4 sample: three short ops, not one long one
    for kind, n, samples, part in (("A", 3, 3000, 0), ("B", 3, 3000, 0), ("D", 4, 50, 0), ("D", 4, 50, 1),
                                   ("D", 4, 50, 2)):
        chamber = cones.WeylChamber(kind, n)
        v = O.chamber_volumes(kind, n)
        # a timed sample this small is held to its DKW radius; KS < 0.01 is
        # checked once per run on 30000 samples, untimed
        limit = O.dkw_bound(samples)
        name = f"steiner {kind}{n} samples={samples} #{part}"
        mc_seed = _stream_seed(name)
        ops.append(Op(
            name,
            lambda chamber=chamber, samples=samples, mc_seed=mc_seed: cones.sample_sphere_distances(
                chamber, samples, seed=mc_seed),
            lambda dist, v=v, limit=limit, samples=samples: None
            if dist.shape == (samples,) and O.ks_distance(dist, v) < limit
            else f"KS {O.ks_distance(dist, v):.4f} >= {limit:.4f}",
        ))
    for kind, n in (("A", 3), ("B", 3), ("D", 4)):
        chamber = cones.WeylChamber(kind, n)
        for y in rng.standard_normal((4, n)):
            ops.append(Op(f"project {kind}{n}", lambda chamber=chamber, y=y: cones.project_onto_weyl_chamber(chamber, y),
                          lambda out, kind=kind, y=y: _moreau_check(kind, y, out)))
    extra = [_invariance("walk-B", 12, 2, "gaussian"), _steiner_ks("A", 3, 30000, 0.01), _steiner_ks("B", 3, 30000, 0.01),
             # 30000 Dykstra samples would take half a minute
             _steiner_ks("D", 4, 1500, O.dkw_bound(1500))]
    return Workload(ops, extra)


def _moreau_check(kind, y, out):
    p, dsq = out
    res = O.moreau_residual(kind, y, p)
    if res > 1e-8 or abs(dsq - float((y - p) @ (y - p))) > 1e-12:
        return f"Moreau residual {res:.2e}, dist^2 {dsq}"
    return None


# ---------------------------------------------------------------------------
# exact-tables

def exact_tables(seed: int, root: str) -> Workload:
    from weylhull import asymptotics as asy
    from weylhull import coefficients as coef
    from weylhull import cones
    from weylhull import absorption as ab
    from weylhull.absorption import WalkFamily

    rng = np.random.default_rng(seed)
    ops: list[Op] = []
    results: dict = {}  # outputs of this round, for the monotone-in-d checks

    def exact_op(kind, steps, d, reference):
        key = ("exact", kind, steps, d)
        family = WalkFamily(kind, steps, d)

        def call():
            out = ab.absorption_probability(family)
            results[key] = out.absorb
            return out

        def check(res):
            if not 0 <= res.absorb <= 1 or res.absorb + res.non_absorb != 1:
                return f"absorb {float(res.absorb)} outside [0, 1]"
            if reference and res.absorb != exact_ref(kind, steps, d):
                return f"absorb differs from the Poisson-binomial value at {key}"
            prev = results.get(("exact", kind, steps, d - 1))
            if prev is not None and res.absorb > prev:
                return f"absorb increases with d at {key}"
            return None

        ops.append(Op(f"exact {kind} n={steps} d={d}", call, check))

    # Most ops take 1 to 20 ms (n in the low thousands), so the median op
    # sits inside that cluster and not on the edge of the cheap ops.  Each
    # n range is narrow and the repeated points are fixed, so a seed changes
    # the inputs but hardly the cost of the median op.
    grid, repeats = [], []
    for kind in ("bridge-A", "walk-B", "walk-D"):
        for lo, dims in ((4900, (1, 2, 3, 4)), (1000, (1, 2, 3, 4)), (2000, (1, 2, 3, 4)), (3000, (1, 2))):
            n = int(rng.integers(lo, lo + 11))
            grid += [(kind, n, d, False) for d in dims]
            # the second visit to an (n, d) hits the prefix and row caches
            repeats += [(kind, n, 2, False)] if lo in (2000, 4900) else []
        grid += [(kind, int(rng.integers(40, 50)), 2, True), (kind, int(rng.integers(150, 160)), 3, True)]
    steps = tuple(int(x) for x in rng.integers(18, 25, 2))
    grid += [("joint-B", steps, d, True) for d in (2, 3)]
    r = int(rng.integers(20, 25))
    grid += [("wendel", r, d, True) for d in (2, 3)]
    grid += repeats
    for case in grid:
        exact_op(*case)

    n_row = int(rng.integers(1000, 1009))
    for kind, fn in (("A", "stirling_row"), ("B", "b_row"), ("D", "d_row")):
        order = O.group_order(kind, n_row)
        ops.append(Op(f"row {kind} n={n_row}", lambda fn=fn: getattr(coef, fn)(n_row),
                      lambda row, order=order: _row_check(row.coeffs, n_row, order)))
    order_b = O.group_order("B", n_row)
    ops.append(Op(f"volumes B n={n_row}", lambda: cones.weyl_intrinsic_volumes("B", n_row),
                  lambda v: _volumes_check(v, coef.b_row(n_row).coeffs, order_b)))

    float_cases = [("walk-B", 1000, 3), ("walk-D", 1500, 4), ("bridge-A", 3000, 2), ("walk-B", 400, 6)]
    for kind, n, d in float_cases:
        ops.append(_float_op(ab, WalkFamily(kind, n, d), known_fault=False))
    for kind, n, d in (("walk-B", 2000, 26), ("walk-D", 200, 21), ("walk-B", 2000, 20)):
        ops.append(_float_op(ab, WalkFamily(kind, n, d), known_fault=True))
    for kind, n in (("walk-B", 10**5), ("walk-D", 10**6)):
        for d in (2, 3):
            key = ("float", kind, n, d)

            def call(family=WalkFamily(kind, n, d), key=key):
                results[key] = ab.absorption_probability_float(family)
                return results[key]

            def check(p, key=key):
                prev = results.get(key[:3] + (key[3] - 1,))
                if not 0.0 <= p <= 1.0 or (prev is not None and p > prev):
                    return f"float absorb {p} out of range or increasing in d at {key}"
                return None

            ops.append(Op(f"float {kind} n={n} d={d}", call, check))

    ops += _asymptotic_ops(asy)
    ops += _cli_ops(rng, root)
    return Workload(ops)


@lru_cache(maxsize=None)
def exact_ref(kind, steps, d) -> Fraction:
    return O.absorb_exact(kind, steps, d)


def _row_check(row, n, order):
    if len(row) != n + 1 or row[-1] != 1:
        return "row is not monic of degree n"
    if sum(row) != order:
        return "row(1) differs from the group order"
    if sum(row[0::2]) != sum(row[1::2]):
        return "row(-1) is not 0"
    return None


def _volumes_check(v, row, order):
    if sum(v.v) != 1 or sum(v.v[0::2]) != Fraction(1, 2):
        return "volumes do not sum to 1 with equal halves"
    if any(x.numerator * order != c * x.denominator for x, c in zip(v.v, row)):
        return "volumes differ from row / group order"
    return None


def _float_op(ab, family, known_fault):
    def check(p):
        exact = exact_ref(family.kind, family.steps, family.dimension)
        rel = abs(p - float(exact)) / float(exact)
        if p < 0.0 or rel > 1e-9:
            return f"float absorb {p:.6e} vs exact {float(exact):.6e} (relative error {rel:.1e})"
        return None

    return Op(f"float {family.kind} n={family.steps} d={family.dimension}", lambda: ab.absorption_probability_float(family), check,
              known_fault=known_fault)


def _asymptotic_ops(asy):
    """Asymptotic tables against the own float Poisson-binomial tail."""
    ops = []
    for case, kind, d in (("A", "bridge-A", 2), ("B", "walk-B", 2), ("B", "walk-B", 3)):
        for n in (10**6,):
            ref = _memo(lambda kind=kind, n=n, d=d: _non_absorb_float(kind, n, d))
            ops.append(Op(f"fixed-dim {case} n={n} d={d}", lambda case=case, n=n, d=d: asy.fixed_dimension_asymptotic(case, n, d),
                          lambda a, ref=ref: None if 0.5 < ref() / a < 2.0 else f"ratio {ref() / a:.3f}"))
    for x in (0.5, 2.0):
        n = 10**6
        d = max(1, round(x * 0.5 * 13.815510557964274))
        ref = _memo(lambda d=d: _non_absorb_float("walk-B", 10**6, d))
        ops.append(Op(f"large-deviation B x={x}", lambda d=d: asy.large_deviation_asymptotic("B", n, d),
                      lambda out, ref=ref: _ld_check(out, ref())))
    for n in (10**6,):
        for a in (-1, 0, 1):
            mean = 0.5 * np.log(n)
            d = int(round(mean + a * np.sqrt(mean)))
            ref = _memo(lambda n=n, d=d: _non_absorb_float("walk-B", n, d))
            ops.append(Op(f"clt B n={n} d={d}", lambda n=n, d=d: asy.clt_approximation("B", n, d),
                          lambda phi, ref=ref: None if abs(phi - ref()) < 0.1 else f"|Phi - exact| = {abs(phi - ref()):.3f}"))
    ops.append(Op("mod-Poisson limit z=0", lambda: asy.mod_poisson_limit(0.0),
                  lambda v: None if abs(v - 1.0) < 1e-12 else f"limit at 0 is {v}"))
    return ops


def _ld_check(out, non_absorb):
    value, side = out
    exact = non_absorb if side == "non-absorb" else 1.0 - non_absorb
    return None if 0.5 <= exact / value <= 2.0 else f"ratio {exact / value:.3f} on the {side} side"


def _non_absorb_float(kind, n, d):
    """2 P[X <= s, X = s mod 2] in floating point, X Poisson-binomial, from
    the elementary symmetric functions of the odds p/(1-p)."""
    dens, start = O.step_denominators(kind, n, d)
    m = np.asarray(dens, dtype=float)
    p = 1.0 / m
    certain = p >= 1.0  # bridge-A: the first step always counts
    shift = int(certain.sum())
    odds = p[~certain] / (1.0 - p[~certain])
    log_q = float(np.sum(np.log1p(-p[~certain])))
    kmax = start - shift
    power = [0.0] + [float(np.sum(odds**j)) for j in range(1, kmax + 1)]
    e = [1.0]
    for k in range(1, kmax + 1):
        e.append(sum((-1) ** (j - 1) * e[k - j] * power[j] for j in range(1, k + 1)) / k)
    head = {k + shift: e[k] * np.exp(log_q) for k in range(kmax + 1)}
    return 2.0 * sum(head.get(k, 0.0) for k in range(start, -1, -2))


def _cli_ops(rng, root):
    from weylhull import coefficients as coef
    from weylhull.absorption import WalkFamily, absorption_probability

    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONINTMAXSTRDIGITS", "PYTHONPATH", "WEYLHULL_THREADS", "PYTHONWARNINGS")}
    env["PYTHONPATH"] = os.path.join(root, "src")

    def run(argv):
        def call():
            proc = subprocess.run([sys.executable, "-m", "weylhull.cli", *argv], cwd=root, env=env,
                                  capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise OpFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}", proc.stdout)
            return proc.stdout
        return call

    def exact_check(kind, steps, d, fmt):
        want = _memo(lambda: absorption_probability(WalkFamily(kind, steps, d)).absorb)

        def check(out):
            with _no_digit_limit():
                if fmt == "json":
                    text = json.loads(out)["result"]["absorb"]
                else:
                    text = next(line.split(": ", 1)[1] for line in out.splitlines() if line.startswith("absorb: "))
                num, den = text.split("/")
                got = Fraction(int(num), int(den))
            return None if got == want() else f"CLI absorb {got} != library {want()}"

        return check

    def coeffs_check(kind, n, kmax):
        fn = {"A": (coef.stirling_row, coef.stirling_prefix), "B": (coef.b_row, coef.b_prefix),
              "D": (coef.d_row, coef.d_prefix)}[kind]
        want = _memo(lambda: list(fn[0](n).coeffs) if kmax is None else list(fn[1](n, kmax)))

        def check(out):
            with _no_digit_limit():
                got = [int(c) for c in json.loads(out)["result"]["coefficients"]]
            return None if got == want() else "CLI coefficients differ from the library row"

        return check

    ops = []
    cases = [
        ("exact", "walk-D", int(rng.integers(400, 421)), 3, "json", False),
        ("exact", "bridge-A", int(rng.integers(400, 421)), 2, "plain", False),
        ("exact", "walk-B", 5000, 3, "json", True),
        ("exact", "walk-B", 5000, 3, "plain", True),
        ("coeffs", "B", 1500, 3, "json", True),
    ]
    for what, kind, n, extra, fmt, fault in cases:
        if what == "exact":
            argv = ["exact", "--family", kind, "--steps", str(n), "--dim", str(extra), "--format", fmt]
            check = exact_check(kind, n, extra, fmt)
        else:
            argv = ["coeffs", "--type", kind, "--n", str(n), "--format", fmt]
            argv += [] if extra is None else ["--kmax", str(extra)]
            check = coeffs_check(kind, n, extra)
        ops.append(Op("cli " + " ".join(argv), run(argv), check, known_fault=fault, cli=True))
    return ops


FACTORIES = {
    "arrangement-oracle": arrangement_oracle,
    "hull-highdim": hull_highdim,
    "sampling-lowdim": sampling_lowdim,
    "exact-tables": exact_tables,
}
