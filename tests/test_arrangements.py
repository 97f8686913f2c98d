import importlib
import itertools
import math
import pkgutil
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weylhull
from weylhull import arrangements as arr_mod
from weylhull import exactlp
from weylhull.coefficients import reflection_type

import lp_oracle
from closed_forms import MIRRORS


def _reflection(kind, n):
    return arr_mod.build_reflection_arrangement(kind, n)


def restrict_characteristic_polynomial(chi, d):
    """Characteristic polynomial of the induced arrangement on a generic
    subspace of codimension d: low coefficients collapse into the constant
    term, the rest shift down by d."""
    n = chi.ambient_dim
    constant = abs(sum((-1) ** (n - k) * chi.a[k] for k in range(d + 1)))
    return arr_mod.CharacteristicPolynomial(n - d, (constant,) + chi.a[d + 1:])


def schlafli_count(m, n):
    """Regions cut from R^n by m central hyperplanes in general position."""
    return 2 * sum(math.comb(m - 1, k) for k in range(n))


def generic_coefficients(m, n):
    """Characteristic polynomial of m generic central hyperplanes in R^n."""
    a = [math.comb(m - 1, n - 1)] + [math.comb(m, n - k) for k in range(1, n + 1)]
    return arr_mod.CharacteristicPolynomial(n, tuple(a))


def format_arrangement(arr):
    """The text form that parse_arrangement reads."""
    lines = [f"dim {arr.ambient_dim}"]
    lines += [" ".join(str(x) for x in h.normal) for h in arr.hyperplanes]
    return "\n".join(lines) + "\n"


def lp_regions(arr):
    """Sign vectors of the open regions, one exact LP per sign a witness
    point does not decide: the enumerator that deletion-restriction replaced."""
    if arr.size == 0:
        return frozenset({()})
    n = arr.ambient_dim
    normals = [h.normal for h in arr.hyperplanes]
    regions = [((1,), normals[0]), ((-1,), tuple(-x for x in normals[0]))]
    for idx in range(1, len(normals)):
        h = normals[idx]
        new_regions = []
        for sigma, w in regions:
            val = sum(a * b for a, b in zip(h, w))
            known = [1 if val > 0 else -1] if val != 0 else []
            new_regions += [(sigma + (s,), w) for s in known]
            for s in (1, -1) if not known else [-known[0]]:
                rows = [tuple(si * x for x in nv) for si, nv in zip(sigma, normals)]
                rows.append(tuple(s * x for x in h))
                point = lp_oracle.open_cone_point(rows, n)
                if point is not None:
                    new_regions.append((sigma + (s,), tuple(point)))
        regions = new_regions
    return frozenset(sigma for sigma, _ in regions)


def lp_open_count(arr, sub):
    """Regions whose open cone meets the subspace, one exact LP per region."""
    traces = arr_mod._traces(arr, sub)
    return sum(
        lp_oracle.open_cone_point([[s * x for x in p] for s, p in zip(sigma, traces)], sub.dim)
        is not None
        for sigma in lp_regions(arr)
    )


def lp_closed_count(arr, sub):
    """Regions whose closure meets the subspace outside the origin, one LP
    cone test per region (the region list is checked against lp_regions in
    its own test)."""
    traces = arr_mod._traces(arr, sub)
    return sum(
        lp_oracle.cone_is_nontrivial([[s * x for x in p] for s, p in zip(sigma, traces)], sub.dim)
        for sigma in arr_mod.enumerate_regions(arr)
    )


def all_subsets_general_position(arr, sub):
    """Every set of at most n normals keeps rank min(rank, dim L) on L."""
    normals = [h.normal for h in arr.hyperplanes]
    traces = arr_mod._traces(arr, sub)
    for size in range(1, min(len(normals), arr.ambient_dim) + 1):
        for subset in itertools.combinations(range(len(normals)), size):
            r = exactlp.integer_rank([normals[i] for i in subset])
            if exactlp.integer_rank([exactlp.primitive_row(traces[i]) for i in subset]) != min(r, sub.dim):
                return False
    return True


def _arrangements(dims, entries, min_size=0):
    """Random central arrangements: duplicate normals merge, zero ones drop."""
    def build(n):
        vectors = st.tuples(*[entries] * n).filter(any)
        return st.lists(vectors, min_size=min_size, max_size=7).map(
            lambda vs: arr_mod.Arrangement(n, tuple(dict.fromkeys(map(arr_mod.Hyperplane, vs)))))
    return dims.flatmap(build)


def _sign(normal, point):
    value = sum(a * b for a, b in zip(normal, point))
    return (value > 0) - (value < 0)


@settings(max_examples=150, deadline=None)
@given(_arrangements(st.integers(1, 4), st.integers(-3, 3)))
@example(arr_mod.Arrangement(1, ()))
@example(arr_mod.Arrangement(3, ()))
@example(arr_mod.Arrangement(1, (arr_mod.Hyperplane((2,)),)))
def test_enumeration_matches_lp_and_zaslavsky(arr):
    regions = arr_mod.enumerate_regions(arr)
    assert regions == lp_regions(arr)
    chi = arr_mod.whitney_characteristic_polynomial(arr)
    assert len(regions) == arr_mod.zaslavsky_region_count(chi)
    witnesses = arr_mod._witnesses(arr)
    assert set(witnesses) == regions
    for sigma, point in witnesses.items():
        assert all(isinstance(x, int) for x in point)
        assert tuple(_sign(h.normal, point) for h in arr.hyperplanes) == sigma


@settings(max_examples=150, deadline=None)
@given(_arrangements(st.integers(1, 4), st.integers(-3, 3)))
@example(arr_mod.Arrangement(1, ()))
@example(arr_mod.Arrangement(3, ()))
@example(arr_mod.Arrangement(1, (arr_mod.Hyperplane((2,)),)))
# rank-deficient: normals (a, b, a + b) spanning a plane in R^3, and A4,
# whose mirrors all contain the line R(1, 1, 1, 1)
@example(arr_mod.Arrangement(3, tuple(map(arr_mod.Hyperplane, [(1, 0, 1), (0, 1, 1), (1, 1, 2), (1, -1, 0)]))))
@example(_reflection("A", 4))
def test_deletion_restriction_matches_whitney(arr):
    assert arr_mod.characteristic_polynomial(arr) == arr_mod.whitney_characteristic_polynomial(arr)


def _reflections_within_the_whitney_cap():
    cases = []
    for kind in ("A", "B", "D"):
        n = reflection_type(kind).chamber_min_n
        while _reflection(kind, n).size <= arr_mod.WHITNEY_CAP:
            cases.append((kind, n))
            n += 1
    return cases


def test_every_reflection_within_the_whitney_cap_is_covered():
    # the largest n of each kind: A7, B5 and D6 have 21, 25 and 30 mirrors
    assert dict(_reflections_within_the_whitney_cap()) == {"A": 6, "B": 4, "D": 5}


@pytest.mark.parametrize("kind, n", _reflections_within_the_whitney_cap())
def test_whitney_matches_the_closed_form_and_deletion_restriction(kind, n):
    arr = _reflection(kind, n)
    chi = arr_mod.whitney_characteristic_polynomial(arr)
    assert chi == arr_mod.reflection_characteristic_polynomial(kind, n)
    assert chi == arr_mod.characteristic_polynomial(arr)


def test_mirrors_are_the_closed_form_lists_in_their_order():
    # the walls closed under their reflections, against e_i +- e_j and e_i
    for kind in "ABD":
        for n in range(reflection_type(kind).chamber_min_n, 13):
            assert [h.normal for h in _reflection(kind, n).hyperplanes] == MIRRORS[kind](n), (kind, n)


def test_mirrors_and_their_deletion_restriction_never_read_the_roots(monkeypatch):
    # deletion-restriction is the independent side of the Klivans-Swartz
    # check only while neither it nor the mirrors read the roots
    cases = [(kind, n) for kind in "ABD" for n in range(reflection_type(kind).chamber_min_n, 6)]
    want = {case: arr_mod.reflection_characteristic_polynomial(*case) for case in cases}

    def roots(n):
        raise AssertionError("the roots were read")

    for kind in "ABD":
        monkeypatch.setitem(vars(reflection_type(kind)), "roots", roots)
    arr_mod.characteristic_polynomial.cache_clear()
    for case in cases:
        assert arr_mod.characteristic_polynomial(arr_mod.build_reflection_arrangement(*case)) == want[case]


@pytest.mark.parametrize("kind, n, bound", [("D", 4, 1000), ("B", 4, 4000)])
def test_whitney_skips_the_subtrees_that_cancel(monkeypatch, kind, n, bound):
    # visiting every subset reduces 2^m - 1 rows: 4,095 for D4, 65,535 for B4
    calls = []
    reduce_row = exactlp.reduce_row

    def counted(*args):
        calls.append(None)
        return reduce_row(*args)

    monkeypatch.setattr(exactlp, "reduce_row", counted)
    arr_mod.whitney_characteristic_polynomial(_reflection(kind, n))
    assert 0 < len(calls) < bound


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_open_counts_and_general_position_on_special_subspaces(data):
    # small entries make most subspaces meet some flat in excess dimension
    arr = data.draw(_arrangements(st.integers(2, 4), st.integers(-1, 1), min_size=3))
    n = arr.ambient_dim
    dim = data.draw(st.integers(1, n - 1))
    basis = data.draw(st.lists(st.tuples(*[st.integers(-1, 1)] * n), min_size=dim, max_size=dim)
                      .filter(lambda b: exactlp.integer_rank(b) == dim))
    sub = arr_mod.Subspace(n, tuple(basis))
    got = arr_mod.count_regions_meeting_subspace(arr, sub)
    assert got.count == lp_open_count(arr, sub)
    assert got.general_position == all_subsets_general_position(arr, sub)


@st.composite
def _arrangement_and_subspace(draw):
    """A random arrangement and a rational subspace with small entries, so
    that many subspaces meet some flat in excess dimension."""
    arr = draw(_arrangements(st.integers(2, 4), st.integers(-2, 2)))
    n = arr.ambient_dim
    dim = draw(st.integers(1, n - 1))
    entries = st.fractions(-2, 2, max_denominator=3)
    basis = draw(st.lists(st.tuples(*[entries] * n), min_size=dim, max_size=dim)
                 .filter(lambda b: exactlp.integer_rank([exactlp.primitive_row(v) for v in b]) == dim))
    return arr, tuple(basis)


@settings(max_examples=100, deadline=None)
@given(_arrangement_and_subspace())
@example((_reflection("B", 3), ((1, 1, 0), (0, 0, 1))))  # a plane inside a mirror: 32
@example((_reflection("B", 2), ((1, 1),)))  # a mirror itself: 4
@example((_reflection("A", 3), ((1, 2, 4),)))
@example((arr_mod.Arrangement(3, ()), ((1, 0, 0), (0, 1, 0))))
def test_closed_counts_match_a_per_region_lp(case):
    arr, basis = case
    sub = arr_mod.Subspace(arr.ambient_dim, basis)
    got = arr_mod.count_regions_meeting_subspace(arr, sub, "closed")
    assert got.count == lp_closed_count(arr, sub)
    assert got.count >= arr_mod.count_regions_meeting_subspace(arr, sub, "open").count


def test_subspaces_inside_a_mirror():
    # an open region misses every mirror, so a subspace inside one meets none
    b2 = _reflection("B", 2)
    line = arr_mod.Subspace(2, ((1, 1),))
    assert arr_mod.count_regions_meeting_subspace(b2, line, "open") == (
        arr_mod.SubspaceMeetCount(0, False, "open"))
    assert arr_mod.count_regions_meeting_subspace(b2, line, "closed").count == 4
    b3 = _reflection("B", 3)
    plane = arr_mod.Subspace(3, ((1, 1, 0), (0, 0, 1)))
    assert arr_mod.count_regions_meeting_subspace(b3, plane, "open").count == 0
    assert arr_mod.count_regions_meeting_subspace(b3, plane, "closed").count == 32


def test_enumeration_and_open_counts_solve_no_lp():
    arr = _reflection("B", 3)
    want = lp_regions(arr)
    sub = arr_mod.Subspace(3, ((1, 2, 4), (0, 1, -3)))
    chi = arr_mod.reflection_characteristic_polynomial("B", 3)
    # the package holds no LP solver for these calls to reach
    modules = [importlib.import_module(f"weylhull.{m.name}") for m in pkgutil.iter_modules(weylhull.__path__)]
    assert not [name for mod in modules for name in vars(mod) if "simplex" in name or "open_cone" in name]
    arr_mod.enumerate_regions.cache_clear()
    arr_mod._witnesses.cache_clear()
    assert arr_mod.enumerate_regions(arr) == want
    got = arr_mod.count_regions_meeting_subspace(arr, sub)
    assert got == arr_mod.SubspaceMeetCount(arr_mod.intersected_region_count(chi, 1), True, "open")


def test_charpoly_closed_forms():
    for kind, n, expect in [
        ("A", 3, (0, 2, 3, 1)),
        ("B", 3, (15, 23, 9, 1)),
        ("D", 4, (45, 84, 50, 12, 1)),
    ]:
        chi = arr_mod.whitney_characteristic_polynomial(_reflection(kind, n))
        assert chi.a == expect
        assert chi.a == arr_mod.reflection_characteristic_polynomial(kind, n).a
        assert arr_mod.characteristic_polynomial(_reflection(kind, n)) == chi


def test_zaslavsky_matches_enumeration():
    for kind, n in [("A", 3), ("B", 2), ("B", 3), ("D", 3)]:
        arr = _reflection(kind, n)
        chi = arr_mod.whitney_characteristic_polynomial(arr)
        assert arr_mod.zaslavsky_region_count(chi) == len(arr_mod.enumerate_regions(arr))


def test_zaslavsky_random_arrangements():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(1, 3)
        normals = set()
        while len(normals) < rng.randint(1, 6):
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(v):
                normals.add(arr_mod.Hyperplane(v))
        arr = arr_mod.Arrangement(n, tuple(sorted(normals, key=lambda h: h.normal)))
        chi = arr_mod.whitney_characteristic_polynomial(arr)
        assert arr_mod.zaslavsky_region_count(chi) == len(arr_mod.enumerate_regions(arr))


def test_hyperplane_normal_canonicalized():
    assert arr_mod.Hyperplane((-2, 4)).normal == arr_mod.Hyperplane((1, -2)).normal


def test_charpoly_evaluation_and_parity():
    chi = arr_mod.reflection_characteristic_polynomial("B", 3)
    # chi(t) = (t-1)(t-3)(t-5)
    assert chi(7) == 6 * 4 * 2
    assert chi(1) == 0


def test_restriction_shifts_coefficients():
    chi = arr_mod.reflection_characteristic_polynomial("B", 4)
    res = restrict_characteristic_polynomial(chi, 1)
    assert res.a[1:] == chi.a[2:]
    assert sum(res.a) == arr_mod.intersected_region_count(chi, 1)


def test_intersected_region_count_values():
    chi = arr_mod.reflection_characteristic_polynomial("B", 3)
    assert arr_mod.intersected_region_count(chi, 0) == 48
    assert arr_mod.intersected_region_count(chi, 1) == 2 * chi.a[2]
    assert arr_mod.intersected_region_count(chi, 2) == 2 * chi.a[3]


def test_schlafli_and_generic_coefficients():
    assert schlafli_count(3, 2) == 6
    assert schlafli_count(5, 3) == 2 * (1 + 4 + 6)
    chi = generic_coefficients(5, 3)
    assert sum(chi.a) == schlafli_count(5, 3)
    assert chi.a[-1] == 1


def test_induced_matches_restriction():
    arr = _reflection("B", 3)
    chi = arr_mod.reflection_characteristic_polynomial("B", 3)
    rng = np.random.default_rng(2)
    basis = rng.standard_normal((2, 3))
    rows = tuple(
        tuple(Fraction(float(x)).limit_denominator(500) for x in b) for b in basis
    )
    sub = arr_mod.Subspace(3, rows)
    induced = arr_mod.induced_arrangement(arr, sub)
    got = arr_mod.whitney_characteristic_polynomial(induced)
    assert got.a == restrict_characteristic_polynomial(chi, 1).a


def test_count_regions_meeting_subspace_closed_mode():
    arr = _reflection("B", 2)
    sub = arr_mod.Subspace(2, ((Fraction(2), Fraction(1)),))
    open_count = arr_mod.count_regions_meeting_subspace(arr, sub, mode="open")
    closed_count = arr_mod.count_regions_meeting_subspace(arr, sub, mode="closed")
    assert open_count.count == 2
    assert closed_count.count >= open_count.count


def test_subspace_basis_is_stored_as_primitive_integers():
    # a Fraction basis and its twin scaled by positive integers describe the
    # same subspace, so every count and verdict must agree
    rng = np.random.default_rng(8)
    cases = [(_reflection("B", 3), ((Fraction(1, 2), Fraction(2, 3), 0), (0, Fraction(-3, 4), 1))),
             (_reflection("B", 2), ((Fraction(1, 3), Fraction(1, 3)),))]  # inside a mirror
    for kind, n, dim in [("A", 4, 2), ("D", 4, 3), ("B", 3, 1)]:
        rows = tuple(tuple(Fraction(int(p), int(q)) for p, q in zip(rng.integers(-3, 4, n), rng.integers(1, 5, n)))
                     for _ in range(dim))
        cases.append((_reflection(kind, n), rows))
    for arr, rows in cases:
        scale = math.lcm(*(x.denominator for row in rows for x in map(Fraction, row)))
        twin = tuple(tuple(int(Fraction(x) * scale * (i + 2)) for x in row) for i, row in enumerate(rows))
        sub, sub_twin = (arr_mod.Subspace(arr.ambient_dim, b) for b in (rows, twin))
        assert all(type(x) is int for row in sub.basis for x in row)
        for mode in ("open", "closed"):
            assert (arr_mod.count_regions_meeting_subspace(arr, sub, mode)
                    == arr_mod.count_regions_meeting_subspace(arr, sub_twin, mode))
        assert arr_mod.is_general_position(arr, sub) == arr_mod.is_general_position(arr, sub_twin)
    mirror = arr_mod.Subspace(2, cases[1][1])
    assert not arr_mod.is_general_position(cases[1][0], mirror)


def test_general_position_detection():
    arr = _reflection("B", 2)
    generic = arr_mod.Subspace(2, ((Fraction(2), Fraction(1)),))
    degenerate = arr_mod.Subspace(2, ((Fraction(1), Fraction(1)),))  # inside a mirror
    assert arr_mod.is_general_position(arr, generic)
    assert not arr_mod.is_general_position(arr, degenerate)


def test_parse_format_round_trip():
    arr = _reflection("D", 3)
    text = format_arrangement(arr)
    assert arr_mod.parse_arrangement(text) == arr


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        arr_mod.parse_arrangement("1 2 3\n")
    with pytest.raises(ValueError):
        arr_mod.parse_arrangement("dim 2\n1 2 3\n")


def test_caps_enforced():
    big = _reflection("B", 5)  # 25 hyperplanes
    with pytest.raises(arr_mod.CapExceededError):
        arr_mod.whitney_characteristic_polynomial(big)
    with pytest.raises(arr_mod.CapExceededError):
        arr_mod.enumerate_regions(big)


def test_characteristic_polynomial_validation():
    with pytest.raises(ValueError):
        arr_mod.CharacteristicPolynomial(2, (1, 1, 2))  # not monic
