import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from weylhull import exactlp

import lp_oracle


def F(x):
    return Fraction(x)


def test_integer_rank():
    assert exactlp.integer_rank([[1, 2], [2, 4]]) == 1
    assert exactlp.integer_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert exactlp.integer_rank([[0, 0]]) == 0


def test_fraction_rank_and_nullity():
    rows = [[F(1) / 2, F(1) / 3], [F(1), F(2) / 3]]
    assert exactlp.integer_rank([exactlp.primitive_row(r) for r in rows]) == 1
    assert len(exactlp.integer_nullspace([exactlp.primitive_row(r) for r in rows], 2)) == 1


def _satisfies_strictly(point, rows):
    return all(sum(Fraction(a) * x for a, x in zip(r, point)) > 0 for r in rows)


def test_open_cone_point():
    point = lp_oracle.open_cone_point([[F(1), F(0)], [F(0), F(1)]], 2)
    assert point is not None and all(x > 0 for x in point)
    assert lp_oracle.open_cone_point([[F(1)], [F(-1)]], 1) is None


def test_separating_direction_certifies():
    # points with the origin outside their hull: the cone point separates them
    pts = [[F(2), F(1)], [F(1), F(3)], [F(5), F(-1)]]
    u = lp_oracle.open_cone_point(pts, 2)
    assert u is not None and _satisfies_strictly(u, pts)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cone_oracles_on_integer_fraction_and_float_rows(data):
    dim = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(0, 6))
    ints = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
                              min_size=m, max_size=m))
    if data.draw(st.booleans()):
        # rank below dim: the last column is the sum of the others
        ints = [r[:-1] + [sum(r[:-1])] for r in ints]
    if data.draw(st.booleans()):
        ints.insert(data.draw(st.integers(0, m)), [0] * dim)
    m = len(ints)
    # the same cone, each row scaled by a positive rational or a power of two
    dens = data.draw(st.lists(st.integers(1, 7), min_size=m, max_size=m))
    exps = data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    forms = [
        ints,
        [[Fraction(x, q) for x in r] for r, q in zip(ints, dens)],
        [[x * 2.0**e for x in r] for r, e in zip(ints, exps)],
    ]
    points = [lp_oracle.open_cone_point(rows, dim) for rows in forms]
    nontrivial = [lp_oracle.cone_is_nontrivial(rows, dim) for rows in forms]
    assert len({p is None for p in points}) == 1
    assert len(set(nontrivial)) == 1
    for rows, p in zip(forms, points):
        assert all(isinstance(x, Fraction) for x in p or ())
        assert p is None or _satisfies_strictly(p, rows)
    assert points[0] is None or nontrivial[0]


def _fraction_nullspace(rows, ncols):
    """The kernel basis read off the reduced echelon form over Fraction: 1 at
    one free column, 0 at the others."""
    echelon = exactlp._echelon(rows)
    pivots = {col for col, _ in echelon}
    basis = []
    for free in sorted(set(range(ncols)) - pivots):
        x = [Fraction(int(j == free)) for j in range(ncols)]
        for col, row in reversed(echelon):
            x[col] = -sum(a * b for a, b in zip(row, x)) / row[col]
        basis.append(x)
    return basis


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_integer_nullspace_is_primitive_and_scales_the_fraction_basis(data):
    ncols = data.draw(st.integers(1, 6))
    rows = data.draw(st.lists(st.lists(st.integers(-4, 4) | st.just(0), min_size=ncols, max_size=ncols),
                              max_size=6))
    basis = exactlp.integer_nullspace(rows, ncols)
    assert len(basis) == ncols - exactlp.integer_rank(rows)
    for v in basis:
        assert all(type(x) is int for x in v)
        assert math.gcd(*v) == 1
        assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows)
    assert basis == [exactlp.primitive_row(x) for x in _fraction_nullspace(rows, ncols)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lines_are_the_kernels_of_independent_subsets(data):
    dim = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim), max_size=6))
    found = exactlp.lines(rows, dim)
    # each line once: no repeats, and never both v and -v
    assert len(set(found) | {tuple(-x for x in v) for v in found}) == 2 * len(found)
    expected = set()
    for subset in itertools.combinations(rows, dim - 1):
        if exactlp.integer_rank(subset) == dim - 1:
            (v,) = exactlp.integer_nullspace(subset, dim)
            expected.add(tuple(v))
    assert set(found) == expected
    for v in found:
        zero = [r for r in rows if not any(exactlp.signs([r], v))]
        assert exactlp.integer_rank(zero) == dim - 1


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_open_cone_point_on_arbitrary_float_rows(data):
    dim = data.draw(st.integers(1, 3))
    floats = st.floats(-3, 3, allow_nan=False, allow_subnormal=False)
    rows = data.draw(st.lists(st.lists(floats, min_size=dim, max_size=dim), min_size=1, max_size=5))
    p = lp_oracle.open_cone_point(rows, dim)
    assert p is None or _satisfies_strictly(p, rows)
    exact = [[Fraction(x) for x in r] for r in rows]
    assert lp_oracle.cone_is_nontrivial(rows, dim) == lp_oracle.cone_is_nontrivial(exact, dim)


def origin_hull_position(points, dim):
    """'outside', 'boundary' or 'interior' of the closed convex hull."""
    # a u with u.p > 0 for every point p separates the origin from the hull
    if lp_oracle.open_cone_point(points, dim) is not None:
        return "outside"
    # origin is in the hull; it sits on the boundary iff some supporting
    # hyperplane through 0 exists, i.e. {u : p.u >= 0 for all p} != {0}
    if lp_oracle.cone_is_nontrivial(points, dim):
        return "boundary"
    return "interior"


def test_origin_hull_position():
    assert origin_hull_position([[F(1), F(0)], [F(0), F(1)]], 2) == "outside"
    tri = [[F(1), F(0)], [F(-1), F(1)], [F(-1), F(-1)]]
    assert origin_hull_position(tri, 2) == "interior"
    seg = [[F(1), F(0)], [F(-1), F(0)]]
    assert origin_hull_position(seg, 2) == "boundary"
    vertex = [[F(0), F(0)], [F(1), F(0)]]
    assert origin_hull_position(vertex, 2) == "boundary"
