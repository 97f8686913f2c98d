from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylhull import exactlp


def F(x):
    return Fraction(x)


def _reference_simplex_max(c, a, b):
    """Gauss-Jordan simplex over Fraction with Bland's rule: the oracle for
    the integer-tableau simplex_max, which must pivot the same way."""
    m, n = len(a), len(c)
    tab = [[Fraction(x) for x in a[i]] + [Fraction(int(i == j)) for j in range(m)] + [Fraction(b[i])]
           for i in range(m)]
    cost = [Fraction(x) for x in c] + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))
    while True:
        enter = next((j for j in range(n + m) if cost[j] > 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            raise exactlp.UnboundedError("unbounded objective")
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        f = cost[enter]
        cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = tab[i][-1]
    return -cost[-1], x


_rational = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def test_integer_rank():
    assert exactlp.integer_rank([[1, 2], [2, 4]]) == 1
    assert exactlp.integer_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert exactlp.integer_rank([[0, 0]]) == 0


def test_fraction_rank_and_nullity():
    rows = [[F(1) / 2, F(1) / 3], [F(1), F(2) / 3]]
    assert exactlp.fraction_rank(rows) == 1
    assert len(exactlp.integer_nullspace([exactlp.primitive_row(r) for r in rows], 2)) == 1


def test_simplex_known_optimum():
    # max x + y st x <= 2, y <= 3, x + y <= 4
    opt, x = exactlp.simplex_max(
        [F(1), F(1)],
        [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]],
        [F(2), F(3), F(4)],
    )
    assert opt == 4
    assert sum(x) == 4


def test_simplex_degenerate_tie_follows_blands_rule():
    # two rows tie at ratio 0; letting the greater basic variable leave
    # instead ends at another optimal vertex, (0, 1, 1/2)
    c, a, b = [1, 2, -2], [[2, -1, 1], [2, 1, -2], [-2, 2, 0]], [0, 0, 2]
    expected = (F(1), [Fraction(1, 5), Fraction(6, 5), Fraction(4, 5)])
    assert _reference_simplex_max(c, a, b) == expected
    assert exactlp.simplex_max(c, a, b) == expected


def test_simplex_unbounded():
    with pytest.raises(exactlp.UnboundedError):
        exactlp.simplex_max([F(1)], [[F(-1)]], [F(1)])


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_simplex_matches_fraction_reference(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(0, 5))
    c = data.draw(st.lists(_rational, min_size=n, max_size=n))
    a = data.draw(st.lists(st.lists(_rational, min_size=n, max_size=n), min_size=m, max_size=m))
    # zeros in b make degenerate pivots, where Bland's tie-break matters
    b = data.draw(st.lists(st.sampled_from([0, 0, 1]) | _rational.map(abs), min_size=m, max_size=m))
    try:
        expected = _reference_simplex_max(c, a, b)
    except exactlp.UnboundedError:
        with pytest.raises(exactlp.UnboundedError):
            exactlp.simplex_max(c, a, b)
    else:
        assert exactlp.simplex_max(c, a, b) == expected


def _satisfies_strictly(point, rows):
    return all(sum(Fraction(a) * x for a, x in zip(r, point)) > 0 for r in rows)


def test_open_cone_point():
    point = exactlp.open_cone_point([[F(1), F(0)], [F(0), F(1)]], 2)
    assert point is not None and all(x > 0 for x in point)
    assert exactlp.open_cone_point([[F(1)], [F(-1)]], 1) is None


def test_separating_direction_certifies():
    # points with the origin outside their hull: the cone point separates them
    pts = [[F(2), F(1)], [F(1), F(3)], [F(5), F(-1)]]
    u = exactlp.open_cone_point(pts, 2)
    assert u is not None and _satisfies_strictly(u, pts)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cone_oracles_on_integer_fraction_and_float_rows(data):
    dim = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 6))
    ints = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
                              min_size=m, max_size=m))
    # the same cone, each row scaled by a positive rational or a power of two
    dens = data.draw(st.lists(st.integers(1, 7), min_size=m, max_size=m))
    exps = data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    forms = [
        ints,
        [[Fraction(x, q) for x in r] for r, q in zip(ints, dens)],
        [[x * 2.0**e for x in r] for r, e in zip(ints, exps)],
    ]
    points = [exactlp.open_cone_point(rows, dim) for rows in forms]
    nontrivial = [exactlp.cone_is_nontrivial(rows, dim) for rows in forms]
    assert len({p is None for p in points}) == 1
    assert len(set(nontrivial)) == 1
    for rows, p in zip(forms, points):
        assert all(isinstance(x, Fraction) for x in p or ())
        assert p is None or _satisfies_strictly(p, rows)
    assert points[0] is None or nontrivial[0]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_open_cone_point_on_arbitrary_float_rows(data):
    dim = data.draw(st.integers(1, 3))
    floats = st.floats(-3, 3, allow_nan=False, allow_subnormal=False)
    rows = data.draw(st.lists(st.lists(floats, min_size=dim, max_size=dim), min_size=1, max_size=5))
    p = exactlp.open_cone_point(rows, dim)
    assert p is None or _satisfies_strictly(p, rows)
    exact = [[Fraction(x) for x in r] for r in rows]
    assert exactlp.cone_is_nontrivial(rows, dim) == exactlp.cone_is_nontrivial(exact, dim)


def test_cone_is_nontrivial():
    assert exactlp.cone_is_nontrivial([[F(1), F(0)]], 2)  # half-space
    assert exactlp.cone_is_nontrivial([[F(1), F(0)], [F(-1), F(0)]], 2)  # a line
    quadrant = [[F(1), F(0)], [F(0), F(1)]]
    assert exactlp.cone_is_nontrivial(quadrant, 2)
    # positively spanning normals force the trivial cone
    spanning = [[F(1), F(0)], [F(0), F(1)], [F(-1), F(-1)]]
    assert not exactlp.cone_is_nontrivial(spanning, 2)


def origin_hull_position(points, dim):
    """'outside', 'boundary' or 'interior' of the closed convex hull."""
    # a u with u.p > 0 for every point p separates the origin from the hull
    if exactlp.open_cone_point(points, dim) is not None:
        return "outside"
    # origin is in the hull; it sits on the boundary iff some supporting
    # hyperplane through 0 exists, i.e. {u : p.u >= 0 for all p} != {0}
    if exactlp.cone_is_nontrivial(points, dim):
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
