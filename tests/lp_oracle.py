"""A Fraction simplex and the cone questions it answers: the test suite's
LP oracle for the closed-form cone and region routines of weylhull.

Everything is exact, so an open cone either admits margin 1 or margin 0,
and every answer can be compared with the library's for equality.
"""
from fractions import Fraction

from weylhull.exactlp import integer_rank, primitive_row


class UnboundedError(Exception):
    """The LP objective is unbounded above."""


def simplex_max(c, a, b):
    """Maximize c.x subject to a.x <= b, x >= 0, with b >= 0: Gauss-Jordan
    over Fraction with Bland's rule, so it terminates on any input.

    Returns (optimum, x); raises UnboundedError if the objective is
    unbounded.
    """
    m, n = len(a), len(c)
    if any(bi < 0 for bi in b):
        raise ValueError("simplex_max requires b >= 0")
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
            raise UnboundedError("unbounded objective")
        piv = tab[leave][enter]
        tab[leave] = [x / piv if x else x for x in tab[leave]]
        # the slack columns keep most entries zero; skipping them saves most
        # of the Fraction arithmetic
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y if y else x for x, y in zip(tab[i], tab[leave])]
        f = cost[enter]
        cost = [x - f * y if y else x for x, y in zip(cost, tab[leave])]
        basis[leave] = enter
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = tab[i][-1]
    return -cost[-1], x


def _max_margin(rows, margins, dim):
    """Maximize t subject to row.x >= margin * t for each row and t <= 1,
    over free x written as x+ - x-; returns (optimum, [x+, x-, t])."""
    a = [[-x for x in r] + list(r) + [m] for r, m in zip(rows, margins)]
    a.append([0] * (2 * dim) + [1])
    return simplex_max([0] * (2 * dim) + [1], a, [0] * len(rows) + [1])


def open_cone_point(rows, dim):
    """A point x with row.x > 0 for every row, or None if none exists.

    Decided by maximizing t subject to row.x >= t, t <= 1: the optimum is 1
    exactly when the open cone is nonempty (scale any strict point), else 0.
    """
    opt, x = _max_margin(rows, [1] * len(rows), dim)
    if opt <= 0:
        return None
    return [x[i] - x[dim + i] for i in range(dim)]


def cone_is_nontrivial(rows, dim):
    """Whether {x : row.x >= 0 for all rows} contains a nonzero point.

    Rows of rank below dim leave a kernel in the cone.  Otherwise the cone
    is pointed and nontrivial exactly when some point of it has row sum 1,
    which one LP decides.
    """
    rows = [primitive_row(r) for r in rows]
    if integer_rank(rows) < dim:
        return True
    total = [sum(col) for col in zip(*rows)]
    opt, _ = _max_margin(rows + [total], [0] * len(rows) + [1], dim)
    return opt > 0
