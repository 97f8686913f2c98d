"""Exact rational linear algebra and a small simplex solver.

All region, cone and hull oracles in this package reduce to feasibility
questions of the form "maximize a slack margin subject to linear
inequalities".  Solving them on integer rows, scaled from the exact rational
input, removes every tolerance question: an open region either admits
margin 1 or margin 0, never 10^-9.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from typing import Sequence


class UnboundedError(Exception):
    """The LP objective is unbounded above (a formulation bug here)."""


def reduce_row(echelon: list, v: Sequence[int]) -> tuple[int, tuple[int, ...]] | None:
    """The row that the integer vector v adds to an echelon, or None when v
    lies in the echelon's span.

    The echelon is a list of (pivot column, integer row) pairs, each row
    zero before its pivot and at the pivots of the rows listed before it.
    Fraction-free elimination clears v at every pivot; what is left, divided
    by its gcd, pivots at its first nonzero column.  This is the package's
    one exact elimination: ranks, kernels and the Whitney sum all use it.
    """
    v = list(v)
    for col, row in echelon:
        b = v[col]
        if b:
            a = row[col]
            v = [a * x - b * y for x, y in zip(v, row)]
    g = math.gcd(*v)
    if g == 0:
        return None
    v = [x // g for x in v]
    return next(c for c, x in enumerate(v) if x), tuple(v)


def _echelon(rows: Sequence[Sequence[int]]) -> list:
    echelon = []
    for r in rows:
        step = reduce_row(echelon, r)
        if step is not None:
            echelon.append(step)
    return echelon


def primitive_row(row: Sequence) -> list[int]:
    """The rational row scaled to coprime integers; a zero row stays zero."""
    # ints and Fractions carry numerator and denominator already
    fr = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    lcm = math.lcm(*(x.denominator for x in fr))
    ints = [x.numerator * (lcm // x.denominator) for x in fr]
    g = math.gcd(*ints) or 1
    return [v // g for v in ints]


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix."""
    return len(_echelon(rows))


def fraction_rank(rows: Sequence[Sequence]) -> int:
    """Rank of a rational matrix (clears denominators row by row)."""
    return integer_rank([primitive_row(r) for r in rows])


def integer_nullspace(rows: Sequence[Sequence[int]], ncols: int) -> list[list[Fraction]]:
    """Kernel basis of an integer matrix, one vector per non-pivot column:
    1 there and 0 at the other non-pivot columns, as read off the reduced
    row echelon form."""
    echelon = _echelon(rows)
    pivots = {col for col, _ in echelon}
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        # each row is zero at the pivots of the rows before it, so solving
        # from the last row back fixes one pivot coordinate per row
        for col, row in reversed(echelon):
            x[col] = -sum(a * b for a, b in zip(row, x)) / row[col]
        basis.append(x)
    return basis


def simplex_max(c: Sequence, a: Sequence[Sequence], b: Sequence) -> tuple[Fraction, list[Fraction]]:
    """Maximize c.x subject to a.x <= b, x >= 0, with b >= 0.

    Returns (optimum, x).  Uses Bland's rule, so it terminates on any input;
    raises UnboundedError if the objective is unbounded.

    Tableau rows are coprime integer vectors, [a_i | e_i | b_i | 0] and the
    objective [c | 0 | 0 | 1] with its positive scale last.  Pivots clear the
    entering column with reduce_row, so each row stays a positive multiple of
    the Fraction tableau's row, with the same signs, ratios and pivots.
    """
    m, n = len(a), len(c)
    if any(bi < 0 for bi in b):
        raise ValueError("simplex_max requires b >= 0")
    rhs = n + m
    tab = [primitive_row([*a[i], *(int(i == j) for j in range(m)), b[i], 0]) for i in range(m)]
    cost = primitive_row([*c, *[0] * (m + 1), 1])
    basis = list(range(n, n + m))
    while True:
        enter = next((j for j in range(rhs) if cost[j] > 0), None)
        if enter is None:
            break
        eligible = [i for i, row in enumerate(tab) if row[enter] > 0]
        if not eligible:
            raise UnboundedError("unbounded objective")
        # least ratio rhs / entry, compared by cross-multiplication over the
        # positive entries; ties go to the least basic variable
        leave = min(eligible, key=cmp_to_key(
            lambda i, k: tab[i][rhs] * tab[k][enter] - tab[k][rhs] * tab[i][enter] or basis[i] - basis[k]))
        pivot = [(enter, tab[leave])]
        for i, row in enumerate(tab):
            if i != leave and row[enter]:
                tab[i] = reduce_row(pivot, row)[1]
        cost = reduce_row(pivot, cost)[1]
        basis[leave] = enter
    x = [Fraction(0)] * n
    for row, j in zip(tab, basis):
        if j < n:
            x[j] = Fraction(row[rhs], row[j])
    return Fraction(-cost[rhs], cost[-1]), x


def _max_margin(rows: Sequence, margins: Sequence[int], dim: int) -> tuple[Fraction, list[Fraction]]:
    """Maximize t subject to row.x >= margin * t for each row and t <= 1,
    over free x written as x+ - x-; returns (optimum, [x+, x-, t])."""
    a = [[-x for x in r] + list(r) + [m] for r, m in zip(rows, margins)]
    a.append([0] * (2 * dim) + [1])
    return simplex_max([0] * (2 * dim) + [1], a, [0] * len(rows) + [1])


def open_cone_point(rows: Sequence[Sequence], dim: int) -> list[Fraction] | None:
    """A point x with row.x > 0 for every row, or None if none exists.

    Decided by maximizing t subject to row.x >= t, t <= 1: the optimum is 1
    exactly when the open cone is nonempty (scale any strict point), else 0.
    """
    opt, x = _max_margin(rows, [1] * len(rows), dim)
    if opt <= 0:
        return None
    return [x[i] - x[dim + i] for i in range(dim)]


def cone_is_nontrivial(rows: Sequence[Sequence], dim: int) -> bool:
    """Whether {x : row.x >= 0 for all rows} contains a nonzero point."""
    # positive scaling leaves the cone as it is and makes the row sum exact
    rows = [primitive_row(r) for r in rows]
    if integer_rank(rows) < dim:
        return True
    # kernel trivial: ask for a point with row sums bounded away from zero
    total = [sum(col) for col in zip(*rows)]
    opt, _ = _max_margin(rows + [total], [0] * len(rows) + [1], dim)
    return opt > 0
