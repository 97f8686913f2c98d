"""Exact integer linear algebra.

Ranks, kernels and the Whitney sum share one fraction-free elimination on
integer rows, scaled from the exact rational input, so no question here has
a tolerance.  ``lines`` lists the finitely many lines on which dim - 1
independent rows vanish: the only places a pointed cone {x : row.x >= 0}
can have an extreme ray (Minkowski-Weyl).
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence


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


def integer_nullspace(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Kernel basis of an integer matrix, one primitive integer vector per
    non-pivot column: positive there and 0 at the other non-pivot columns,
    the reduced row echelon form's vector scaled to coprime integers."""
    echelon = _echelon(rows)
    pivots = {col for col, _ in echelon}
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        x = [0] * ncols
        x[free] = 1
        # each row is zero at the pivots of the rows before it, so solving
        # from the last row back fixes one pivot coordinate per row; scaling
        # x by |a| / gcd(s, a) first makes the division exact and keeps the
        # entries coprime
        for col, row in reversed(echelon):
            s = sum(a * b for a, b in zip(row, x))
            a = row[col]
            g = math.gcd(s, a)
            x = [v * (abs(a) // g) for v in x]
            x[col] = -s // g if a > 0 else s // g
        basis.append(x)
    return basis


def lines(rows: Sequence[Sequence[int]], dim: int) -> list[tuple[int, ...]]:
    """The lines on which dim - 1 independent integer rows vanish, each once,
    as the primitive vector integer_nullspace gives it."""
    found = {}
    for subset in itertools.combinations(rows, dim - 1):
        kernel = integer_nullspace(subset, dim)
        if len(kernel) == 1:
            found[tuple(kernel[0])] = None
    return list(found)


def signs(rows: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    """The sign of row.v for each row."""
    dots = (sum(a * b for a, b in zip(r, v)) for r in rows)
    return tuple((s > 0) - (s < 0) for s in dots)

