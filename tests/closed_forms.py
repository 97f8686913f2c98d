"""Closed forms of the three reflection types, as oracles for what the
records derive from their roots and walls: the group orders, the lineality,
the asymptotic scale u and the explicit mirror lists, in the order the
arrangements list them."""
import itertools
import math

#: |W| of A_{n-1}, B_n and D_n acting on R^n
ORDERS = {
    "A": math.factorial,
    "B": lambda n: 2**n * math.factorial(n),
    "D": lambda n: 2 ** (n - 1) * math.factorial(n),
}
#: dimension of the chamber's lineality space: the line R(1, ..., 1) for A
LINEALITY = {"A": 1, "B": 0, "D": 0}
#: the absorption transition sits at d = u log n
U = {"A": 1.0, "B": 0.5, "D": 0.5}


def pairs(n: int, sign: int) -> list[tuple[int, ...]]:
    """e_i + sign * e_j for i < j, in lexicographic order of (i, j)."""
    out = []
    for i, j in itertools.combinations(range(n), 2):
        v = [0] * n
        v[i], v[j] = 1, sign
        out.append(tuple(v))
    return out


def units(n: int) -> list[tuple[int, ...]]:
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


#: mirror normals in R^n: e_i - e_j for A; e_i and e_i +- e_j for B;
#: e_i +- e_j for D
MIRRORS = {
    "A": lambda n: pairs(n, -1),
    "B": lambda n: units(n) + pairs(n, -1) + pairs(n, 1),
    "D": lambda n: pairs(n, -1) + pairs(n, 1),
}


def family_order(factors) -> int:
    """The group order of a product chamber: the product of its factors'."""
    return math.prod(ORDERS[t.name](n) for t, n in factors)
