"""Operator polynomials by int columns, for the gl_n and Y(2) display
checks and walks."""

import math

from .exact import OpPoly, lowest_terms


def poly_columns(poly: OpPoly):
    """poly by columns, as int polynomials in y = 2u: (cols, den), cols[c]
    the (row, [a_0, a_1, ...]) of column c, the entry sum_j a_j y^j / den."""
    d = len(poly.coeffs) - 1
    lcd = math.lcm(*(c.den for c in poly.coeffs))
    ent = {}
    for j, c in enumerate(poly.coeffs):
        f = lcd // c.den << d - j
        for key, v in c.num.items():
            ent.setdefault(key, [0] * (d + 1))[j] = v * f
    cols = {}
    for (r, c), cs in ent.items():
        cols.setdefault(c, []).append((r, cs))
    return cols, lcd << max(d, 0)


def poly_apply(table, vec, y=None):
    """poly(y / 2) vec, for the poly_columns table of poly and an int
    column vec, reduced; with y None, poly(u) vec as {(j, row): int} over a
    den, j the power of y = 2u.  Reads only the columns where vec is
    nonzero."""
    cols, den = table
    acc = {}
    for c, x in vec[0].items():
        for r, cs in cols.get(c, ()):
            if y is None:
                for j, a in enumerate(cs):
                    acc[j, r] = acc.get((j, r), 0) + a * x
            else:
                h = 0
                for a in reversed(cs):
                    h = h * y + a
                acc[r] = acc.get(r, 0) + h * x
    return lowest_terms(acc, vec[1] * den)
