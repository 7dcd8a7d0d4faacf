"""The dict-of-``Fraction`` ``SparseMat``, its ``OpPoly`` and the
``Fraction`` ``SpanSolver``, kept verbatim as the references for the
differential tests of ``gtbases.exact``.

The library stores a matrix as integer numerators over one common
denominator and reduces integer-scaled echelon rows; these classes store
every nonzero entry as a ``Fraction``.

``vec_zero``, ``vec_add`` and ``vec_scale`` are the dense vector helpers
the library once summed combinations of vectors with; it now applies
``SparseMat.from_columns(vectors).apply(coefficients)``.

``entry_strings`` is the list form of a library matrix that the export
writer once built for every matrix; ``cli.write_export`` now writes a
``SparseMat`` straight from its numerators, and its test compares the two.

``matmul`` and ``combination`` are the forms of ``SparseMat.__matmul__``
and ``SparseMat.combination`` that reduced each product and each sum on
its own; the library sums every term into ``exact.sum_products``.
``sum_products`` and ``oppoly_sum_products`` are the readings of
``exact.sum_products`` and ``OpPoly.sum_products`` in the reference
classes, and ``to_ref``/``from_ref`` move a matrix or an operator polynomial between
the library and the reference classes.

``spoly_trim``, ``spoly_mul`` and ``spoly_from_roots`` are the ``Fraction``
scalar polynomials that ``exact.spoly`` (int numerators over one
denominator) replaced for every caller.

``int_column`` writes a tuple of ``Fraction``s as the int column that
``exact.column_apply`` applies tables to.

``divide_by_u`` is the division of a library ``OpPoly`` by u that only
the tests use, ``oppoly_mul_scalar_poly`` and ``oppoly_apply_to`` the
scalar-polynomial multiple of a library ``OpPoly`` and its coefficients
applied to a tuple of ``Fraction``s, methods of the library class until
its display checks moved to int columns, and ``vec_is_zero`` the zero test of a tuple of
``Fraction``s that the library's walks read before they moved to int
columns.

``chain_sum`` below is the form
``exact.chain_sum`` had before it shared suffix products, each chain's
monomial multiplied out from its start.

``commutator`` is the two-product form a @ b - b @ a; on library matrices
it is the reference for ``gtbases.exact.commutator``, which sums both
products in one pass.  ``from_rows`` and ``from_columns`` are the forms of
the library constructors that tested each entry with ``v != 0`` and built
the matrix through the ``Fraction`` constructor; the library now keeps the
int or ``Fraction`` entries as numerators over one lcm.
"""

from __future__ import annotations

import math
from fractions import Fraction

from gtbases import exact as _exact

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SparseMat:
    """Immutable-by-convention sparse matrix over Fraction.

    Only nonzero entries are stored, keyed by (row, col).  Do not mutate
    ``entries`` after construction; all operations return new matrices.
    """

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows, ncols, entries=None):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimensions")
        self.nrows = nrows
        self.ncols = ncols
        ent = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for (r, c), v in items:
                if not (0 <= r < nrows and 0 <= c < ncols):
                    raise IndexError("entry (%d, %d) out of range" % (r, c))
                v = Fraction(v)
                if v != 0:
                    ent[(r, c)] = v
        self.entries = ent

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nrows, ncols):
        return SparseMat(nrows, ncols)

    @staticmethod
    def identity(n):
        return SparseMat(n, n, {(i, i): _ONE for i in range(n)})

    @staticmethod
    def diag(values):
        vals = [Fraction(v) for v in values]
        return SparseMat(len(vals), len(vals), {(i, i): v for i, v in enumerate(vals)})

    @staticmethod
    def from_rows(rows):
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        ent = {}
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                v = Fraction(v)
                if v != 0:
                    ent[(r, c)] = v
        return SparseMat(nrows, ncols, ent)

    @staticmethod
    def column(vec):
        return SparseMat(len(vec), 1, {(i, 0): v for i, v in enumerate(vec) if v != 0})

    @staticmethod
    def from_columns(cols, nrows=None):
        if nrows is None:
            nrows = len(cols[0]) if cols else 0
        ent = {}
        for c, col in enumerate(cols):
            for r, v in enumerate(col):
                if v != 0:
                    ent[(r, c)] = Fraction(v)
        return SparseMat(nrows, len(cols), ent)

    # -- basic access ------------------------------------------------------

    def get(self, r, c) -> Fraction:
        return self.entries.get((r, c), _ZERO)

    def row_list(self, r):
        return [self.entries.get((r, c), _ZERO) for c in range(self.ncols)]

    def col_vector(self, c):
        return tuple(self.entries.get((r, c), _ZERO) for r in range(self.nrows))

    def to_rows(self):
        return [self.row_list(r) for r in range(self.nrows)]

    def is_zero(self) -> bool:
        return not self.entries

    def nnz(self) -> int:
        return len(self.entries)

    def __eq__(self, other):
        if not isinstance(other, SparseMat):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.entries == other.entries

    def __hash__(self):
        raise TypeError("SparseMat is not hashable")

    def __repr__(self):
        return "SparseMat(%d, %d, nnz=%d)" % (self.nrows, self.ncols, len(self.entries))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._require_shape(other)
        ent = dict(self.entries)
        for k, v in other.entries.items():
            w = ent.get(k, _ZERO) + v
            if w:
                ent[k] = w
            else:
                ent.pop(k, None)
        out = SparseMat(self.nrows, self.ncols)
        out.entries = ent
        return out

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        out = SparseMat(self.nrows, self.ncols)
        out.entries = {k: -v for k, v in self.entries.items()}
        return out

    def scale(self, a):
        a = Fraction(a)
        out = SparseMat(self.nrows, self.ncols)
        if a:
            out.entries = {k: a * v for k, v in self.entries.items()}
        return out

    def __mul__(self, a):
        return self.scale(a)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matmul: %r @ %r" % (self, other))
        by_row = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        ent = {}
        for (r, k), v in self.entries.items():
            for c, w in by_row.get(k, ()):
                key = (r, c)
                s = ent.get(key, _ZERO) + v * w
                if s:
                    ent[key] = s
                else:
                    ent.pop(key, None)
        out = SparseMat(self.nrows, other.ncols)
        out.entries = ent
        return out

    def transpose(self):
        out = SparseMat(self.ncols, self.nrows)
        out.entries = {(c, r): v for (r, c), v in self.entries.items()}
        return out

    def apply(self, vec):
        """Matrix-vector product; vec is a sequence, result a tuple."""
        if len(vec) != self.ncols:
            raise ValueError("vector length %d != ncols %d" % (len(vec), self.ncols))
        out = [_ZERO] * self.nrows
        for (r, c), v in self.entries.items():
            w = vec[c]
            if w:
                out[r] += v * w
        return tuple(out)

    def _require_shape(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch: %r vs %r" % (self, other))


def commutator(a: SparseMat, b: SparseMat) -> SparseMat:
    return a @ b - b @ a


def matmul(a, b):
    """``gtbases.exact.SparseMat.__matmul__`` as one product reduced on its
    own, before ``sum_products``."""
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch in matmul: %r @ %r" % (a, b))
    by_row = {}
    for (r, c), v in b.num.items():
        by_row.setdefault(r, []).append((c, v))
    rows = {}           # result row r -> {c: numerator}
    for (r, k), v in a.num.items():
        row = by_row.get(k)
        if row:
            acc = rows.get(r)
            if acc is None:
                acc = rows[r] = {}
            get = acc.get
            for c, w in row:
                acc[c] = get(c, 0) + v * w
    return _exact.SparseMat.from_num(
        a.nrows, b.ncols,
        {(r, c): v for r, acc in rows.items() for c, v in acc.items() if v},
        a.den * b.den)


def combination(nrows, ncols, terms):
    """``gtbases.exact.SparseMat.combination`` before ``sum_products``: the
    terms with a zero coefficient are dropped before the shape check."""
    terms = [(Fraction(c), m) for c, m in terms if c]
    for _, m in terms:
        if (m.nrows, m.ncols) != (nrows, ncols):
            raise ValueError("shape mismatch: %r in a %dx%d combination"
                             % (m, nrows, ncols))
    if len(terms) == 1:
        return terms[0][1].scale(terms[0][0])
    den = math.lcm(*(c.denominator * m.den for c, m in terms))
    ent = {}
    get = ent.get
    for c, m in terms:
        f = c.numerator * (den // (c.denominator * m.den))
        for k, v in m.num.items():
            ent[k] = get(k, 0) + f * v
    return _exact.SparseMat.from_num(nrows, ncols, {k: v for k, v in ent.items() if v}, den)


def sum_products(nrows, ncols, terms):
    """Sum of c * (a @ b) over the (c, a, b) of terms (b None adds c * a) on
    library matrices, formed in the dict-of-Fraction classes."""
    out = SparseMat.zero(nrows, ncols)
    for c, a, b in terms:
        x = to_ref(a) if b is None else to_ref(a) @ to_ref(b)
        out = out + x.scale(c)
    return from_ref(out)


def oppoly_sum_products(nrows, ncols, terms):
    """Sum of c(u) P(u) @ Q(u) over the (c, P, Q) of terms (Q None adds
    c(u) P(u)) on library polynomials, formed in the reference classes."""
    out = OpPoly(nrows, ncols, [])
    for c, p, q in terms:
        x = to_ref(p) if q is None else to_ref(p) @ to_ref(q)
        out = out + x.mul_scalar_poly(c)
    return from_ref(out)


def to_ref(m):
    """The reference twin of a library SparseMat or OpPoly."""
    if isinstance(m, _exact.OpPoly):
        return OpPoly(m.nrows, m.ncols, [to_ref(c) for c in m.coeffs])
    return SparseMat(m.nrows, m.ncols, dict(m.entries))


def from_ref(m):
    """The library twin of a reference SparseMat or OpPoly."""
    if isinstance(m, OpPoly):
        return _exact.OpPoly(m.nrows, m.ncols, [from_ref(c) for c in m.coeffs])
    return _exact.SparseMat(m.nrows, m.ncols, m.entries)


def from_rows(rows):
    """``gtbases.exact.SparseMat.from_rows`` through the Fraction path."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    ent = {}
    for r, row in enumerate(rows):
        if len(row) != ncols:
            raise ValueError("ragged rows")
        for c, v in enumerate(row):
            v = Fraction(v)
            if v != 0:
                ent[(r, c)] = v
    return _exact.SparseMat(nrows, ncols, ent)


def from_columns(cols, nrows=None):
    """``gtbases.exact.SparseMat.from_columns`` through the Fraction path."""
    if nrows is None:
        nrows = len(cols[0]) if cols else 0
    ent = {}
    for c, col in enumerate(cols):
        for r, v in enumerate(col):
            if v != 0:
                ent[(r, c)] = Fraction(v)
    return _exact.SparseMat(nrows, len(cols), ent)


def entry_strings(m):
    """The nonzero entries of a ``gtbases.exact.SparseMat`` m as
    [row, col, "p/q"] lists in position order, each in lowest terms: one
    gcd per entry, no Fraction made."""
    den = m.den
    out = []
    for (r, c), v in sorted(m.num.items()):
        g = math.gcd(v, den)
        out.append([r, c, "%d/%d" % (v // g, den // g)])
    return out


# -- vectors (plain tuples of Fraction) -------------------------------------

def vec_zero(n):
    return (_ZERO,) * n


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(a, u):
    a = Fraction(a)
    return tuple(a * x for x in u)


def spoly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def spoly_mul(p, q):
    if not p or not q:
        return []
    out = [_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return spoly_trim(out)


def spoly_from_roots(roots):
    """Product of (u + r) over the given values r."""
    p = [_ONE]
    for r in roots:
        p = spoly_mul(p, [Fraction(r), _ONE])
    return p


def chain_sum(dim, start, indices, end, gen, pool, diff, den):
    """exact.chain_sum with each chain's monomial multiplied out from its
    start, gen(start, c_1) @ gen(c_1, c_2) @ ..., for every chain."""
    chains = [()]
    for x in indices:
        chains += [c + (x,) for c in chains]
    terms = []
    bad = set()
    for c in chains:
        path = (start,) + c + (end,)
        mono = gen(start, path[1])
        for p, q in zip(path[1:], path[2:]):
            mono = mono @ gen(p, q)
        if mono.is_zero():
            continue
        ups = [j for j in pool if j not in c]
        downs = [t for t in c if t not in pool]
        up = [math.prod(xs) for xs in zip([1] * dim, *(diff[j] for j in ups))]
        down = [math.prod(xs) for xs in zip([1] * dim, *(diff[t] for t in downs))]
        bad.update(col for col in range(dim) if up[col] and not down[col])
        lcd = math.lcm(*(x for x in down if x))
        num = [u * (lcd // x) * den ** len(downs) if x else 0 for u, x in zip(up, down)]
        terms.append((1, _exact.SparseMat.from_num(
            dim, dim, {(r, col): v * num[col] for (r, col), v in mono.num.items() if num[col]},
            mono.den * lcd * den ** len(ups))))
    return _exact.SparseMat.combination(dim, dim, terms), frozenset(bad)


def int_column(vec):
    """The sequence vec of ints or Fractions as an int column (num, den) of
    exact.column_apply."""
    den = math.lcm(*(x.denominator for x in vec if x))
    return {c: x.numerator * (den // x.denominator) for c, x in enumerate(vec) if x}, den


def oppoly_mul_scalar_poly(poly, p):
    """p(u) poly(u) for the scalar polynomial p, on a library or a
    reference OpPoly."""
    if isinstance(poly, OpPoly):
        return poly.mul_scalar_poly(p)
    return _exact.OpPoly.sum_products(poly.nrows, poly.ncols, [(p, poly, None)])


def oppoly_apply_to(poly, vec):
    """The coefficients of the library OpPoly poly applied to vec, per power of u."""
    return [c.apply(vec) for c in poly.coeffs]


def vec_is_zero(u):
    return all(x == 0 for x in u)


def divide_by_u(p):
    """Exact division of a library OpPoly by u; raises if the constant term
    is nonzero."""
    if p.coeffs and not p.coeffs[0].is_zero():
        raise ArithmeticError("polynomial not divisible by u")
    return _exact.OpPoly(p.nrows, p.ncols, p.coeffs[1:])


def kron(a: SparseMat, b: SparseMat) -> SparseMat:
    """Kronecker product, row/col index = i_a * nrows_b + i_b."""
    ent = {}
    for (ra, ca), va in a.entries.items():
        for (rb, cb), vb in b.entries.items():
            ent[(ra * b.nrows + rb, ca * b.ncols + cb)] = va * vb
    return SparseMat(a.nrows * b.nrows, a.ncols * b.ncols, ent)


class OpPoly:
    """Polynomial in a formal variable u with SparseMat coefficients.

    coeffs[j] is the matrix coefficient of u**j; all coefficients share one
    shape.  Evaluation at a diagonal matrix argument keeps coefficients to
    the LEFT of the powers (see ``eval_left``), which is the convention used
    throughout for substituting Cartan elements for u.
    """

    __slots__ = ("nrows", "ncols", "coeffs")

    def __init__(self, nrows, ncols, coeffs=()):
        self.nrows = nrows
        self.ncols = ncols
        cs = list(coeffs)
        for c in cs:
            if (c.nrows, c.ncols) != (nrows, ncols):
                raise ValueError("coefficient shape mismatch")
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = cs

    @staticmethod
    def from_scalar_poly(p, n):
        ident = SparseMat.identity(n)
        return OpPoly(n, n, [ident.scale(c) for c in p])

    @staticmethod
    def constant(m: SparseMat):
        return OpPoly(m.nrows, m.ncols, [m])

    @staticmethod
    def variable(n):
        """The polynomial u * Id of size n."""
        return OpPoly(n, n, [SparseMat.zero(n, n), SparseMat.identity(n)])

    def degree(self):
        return len(self.coeffs) - 1

    def coeff(self, j) -> SparseMat:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return SparseMat.zero(self.nrows, self.ncols)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, OpPoly):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.coeffs == other.coeffs

    def __hash__(self):
        raise TypeError("OpPoly is not hashable")

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for j in range(n):
            out.append(self.coeff(j) + other.coeff(j))
        return OpPoly(self.nrows, self.ncols, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return OpPoly(self.nrows, self.ncols, [-c for c in self.coeffs])

    def scale(self, a):
        return OpPoly(self.nrows, self.ncols, [c.scale(a) for c in self.coeffs])

    def __matmul__(self, other):
        """Product; left factor coefficients stay on the left."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        if self.is_zero() or other.is_zero():
            return OpPoly(self.nrows, other.ncols, [])
        out = [SparseMat.zero(self.nrows, other.ncols)
               for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a @ b
        return OpPoly(self.nrows, other.ncols, out)

    def mul_scalar_poly(self, p):
        out = OpPoly(self.nrows, self.ncols, [])
        for j, c in enumerate(p):
            if c:
                shifted = [SparseMat.zero(self.nrows, self.ncols)] * j + [m.scale(c) for m in self.coeffs]
                out = out + OpPoly(self.nrows, self.ncols, shifted)
        return out

    def shift_u(self, s):
        """Substitute u -> u + s for a scalar s."""
        s = Fraction(s)
        d = self.degree()
        if d < 0:
            return self
        out = [SparseMat.zero(self.nrows, self.ncols) for _ in range(d + 1)]
        for j, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            # (u + s)^j expanded by binomials
            pw = _ONE
            for t in range(j, -1, -1):
                out[t] = out[t] + c.scale(math.comb(j, j - t) * pw)
                pw *= s
        return OpPoly(self.nrows, self.ncols, out)

    def negate_u(self):
        """Substitute u -> -u."""
        return OpPoly(self.nrows, self.ncols,
                      [c if j % 2 == 0 else -c for j, c in enumerate(self.coeffs)])

    def eval_at(self, u0) -> SparseMat:
        u0 = Fraction(u0)
        acc = SparseMat.zero(self.nrows, self.ncols)
        pw = _ONE
        for c in self.coeffs:
            acc = acc + c.scale(pw)
            pw *= u0
        return acc

    def eval_left(self, h: SparseMat) -> SparseMat:
        """Evaluate at a matrix argument, coefficients left of powers."""
        if h.nrows != h.ncols or h.ncols != self.ncols:
            raise ValueError("shape mismatch in eval_left")
        acc = SparseMat.zero(self.nrows, self.ncols)
        hp = SparseMat.identity(h.nrows)
        for j, c in enumerate(self.coeffs):
            if j > 0:
                hp = hp @ h
            acc = acc + c @ hp
        return acc

    def divide_by_u(self) -> "OpPoly":
        """Exact division by u; raises if the constant term is nonzero."""
        if self.coeffs and not self.coeffs[0].is_zero():
            raise ArithmeticError("polynomial not divisible by u")
        return OpPoly(self.nrows, self.ncols, self.coeffs[1:])

    def divide_linear(self, a, b) -> "OpPoly":
        """Exact division by the scalar polynomial (a*u + b); raises if inexact."""
        a = Fraction(a)
        b = Fraction(b)
        if a == 0:
            raise ZeroDivisionError
        rem = list(self.coeffs)
        out = [SparseMat.zero(self.nrows, self.ncols) for _ in range(max(len(rem) - 1, 0))]
        for j in range(len(rem) - 1, 0, -1):
            q = rem[j].scale(1 / a)
            out[j - 1] = q
            rem[j] = SparseMat.zero(self.nrows, self.ncols)
            rem[j - 1] = rem[j - 1] - q.scale(b)
        if rem and not rem[0].is_zero():
            raise ArithmeticError("inexact division by linear factor")
        return OpPoly(self.nrows, self.ncols, out)

    def apply_to(self, vec):
        """Apply to a vector: list of vector coefficients per power of u."""
        return [c.apply(vec) for c in self.coeffs]

    def __repr__(self):
        return "OpPoly(%dx%d, deg=%d)" % (self.nrows, self.ncols, self.degree())


class SpanSolver:
    """The elimination kernel: a factor-once solver over a list of basis
    columns, behind ``rank``, ``nullspace`` and ``solve_in_span``.

    The columns are reduced, in order, to an echelon basis of sparse rows
    ``(p, u, x)``: ``u`` is a dict vector with ``u[p] == 1`` that vanishes
    at the pivots of the rows before it, and ``x`` (a dict over column
    indices) writes ``u`` as a combination of the columns.  A column that
    reduces to zero depends on the earlier ones and gets no row, so the
    rows use exactly the pivot columns of ``rref`` on the basis matrix, and
    ``solve(t)`` returns the coefficients ``rref`` gives.  Factoring costs
    O(k * nnz) per column and a solve one reduction of t against at most k
    sparse rows.
    """

    __slots__ = ("n", "ncols", "_rows", "_pivot")

    def __init__(self, basis_cols, n):
        self.n = n
        self.ncols = 0
        self._rows = []
        self._pivot = None
        for col in basis_cols:
            self.add(col)

    def _reduce(self, vec):
        """Residual of vec against the rows and the factor of each row."""
        if len(vec) != self.n:
            raise ValueError("vector length %d != %d" % (len(vec), self.n))
        res = {i: v for i, v in enumerate(vec) if v}
        factors = []
        for p, u, _ in self._rows:
            f = res.get(p)
            factors.append(f)
            if f:
                for i, v in u.items():
                    w = res.get(i, _ZERO) - f * v
                    if w:
                        res[i] = w
                    else:
                        del res[i]
        return res, factors

    def spans(self, vec) -> bool:
        """True iff vec lies in the span of the columns."""
        return not self._reduce(vec)[0]

    def add(self, col) -> bool:
        """Append col as the next basis column; True iff it is independent
        of the columns before it."""
        res, factors = self._reduce(col)
        j = self.ncols
        self.ncols += 1
        if not res:
            return False
        p = min(res)
        self._pivot = (p, res[p])
        inv = _ONE / res[p]
        x = {j: inv}
        for f, (_, _, xr) in zip(factors, self._rows):
            if f:
                g = f * inv
                for c, v in xr.items():
                    x[c] = x.get(c, _ZERO) - g * v
        self._rows.append((p, {i: v * inv for i, v in res.items()}, x))
        return True

    @property
    def last_pivot(self):
        """(row, value) of the pivot of the row ``add`` appended last: its
        first nonzero position and the residual entry there before scaling
        to 1.  None while no column has been independent."""
        return self._pivot

    def solve(self, target):
        """Coefficient tuple of target over the columns; None if target is
        not in their span.  Dependent columns get coefficient 0."""
        res, factors = self._reduce(target)
        if res:
            return None
        coeffs = [_ZERO] * self.ncols
        for f, (_, _, x) in zip(factors, self._rows):
            if f:
                for c, v in x.items():
                    coeffs[c] += f * v
        return tuple(coeffs)
