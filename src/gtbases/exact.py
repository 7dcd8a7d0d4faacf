"""Exact rational sparse linear algebra and operator-valued polynomials.

Everything downstream (representation matrices, lowering operators, quantum
minors) is built on top of the three types defined here: ``Rat`` (an alias of
``fractions.Fraction``), ``SparseMat`` and ``OpPoly``.  A ``SparseMat`` keeps
integer numerators over one common denominator; every value it hands out is a
``Fraction``.  Its products, sums and scalings, and those of ``OpPoly``, are
all calls of one int kernel, ``sum_products``.  No floating point arithmetic
is used anywhere in the package.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction

Rat = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def factorial(n) -> Fraction:
    """Exact n! as a Fraction.  n must be a nonnegative integer value."""
    f = Fraction(n)
    if f.denominator != 1 or f < 0:
        raise ValueError("factorial argument must be a nonnegative integer, got %r" % (n,))
    return Fraction(math.factorial(int(f)))


def _over_lcm(ent):
    """(num, den): the nonzero int or Fraction values of the dict ent as int
    numerators over the lcm of their denominators, which leaves them
    coprime to it."""
    den = math.lcm(*(v.denominator for v in ent.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in ent.items()}, den


class FractionView(Mapping):
    """Read-only ``{(row, col): Fraction}`` view of a ``SparseMat``.

    Each value is made on access from the integer numerator and the common
    denominator; ``len`` and membership read the numerators alone.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num, den):
        self._num = num
        self._den = den

    def __getitem__(self, key):
        return Fraction(self._num[key], self._den)

    def __contains__(self, key):
        return key in self._num

    def __iter__(self):
        return iter(self._num)

    def __len__(self):
        return len(self._num)

    def __repr__(self):
        return repr(dict(self.items()))


class SparseMat:
    """Immutable-by-convention sparse matrix over the rationals.

    The nonzero entries are stored as Python-int numerators ``num[(r, c)]``
    over one common denominator ``den > 0``, kept in lowest terms
    (``gcd(den, *num.values()) == 1``, and ``den == 1`` when the matrix is
    zero).  The form is unique, so equal matrices have equal ``num`` and
    ``den``.  Products and sums run on plain ints; ``entries``, ``get``,
    ``row_list``, ``col_vector`` and ``apply`` give ``Fraction``s.  All
    operations return new matrices.
    """

    __slots__ = ("nrows", "ncols", "num", "den")

    def __init__(self, nrows, ncols, entries=None):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimensions")
        self.nrows = nrows
        self.ncols = ncols
        ent = {}
        if entries:
            items = entries.items() if isinstance(entries, Mapping) else entries
            for (r, c), v in items:
                if not (0 <= r < nrows and 0 <= c < ncols):
                    raise IndexError("entry (%d, %d) out of range" % (r, c))
                v = Fraction(v)
                if v:
                    ent[(r, c)] = v
        self.num, self.den = _over_lcm(ent)

    @staticmethod
    def from_num(nrows, ncols, num, den=1):
        """The matrix num / den from int numerators (no zero values) and a
        positive int denominator, reduced to lowest terms.  Takes ownership
        of num."""
        if num and den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {k: v // g for k, v in num.items()}
                den //= g
        elif not num:
            den = 1
        return SparseMat._lowest(nrows, ncols, num, den)

    @staticmethod
    def _lowest(nrows, ncols, num, den):
        """The matrix num / den, which the caller knows to be in lowest terms."""
        out = SparseMat.__new__(SparseMat)
        out.nrows = nrows
        out.ncols = ncols
        out.num = num
        out.den = den
        return out

    @property
    def entries(self):
        """The nonzero entries as a read-only {(row, col): Fraction} view."""
        return FractionView(self.num, self.den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nrows, ncols):
        return SparseMat._lowest(nrows, ncols, {}, 1)

    @staticmethod
    def identity(n):
        return SparseMat._lowest(n, n, {(i, i): 1 for i in range(n)}, 1)

    @staticmethod
    def diag(values):
        vals = [Fraction(v) for v in values]
        return SparseMat._lowest(len(vals), len(vals),
                                 *_over_lcm({(i, i): v for i, v in enumerate(vals) if v}))

    @staticmethod
    def from_rows(rows):
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        ent = {}
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                if v:
                    ent[(r, c)] = v
        return SparseMat._lowest(nrows, ncols, *_over_lcm(ent))

    @staticmethod
    def from_columns(cols, nrows=None):
        if nrows is None:
            nrows = len(cols[0]) if cols else 0
        ent = {}
        for c, col in enumerate(cols):
            if len(col) > nrows and any(col[nrows:]):
                raise IndexError("column %d has a nonzero past row %d" % (c, nrows))
            for r, v in enumerate(col):
                if v:
                    ent[(r, c)] = v
        return SparseMat._lowest(nrows, len(cols), *_over_lcm(ent))

    @staticmethod
    def combination(nrows, ncols, terms):
        """Sum of c * m over the (scalar c, SparseMat m) pairs of terms."""
        return sum_products(nrows, ncols, [(c, m, None) for c, m in terms])

    # -- basic access ------------------------------------------------------

    def get(self, r, c) -> Fraction:
        v = self.num.get((r, c))
        return Fraction(v, self.den) if v else _ZERO

    def row_list(self, r):
        return [self.get(r, c) for c in range(self.ncols)]

    def col_vector(self, c):
        return tuple(self.get(r, c) for r in range(self.nrows))

    def to_rows(self):
        return [self.row_list(r) for r in range(self.nrows)]

    def is_zero(self) -> bool:
        return not self.num

    def nnz(self) -> int:
        return len(self.num)

    def __eq__(self, other):
        if not isinstance(other, SparseMat):
            return NotImplemented
        # both sides are in lowest terms, whose form is unique
        return ((self.nrows, self.ncols, self.den) == (other.nrows, other.ncols, other.den)
                and self.num == other.num)

    def __hash__(self):
        raise TypeError("SparseMat is not hashable")

    def __repr__(self):
        return "SparseMat(%d, %d, nnz=%d)" % (self.nrows, self.ncols, len(self.num))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return sum_products(self.nrows, self.ncols, ((1, self, None), (1, other, None)))

    def __sub__(self, other):
        return sum_products(self.nrows, self.ncols, ((1, self, None), (-1, other, None)))

    def __neg__(self):
        return SparseMat._lowest(self.nrows, self.ncols,
                                 {k: -v for k, v in self.num.items()}, self.den)

    def scale(self, a):
        return sum_products(self.nrows, self.ncols, ((Fraction(a), self, None),))

    def __mul__(self, a):
        return self.scale(a)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return sum_products(self.nrows, other.ncols, ((1, self, other),))

    def transpose(self):
        return SparseMat._lowest(self.ncols, self.nrows,
                                 {(c, r): v for (r, c), v in self.num.items()}, self.den)

    def apply(self, vec):
        """Matrix-vector product; vec is a sequence, result a tuple of
        Fractions."""
        if len(vec) != self.ncols:
            raise ValueError("vector length %d != ncols %d" % (len(vec), self.ncols))
        # the entries that meet a nonzero of vec, then those nonzeros as int
        # numerators over their least common denominator
        terms = []
        nz = {}
        for (r, c), v in self.num.items():
            x = vec[c]
            if x:
                terms.append((r, c, v))
                nz[c] = x
        vden = math.lcm(*(x.denominator for x in nz.values()))
        ivec = {c: x.numerator * (vden // x.denominator) for c, x in nz.items()}
        acc = {}
        for r, c, v in terms:
            acc[r] = acc.get(r, 0) + v * ivec[c]
        return column_fractions((acc, self.den * vden), self.nrows)


def sum_products(nrows, ncols, terms) -> SparseMat:
    """The nrows x ncols sum of c * (a @ b) over the (c, a, b) of terms, c an
    int or a Fraction; a term with b = None adds c * a.  Every term's shape
    is checked, also where c or an operand is zero.

    All terms go into one int accumulator over the lcm of c.den * a.den *
    b.den: the products row by row (Gustavson 1978), each right operand
    indexed by row once, the b = None terms on their (row, col) keys.  The
    sum is reduced once."""
    live = []
    den = 1
    for c, a, b in terms:
        if b is None:
            if a.nrows != nrows or a.ncols != ncols:
                raise ValueError("shape mismatch: %r in a %dx%d sum" % (a, nrows, ncols))
            d = c and a.num and c.denominator * a.den
        elif a.nrows != nrows or b.ncols != ncols or a.ncols != b.nrows:
            raise ValueError("shape mismatch: %r @ %r in a %dx%d sum" % (a, b, nrows, ncols))
        else:
            d = c and a.num and b.num and c.denominator * a.den * b.den
        if d:
            live.append((c.numerator, d, a, b))
            den = math.lcm(den, d)
    flat = {}
    rows = {}           # result row -> {col: numerator over den}
    by_rows = {}        # id of a right operand -> {row: [(col, numerator)]}
    for f, d, a, b in live:
        f *= den // d
        if b is None:
            if flat:
                get = flat.get
                for k, v in a.num.items():
                    flat[k] = get(k, 0) + f * v
            else:
                flat = dict(a.num) if f == 1 else {k: f * v for k, v in a.num.items()}
            continue
        by_row = by_rows.get(id(b))
        if by_row is None:
            by_row = by_rows[id(b)] = {}
            for (r, k), v in b.num.items():
                by_row.setdefault(r, []).append((k, v))
        for (r, k), v in a.num.items():
            row = by_row.get(k)
            if row:
                acc = rows.get(r)
                if acc is None:
                    acc = rows[r] = {}
                get = acc.get
                if f != 1:
                    v *= f
                for col, w in row:
                    acc[col] = get(col, 0) + v * w
    num = rows and {(r, col): v for r, acc in rows.items() for col, v in acc.items() if v}
    if flat:
        get = flat.get
        for k, v in num.items():
            flat[k] = get(k, 0) + v
        num = flat if len(live) == 1 else {k: v for k, v in flat.items() if v}
    return SparseMat.from_num(nrows, ncols, num, den)


def commutator(a: SparseMat, b: SparseMat) -> SparseMat:
    """[a, b] = a @ b - b @ a of square matrices of one size, in one pass
    over the entries of a: both products go into one int accumulator over
    a.den * b.den, reduced once."""
    n = a.nrows
    if (a.ncols, b.nrows, b.ncols) != (n, n, n):
        raise ValueError("commutator of non-square or mismatched matrices: %r, %r" % (a, b))
    rows_b, cols_b = {}, {}
    for (r, c), v in b.num.items():
        rows_b.setdefault(r, []).append((c, v))
        cols_b.setdefault(c, []).append((r, v))
    acc = {}
    get = acc.get
    for (r, k), v in a.num.items():
        # a[r, k] b[k, c] into (r, c), and b[s, r] a[r, k] out of (s, k)
        for c, w in rows_b.get(k, ()):
            key = (r, c)
            acc[key] = get(key, 0) + v * w
        for s, w in cols_b.get(r, ()):
            key = (s, k)
            acc[key] = get(key, 0) - v * w
    return SparseMat.from_num(n, n, {k: v for k, v in acc.items() if v}, a.den * b.den)


def chevalley_serre_check(cartan, e, f, roots, coroots) -> bool:
    """The Chevalley-Serre relations on module matrices: the Cartan basis
    H_c, the simple e_s and f_s, roots[s][c] = alpha_s(H_c) and the coroot
    h_s = sum_c coroots[s][c] H_c.  Checked: each H_c is diagonal and each
    nonzero entry (r, c) of e_s (f_s) has weight[r] - weight[c] = alpha_s
    (-alpha_s), which for diagonal H_c is [H_c, e_s] = alpha_s(H_c) e_s;
    and [e_s, f_t] = delta_st h_s.  By Serre's theorem (Humphreys 18.3)
    the matrices are the images of a representation exactly when these
    and the Serre relations ad(e_s)^(1 - a_st) e_t = 0 = ad(f_s)^(1 - a_st) f_t
    (s != t, a_st = 2 alpha_t(h_s) / alpha_s(h_s)) hold; for gl_n the extra
    central H acts with weight 0, so it commutes with every e_s and f_s.

    The Serre relations are not checked: on a finite-dimensional module
    they follow from the others.  With c = alpha_s(h_s), which the roots
    and coroots of a realization make nonzero, (2/c) e_s, f_s and
    (2/c) h_s form an sl_2-triple acting on End V by ad.  Take
    u = ad(f_s)^(1 - a_st) f_t.  As [e_s, f_t] = 0, ad e_s kills u, and u
    has ad((2/c) h_s)-weight a_st - 2 < 0.  In a finite-dimensional
    sl_2-module a nonzero vector killed by e has weight >= 0, so u = 0;
    the same argument with e and f exchanged gives the e relation."""
    dim = cartan[0].nrows if cartan else 0
    diags = []
    for h in cartan:
        if any(r != c for r, c in h.num):
            return False
        diags.append((h.den, {r: v for (r, _), v in h.num.items()}))

    def shifts_by(m, root, sign):
        for r, c in m.num:
            for (den, d), a in zip(diags, root):
                if d.get(r, 0) - d.get(c, 0) != sign * a * den:
                    return False
        return True

    for s in range(len(e)):
        if not (shifts_by(e[s], roots[s], 1) and shifts_by(f[s], roots[s], -1)):
            return False
    for s in range(len(e)):
        h = SparseMat.combination(dim, dim, zip(coroots[s], cartan))
        for t in range(len(f)):
            br = commutator(e[s], f[t])
            if (br != h) if s == t else not br.is_zero():
                return False
    return True


def kron(a: SparseMat, b: SparseMat) -> SparseMat:
    """Kronecker product, row/col index = i_a * nrows_b + i_b."""
    ent = {}
    for (ra, ca), va in a.num.items():
        for (rb, cb), vb in b.num.items():
            ent[(ra * b.nrows + rb, ca * b.ncols + cb)] = va * vb
    return SparseMat.from_num(a.nrows * b.nrows, a.ncols * b.ncols, ent, a.den * b.den)


# -- vectors (tuples of Fraction, and int columns) ---------------------------

def vec_unit(n, i):
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def column_apply(m: SparseMat, bad=()):
    """m as a function on int columns (num, den), {row: nonzero int} over
    den > 0 in lowest terms.  It reads only the columns of m where the
    vector is nonzero and raises ZeroDivisionError if one is in bad."""
    cols = {}
    for (r, c), v in m.num.items():
        cols.setdefault(c, []).append((r, v))

    def apply(vec):
        acc = {}
        get = acc.get
        for c, x in vec[0].items():
            if c in bad:
                raise ZeroDivisionError("vanishing Cartan denominator")
            for r, v in cols.get(c, ()):
                acc[r] = get(r, 0) + v * x
        return lowest_terms(acc, vec[1] * m.den)
    return apply


def lowest_terms(num, den):
    """The int dict num over den, in lowest terms."""
    g = math.gcd(den, *num.values())
    return {k: v // g for k, v in num.items() if v}, den // g


def column_fractions(vec, n):
    """The int column vec as a tuple of n Fractions."""
    out = [_ZERO] * n
    for r, v in vec[0].items():
        out[r] = Fraction(v, vec[1])
    return tuple(out)


def columns_matrix(cols, nrows) -> SparseMat:
    """The matrix of the int columns cols."""
    den = math.lcm(*(d for _, d in cols))
    return SparseMat.from_num(nrows, len(cols), {
        (r, c): v * (den // d) for c, (num, d) in enumerate(cols) for r, v in num.items()}, den)


def apply_words(start, words, operator, root=None):
    """The vectors w(start) for the words w, walked as a trie.

    A word is a sequence of hashable letters, the first acting first, and
    operator(letter) is the function a letter applies to a vector.  Each
    distinct prefix is applied once, and operator is called once per
    distinct letter.  root, if given, is the trie of earlier walks from the
    same start with the same operator; the walk extends it in place, so the
    prefixes they applied are not applied again."""
    ops = {}
    if root is None:
        root = {}   # letter -> (vector of the prefix ending here, subtrie)
    out = []
    for word in words:
        v, node = start, root
        for letter in word:
            if letter not in node:
                if letter not in ops:
                    ops[letter] = operator(letter)
                node[letter] = (ops[letter](v), {})
            v, node = node[letter]
        out.append(v)
    return out


def chain_sum(dim, start, indices, end, gen, pool, diff, den, memo=None):
    """The chain sum of a lowering operator and the columns where it is
    singular.

    The sum runs over the subsequences c of indices, taken in their order:
    the term of c is gen(start, c_1) @ gen(c_1, c_2) @ ... @ gen(c_s, end)
    times the diagonal prod_{j in pool, not in c} diff[j] over
    prod_{t in c, not in pool} diff[t], which acts first.  diff[j] is a list
    of int numerators over den, one per column.  Returns (matrix, bad): bad
    is the frozenset of columns where, for a nonzero monomial, a denominator
    vanishes under a nonzero numerator.  Where a term's denominator
    vanishes, the matrix leaves that term out.  The monomials are kept in
    memo (_monomial), which calls with one gen and end may share."""
    if memo is None:
        memo = {}
    chains = [()]
    for x in indices:
        chains += [c + (x,) for c in chains]
    terms = []
    bad = set()
    for c in chains:
        m = _monomial(memo, gen, (start,) + c + (end,))
        if m.is_zero():
            continue
        ups = [j for j in pool if j not in c]
        downs = [t for t in c if t not in pool]
        up = [math.prod(xs) for xs in zip([1] * dim, *(diff[j] for j in ups))]
        down = [math.prod(xs) for xs in zip([1] * dim, *(diff[t] for t in downs))]
        bad.update(col for col in range(dim) if up[col] and not down[col])
        # the factor at a column is up den^|downs| / (down den^|ups|)
        lcd = math.lcm(*(x for x in down if x))
        num = [u * (lcd // x) * den ** len(downs) if x else 0 for u, x in zip(up, down)]
        terms.append((1, scale_columns(m, num, lcd * den ** len(ups))))
    return SparseMat.combination(dim, dim, terms), frozenset(bad)


def scale_columns(m: SparseMat, num, den=1) -> SparseMat:
    """m @ diag(num) / den, num a list of ints, one per column."""
    return SparseMat.from_num(m.nrows, m.ncols, {
        (r, c): v * num[c] for (r, c), v in m.num.items() if num[c]}, m.den * den)


def _monomial(memo, gen, path):
    """gen(p_0, p_1) @ gen(p_1, p_2) @ ... over the path p, kept in memo with
    the products of its suffixes."""
    if path not in memo:
        memo[path] = gen(*path[:2]) @ _monomial(memo, gen, path[1:]) if path[2:] else gen(*path)
    return memo[path]


# -- exact elimination -------------------------------------------------------

def rref(rows):
    """Reduced row echelon form in place; returns list of pivot columns.

    Pivots are chosen in column order (smallest column first), scanning rows
    top to bottom, so the result is deterministic.  This is the dense
    reference; the library eliminates with ``SpanSolver``.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    prow = 0
    for pcol in range(ncols):
        sel = None
        for r in range(prow, nrows):
            if rows[r][pcol] != 0:
                sel = r
                break
        if sel is None:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        pv = rows[prow][pcol]
        rows[prow] = [x / pv for x in rows[prow]]
        for r in range(nrows):
            if r != prow and rows[r][pcol] != 0:
                f = rows[r][pcol]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[prow])]
        pivots.append(pcol)
        prow += 1
        if prow == nrows:
            break
    return pivots


def _columns(m: SparseMat):
    """Columns of den * m: the numerators, which have the same kernel and
    the same dependencies among columns as m."""
    cols = [[0] * m.nrows for _ in range(m.ncols)]
    for (r, c), v in m.num.items():
        cols[c][r] = v
    return cols


def nullspace(m: SparseMat):
    """Exact basis of the right kernel {v : m v = 0}.

    The basis is deterministic: one vector per dependent column j (in
    increasing column order), e_j minus the coefficients of column j over
    the columns before it; this is the basis read off the RREF.
    """
    solver = SpanSolver([], m.nrows)
    basis = []
    for j, col in enumerate(_columns(m)):
        coeffs = solver._add_or_solve(col)
        if coeffs is not None:
            basis.append(tuple([-c for c in coeffs] + [_ONE] + [_ZERO] * (m.ncols - j - 1)))
    return basis


def rank(m: SparseMat) -> int:
    solver = SpanSolver([], m.nrows)
    return sum(solver.add(col) for col in _columns(m))


def solve_in_span(basis_cols, target):
    """Write target as a combination of basis columns; None if impossible.

    basis_cols is a list of vectors (tuples); returns the coefficient tuple
    (dependent columns get 0).  One-shot form of ``SpanSolver``.
    """
    return SpanSolver(basis_cols, len(target)).solve(target)


class SpanSolver:
    """The elimination kernel: a factor-once solver over a list of basis
    columns, behind ``rank``, ``nullspace`` and ``solve_in_span``.

    Fraction-free, after Bareiss (1968): each column is scaled to integers
    once, by the lcm of its denominators, and reduced, in order, to an
    echelon basis of sparse integer rows ``[p, u, x, d]``.  ``u`` is a dict vector with
    content 1 and ``u[p] > 0`` that vanishes at the pivots of the rows
    before it, and ``d * u`` is the combination of the columns with the
    integer coefficients ``x`` (a dict over column indices), a record
    built by the first solve after the row is appended.  A reduction
    step against a row is ``res <- a * res - b * u`` with
    ``a / b = u[p] / res[p]`` in lowest terms.  A column that reduces to
    zero depends on the earlier ones and gets no row, so the rows use
    exactly the pivot columns of ``rref`` on the basis matrix, and
    ``solve(t)`` returns the coefficients ``rref`` gives; ``Fraction``s are
    made only for those coefficients.  Factoring
    costs O(k * nnz) per column and a solve one reduction of t against at
    most k sparse rows.
    """

    __slots__ = ("n", "ncols", "_rows", "_pending")

    def __init__(self, basis_cols, n):
        self.n = n
        self.ncols = 0
        self._rows = []
        self._pending = []      # (row, steps, k, s, j) of the rows without a record
        for col in basis_cols:
            self.add(col)

    def _reduce(self, vec):
        """Integer residual of vec against the rows.

        Returns (res, k, steps) with k * vec == res + (the sum of w * u over
        the rows the reduction used), where k is a positive int and the
        weights w are read off steps by ``_combine``.
        """
        if len(vec) != self.n:
            raise ValueError("vector length %d != %d" % (len(vec), self.n))
        nz = [(i, v) for i, v in enumerate(vec) if v]
        k = math.lcm(*(v.denominator for _, v in nz))
        res = {i: v.numerator * (k // v.denominator) for i, v in nz}
        steps = []
        for row in self._rows:
            p, u = row[0], row[1]
            f = res.get(p)
            if f:
                piv = u[p]
                g = math.gcd(piv, f)
                a, b = piv // g, f // g
                if a != 1:
                    res = {i: a * v for i, v in res.items()}
                    k *= a
                get = res.get
                for i, v in u.items():
                    w = get(i, 0) - b * v
                    if w:
                        res[i] = w
                    else:
                        del res[i]
                steps.append((row, a, b))
        return res, k, steps

    def _append(self, res, k, steps):
        """Count a reduced column; if it is independent (res is nonzero),
        append its row.  True iff a row was appended."""
        j = self.ncols
        self.ncols += 1
        if not res:
            return False
        p = min(res)
        s = math.gcd(*res.values())
        if res[p] < 0:
            s = -s
        if s != 1:
            res = {i: v // s for i, v in res.items()}
        row = [p, res, None, None]
        self._rows.append(row)
        self._pending.append((row, steps, k, s, j))
        return True

    def _records(self):
        """Build the records of the pending rows, in order: a row's
        reduction used only rows before it, whose records are built."""
        for row, steps, k, s, j in self._pending:
            acc, den = _combine(steps)
            # den * s * u == den * k * col_j - sum of acc[c] * col_c
            sign = 1 if s > 0 else -1
            x = {c: -sign * v for c, v in acc.items() if v}
            x[j] = sign * den * k
            d = den * abs(s)
            h = math.gcd(d, *x.values())
            if h != 1:
                x = {c: v // h for c, v in x.items()}
                d //= h
            row[2], row[3] = x, d
        self._pending.clear()

    def spans(self, vec) -> bool:
        """True iff vec lies in the span of the columns."""
        return not self._reduce(vec)[0]

    def add(self, col) -> bool:
        """Append col as the next basis column; True iff it is independent
        of the columns before it."""
        return self._append(*self._reduce(col))

    def _add_or_solve(self, col):
        """Append col as ``add`` does.  None if it is independent, else its
        coefficient tuple over the columns before it, from the same
        reduction that found it dependent."""
        res, k, steps = self._reduce(col)
        if self._append(res, k, steps):
            return None
        return self._coefficients(k, steps, self.ncols - 1)

    def solve(self, target):
        """Coefficient tuple of target over the columns; None if target is
        not in their span.  Dependent columns get coefficient 0."""
        res, k, steps = self._reduce(target)
        if res:
            return None
        return self._coefficients(k, steps, self.ncols)

    def _coefficients(self, k, steps, ncols):
        """Coefficients over ncols columns of a vector whose reduction
        (k, steps) left no residual."""
        self._records()
        acc, den = _combine(steps)
        den *= k
        coeffs = [_ZERO] * ncols
        for c, v in acc.items():
            if v:
                coeffs[c] = Fraction(v, den)
        return tuple(coeffs)


def _combine(steps):
    """(acc, den) with the sum of w * u over the rows of a reduction equal
    to the combination of the columns with coefficients acc / den.

    A step (row, a, b) scales the residual by a and subtracts b * u, so the
    row's weight is b times the scalings a of the steps after it.
    """
    den = math.lcm(*(row[3] for row, _, _ in steps))
    acc = {}
    get = acc.get
    later = 1
    for row, a, b in reversed(steps):
        f = b * later * (den // row[3])
        later *= a
        for c, v in row[2].items():
            acc[c] = get(c, 0) + f * v
    return acc, den


# -- scalar polynomials (coefficient lists, index = power of u) -------------

def spoly(doubled):
    """prod (u + r / 2) over the ints r of doubled, as int coefficient
    numerators over 2 ** len(doubled)."""
    p = [1]
    for r in doubled:
        p = [r * a + 2 * b for a, b in zip(p + [0], [0] + p)]
    return p


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

    @staticmethod
    def sum_products(nrows, ncols, terms) -> "OpPoly":
        """The sum of c(u) P(u) @ Q(u) over the (c, P, Q) of terms, c a scalar
        polynomial; a term with Q = None adds c(u) P(u).  Every term's shape
        is checked.  The coefficient of u**k is one ``sum_products`` over the
        c_i P_j @ Q_l with i + j + l = k."""
        powers = {}         # power of u -> terms of sum_products
        for c, p, q in terms:
            if ((p.nrows, p.ncols) != (nrows, ncols) if q is None
                    else (p.nrows, q.ncols, q.nrows) != (nrows, ncols, p.ncols)):
                raise ValueError("shape mismatch: %r @ %r in a %dx%d sum" % (p, q, nrows, ncols))
            qs = (None,) if q is None else q.coeffs
            for i, x in enumerate(c):
                if x:
                    for j, a in enumerate(p.coeffs):
                        for k, b in enumerate(qs, i + j):
                            powers.setdefault(k, []).append((x, a, b))
        return OpPoly(nrows, ncols, [sum_products(nrows, ncols, powers.get(k, ()))
                                     for k in range(max(powers, default=-1) + 1)])

    def __add__(self, other):
        return OpPoly.sum_products(self.nrows, self.ncols,
                                   [((1,), self, None), ((1,), other, None)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return OpPoly(self.nrows, self.ncols, [-c for c in self.coeffs])

    def scale(self, a):
        return OpPoly(self.nrows, self.ncols, [c.scale(a) for c in self.coeffs])

    def __matmul__(self, other):
        """Product; left factor coefficients stay on the left."""
        return OpPoly.sum_products(self.nrows, other.ncols, [((1,), self, other)])

    def shift_u(self, s):
        """Substitute u -> u + s for a scalar s."""
        s = Fraction(s)
        cs = self.coeffs
        return OpPoly(self.nrows, self.ncols, [
            sum_products(self.nrows, self.ncols,
                         [(math.comb(j, t) * s ** (j - t), cs[j], None) for j in range(t, len(cs))])
            for t in range(len(cs))])

    def negate_u(self):
        """Substitute u -> -u."""
        return OpPoly(self.nrows, self.ncols,
                      [c if j % 2 == 0 else -c for j, c in enumerate(self.coeffs)])

    def eval_at(self, u0) -> SparseMat:
        u0 = Fraction(u0)
        return sum_products(self.nrows, self.ncols,
                            [(u0 ** j, c, None) for j, c in enumerate(self.coeffs)])

    def eval_left(self, h: SparseMat) -> SparseMat:
        """Evaluate at a matrix argument, coefficients left of powers."""
        if h.nrows != h.ncols or h.ncols != self.ncols:
            raise ValueError("shape mismatch in eval_left")
        terms, hp = [], None
        for j, c in enumerate(self.coeffs):
            if j:
                hp = h if hp is None else hp @ h
            terms.append((1, c, hp))
        return sum_products(self.nrows, self.ncols, terms)

    def divide_linear(self, a, b) -> "OpPoly":
        """Exact division by the scalar polynomial (a*u + b); raises if inexact."""
        a, b = Fraction(a), Fraction(b)
        if not a:
            raise ZeroDivisionError
        out = []        # q_(j-1) = (c_j - b q_j) / a, then the remainder / a
        for c in reversed(self.coeffs):
            out.append(sum_products(self.nrows, self.ncols,
                                    [(1 / a, c, None)] + [(-b / a, q, None) for q in out[-1:]]))
        if out and not out.pop().is_zero():
            raise ArithmeticError("inexact division by linear factor")
        return OpPoly(self.nrows, self.ncols, out[::-1])

    def __repr__(self):
        return "OpPoly(%dx%d, deg=%d)" % (self.nrows, self.ncols, self.degree())
