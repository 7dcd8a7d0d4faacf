"""Irreducible gl_n modules in the Gelfand-Tsetlin basis.

``build_irrep`` realizes the generators E_{k,k+1}, E_{k+1,k}, E_{kk} by the
classical matrix-element formulas on the pattern basis; everything else
(lowering operators, Capelli determinant, quantum minors, step operators on
pattern rows, characteristic identities) is realized as exact matrices or
operator polynomials on top of those.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm, prod

from .exact import (OpPoly, SparseMat, apply_words, chain_sum, chevalley_serre_check,
                    column_apply, column_fractions, commutator, kron, spoly, sum_products,
                    vec_unit)
from .polycolumns import poly_apply, poly_columns
from .patterns import GTPatternA, enumerate_patterns, weight
from . import patterns as _patterns


class GlnIrrep:
    """Constructed irreducible gl_n module with exact generator matrices.

    Near-diagonal generators are stored; general E_ij are derived through
    commutators on demand and cached, as are the quantum minors and the
    shift-neighbour table.  Basis order is the canonical pattern order, so
    index 0 is the highest vector.
    """

    def __init__(self, n, lam, basis, gens, normsq):
        self.n = n
        self.lam = tuple(lam)
        self.basis = basis
        self.index = {p: i for i, p in enumerate(basis)}
        self.dim = len(basis)
        self.normsq = normsq
        self._gen = dict(gens)
        self._lowering = {}
        self._minors = {}           # (rows, cols) -> quantum minor, see _minor
        self._shift_table = None

    def gen(self, i, j) -> SparseMat:
        """Matrix of E_ij (1-based indices)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError("generator index out of range")
        key = (i, j)
        if key not in self._gen:
            self._gen[key] = self._bracket(i, j)
        return self._gen[key]

    def _bracket(self, i, j) -> SparseMat:
        """The bracket that defines E_ij for |i - j| > 1, one step from
        the diagonal: [E_i,j-1, E_j-1,j] above it, [E_i,i-1, E_i-1,j]
        below."""
        if i < j:
            return commutator(self.gen(i, j - 1), self.gen(j - 1, j))
        return commutator(self.gen(i, i - 1), self.gen(i - 1, j))

    @property
    def highest_index(self):
        return 0

    def h_matrix(self, i) -> SparseMat:
        """Diagonal matrix of h_i = E_ii - i + 1."""
        return self.gen(i, i) + SparseMat.identity(self.dim).scale(1 - i)

    @property
    def shift_table(self):
        """The shift-neighbour table {(k, i, e): column}, 1 <= i <= k < n,
        e = +-1: column[t] is the index of basis[t] with lambda_ki moved by
        2e (doubled units), or None when that array is not a pattern.

        Every pattern has the top row lam, so a shifted array with k < n is
        a pattern exactly when it is in the basis: the table is one dict
        lookup per entry, with no pattern built and none validated."""
        if self._shift_table is None:
            n = self.n
            at = {p.rows: t for t, p in enumerate(self.basis)}
            table = {(k, i, e): [] for k in range(1, n) for i in range(1, k + 1)
                     for e in (1, -1)}
            for p in self.basis:
                rows = p.rows
                for k in range(1, n):
                    row = rows[n - k]
                    for i in range(k):
                        for e in (1, -1):
                            moved = row[:i] + (row[i] + 2 * e,) + row[i + 1:]
                            table[(k, i + 1, e)].append(
                                at.get(rows[:n - k] + (moved,) + rows[n - k + 1:]))
            self._shift_table = table
        return self._shift_table

    def __repr__(self):
        return "GlnIrrep(n=%d, lam=%s, dim=%d)" % (self.n, self.lam, self.dim)


def _doubled_lvals(row):
    """Doubled l-values 2 l_ki = lambda_ki - 2(i - 1) of a pattern row."""
    return [x - 2 * i for i, x in enumerate(row)]


def _l_poly(row):
    """prod_i (u + l_ki) over a pattern row, as (int numerators, their den)."""
    return spoly(_doubled_lvals(row)), 2 ** len(row)


def build_irrep(n, lam) -> GlnIrrep:
    """Construct L(lam) for gl_n; lam is a doubled dominant weight.

    The matrix elements are ratios of int products of doubled l-values L:
    E_{k,k+1} moves lambda_ki up with the coefficient
    -prod_j (L_ki - L_{k+1,j}) / (4 prod_{j != i} (L_ki - L_kj)) and
    E_{k+1,k} moves it down with prod_j (L_ki - L_{k-1,j}) /
    prod_{j != i} (L_ki - L_kj); the neighbours come from ``shift_table``.
    Each matrix is made from int numerators over the lcm of its entries'
    denominators, with no Fraction per entry."""
    lam = _patterns.check_dominant("A", tuple(lam))
    if len(lam) != n:
        raise ValueError("weight length != n")
    basis = enumerate_patterns("A", lam)
    dim = len(basis)
    rep = GlnIrrep(n, lam, basis, {}, norms_of_patterns(basis))
    table = rep.shift_table
    gens = rep._gen

    weights = [weight(p) for p in basis]
    for k in range(1, n + 1):
        gens[(k, k)] = SparseMat.from_num(
            dim, dim, {(t, t): w[k - 1] for t, w in enumerate(weights) if w[k - 1]}, 2)

    # ls[t][k - 1]: the doubled l-values of row k of pattern t
    ls = [[_doubled_lvals(row) for row in reversed(p.rows)] for p in basis]
    for k in range(1, n):
        up = []     # ((row, col), numerator, denominator) per entry
        down = []
        for t, lt in enumerate(ls):
            lk, lk1 = lt[k - 1], lt[k]
            lkm = lt[k - 2] if k > 1 else ()
            for i, x in enumerate(lk, 1):
                # the entries of a row of l-values are distinct
                den = prod(x - y for y in lk if y != x)
                s = table[(k, i, 1)][t]
                if s is not None:
                    num = prod(x - y for y in lk1)
                    if num:
                        up.append(((s, t), -num, 4 * den))
                s = table[(k, i, -1)][t]
                if s is not None:
                    num = prod(x - y for y in lkm)
                    if num:
                        down.append(((s, t), num, den))
        gens[(k, k + 1)] = _from_ratios(dim, up)
        gens[(k + 1, k)] = _from_ratios(dim, down)
    return rep


def _from_ratios(dim, entries):
    """The dim x dim matrix with the entry p / q at each (key, p, q) of
    entries, from int numerators over the lcm of the qs."""
    den = lcm(*(q for _, _, q in entries))
    return SparseMat.from_num(dim, dim, {key: p * (den // q) for key, p, q in entries}, den)


def norms_of_patterns(basis):
    """Squared norms N_Lambda by the double-product factorial formula.

    The entries of a pattern have uniform parity, so every factorial
    argument is an integer: each norm is one Fraction of two int products.
    """
    out = []
    for p in basis:
        num = den = 1
        for k in range(2, p.n + 1):
            # doubled l_{ki}; the difference of two of them is even
            lk = _doubled_lvals(p.row(k))
            lk1 = _doubled_lvals(p.row(k - 1))
            for i in range(k - 1):
                for j in range(i, k - 1):
                    num *= factorial((lk[i] - lk1[j]) // 2)
                    den *= factorial((lk1[i] - lk1[j]) // 2)
            for i in range(k):
                for j in range(i + 1, k):
                    num *= factorial((lk[i] - lk[j]) // 2 - 1)
                    den *= factorial((lk1[i] - lk[j]) // 2 - 1)
        out.append(Fraction(num, den))
    return out


# ---------------------------------------------------------------------------
# lowering and raising operators
# ---------------------------------------------------------------------------

def lowering_operator(rep: GlnIrrep, i, kind="lowering", m=None) -> SparseMat:
    """Matrix of z_{mi} (kind="lowering") or z_{im} (kind="raising").

    m defaults to rep.n; smaller m gives the operator of the subalgebra
    gl_m, used when assembling basis vectors level by level.  The Cartan
    factors h_i - h_j act first (they are written to the right).
    """
    if m is None:
        m = rep.n
    if not (1 <= i < m <= rep.n):
        raise IndexError("need 1 <= i < m <= n")
    key = (kind, i, m)
    if key in rep._lowering:
        return rep._lowering[key]
    # raising: E_{i t1} E_{t1 t2} ... E_{tk m} over descending chains;
    # lowering: E_{t1 i} E_{t2 t1} ... E_{m tk} over ascending ones
    if kind == "raising":
        pool, gen = range(i - 1, 0, -1), rep.gen
    elif kind == "lowering":
        pool, gen = range(i + 1, m), lambda p, q: rep.gen(q, p)
    else:
        raise ValueError("kind must be 'lowering' or 'raising'")
    hi = rep.h_matrix(i)
    hs = {j: hi - rep.h_matrix(j) for j in pool}
    den = lcm(*(h.den for h in hs.values()))
    diff = {j: [h.num.get((r, r), 0) * (den // h.den) for r in range(rep.dim)]
            for j, h in hs.items()}
    rep._lowering[key] = chain_sum(rep.dim, i, pool, m, gen, pool, diff, den)[0]
    return rep._lowering[key]


def basis_via_lowering(rep: GlnIrrep, columns=False):
    """Vectors z_{k1}^.. z_{k,k-1}^.. applied to the highest vector, per
    pattern, with the level-n factors acting first, walked on int columns;
    with columns, those are returned."""
    words = []
    for p in rep.basis:
        word = []
        for k in range(rep.n, 1, -1):
            for i in range(k - 1, 0, -1):
                word += [(i, k)] * ((p.entry(k, i) - p.entry(k - 1, i)) // 2)
        words.append(word)
    cols = apply_words(({rep.highest_index: 1}, 1), words, lambda letter: column_apply(
        lowering_operator(rep, letter[0], "lowering", m=letter[1])))
    return cols if columns else [column_fractions(c, rep.dim) for c in cols]


def l_plus_indices(rep: GlnIrrep):
    """Basis of the gl_{n-1}-highest subspace: (mu, pattern index) pairs.

    The vector for mu is the pattern with row n-1 equal to mu and all lower
    rows top-aligned to mu.
    """
    from .branching import branch_A

    out = []
    for mu in branch_A(rep.lam):
        rows = [rep.lam, mu] if rep.n >= 2 else [rep.lam]
        for k in range(rep.n - 2, 0, -1):
            rows.append(mu[:k])
        p = GTPatternA(tuple(tuple(r) for r in rows))
        out.append((mu, rep.index[p]))
    return out


def l_plus_matrix(rep: GlnIrrep) -> SparseMat:
    """Columns are the coordinate vectors spanning L(lam)^+."""
    cols = [idx for _, idx in l_plus_indices(rep)]
    return SparseMat(rep.dim, len(cols), {(idx, c): Fraction(1) for c, idx in enumerate(cols)})


# ---------------------------------------------------------------------------
# quantum minors, Capelli determinant, Drinfeld generators
# ---------------------------------------------------------------------------

def quantum_minor(rep: GlnIrrep, rows, cols) -> OpPoly:
    """Quantum minor of E(u) in its column-ordered expansion

        sum_p sgn(p) E(u)_{rows[p(1)], cols[1]} ... E(u - s + 1)_{rows[p(s)], cols[s]}

    (rows and cols taken in the given order).  The row-ordered expansion is
    the same polynomial (Molev, Yangians and classical Lie algebras, 2007,
    section 1.6); the tests check that.

    It is a Laplace expansion along the last column: each sub-minor sits on
    the rows less one and the column prefix cols[:s - 1], with the shifts
    0, ..., -(s - 2), so it is itself a quantum minor.  Minors are memoized
    on the rep, keyed by (rows, cols) in the given order, so A_m, B_m, C_m,
    the Capelli determinant and the tau polynomials share their sub-minors
    and each distinct minor is expanded once per module."""
    rows = tuple(rows)
    cols = tuple(cols)
    if not rows or len(rows) != len(cols):
        raise ValueError("row and column sets must be nonempty and of equal size")
    return _minor(rep, rows, cols)


def _minor(rep, rows, cols) -> OpPoly:
    """The quantum minor on the row and column tuples, from the memo."""
    key = (rows, cols)
    out = rep._minors.get(key)
    if out is None:
        out = rep._minors[key] = _expand_last_column(rep, rows, cols)
    return out


def _expand_last_column(rep, rows, cols) -> OpPoly:
    """sum_a (-1)^(s - a) M_a(u) E(u - s + 1)_{rows[a], cols[s]}, with M_a
    the minor on the rows without rows[a] and the first s - 1 columns, as
    one ``OpPoly.sum_products``."""
    s = len(rows)
    d = rep.dim
    c = cols[-1]
    if s == 1:
        return OpPoly(d, d, [rep.gen(rows[0], c)] + [SparseMat.identity(d)] * (rows[0] == c))
    terms = []
    for a, r in enumerate(rows):
        sign = -1 if (s - 1 - a) % 2 else 1
        m = _minor(rep, rows[:a] + rows[a + 1:], cols[:-1])
        terms.append(((sign,), m, OpPoly.constant(rep.gen(r, c))))
        if r == c:
            terms.append(((sign * (1 - s), sign), m, None))
    return OpPoly.sum_products(d, d, terms)


def capelli_det(rep: GlnIrrep, m=None) -> OpPoly:
    """Column-shifted determinant of the top-left m x m block of u + E."""
    if m is None:
        m = rep.n
    idx = tuple(range(1, m + 1))
    return quantum_minor(rep, idx, idx)


def capelli_scalar_check(rep: GlnIrrep) -> bool:
    """C(u) acts on every basis vector as prod(u + l_i)."""
    return _acts_diagonally(capelli_det(rep), [_l_poly(rep.lam)] * rep.dim)


def _acts_diagonally(poly: OpPoly, scalars) -> bool:
    """poly(u) acts on basis vector t as the scalar polynomial with int
    coefficients w over d, (w, d) = scalars[t]: num_tt d = w_j den on the
    diagonal coefficient matrices num/den."""
    for j in range(max(len(poly.coeffs), max(len(w) for w, _ in scalars))):
        c = poly.coeff(j)
        num, den = c.num, c.den
        if any(r != col for r, col in num):
            return False
        for t, (w, d) in enumerate(scalars):
            if num.get((t, t), 0) * d != (w[j] if j < len(w) else 0) * den:
                return False
    return True


def _eval_left_on(poly: OpPoly, h: SparseMat, cols: SparseMat) -> SparseMat:
    """poly.eval_left(h) @ cols, formed as sum_j c_j @ (h^j @ cols).

    Exact arithmetic and the unique lowest-terms form of a SparseMat make
    the two equal, and every product here has only the columns of cols."""
    terms, hp = [], cols
    for j, c in enumerate(poly.coeffs):
        if j:
            hp = h @ hp
        terms.append((1, c, hp))
    return sum_products(poly.nrows, cols.ncols, terms)


def capelli_interpolation_check(rep: GlnIrrep) -> bool:
    """C(-h_i + 1) = (-1)^(n-1) z_in z_ni and C(-h_i) = (-1)^(n-1) z_ni z_in
    as operators on L(lam)^+.

    Both sides are multiplied against the L^+ columns first, so no
    dim x dim product is formed."""
    n = rep.n
    c = capelli_det(rep)
    plus = l_plus_matrix(rep)
    sign = Fraction((-1) ** (n - 1))
    ident = SparseMat.identity(rep.dim)
    for i in range(1, n):
        h = rep.h_matrix(i)
        zin = lowering_operator(rep, i, "raising")
        zni = lowering_operator(rep, i, "lowering")
        lhs1 = _eval_left_on(c, ident - h, plus)
        rhs1 = (zin @ (zni @ plus)).scale(sign)
        lhs2 = _eval_left_on(c, -h, plus)
        rhs2 = (zni @ (zin @ plus)).scale(sign)
        if lhs1 != rhs1 or lhs2 != rhs2:
            return False
    return True


def zrelation_checks(rep: GlnIrrep) -> bool:
    """z_ni z_nj = z_nj z_ni and z_in z_nj = z_nj z_in (i != j) on L^+,
    plus the long z_in z_ni interpolation relation.

    Each z is multiplied against the L^+ columns once, and each product
    of two z's is formed on those columns.  The first relation is
    symmetric in i and j, so it is compared for i < j alone."""
    n = rep.n
    plus = l_plus_matrix(rep)
    zlow = {i: lowering_operator(rep, i, "lowering") for i in range(1, n)}
    zhigh = {i: lowering_operator(rep, i, "raising") for i in range(1, n)}
    low_plus = {i: z @ plus for i, z in zlow.items()}
    high_plus = {i: z @ plus for i, z in zhigh.items()}
    for i in zlow:
        for j in zlow:
            if i < j and zlow[i] @ low_plus[j] != zlow[j] @ low_plus[i]:
                return False
            if i != j and zhigh[i] @ low_plus[j] != zlow[j] @ high_plus[i]:
                return False
    return True


def tau_poly(rep: GlnIrrep, i, kind) -> OpPoly:
    n = rep.n
    if kind == "lowering":
        return quantum_minor(rep, tuple(range(i + 1, n + 1)), tuple(range(i, n)))
    if kind == "raising":
        p = quantum_minor(rep, tuple(range(1, i + 1)), tuple(range(1, i)) + (n,))
        return p if i % 2 == 1 else -p
    raise ValueError("kind must be 'lowering' or 'raising'")


def tau_equals_z_check(rep: GlnIrrep, i) -> bool:
    """tau_ni(-h_i - i + 1) = z_ni and tau_in(-h_i) = z_in on L(lam)^+,
    with both sides multiplied against the L^+ columns first."""
    plus = l_plus_matrix(rep)
    h = rep.h_matrix(i)
    ident = SparseMat.identity(rep.dim)
    lhs = _eval_left_on(tau_poly(rep, i, "lowering"), -h + ident.scale(1 - i), plus)
    if lhs != lowering_operator(rep, i, "lowering") @ plus:
        return False
    lhs = _eval_left_on(tau_poly(rep, i, "raising"), -h, plus)
    return lhs == lowering_operator(rep, i, "raising") @ plus


def drinfeld_poly(rep: GlnIrrep, m, which) -> OpPoly:
    if which == "A":
        return quantum_minor(rep, tuple(range(1, m + 1)), tuple(range(1, m + 1)))
    if which == "B":
        return quantum_minor(rep, tuple(range(1, m + 1)), tuple(range(1, m)) + (m + 1,))
    if which == "C":
        return quantum_minor(rep, tuple(range(1, m)) + (m + 1,), tuple(range(1, m + 1)))
    raise ValueError("which must be A, B or C")


def drinfeld_checks(rep: GlnIrrep, m) -> bool:
    """Eigenvalue and shift displays for A_m, B_m, C_m on every pattern.

    A_m(u) is compared coefficient by coefficient with the diagonal matrix
    of the eigenvalue polynomials, made once per distinct row m.  B_m and
    C_m are read by column: column t is evaluated at each u0 = -x/2, x a
    doubled l-value of row m of pattern t, and compared with the shift
    display at the neighbour from ``shift_table``."""
    n = rep.n
    eigen = {}      # row m -> eigenvalue polynomial of A_m
    for p in rep.basis:
        row = p.row(m)
        if row not in eigen:
            eigen[row] = _l_poly(row)
    if not _acts_diagonally(drinfeld_poly(rep, m, "A"), [eigen[p.row(m)] for p in rep.basis]):
        return False
    if m == n:
        return True
    table = rep.shift_table
    # B_m moves lambda_mj up with -prod over row k = m + 1, C_m down with
    # prod over row k = m - 1; a product over row k carries 2^k
    for which, e, k in (("B", 1, m + 1), ("C", -1, m - 1)):
        cols, den = poly_columns(drinfeld_poly(rep, m, which))
        for t, p in enumerate(rep.basis):
            other = _doubled_lvals(p.row(k)) if k else ()
            for j, x in enumerate(_doubled_lvals(p.row(m)), 1):
                to = table[(m, j, e)][t]
                c = -e * prod(y - x for y in other) if to is not None else 0
                got = {}
                for r, cs in cols.get(t, ()):
                    h = 0
                    for a in reversed(cs):
                        h = h * -x + a
                    if h:
                        got[r] = h << k
                if got != ({to: c * den} if c else {}):
                    return False
    return True


def kappa_basis(rep: GlnIrrep, columns=False):
    """Vectors built by iterated evaluated C_m operators, one per pattern.

    The words are walked on int columns; with columns, those are returned.
    Else each result must be a nonzero multiple of the corresponding
    coordinate vector (AssertionError if not)."""
    n = rep.n
    c_cols = {m: poly_columns(drinfeld_poly(rep, m, "C")) for m in range(1, n)}
    words = []
    for p in rep.basis:
        word = []
        for k in range(n - 1, 0, -1):
            # C_m(arg) for arg = -l_k, -l_k + 1, ... while arg <= -l_target - 1,
            # with l_k = lam_k - k + 1 and l_target = lambda_mk - k + 1; a
            # letter (m, 2 arg) keeps the argument doubled
            start = 2 * (k - 1) - rep.lam[k - 1]
            for m in range(k, n):
                word += [(m, start + 2 * j) for j in range((rep.lam[k - 1] - p.entry(m, k)) // 2)]
        words.append(word)
    cols = apply_words(({rep.highest_index: 1}, 1), words,
                       lambda letter: lambda vec: poly_apply(c_cols[letter[0]], vec, letter[1]))
    if columns:
        return cols
    for t, (num, _) in enumerate(cols):
        if list(num) != [t]:
            raise AssertionError("kappa vector %d is no multiple of e_%d" % (t, t))
    return [column_fractions(c, rep.dim) for c in cols]


def gt_eigenvalues(pattern: GTPatternA):
    """Triangular list of elementary symmetric values alpha_{mi} of the
    row l-values, for 1 <= i <= m <= n."""
    return [_row_eigenvalues(pattern.row(m)) for m in range(1, pattern.n + 1)]


def _row_eigenvalues(row):
    """Elementary symmetric values e_1..e_m of the l-values of a row: e_i is
    the coefficient of u^(m - i) in prod (u + l_i)."""
    nums, den = _l_poly(row)
    return [Fraction(x, den) for x in nums[-2::-1]]


def gt_separation_check(rep: GlnIrrep) -> bool:
    """The Gelfand-Tsetlin subalgebra separates the basis: the patterns have
    pairwise distinct ``gt_eigenvalues``.  The values of a row depend on
    that row alone and are made once per distinct row."""
    values = {}
    seen = set()
    for p in rep.basis:
        key = []
        for row in p.rows:
            if row not in values:
                values[row] = tuple(_row_eigenvalues(row))
            key.append(values[row])
        seen.add(tuple(key))
    return len(seen) == rep.dim


# ---------------------------------------------------------------------------
# characteristic identity
# ---------------------------------------------------------------------------

def _big_e(rep: GlnIrrep) -> SparseMat:
    """E = sum of e_ij (x) E_ij: block (i, j) holds the generator E_ij."""
    n, d = rep.n, rep.dim
    return SparseMat.combination(n * d, n * d, (
        (1, kron(SparseMat(n, n, {(i - 1, j - 1): 1}), rep.gen(i, j)))
        for i in range(1, n + 1) for j in range(1, n + 1)))


def characteristic_identity_check(rep: GlnIrrep) -> bool:
    """prod_r (E - alpha_r) = 0 on L* (x) L(lam), with idempotent spectral
    projectors P_r = prod_{s != r} (E - alpha_s) / (alpha_r - alpha_s) that
    sum to the identity and reassemble E, and P_r = 0 for every r with
    lam_r = lam_{r+1} (the summands killed by equal consecutive weights).

    All of this is one product.  The alpha_r = lam_r + n - r are distinct,
    so the P_r are the Lagrange basis polynomials of the alpha_r evaluated
    at E: sum_r P_r = 1 and sum_r alpha_r P_r = E hold for every E (for
    n = 1 the second reads E = alpha_1, which is the product itself).  If
    the full product is 0, the minimal polynomial of E has distinct roots,
    so E is diagonalizable with spectrum in {alpha_r}, and P_r is the
    projector onto the alpha_r-eigenspace: P_r^2 = P_r and P_r P_s = 0.
    Then P_r = 0 says that alpha_r is not an eigenvalue.  So the whole
    statement holds exactly when E is diagonalizable with spectrum in
    {alpha_r : r in S}, S the r that are not killed, that is, exactly when
    prod_{r in S} (E - alpha_r) = 0: |S| - 1 products."""
    n, d = rep.n, rep.dim
    big = _big_e(rep)
    ident = SparseMat.identity(n * d)
    out = None
    for r in range(1, n + 1):
        if r < n and rep.lam[r - 1] == rep.lam[r]:
            continue
        factor = big - ident.scale(Fraction(rep.lam[r - 1], 2) + n - r)
        out = factor if out is None else out @ factor
    return out.is_zero()


# ---------------------------------------------------------------------------
# structural checks and export
# ---------------------------------------------------------------------------

def commutation_check(rep: GlnIrrep) -> bool:
    """[E_ij, E_kl] = d_jk E_il - d_li E_kj for all index pairs.

    Checked by ``exact.chevalley_serre_check`` on E_kk, E_k,k+1, E_k+1,k,
    and each cached E_ij with |i - j| > 1 must equal its bracket in
    ``gen``; by induction on |i - j| every E_ij is then the image of E_ij
    under the map the Chevalley generators define.  By Serre's theorem
    that map is a representation exactly when the Chevalley-Serre
    relations hold, and these follow from the relations above when the
    E_kk are diagonal, as in every built module.  So the verdict is the
    all-pairs one on built modules, and at least as strict on a corrupted
    cache."""
    n = rep.n
    for (i, j), m in list(rep._gen.items()):
        if abs(i - j) > 1 and m != rep._bracket(i, j):
            return False
    roots = [tuple(int(c == s) - int(c == s + 1) for c in range(n)) for s in range(n - 1)]
    return chevalley_serre_check([rep.gen(k, k) for k in range(1, n + 1)],
                                 [rep.gen(s, s + 1) for s in range(1, n)],
                                 [rep.gen(s + 1, s) for s in range(1, n)], roots, roots)


def adjointness_check(rep: GlnIrrep) -> bool:
    """N_M (E_ij)_{M,Lam} = N_Lam (E_ji)_{Lam,M} for every entry.

    Compared on the numerators: with E_ij = a/p, E_ji = b/q and the norms
    N_r = m_r/s over one denominator, an entry's equation is
    m_r a_rc q = m_c b_cr p.  The equations of (j, i) are those of (i, j)
    transposed, so i <= j suffices."""
    s = lcm(*(v.denominator for v in rep.normsq))
    m = [v.numerator * (s // v.denominator) for v in rep.normsq]
    for i in range(1, rep.n + 1):
        for j in range(i, rep.n + 1):
            e, f = rep.gen(i, j), rep.gen(j, i)
            a, b = e.num, f.num
            for r, c in a.keys() | {(c, r) for r, c in b}:
                if m[r] * a.get((r, c), 0) * f.den != m[c] * b.get((c, r), 0) * e.den:
                    return False
    return True


def highest_vector_check(rep: GlnIrrep) -> bool:
    """The raising E_ij (i < j) kill the highest vector, and each E_ii
    scales it by lambda_i."""
    xi = vec_unit(rep.dim, rep.highest_index)
    for i in range(1, rep.n + 1):
        for j in range(i, rep.n + 1):
            got = rep.gen(i, j).apply(xi)
            if i < j and any(got):
                return False
            if i == j and got != tuple(Fraction(rep.lam[i - 1], 2) * x for x in xi):
                return False
    return True


def export_json(rep: GlnIrrep):
    """Deterministic dict for ``cli.write_export``: the generators are
    ``SparseMat``s, which it writes as row-major sparse entries."""
    gens = {}
    for i in range(1, rep.n + 1):
        for j in range(1, rep.n + 1):
            if abs(i - j) > 1:
                continue
            gens["E_%d_%d" % (i, j)] = rep.gen(i, j)
    return {
        "algebra": "gl",
        "n": rep.n,
        "lambda": list(rep.lam),
        "dim": rep.dim,
        "patterns": _patterns.PatternFields("A", [(p.rows,) for p in rep.basis]),
        "generators": gens,
        "normsq": ["%d/%d" % (v.numerator, v.denominator) for v in rep.normsq],
    }
