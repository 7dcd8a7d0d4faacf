"""Irreducible gl_n modules in the Gelfand-Tsetlin basis.

``build_irrep`` realizes the generators E_{k,k+1}, E_{k+1,k}, E_{kk} by the
classical matrix-element formulas on the pattern basis; everything else
(lowering operators, Capelli determinant, quantum minors, step operators on
pattern rows, characteristic identities) is realized as exact matrices or
operator polynomials on top of those.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial, prod

from .exact import (OpPoly, SparseMat, commutator, kron, nullspace,
                    spoly_from_roots, vec_is_zero, vec_unit)
from .patterns import GTPatternA, enumerate_patterns, validate, weight
from . import patterns as _patterns


class GlnIrrep:
    """Constructed irreducible gl_n module with exact generator matrices.

    Near-diagonal generators are stored; general E_ij are derived through
    commutators on demand and cached.  Basis order is the canonical pattern
    order, so index 0 is the highest vector.
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

    def gen(self, i, j) -> SparseMat:
        """Matrix of E_ij (1-based indices)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError("generator index out of range")
        key = (i, j)
        if key not in self._gen:
            if i < j:
                self._gen[key] = commutator(self.gen(i, j - 1), self.gen(j - 1, j))
            else:
                self._gen[key] = commutator(self.gen(i, i - 1), self.gen(i - 1, j))
        return self._gen[key]

    def weight_of(self, idx):
        return weight(self.basis[idx])

    @property
    def highest_index(self):
        return 0

    def h_matrix(self, i) -> SparseMat:
        """Diagonal matrix of h_i = E_ii - i + 1."""
        return self.gen(i, i) + SparseMat.identity(self.dim).scale(1 - i)

    def __repr__(self):
        return "GlnIrrep(n=%d, lam=%s, dim=%d)" % (self.n, self.lam, self.dim)


def _lvals(pattern, k):
    """l_{ki} = lambda_{ki} - i + 1 for the k-entry row, as Fractions."""
    return [Fraction(x, 2) - i for i, x in enumerate(pattern.row(k))]


def build_irrep(n, lam) -> GlnIrrep:
    """Construct L(lam) for gl_n; lam is a doubled dominant weight."""
    lam = _patterns.check_dominant("A", tuple(lam))
    if len(lam) != n:
        raise ValueError("weight length != n")
    basis = enumerate_patterns("A", lam)
    index = {p: i for i, p in enumerate(basis)}
    dim = len(basis)

    gens = {}
    for k in range(1, n + 1):
        ent = {}
        for col, p in enumerate(basis):
            w = weight(p)[k - 1]
            if w:
                ent[(col, col)] = Fraction(w, 2)
        gens[(k, k)] = SparseMat(dim, dim, ent)

    for k in range(1, n):
        up = {}
        down = {}
        for col, p in enumerate(basis):
            lk = _lvals(p, k)
            lk1 = _lvals(p, k + 1)
            lkm = _lvals(p, k - 1) if k > 1 else []
            for i in range(1, k + 1):
                li = lk[i - 1]
                den = Fraction(1)
                for j in range(1, k + 1):
                    if j != i:
                        den *= li - lk[j - 1]
                plus = p.shift(k, i, 2)
                if validate(plus):
                    num = Fraction(1)
                    for j in range(1, k + 2):
                        num *= li - lk1[j - 1]
                    c = -num / den
                    if c:
                        up[(index[plus], col)] = up.get((index[plus], col), Fraction(0)) + c
                minus = p.shift(k, i, -2)
                if validate(minus):
                    num = Fraction(1)
                    for j in range(1, k):
                        num *= li - lkm[j - 1]
                    c = num / den
                    if c:
                        down[(index[minus], col)] = down.get((index[minus], col), Fraction(0)) + c
        gens[(k, k + 1)] = SparseMat(dim, dim, up)
        gens[(k + 1, k)] = SparseMat(dim, dim, down)

    return GlnIrrep(n, lam, basis, gens, norms_of_patterns(basis))


def gen_matrix(rep: GlnIrrep, i, j) -> SparseMat:
    """Matrix of E_ij, derived through commutators for |i - j| > 1."""
    return rep.gen(i, j)


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
            lk = [x - 2 * i for i, x in enumerate(p.row(k))]
            lk1 = [x - 2 * i for i, x in enumerate(p.row(k - 1))]
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


def norms(rep: GlnIrrep):
    return list(rep.normsq)


# ---------------------------------------------------------------------------
# lowering and raising operators
# ---------------------------------------------------------------------------

def _subsets_desc(pool):
    """All subsets of pool as descending tuples (pool ascending)."""
    out = [()]
    for x in pool:
        out += [s + (x,) for s in out]
    return [tuple(sorted(s, reverse=True)) for s in out]


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
        pool, step = list(range(1, i)), 1
    elif kind == "lowering":
        pool, step = list(range(i + 1, m)), -1
    else:
        raise ValueError("kind must be 'lowering' or 'raising'")
    d = rep.dim
    ident = SparseMat.identity(d)
    hs = {j: rep.h_matrix(j) for j in range(1, m + 1)}
    total = SparseMat.zero(d, d)
    for chain in _subsets_desc(pool):
        mono = ident
        prev = i
        for t in chain[::step] + (m,):
            mono = mono @ rep.gen(*(prev, t)[::step])
            prev = t
        diag = ident
        for j in pool:
            if j not in chain:
                diag = diag @ (hs[i] - hs[j])
        total = total + mono @ diag
    rep._lowering[key] = total
    return total


def basis_via_lowering(rep: GlnIrrep):
    """Vectors z_{k1}^.. z_{k,k-1}^.. applied to the highest vector, per
    pattern, with the level-n factors acting first."""
    out = []
    xi = vec_unit(rep.dim, rep.highest_index)
    for p in rep.basis:
        v = xi
        for k in range(rep.n, 1, -1):
            for i in range(k - 1, 0, -1):
                e = (p.entry(k, i) - p.entry(k - 1, i)) // 2
                if e:
                    z = lowering_operator(rep, i, "lowering", m=k)
                    for _ in range(e):
                        v = z.apply(v)
        out.append(v)
    return out


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


def l_plus_nullspace(rep: GlnIrrep):
    """Independent computation of L^+ as the joint kernel of E_ij, i<j<n."""
    rows = []
    for i in range(1, rep.n):
        for j in range(i + 1, rep.n):
            rows.extend(rep.gen(i, j).to_rows())
    if not rows:
        return [vec_unit(rep.dim, t) for t in range(rep.dim)]
    stacked = SparseMat.from_rows(rows)
    return nullspace(stacked)


def lemma_aximu_check(rep: GlnIrrep, mu, i) -> Fraction:
    """Apply z_in to xi_mu and compare with -(m_i - l_1)...(m_i - l_n) xi_{mu+d_i}.

    Returns the closed-form coefficient; raises AssertionError on mismatch.
    """
    n = rep.n
    mu = tuple(mu)
    xi_mu = _xi_mu_vector(rep, mu)
    z = lowering_operator(rep, i, "raising")
    got = z.apply(xi_mu)
    mi = Fraction(mu[i - 1], 2) - i + 1
    coeff = Fraction(-1)
    for j in range(1, n + 1):
        coeff *= mi - (Fraction(rep.lam[j - 1], 2) - j + 1)
    if mu[i - 1] == rep.lam[i - 1]:
        assert vec_is_zero(got) and coeff == 0
        return Fraction(0)
    up = list(mu)
    up[i - 1] += 2
    expected = vec_unit(rep.dim, dict(l_plus_indices(rep))[tuple(up)])
    xi_up = _xi_mu_vector(rep, tuple(up))
    assert got == tuple(coeff * x for x in xi_up)
    assert xi_up == expected
    return coeff


def _xi_mu_vector(rep, mu):
    v = vec_unit(rep.dim, rep.highest_index)
    for i in range(rep.n - 1, 0, -1):
        e = (rep.lam[i - 1] - mu[i - 1]) // 2
        z = lowering_operator(rep, i, "lowering")
        for _ in range(e):
            v = z.apply(v)
    return v


# ---------------------------------------------------------------------------
# quantum minors, Capelli determinant, Drinfeld generators
# ---------------------------------------------------------------------------

def _entry_poly(rep, a, b, shift) -> OpPoly:
    """E(u + shift)_{ab} = delta_ab (u + shift) + E_ab as an OpPoly."""
    d = rep.dim
    const = rep.gen(a, b)
    if a == b:
        const = const + SparseMat.identity(d).scale(shift)
        return OpPoly(d, d, [const, SparseMat.identity(d)])
    return OpPoly(d, d, [const])


def quantum_minor(rep: GlnIrrep, rows, cols) -> OpPoly:
    """Quantum minor of E(u) in its column-ordered expansion

        sum_p sgn(p) E(u)_{rows[p(1)], cols[1]} ... E(u - s + 1)_{rows[p(s)], cols[s]}

    (rows and cols taken in the given order), computed by Laplace expansion
    along the columns with shared sub-minors: about s 2^(s-1) products
    instead of s! (s-1).  The row-ordered expansion is the same polynomial
    (Molev, Yangians and classical Lie algebras, 2007, section 1.6); the
    tests check that."""
    rows = tuple(rows)
    cols = tuple(cols)
    if not rows or len(rows) != len(cols):
        raise ValueError("row and column sets must be nonempty and of equal size")
    s = len(rows)
    # level[pos]: the minor on the row positions pos (ascending) and the last
    # len(pos) columns, whose first column t = s - len(pos) has shift -t
    level = {(p,): _entry_poly(rep, rows[p], cols[s - 1], 1 - s) for p in range(s)}
    for t in range(s - 2, -1, -1):
        entry = [_entry_poly(rep, a, cols[t], -t) for a in rows]
        nxt = {}
        for pos in combinations(range(s), s - t):
            acc = entry[pos[0]] @ level[pos[1:]]
            for k in range(1, len(pos)):
                term = entry[pos[k]] @ level[pos[:k] + pos[k + 1:]]
                acc = acc - term if k % 2 else acc + term
            nxt[pos] = acc
        level = nxt
    return level[tuple(range(s))]


def capelli_det(rep: GlnIrrep, m=None) -> OpPoly:
    """Column-shifted determinant of the top-left m x m block of u + E."""
    if m is None:
        m = rep.n
    idx = tuple(range(1, m + 1))
    return quantum_minor(rep, idx, idx)


def capelli_scalar_check(rep: GlnIrrep) -> bool:
    """C(u) acts on every basis vector as prod(u + l_i)."""
    lam_l = [Fraction(rep.lam[i], 2) - i for i in range(rep.n)]
    return _acts_diagonally(capelli_det(rep), [spoly_from_roots(lam_l)] * rep.dim)


def _acts_diagonally(poly: OpPoly, scalars) -> bool:
    """poly(u) acts on basis vector t as the scalar polynomial scalars[t]:
    each coefficient matrix is the diagonal matrix of those coefficients."""
    for j in range(max(len(poly.coeffs), max(len(w) for w in scalars))):
        want = SparseMat.diag([w[j] if j < len(w) else 0 for w in scalars])
        if poly.coeff(j) != want:
            return False
    return True


def capelli_interpolation_check(rep: GlnIrrep) -> bool:
    """C(-h_i + 1) = (-1)^(n-1) z_in z_ni and C(-h_i) = (-1)^(n-1) z_ni z_in
    as operators on L(lam)^+."""
    n = rep.n
    c = capelli_det(rep)
    plus = l_plus_matrix(rep)
    sign = Fraction((-1) ** (n - 1))
    ident = SparseMat.identity(rep.dim)
    for i in range(1, n):
        h = rep.h_matrix(i)
        zin = lowering_operator(rep, i, "raising")
        zni = lowering_operator(rep, i, "lowering")
        lhs1 = c.eval_left(ident - h) @ plus
        rhs1 = (zin @ zni).scale(sign) @ plus
        lhs2 = c.eval_left(-h) @ plus
        rhs2 = (zni @ zin).scale(sign) @ plus
        if lhs1 != rhs1 or lhs2 != rhs2:
            return False
    return True


def zrelation_checks(rep: GlnIrrep) -> bool:
    """z_ni z_nj = z_nj z_ni and z_in z_nj = z_nj z_in (i != j) on L^+,
    plus the long z_in z_ni interpolation relation."""
    n = rep.n
    plus = l_plus_matrix(rep)
    zlow = {i: lowering_operator(rep, i, "lowering") for i in range(1, n)}
    zhigh = {i: lowering_operator(rep, i, "raising") for i in range(1, n)}
    for i in zlow:
        for j in zlow:
            if (zlow[i] @ zlow[j]) @ plus != (zlow[j] @ zlow[i]) @ plus:
                return False
            if i != j and (zhigh[i] @ zlow[j]) @ plus != (zlow[j] @ zhigh[i]) @ plus:
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
    """tau_ni(-h_i - i + 1) = z_ni and tau_in(-h_i) = z_in on L(lam)^+."""
    plus = l_plus_matrix(rep)
    h = rep.h_matrix(i)
    ident = SparseMat.identity(rep.dim)
    lhs = tau_poly(rep, i, "lowering").eval_left(-h + ident.scale(1 - i))
    if lhs @ plus != lowering_operator(rep, i, "lowering") @ plus:
        return False
    lhs = tau_poly(rep, i, "raising").eval_left(-h)
    return lhs @ plus == lowering_operator(rep, i, "raising") @ plus


def drinfeld_poly(rep: GlnIrrep, m, which) -> OpPoly:
    if which == "A":
        return quantum_minor(rep, tuple(range(1, m + 1)), tuple(range(1, m + 1)))
    if which == "B":
        return quantum_minor(rep, tuple(range(1, m + 1)), tuple(range(1, m)) + (m + 1,))
    if which == "C":
        return quantum_minor(rep, tuple(range(1, m)) + (m + 1,), tuple(range(1, m + 1)))
    raise ValueError("which must be A, B or C")


def drinfeld_action(rep: GlnIrrep, m, which, u0) -> SparseMat:
    """The operator A_m/B_m/C_m(u0) for a fixed rational evaluation point."""
    return drinfeld_poly(rep, m, which).eval_at(u0)


def drinfeld_checks(rep: GlnIrrep, m) -> bool:
    """Eigenvalue and shift displays for A_m, B_m, C_m on every pattern.

    A_m(u) is compared coefficient by coefficient with the diagonal matrix
    of the eigenvalue polynomials.  B_m and C_m are evaluated once at each
    distinct point u0 = -l_mj and compared column by column with the shift
    displays of the patterns that have that point."""
    n = rep.n
    lms = [_lvals(p, m) for p in rep.basis]
    if not _acts_diagonally(drinfeld_poly(rep, m, "A"), [spoly_from_roots(lm) for lm in lms]):
        return False
    if m == n:
        return True
    want_b, want_c = {}, {}     # u0 -> {pattern index: expected column}
    for t, p in enumerate(rep.basis):
        lm1 = _lvals(p, m + 1)
        lmm = _lvals(p, m - 1) if m > 1 else []
        for j, x in enumerate(lms[t], 1):
            want_b.setdefault(-x, {})[t] = _shifted_column(
                rep, p.shift(m, j, 2), -prod(y - x for y in lm1))
            want_c.setdefault(-x, {})[t] = _shifted_column(
                rep, p.shift(m, j, -2), prod(y - x for y in lmm))
    return (_columns_match(drinfeld_poly(rep, m, "B"), want_b)
            and _columns_match(drinfeld_poly(rep, m, "C"), want_c))


def _shifted_column(rep, q, coeff):
    """The column coeff * e_q as {row: value}; the zero column when the
    array q is not a pattern (the zero-vector convention)."""
    return {rep.index[q]: coeff} if coeff and validate(q) else {}


def _columns_match(poly: OpPoly, want) -> bool:
    """poly(u0) has the columns want[u0][t], with one evaluation per point.

    The integer numerators of poly(u0) are compared with den * want."""
    for u0, columns in want.items():
        m = poly.eval_at(u0)
        got = {t: {} for t in columns}
        for (r, c), v in m.num.items():
            if c in got:
                got[c][r] = v
        if got != {t: {r: v * m.den for r, v in col.items()} for t, col in columns.items()}:
            return False
    return True


def kappa_basis(rep: GlnIrrep):
    """Vectors built by iterated evaluated C_m operators, one per pattern.

    Each result is asserted to be a nonzero multiple of the corresponding
    coordinate basis vector.
    """
    n = rep.n
    cpolys = {m: drinfeld_poly(rep, m, "C") for m in range(1, n)}
    lam_l = [Fraction(rep.lam[i], 2) - i for i in range(n)]
    evaluated = {}      # (m, arg) -> C_m(arg)
    out = []
    for t, p in enumerate(rep.basis):
        v = vec_unit(rep.dim, rep.highest_index)
        for k in range(n - 1, 0, -1):
            for m in range(k, n):
                l_target = Fraction(p.entry(m, k), 2) - k + 1
                arg = -lam_l[k - 1]
                while arg <= -l_target - 1:
                    if (m, arg) not in evaluated:
                        evaluated[(m, arg)] = cpolys[m].eval_at(arg)
                    v = evaluated[(m, arg)].apply(v)
                    arg += 1
        assert not vec_is_zero(v), "kappa vector vanished"
        unit = vec_unit(rep.dim, t)
        ratio = None
        for a, b in zip(v, unit):
            if (a == 0) != (b == 0):
                raise AssertionError("kappa vector not proportional to basis vector")
            if b:
                if ratio is None:
                    ratio = a / b
                elif a / b != ratio:
                    raise AssertionError("kappa vector not proportional to basis vector")
        out.append(v)
    return out


def gt_eigenvalues(pattern: GTPatternA):
    """Triangular list of elementary symmetric values alpha_{mi} of the
    row l-values, for 1 <= i <= m <= n."""
    out = []
    for m in range(1, pattern.n + 1):
        lm = _lvals(pattern, m)
        es = [Fraction(1)]
        for x in lm:
            nxt = es + [Fraction(0)]
            for i in range(len(es), 0, -1):
                nxt[i] = nxt[i] + x * es[i - 1]
            es = nxt
        out.append(es[1:])
    return out


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
    projectors that sum to the identity and reassemble E.

    The factors E - alpha_s commute, so the projector P_r is the product of
    the factors before r and the factors after r, scaled: the suffix
    products are made once and the prefix runs along r.  Each projector is
    checked as it is made; the last prefix is the full product."""
    n, d = rep.n, rep.dim
    big = _big_e(rep)
    nd = n * d
    ident = SparseMat.identity(nd)
    alphas = [Fraction(rep.lam[r - 1], 2) + n - r for r in range(1, n + 1)]
    factors = [big - ident.scale(a) for a in alphas]
    suffixes = [ident]      # suffixes.pop() is the product of the factors after r
    for f in reversed(factors[1:]):
        suffixes.append(f @ suffixes[-1])
    prefix = ident          # the product of the factors before r
    total = SparseMat.zero(nd, nd)
    recon = SparseMat.zero(nd, nd)
    for r in range(n):
        pr = (prefix @ suffixes.pop()).scale(
            1 / prod(alphas[r] - a for s, a in enumerate(alphas) if s != r))
        if pr @ pr != pr:
            return False
        # summands killed by equal consecutive weights vanish
        if r < n - 1 and rep.lam[r] == rep.lam[r + 1] and not pr.is_zero():
            return False
        total = total + pr
        recon = recon + pr.scale(alphas[r])
        prefix = prefix @ factors[r]
    return prefix.is_zero() and total == ident and recon == big


# ---------------------------------------------------------------------------
# structural checks and export
# ---------------------------------------------------------------------------

def commutation_check(rep: GlnIrrep) -> bool:
    """[E_ij, E_kl] = d_jk E_il - d_li E_kj for all index pairs.

    Both sides change sign when the two pairs swap, so only the ordered
    pairs (i, j) <= (k, l) are compared."""
    n, d = rep.n, rep.dim
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for a, (i, j) in enumerate(pairs):
        for k, l in pairs[a:]:
            want = SparseMat.zero(d, d)
            if j == k:
                want = want + rep.gen(i, l)
            if l == i:
                want = want - rep.gen(k, j)
            if commutator(rep.gen(i, j), rep.gen(k, l)) != want:
                return False
    return True


def adjointness_check(rep: GlnIrrep) -> bool:
    """N_M (E_ij)_{M,Lam} = N_Lam (E_ji)_{Lam,M} for every entry."""
    dmat = SparseMat.diag(rep.normsq)
    for i in range(1, rep.n + 1):
        for j in range(1, rep.n + 1):
            if dmat @ rep.gen(i, j) != rep.gen(j, i).transpose() @ dmat:
                return False
    return True


def highest_vector_check(rep: GlnIrrep) -> bool:
    xi = vec_unit(rep.dim, rep.highest_index)
    for i in range(1, rep.n + 1):
        for j in range(1, rep.n + 1):
            got = rep.gen(i, j).apply(xi)
            if i < j and not vec_is_zero(got):
                return False
            if i == j and got != tuple(Fraction(rep.lam[i - 1], 2) * x for x in xi):
                return False
    return True


def export_json(rep: GlnIrrep):
    """Deterministic JSON-ready dict with row-major sparse entries."""
    gens = {}
    for i in range(1, rep.n + 1):
        for j in range(1, rep.n + 1):
            if abs(i - j) > 1:
                continue
            mat = rep.gen(i, j)
            items = sorted(mat.entries.items())
            gens["E_%d_%d" % (i, j)] = [[r, c, "%d/%d" % (v.numerator, v.denominator)]
                                        for (r, c), v in items]
    return {
        "algebra": "gl",
        "n": rep.n,
        "lambda": list(rep.lam),
        "dim": rep.dim,
        "patterns": [_patterns.to_json(p) for p in rep.basis],
        "generators": gens,
        "normsq": ["%d/%d" % (v.numerator, v.denominator) for v in rep.normsq],
    }
