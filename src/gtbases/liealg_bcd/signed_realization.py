"""o_N / sp_2n modules in the signed-index realization and the associated
lowering operators, interpolation polynomials and multiplicity bases.

Index set: -n..-1, 1..n, plus 0 in the odd orthogonal case; generators
F_ij = E_ij - theta_ij E_{-j,-i}.  Weights are non-positive in this
convention and traded for standard dominant weights only at interface
boundaries.  All weights entering or leaving this module are doubled ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul

from ..exact import (OpPoly, SpanSolver, SparseMat, apply_words, chain_sum, column_apply,
                     column_fractions, columns_matrix, rank, scale_columns, spoly, vec_unit)
from .. import patterns as _patterns
from .. import branching as _branching
from .construction import (MAX_RANK, HWModule, Realization, build_module, raising_kernel,
                           refuse_beyond_caps, unit_pair)

_SERIES_FAMILY = {"B": "B3", "C": "C3", "D": "D3"}


class ClassicalAlgebra:
    """Series/rank descriptor with the defining matrix realization."""

    def __init__(self, series, n):
        if series not in ("B", "C", "D"):
            raise ValueError("series must be B, C or D")
        if n < 1:
            raise ValueError("rank must be positive")
        self.series = series
        self.n = n
        if series == "B":
            self.indices = list(range(-n, 0)) + [0] + list(range(1, n + 1))
        else:
            self.indices = list(range(-n, 0)) + list(range(1, n + 1))
        self.N = len(self.indices)
        self._pos = {a: t for t, a in enumerate(self.indices)}
        self._fdefs = {}

    def theta(self, i, j):
        if self.series == "C":
            return Fraction((1 if i > 0 else -1) * (1 if j > 0 else -1))
        return Fraction(1)

    def rho(self, i) -> Fraction:
        if self.series == "B":
            return Fraction(1, 2) - i
        if self.series == "C":
            return Fraction(-i)
        return Fraction(1 - i)

    def fdef(self, i, j) -> SparseMat:
        """F_ij, made once per (i, j)."""
        if (i, j) not in self._fdefs:
            p, th = self._pos, int(self.theta(i, j))
            self._fdefs[i, j] = unit_pair(self.N, (p[i], p[j]), (p[-j], p[-i]), th)
        return self._fdefs[i, j]

    def simple_pairs(self):
        out = [(i, i + 1) for i in range(1, self.n)]
        if self.series == "B":
            out.append((0, 1))
        elif self.series == "C":
            out.append((-1, 1))
        elif self.n > 1:
            out.append((-2, 1))
        # o_2 (D, n = 1) is abelian: it has no simple root
        return out

    def realization(self) -> Realization:
        return Realization(self.indices, self.fdef, list(range(1, self.n + 1)),
                           self.simple_pairs())

    def f_values(self, w):
        """Diagonal values of f_i = F_ii + rho_i on a weight w, keyed by
        the signed index (f_{-i} = -f_i, and f_0 = -1/2 in the B case)."""
        out = {}
        for i in range(1, self.n + 1):
            out[i] = w[i - 1] + self.rho(i)
            out[-i] = -out[i]
        if self.series == "B":
            out[0] = Fraction(-1, 2)
        return out


class BCDIrrep:
    """Constructed module plus pattern/branching bookkeeping."""

    def __init__(self, algebra: ClassicalAlgebra, lam, module: HWModule):
        self.algebra = algebra
        self.lam = tuple(lam)
        self.module = module
        self.dim = module.dim
        self._tables = {}       # key -> what _cached built for it

    def F(self, i, j) -> SparseMat:
        return self.module.F(i, j)

    def weight_doubled(self, idx):
        return tuple(int(2 * x) for x in self.module.weights[idx])

    @property
    def highest_vector(self):
        return vec_unit(self.dim, 0)

    def __repr__(self):
        return "BCDIrrep(%s%d, lam=%s, dim=%d)" % (
            self.algebra.series, self.algebra.n, self.lam, self.dim)


def build_bcd_irrep(series_or_algebra, lam, max_dim=600) -> BCDIrrep:
    """Build V(lam) for the given series; lam doubled, non-positive
    convention.  Refuses beyond the desk-scale caps, the dimension cap
    from the Weyl dimension before anything is built."""
    if isinstance(series_or_algebra, ClassicalAlgebra):
        alg = series_or_algebra
    else:
        series, n = series_or_algebra, len(tuple(lam))
        alg = ClassicalAlgebra(series, n)
    lam = tuple(lam)
    if len(lam) != alg.n:
        raise ValueError("weight length != rank")
    refuse_beyond_caps(
        "%s_%d" % ("sp" if alg.series == "C" else "o", alg.N), alg.n, MAX_RANK,
        lambda: _branching.weyl_dim_s3(
            alg.series, _patterns.check_dominant(_SERIES_FAMILY[alg.series], lam)),
        max_dim)
    module = build_module(alg.realization(), [Fraction(x, 2) for x in lam], max_dim)
    return BCDIrrep(alg, lam, module)


# ---------------------------------------------------------------------------
# tables of the operators z_ia and Z_ab(u)
# ---------------------------------------------------------------------------
#
# A table (matrix, raise columns) raises ZeroDivisionError on a vector that
# meets a raise column.  A scale (values, den) holds an int per weight (in
# block order) over den, None at a pole.  A form is a list of (table, ps,
# den) terms, the sum of table @ diag(p(u) / den), p an int coefficient list
# per weight, or None.

def _apply(table, vec):
    mat, bad = table
    if any(vec[c] for c in bad):
        raise ZeroDivisionError("vanishing Cartan denominator")
    return mat.apply(vec)


def _columns(rep: BCDIrrep, values):
    """Values per weight of the module spread over its columns."""
    col = [0] * rep.dim
    for (off, size), x in zip(_cached(rep, "slices", lambda: [
            *rep.module.weight_slices().values()]), values):
        col[off:off + size] = [x] * size
    return col


def _column_sum(rep: BCDIrrep, terms):
    """The table of the sum of t @ diag(s) over the (table t, scale s)
    terms; it raises where s is None, and where t raises under a nonzero s."""
    mats, bad = [], set()
    for (mat, raises), (values, den) in terms:
        col = _columns(rep, values)
        bad.update(c for c, x in enumerate(col) if x is None or x and c in raises)
        mats.append((1, scale_columns(mat, [x or 0 for x in col], den)))
    return SparseMat.combination(rep.dim, rep.dim, mats), frozenset(bad)


def _at(form, u0, div=1):
    """The (table, scale) terms of a form at u = u0, divided by div; if div
    is 0, a pole wherever p is nonzero."""
    q, div = u0.denominator, Fraction(div)
    # x / div = x f / |div.numerator|
    f = div.denominator if div > 0 else -div.denominator
    out = []
    for t, ps, den in form:
        deg = max(map(len, filter(None, ps)), default=1) - 1
        # p(u0) = sum_j p_j u0.numerator^j q^(deg - j) / q^deg
        pows = [u0.numerator ** j * q ** (deg - j) for j in range(deg + 1)]
        values = [p and f * sum(map(mul, p, pows)) for p in ps] if div else \
            [p and None for p in ps]
        out.append((t, (values, den * q ** deg * (abs(div.numerator) or 1))))
    return out


def _poly_on(rep: BCDIrrep, solver: SpanSolver, cols, key, form, error) -> OpPoly:
    """The OpPoly of a form on the basis of int columns cols, factored by
    solver; its tables' column_applys are made once per module and key."""
    def build():
        deg = max((len(p) for _, ps, _ in form for p in ps if p), default=0)
        return [column_apply(*_column_sum(rep, [
            (t, ([p and (p[j] if j < len(p) else 0) for p in ps], den)) for t, ps, den in form]))
            for j in range(deg)]
    return OpPoly(len(cols), len(cols), [_matrix_on(solver, cols, apply, error)
                                         for apply in _cached(rep, ("poly", key), build)])


def _cached(rep: BCDIrrep, key, build):
    if key not in rep._tables:
        rep._tables[key] = build()
    return rep._tables[key]


def _f_values(rep: BCDIrrep):
    """2 f_i (ClassicalAlgebra.f_values) per weight, in block order."""
    return _cached(rep, "f", lambda: [{i: int(2 * x) for i, x in rep.algebra.f_values(w).items()}
                                      for w in rep.module.weight_slices()])


def _chain_sum(rep: BCDIrrep, i, a, k, pool):
    """The exact.chain_sum table over the chains i > i_1 > ... > i_s > -k,
    gen = F and diff[j] = f_i - f_j, once per module and key; the chain
    products are shared through the module's memo (see _walk)."""
    def build():
        # the chain indices of the rank-k subalgebra (0 only for B), and
        # 2 (f_i - f_j) over the basis
        indices = [j for j in range(i - 1, -k, -1) if j or rep.algebra.series == "B"]
        fs = _f_values(rep)
        diff = {j: _columns(rep, [f[i] - f[j] for f in fs]) for j in indices}
        return chain_sum(rep.dim, i, indices, a, rep.F, pool, diff, 2,
                         _cached(rep, "chains", dict))
    return _cached(rep, (i, a, k, pool), build)


def _z(rep: BCDIrrep, i, a, k):
    alg = rep.algebra
    if a not in (k, -k):
        raise ValueError("a must be +-k")
    pi_list = tuple(j for j in range(i - 1, -k, -1)
                    if (j != 0 or alg.series == "B") and not (alg.series == "D" and j == -i))
    return _chain_sum(rep, i, a, k, pi_list)


def _zai(rep: BCDIrrep, a, i, k):
    mat, bad = _z(rep, -i, -a, k)
    return (-mat if (k - i) % 2 != (rep.algebra.series == "C" and a < 0) else mat), bad


def _zz(rep: BCDIrrep, a, i, b, k):
    """The table of z_ai z_ib.  A @ B raises on B's raise columns, and on
    the columns whose B-image meets A's raise columns."""
    def build():
        (ma, ra), (mb, rb) = _zai(rep, a, i, k), _z(rep, i, b, k)
        return ma @ mb, rb | {c for r, c in mb.num if r in ra}
    return _cached(rep, ("zz", a, i, b, k), build)


def apply_z(rep: BCDIrrep, i, a, vec, rank_k=None):
    """Apply z_ia = pF_ia (f_i - f_{i-1})...(f_i - f_{-k+1}) to vec.

    In the D case the factor (f_i - f_{-i}) is omitted.  i may be negative
    (and 0 in the B case); a is +-k for the rank-k subalgebra.  The chain
    denominators of pF_ia are cancelled against the normalizing product
    symbolically, so only the D-case factor f_i - f_{-i} can ever appear
    in a denominator.
    """
    return _apply(_z(rep, i, a, rep.algebra.n if rank_k is None else rank_k), vec)


def apply_z_ai(rep: BCDIrrep, a, i, vec, rank_k=None):
    """z_{ai} through the reflection z_{ai} = (-1)^(k-i) (sgn a) z_{-i,-a}
    (the sign factor sgn a only in the symplectic case)."""
    return _apply(_zai(rep, a, i, rep.algebra.n if rank_k is None else rank_k), vec)


def apply_z_nminus(rep: BCDIrrep, vec, rank_k=None):
    """The element z_{k,-k} = z_ia at i = k, a = -k, divided by 2 f_k (acting
    first) in D: no chain leaves a denominator."""
    k = rep.algebra.n if rank_k is None else rank_k
    table = _z(rep, k, -k, k)
    if rep.algebra.series == "D":
        fk = [f[k] for f in _f_values(rep)]
        lcd = lcm(*filter(None, fk))
        table = _column_sum(rep, [(table, ([x and lcd // x or None for x in fk], lcd))])
    return _apply(table, vec)


def _over(ps, dens, zero=None):
    """(ps, den) of a form term: the int lists ps over the int dens, one
    each per weight, over their lcm; zero where a den is 0."""
    lcd = lcm(*filter(None, dens))
    return [[lcd // d * x for x in p] if d else zero for p, d in zip(ps, dens)], lcd


def _display(rep: BCDIrrep, a, b, k):
    """The form of P = Z_ab(u) (D: (2u + 1) Z_ab(u)), a, b in {-k, k}, of
    the rank-k subalgebra, in the display form: with g_j = f_j + 1/2 over
    the indices j of the rank-(k-1) subalgebra and s = 1 for C, else -1,

        s P = prod_j (u + g_j) (F_ab + delta_ab (u + rho_k + 1/2))
              - sum_i z_ai z_ib prod_{j != i} (u + g_j) / (g_i - g_j)

    (in D without g_i - g_{-i} below).  F_ab moves only the k-th weight
    coordinate, so the product over j commutes with it."""
    def build():
        alg = rep.algebra
        idx = [j for j in range(-k + 1, k) if j or alg.series == "B"]
        sign = 1 if alg.series == "C" else -1
        fs = _f_values(rep)
        gs = [[f[j] + 1 for j in idx] for f in fs]      # 2 g_j
        m = len(idx)
        form = [((rep.F(a, b), frozenset()),
                 *_over([spoly(g) for g in gs], [sign << m] * len(gs)))]
        if a == b:
            r = int(2 * alg.rho(k)) + 1
            form.append(((SparseMat.identity(rep.dim), frozenset()),
                         *_over([spoly(g + [r]) for g in gs], [sign << m + 1] * len(gs))))
        for t, i in enumerate(idx):
            js = [j for j in idx if j != i and (alg.series != "D" or j != -i)]
            form.append((_zz(rep, a, i, b, k), *_over(
                [spoly(g[:t] + g[t + 1:]) for g in gs],
                [-sign * prod(f[i] - f[j] for j in js) << m - 1 - len(js) for f in fs])))
        return form
    return _cached(rep, ("display", a, b, k), build)


def _interp(rep: BCDIrrep, k):
    """The interpolation form of Z_{k,-k}(u) through the nodes g_i (i = 1..k
    for B/C, 1..k-1 for D), sum_i z_ki z_{i,-k} prod_{j != i} (u^2 - g_j^2) /
    (g_i^2 - g_j^2) with z_kk z_{k,-k} = z_{k,-k}, 0 on the weights where two
    nodes collide; and there, the display form of Z_{k,-k}(u), 0 elsewhere."""
    def build():
        top = k if rep.algebra.series in ("B", "C") else k - 1
        nodes = [[f[i] + 1 for i in range(1, top + 1)] for f in _f_values(rep)]    # 2 g_i
        colliding = {w for w, g in enumerate(nodes) if len({x * x for x in g}) < top}
        form = []
        for i in range(top):
            form.append((_z(rep, k, -k, k) if i + 1 == k else _zz(rep, k, i + 1, -k, k), *_over(
                [spoly([s * x for x in g[:i] + g[i + 1:] for s in (1, -1)]) for g in nodes],
                [w not in colliding and prod(g[i] ** 2 - x ** 2 for x in g[:i] + g[i + 1:])
                 for w, g in enumerate(nodes)], [])))
        shown = [(t, [p if w in colliding else [] for w, p in enumerate(ps)], den)
                 for t, ps, den in _display(rep, k, -k, k)] if colliding else []
        return form, shown
    return _cached(rep, ("interp", k), build)


def _div(rep: BCDIrrep, u0):
    """The divisor of the display form at u0."""
    return 2 * u0 + 1 if rep.algebra.series == "D" else 1


def _z_interp_table(rep: BCDIrrep, k, u0):
    """The table of Z_{k,-k}(u0): the interpolation form where its nodes
    are regular, the display form where two collide."""
    def build():
        form, shown = _interp(rep, k)
        return _column_sum(rep, _at(form, u0) + _at(shown, u0, _div(rep, u0)))
    return _cached(rep, ("Z", k, u0), build)


def apply_z_interp(rep: BCDIrrep, u0, vec, rank_k=None):
    """Z_{k,-k}(u0) applied to vec."""
    return _apply(_z_interp_table(rep, rep.algebra.n if rank_k is None else rank_k,
                                  Fraction(u0)), vec)


# ---------------------------------------------------------------------------
# the subspace of subalgebra-highest vectors
# ---------------------------------------------------------------------------

def v_plus_basis(rep: BCDIrrep):
    """Ordered basis of V(lam)^+ grouped by full weight.

    Returns a list of (weight_doubled, vector) pairs; the g_{n-1}-weight mu
    is the first n-1 coordinates of the full weight.
    """
    return _cached(rep, "vplus", lambda: _v_plus_basis(rep))


def _v_plus_basis(rep: BCDIrrep):
    alg = rep.algebra
    n = alg.n
    raising = [rep.F(i, j) for i in alg.indices for j in alg.indices
               if i < j and abs(i) < n and abs(j) < n]
    out = []
    for w, cols, kernel in raising_kernel(rep.module, raising):
        wd = tuple(int(2 * x) for x in w)
        for k in kernel:
            v = [Fraction(0)] * rep.dim
            v[cols[0]:cols[-1] + 1] = k
            out.append((wd, tuple(v)))
    return out


def v_plus_mu(rep: BCDIrrep, mu):
    """Vectors of V^+ whose g_{n-1} weight equals mu (doubled)."""
    mu = tuple(mu)
    return [(w, v) for w, v in v_plus_basis(rep) if w[:len(mu)] == mu]


def _matrix_on(solver: SpanSolver, cols, apply, error) -> SparseMat:
    """Matrix of a column_apply on the basis of int columns cols, factored
    by solver; ArithmeticError(error) if an image leaves their span."""
    out = [solver.solve(column_fractions(apply(c), solver.n)) for c in cols]
    if None in out:
        raise ArithmeticError(error)
    return SparseMat.from_columns(out, len(cols))


def _vplus_solver(rep: BCDIrrep):
    """The solver of the ordered basis of V(lam)^+, factored once per
    module, and its int columns."""
    def build():
        vecs = [v for _, v in v_plus_basis(rep)]
        return SpanSolver(vecs, rep.dim), [
            ({r: x.numerator * (d // x.denominator) for r, x in enumerate(v) if x}, d)
            for v in vecs for d in [lcm(*(x.denominator for x in v))]]
    return _cached(rep, "vsolver", build)


def lowering_zia(rep: BCDIrrep, i, a) -> SparseMat:
    """Matrix of z_ia on the ordered basis of V(lam)^+."""
    return _matrix_on(*_vplus_solver(rep), column_apply(*_z(rep, i, a, rep.algebra.n)),
                      "z_ia image left V(lam)^+")


def z_interp(rep: BCDIrrep, u0) -> SparseMat:
    """Matrix of Z_{n,-n}(u0) on the ordered basis of V(lam)^+."""
    table = _z_interp_table(rep, rep.algebra.n, Fraction(u0))
    return _matrix_on(*_vplus_solver(rep), column_apply(*table), "Z_{n,-n} image left V(lam)^+")


def z_interp_poly(rep: BCDIrrep) -> OpPoly:
    """Z_{n,-n}(u) as an operator polynomial on V(lam)^+ (even in u): the
    interpolation form, and where two nodes collide the display form (in D
    divided by 2u + 1, exactly on V(lam)^+).  On o_2 it is 0."""
    n = rep.algebra.n
    form, shown = [_poly_on(rep, *_vplus_solver(rep), ("interp", n, t), f,
                            "Z_{n,-n} image left V(lam)^+")
                   for t, f in enumerate(_interp(rep, n))]
    return form + (shown.divide_linear(2, 1) if rep.algebra.series == "D" else shown)


# ---------------------------------------------------------------------------
# multiplicity bases and the GT bases
# ---------------------------------------------------------------------------

def _level_word(rep: BCDIrrep, k, top, prime, below, sigma=0):
    """The letters (see _letter) of the level-k factor of a GT basis vector.

    top, prime and below are the doubled rows lambda_k, lambda'_k and
    lambda_{k-1} (for D, prime is lambda'_{k-1}, of length k-1).  The
    factor is the evaluated Z_{k,-k}(u) chain from l(top_k) up to
    l(prime_k) - 1 (D: l(prime_{k-1}) - 2), then for i = k-1..1 the powers
    of z_{i,-k} and z_{ki}, then z_{k0} when sigma is set (B only).  In D
    the derived entry max(top_1, below_1) is prepended to prime.  The D
    word at k = 1 is empty, as in gt_basis_bcd: o_2 is abelian.  The u are
    doubled: 2 l(x) = x + 2 rho_k + 1, and in D 2 rho_{k-1} = 2 rho_k + 2.
    """
    alg = rep.algebra
    if alg.series == "D" and k == 1:
        return []
    rho = int(2 * alg.rho(k))
    stop = prime[-1] + rho - 1
    if alg.series == "D":
        prime = (max(top[0], below[0]),) + tuple(prime)
    word = [("Z", k, x) for x in range(top[-1] + rho + 1, stop + 1, 2)]
    for i in range(k - 1, 0, -1):
        word += [("z", k, i)] * ((prime[i - 1] - top[i - 1]) // 2)
        word += [("zk", k, i)] * ((prime[i - 1] - below[i - 1]) // 2)
    if sigma:
        word.append(("zk", k, 0))
    return word


def _letter(rep: BCDIrrep, letter):
    """The column_apply of a letter's table: ("Z", k, x) is Z_{k,-k}(x / 2),
    ("z", k, i) is z_{i,-k} and ("zk", k, i) is z_{ki}, of the rank-k
    subalgebra."""
    kind, k, x = letter
    return column_apply(*(_z_interp_table(rep, k, Fraction(x, 2)) if kind == "Z" else
                          _z(rep, x, -k, k) if kind == "z" else _zai(rep, k, x, k)))


def _walk(rep: BCDIrrep, words):
    """The int columns of the words from the highest vector, on the
    module's trie: a multiplicity word is the top-level factor of GT basis
    words, so multiplicity_basis after gt_basis_bcd applies no prefix again.
    The chain products that the walk's tables shared are then dropped."""
    cols = apply_words(({0: 1}, 1), words, lambda letter: _letter(rep, letter),
                       _cached(rep, "words", dict))
    rep._tables.pop("chains", None)
    return cols


def _multiplicity(rep: BCDIrrep, mu):
    """(tuples, int columns, B) of multiplicity_basis, B the columns as a
    matrix, asserted independent."""
    alg = rep.algebra
    mu = tuple(mu)
    spec = _branching.branch_BCD(alg.series, rep.lam, mu)
    words = []
    for tup in spec.data:
        sigma, nu = (tup[0], tup[1:]) if alg.series == "B" else (0, tup)
        words.append(_level_word(rep, alg.n, rep.lam, nu, mu, sigma))
    cols = _walk(rep, words)
    b = columns_matrix(cols, rep.dim)
    assert rank(b) == len(cols), "multiplicity vectors are dependent"
    return list(spec.data), cols, b


def multiplicity_basis(rep: BCDIrrep, mu):
    """The vectors xi_nu spanning V(lam)^+_mu: the top-level factor of the
    GT basis vectors, one per branching tuple.

    Returns (tuples, vectors); tuples as produced by the branching module
    ((sigma, nu...) for B).  Vectors are asserted independent.
    """
    tuples, cols, _ = _multiplicity(rep, mu)
    return tuples, [column_fractions(c, rep.dim) for c in cols]


def _gt_walk(rep: BCDIrrep):
    """(patterns, the int columns of gt_basis_bcd)."""
    alg = rep.algebra
    n = alg.n
    pats = _patterns.enumerate_patterns(_SERIES_FAMILY[alg.series], rep.lam)
    words = []
    for p in pats:
        word = []
        if alg.series == "D":
            for k in range(n, 1, -1):
                word += _level_word(rep, k, p.lam[k - 1], p.lamp[k - 2], p.lam[k - 2])
        else:
            # at k = 1 the below row is never read
            for k in range(n, 0, -1):
                sigma = p.sigma[k - 1] if alg.series == "B" else 0
                word += _level_word(rep, k, p.lam[k - 1], p.lamp[k - 1], p.lam[k - 2], sigma)
        words.append(word)
    return pats, _walk(rep, words)


def gt_basis_bcd(rep: BCDIrrep):
    """One vector per pattern, by the interleaved products of z-powers and
    evaluated interpolation polynomials; returns (patterns, vectors)."""
    pats, cols = _gt_walk(rep)
    return pats, [column_fractions(c, rep.dim) for c in cols]


def gt_basis_checks(rep: BCDIrrep) -> bool:
    """Full rank, matching dimension, and the predicted weight on each
    basis vector: every stored entry (r, c) of B, the basis as columns,
    lies on the weight of pattern c."""
    pats, cols = _gt_walk(rep)
    if len(cols) != rep.dim:
        return False
    b = columns_matrix(cols, rep.dim)
    if rank(b) != rep.dim:
        return False
    weights = [rep.weight_doubled(r) for r in range(rep.dim)]
    want = [_patterns.weight(p) for p in pats]
    return all(weights[r] == want[c] for r, c in b.num)


# ---------------------------------------------------------------------------
# diagonal/shift formulas on multiplicity bases and the Z_ab operators
# ---------------------------------------------------------------------------

def fnn_action_check(rep: BCDIrrep, mu) -> bool:
    """F_nn eigenvalue and (C case) the F_{n,-n} shift formula on the
    multiplicity basis of V^+_mu, B as columns: F_nn B = B diag(ev) and
    F_{n,-n} B = B S, S the shift coefficients."""
    alg = rep.algebra
    n = alg.n
    tuples, _, basis = _multiplicity(rep, mu)
    if not tuples:
        return True
    lam = rep.lam
    mu = tuple(mu)
    evs = []
    for tup in tuples:
        sigma, nu = (tup[0], tup[1:]) if alg.series == "B" else (0, tup)
        # D: nu extended by the derived entry max(lam_1, mu_1)
        extra = max(lam[0], mu[0]) if alg.series == "D" else sigma
        evs.append(Fraction(2 * (sum(nu) + extra) - sum(lam) - sum(mu), 2))
    if rep.F(n, n) @ basis != basis @ SparseMat.diag(evs):
        return False
    if alg.series != "C":
        return True
    index = {t: c for c, t in enumerate(tuples)}
    shift = {}
    for c, tup in enumerate(tuples):
        g = [x + int(2 * alg.rho(i)) + 1 for i, x in enumerate(tup, 1)]    # 2 gamma_i
        for i in range(n):
            up = tup[:i] + (tup[i] + 2,) + tup[i + 1:]
            if up in index:
                # prod over a != i of 1 / (gamma_i^2 - gamma_a^2)
                shift[(index[up], c)] = Fraction(
                    4 ** (n - 1), prod(g[i] ** 2 - x ** 2 for x in g[:i] + g[i + 1:]))
    return rep.F(n, -n) @ basis == basis @ SparseMat(len(tuples), len(tuples), shift)


def zab_operators(rep: BCDIrrep, mu):
    """The operators Z_ab(u), a, b in {-n, n}, on the basis of V^+_mu.

    Returns (tuples, vectors, {(a,b): OpPoly}): Z_ab(u) for B and C, and
    (2u + 1) Z_ab(u) for D, where Z_ab(u) has a pole at u = -1/2 when
    lambda_1 != 0.  The twisted-Yangian generator S_ab(u) is the polynomial
    times -u^-2n for B, (u+1/2) u^-2n for C and -2 u^(-2n+2) / (2u+1) for D.
    """
    n = rep.algebra.n
    tuples, cols, _ = _multiplicity(rep, mu)
    vecs = [column_fractions(c, rep.dim) for c in cols]
    solver = SpanSolver(vecs, rep.dim)
    return tuples, vecs, {(a, b): _poly_on(rep, solver, cols, ("display", a, b, n),
                                           _display(rep, a, b, n), "Z_ab image left V^+_mu")
                          for a in (-n, n) for b in (-n, n)}
