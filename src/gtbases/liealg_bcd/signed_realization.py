"""o_N / sp_2n modules in the signed-index realization and the associated
lowering operators, interpolation polynomials and multiplicity bases.

Index set: -n..-1, 1..n, plus 0 in the odd orthogonal case; generators
F_ij = E_ij - theta_ij E_{-j,-i}.  Weights are non-positive in this
convention and traded for standard dominant weights only at interface
boundaries.  All weights entering or leaving this module are doubled ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from ..exact import (OpPoly, SpanSolver, SparseMat, apply_words, chain_sum, nullspace, rank,
                     spoly_from_roots, vec_add, vec_scale, vec_unit, vec_zero)
from .. import patterns as _patterns
from .. import branching as _branching
from .construction import (MAX_RANK, HWModule, Realization, build_module,
                           refuse_beyond_caps)

_SERIES_FAMILY = {"B": "B3", "C": "C3", "D": "D3"}
_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


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
        ent = {(self._pos[i], self._pos[j]): Fraction(1)}
        key = (self._pos[-j], self._pos[-i])
        th = self.theta(i, j)
        ent[key] = ent.get(key, Fraction(0)) - th
        return SparseMat(self.N, self.N, ent)

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
        self._vplus = None
        self._vsolver = None    # the SpanSolver of the _vplus vectors
        self._fdiag = {}
        self._nodes = {}        # k -> the interpolation nodes of _interp_nodes
        self._chains = {}       # (i, a, k, pool) -> the chain sum of _chain_sum
        self._words = {}        # trie of the lowering words walked so far

    def F(self, i, j) -> SparseMat:
        return self.module.F(i, j)

    def weight_doubled(self, idx):
        return tuple(int(2 * x) for x in self.module.weights[idx])

    def inner(self, u, v) -> Fraction:
        return self.module.inner(u, v)

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
# raising/lowering operators z_ia and the z_{n,-n} element
# ---------------------------------------------------------------------------

def _apply_inv_diag(vals, vec):
    out = []
    for v, x in zip(vals, vec):
        if x == 0:
            out.append(x)
        elif v == 0:
            raise ZeroDivisionError("vanishing Cartan denominator")
        else:
            out.append(x / v)
    return tuple(out)


def _f_diag(rep: BCDIrrep, i):
    """Componentwise values of f_i over the module basis."""
    if i not in rep._fdiag:
        rep._fdiag[i] = [rep.algebra.f_values(w)[i] for w in rep.module.weights]
    return rep._fdiag[i]


def _chain_sum(rep: BCDIrrep, i, a, k, pool):
    """The function applying the sum over the chains i > i_1 > ... > i_s > -k
    of F_{i i_1} ... F_{i_s a} times a Cartan factor acting first: the
    product of (f_i - f_j) over j in pool but not in the chain, over the
    product of (f_i - f_t) over t in the chain but not in pool.  The sum is
    formed once per module and key by exact.chain_sum.  The function raises
    ZeroDivisionError exactly when its vector meets a column where, for a
    chain with a nonzero monomial, a denominator vanishes under a nonzero
    numerator."""
    key = (i, a, k, pool)
    if key in rep._chains:
        return rep._chains[key]
    fi = _f_diag(rep, i)
    # the chain indices of the rank-k subalgebra (0 only for B), and
    # 2 (f_i - f_j) over the basis, as ints
    indices = [j for j in range(i - 1, -k, -1) if j or rep.algebra.series == "B"]
    diff = {j: [int(2 * (x - y)) for x, y in zip(fi, _f_diag(rep, j))] for j in indices}
    table, bad = chain_sum(rep.dim, i, indices, a, rep.F, pool, diff, 2)

    def apply(vec):
        if any(vec[c] for c in bad):
            raise ZeroDivisionError("vanishing Cartan denominator")
        return table.apply(vec)
    rep._chains[key] = apply
    return apply


def apply_pf(rep: BCDIrrep, i, a, vec, rank_k=None):
    """Apply pF_ia (the extremal-projector image of F_ia) to vec.

    The scalar denominators 1/((f_i - f_{i_1})...) act first, evaluated
    componentwise on the input; raises if a needed denominator vanishes."""
    k = rep.algebra.n if rank_k is None else rank_k
    return _chain_sum(rep, i, a, k, ())(vec)


def apply_z(rep: BCDIrrep, i, a, vec, rank_k=None):
    """Apply z_ia = pF_ia (f_i - f_{i-1})...(f_i - f_{-k+1}) to vec.

    In the D case the factor (f_i - f_{-i}) is omitted.  i may be negative
    (and 0 in the B case); a is +-k for the rank-k subalgebra.  The chain
    denominators of pF_ia are cancelled against the normalizing product
    symbolically, so only the D-case factor f_i - f_{-i} can ever appear
    in a denominator.
    """
    alg = rep.algebra
    k = alg.n if rank_k is None else rank_k
    if a not in (k, -k):
        raise ValueError("a must be +-k")
    pi_list = tuple(j for j in range(i - 1, -k, -1)
                    if (j != 0 or alg.series == "B") and not (alg.series == "D" and j == -i))
    return _chain_sum(rep, i, a, k, pi_list)(vec)


def apply_z_ai(rep: BCDIrrep, a, i, vec, rank_k=None):
    """z_{ai} through the reflection z_{ai} = (-1)^(k-i) (sgn a) z_{-i,-a}
    (the sign factor sgn a only in the symplectic case)."""
    alg = rep.algebra
    k = alg.n if rank_k is None else rank_k
    out = apply_z(rep, -i, -a, vec, rank_k=k)
    negate = (k - i) % 2 == 1
    if alg.series == "C" and a < 0:
        negate = not negate
    return tuple(-x for x in out) if negate else out


def apply_z_nminus(rep: BCDIrrep, vec, rank_k=None):
    """The element z_{k,-k}: chains k > i_1 > ... > i_s > -k with the
    complementary product of (f_k - f_j) factors (divided by 2 f_k in D).
    It is z_ia at i = k, a = -k: there every index of a chain is a factor
    index, so no chain leaves a denominator."""
    alg = rep.algebra
    k = alg.n if rank_k is None else rank_k
    if alg.series == "D":
        vec = _apply_inv_diag([2 * x for x in _f_diag(rep, k)], vec)
    return apply_z(rep, k, -k, vec, rank_k=k)


def apply_znizin(rep: BCDIrrep, i, vec, rank_k=None):
    """z_{ki} z_{i,-k} with the convention z_{kk} = 1 at i = k."""
    alg = rep.algebra
    k = alg.n if rank_k is None else rank_k
    if i == k:
        return apply_z_nminus(rep, vec, rank_k=k)
    w = apply_z(rep, i, -k, vec, rank_k=k)
    return apply_z_ai(rep, k, i, w, rank_k=k)


def _interp_nodes(rep: BCDIrrep, k):
    """The nodes of the interpolation form of Z_{k,-k}(u) (i = 1..k for B/C,
    1..k-1 for D), once per module and k: the squares g_i^2 per node, the
    node denominators prod_{j != i} (g_i^2 - g_j^2) per component, and the
    set of components where two nodes collide (g_i^2 = g_j^2)."""
    if k not in rep._nodes:
        top = k if rep.algebra.series in ("B", "C") else k - 1
        sq = [[(x + _HALF) ** 2 for x in _f_diag(rep, i)] for i in range(1, top + 1)]
        dens = [[prod(x - y for j, y in enumerate(col) if j != i) for i, x in enumerate(col)]
                for col in zip(*sq)]
        colliding = frozenset(t for t, ds in enumerate(dens) if not all(ds))
        rep._nodes[k] = (sq, dens, colliding)
    return rep._nodes[k]


def apply_z_interp(rep: BCDIrrep, u0, vec, rank_k=None):
    """Z_{k,-k}(u0) for a numeric u0.

    The interpolation form through the nodes g_i (i = 1..k for B/C,
    1..k-1 for D) is used where its node denominators are regular; on
    components where two nodes collide the expression through the
    Mickelsson-Zhelobenko generators is used instead (both present the
    same algebra element).
    """
    k = rep.algebra.n if rank_k is None else rank_k
    u0 = Fraction(u0)
    sq, dens, colliding = _interp_nodes(rep, k)
    vgood = tuple(_ZERO if t in colliding else x for t, x in enumerate(vec))
    out = vec_zero(rep.dim)
    if any(vgood):
        u2 = u0 * u0
        for i in range(len(sq)):
            w = tuple(x * prod(u2 - s[t] for j, s in enumerate(sq) if j != i) / dens[t][i]
                      if x else x for t, x in enumerate(vgood))
            out = vec_add(out, apply_znizin(rep, i + 1, w, rank_k=k))
    if any(vec[t] for t in colliding):
        vbad = tuple(x if t in colliding else _ZERO for t, x in enumerate(vec))
        out = vec_add(out, _apply_zab_point(rep, k, -k, u0, vbad, rank_k=k))
    return out


# ---------------------------------------------------------------------------
# the subspace of subalgebra-highest vectors
# ---------------------------------------------------------------------------

def v_plus_basis(rep: BCDIrrep):
    """Ordered basis of V(lam)^+ grouped by full weight.

    Returns a list of (weight_doubled, vector) pairs; the g_{n-1}-weight mu
    is the first n-1 coordinates of the full weight.
    """
    if rep._vplus is not None:
        return rep._vplus
    alg = rep.algebra
    n = alg.n
    raising = []
    for i in alg.indices:
        for j in alg.indices:
            if i < j and abs(i) < n and abs(j) < n:
                raising.append(rep.F(i, j))
    # the raising operators stacked into one matrix, entries by column
    stacked = {}
    for t, m in enumerate(raising):
        for (r, c), v in m.entries.items():
            stacked.setdefault(c, []).append((t * rep.dim + r, v))
    out = []
    for w, (off, size) in sorted(rep.module.weight_slices().items(), reverse=True):
        # the block's columns, on the stacked rows that meet them (in order)
        ent = {(r, c - off): v for c in range(off, off + size) for r, v in stacked.get(c, ())}
        rows = {r: i for i, r in enumerate(sorted({r for r, _ in ent}))}
        block = SparseMat(len(rows), size, {(rows[r], c): v for (r, c), v in ent.items()})
        wd = tuple(int(2 * x) for x in w)
        for k in nullspace(block):
            v = [Fraction(0)] * rep.dim
            v[off:off + size] = k
            out.append((wd, tuple(v)))
    rep._vplus = out
    return out


def v_plus_mu(rep: BCDIrrep, mu):
    """Vectors of V^+ whose g_{n-1} weight equals mu (doubled)."""
    mu = tuple(mu)
    return [(w, v) for w, v in v_plus_basis(rep) if w[:len(mu)] == mu]


def _matrix_on(solver: SpanSolver, vecs, op, error) -> SparseMat:
    """Matrix on the basis vecs, factored by solver, of the operator that
    the function op applies; ArithmeticError(error) if an image leaves
    their span."""
    out_cols = []
    for v in vecs:
        coeffs = solver.solve(op(v))
        if coeffs is None:
            raise ArithmeticError(error)
        out_cols.append(coeffs)
    return SparseMat.from_columns(out_cols, len(vecs))


def _vplus_solver(rep: BCDIrrep):
    """The ordered basis vectors of V(lam)^+ and their solver, factored
    once per module."""
    vecs = [v for _, v in v_plus_basis(rep)]
    if rep._vsolver is None:
        rep._vsolver = SpanSolver(vecs, rep.dim)
    return rep._vsolver, vecs


def lowering_zia(rep: BCDIrrep, i, a) -> SparseMat:
    """Matrix of z_ia on the ordered basis of V(lam)^+."""
    return _matrix_on(*_vplus_solver(rep), lambda v: apply_z(rep, i, a, v),
                      "z_ia image left V(lam)^+")


def z_interp(rep: BCDIrrep, u0) -> SparseMat:
    """Matrix of Z_{n,-n}(u0) on the ordered basis of V(lam)^+."""
    return _matrix_on(*_vplus_solver(rep), lambda v: apply_z_interp(rep, u0, v),
                      "Z_{n,-n} image left V(lam)^+")


def z_interp_poly(rep: BCDIrrep) -> OpPoly:
    """Z_{n,-n}(u) as an operator polynomial on V(lam)^+ (even in u).

    Interpolating through deg+1 evaluation points recovers the coefficient
    matrices exactly.  On o_2 there are no nodes, and Z_{1,-1}(u) is 0.
    """
    alg = rep.algebra
    top = alg.n if alg.series in ("B", "C") else alg.n - 1
    if not top:
        d = len(v_plus_basis(rep))
        return OpPoly(d, d)
    deg = 2 * (top - 1)
    pts = [Fraction(3 * t + 1, 1) for t in range(deg + 1)]
    return _lagrange(pts)([z_interp(rep, u0) for u0 in pts])


def _lagrange(pts):
    """Lagrange interpolation through the points pts.

    Returns a function that takes the d x d matrices at pts (in order) to
    the OpPoly of degree < len(pts) through them.  The basis polynomials
    are computed once here, for every matrix list interpolated later.
    """
    basis = []
    for t, u0 in enumerate(pts):
        others = pts[:t] + pts[t + 1:]
        den = Fraction(1)
        for u1 in others:
            den *= u0 - u1
        basis.append([c / den for c in spoly_from_roots([-u1 for u1 in others])])

    def interpolate(mats):
        d = mats[0].nrows
        coeffs = [SparseMat.zero(d, d) for _ in pts]
        for mat, poly in zip(mats, basis):
            for j, c in enumerate(poly):
                coeffs[j] = coeffs[j] + mat.scale(c)
        return OpPoly(d, d, coeffs)

    return interpolate


# ---------------------------------------------------------------------------
# multiplicity bases and the GT bases
# ---------------------------------------------------------------------------

def _halves(x):
    return Fraction(x, 2)


def _level_word(rep: BCDIrrep, k, top, prime, below, sigma=0):
    """The letters (see _letter) of the level-k factor of a GT basis vector.

    top, prime and below are the doubled rows lambda_k, lambda'_k and
    lambda_{k-1} (for D, prime is lambda'_{k-1}, of length k-1).  The
    factor is the evaluated Z_{k,-k}(u) chain from l(top_k) up to
    l(prime_k) - 1 (D: l(prime_{k-1}) - 2), then for i = k-1..1 the powers
    of z_{i,-k} and z_{ki}, then z_{k0} when sigma is set (B only).  In D
    the derived entry max(top_1, below_1) is prepended to prime.  The D
    word at k = 1 is empty, as in gt_basis_bcd: o_2 is abelian.
    """
    alg = rep.algebra
    if alg.series == "D":
        if k == 1:
            return []
        stop = _halves(prime[-1]) + alg.rho(k - 1) + Fraction(1, 2) - 2
        prime = (max(top[0], below[0]),) + tuple(prime)
    else:
        stop = _halves(prime[-1]) + alg.rho(k) + Fraction(1, 2) - 1
    arg = _halves(top[-1]) + alg.rho(k) + Fraction(1, 2)
    word = []
    while arg <= stop:
        word.append(("Z", k, arg))
        arg += 1
    for i in range(k - 1, 0, -1):
        word += [("z", k, i)] * ((prime[i - 1] - top[i - 1]) // 2)
        word += [("zk", k, i)] * ((prime[i - 1] - below[i - 1]) // 2)
    if sigma:
        word.append(("zk", k, 0))
    return word


def _letter(rep: BCDIrrep, letter):
    """The function a letter applies: ("Z", k, u0) is Z_{k,-k}(u0), ("z", k, i)
    is z_{i,-k} and ("zk", k, i) is z_{ki}, all of the rank-k subalgebra."""
    kind, k, x = letter
    if kind == "Z":
        return lambda v: apply_z_interp(rep, x, v, rank_k=k)
    if kind == "z":
        return lambda v: apply_z(rep, x, -k, v, rank_k=k)
    return lambda v: apply_z_ai(rep, k, x, v, rank_k=k)


def _walk(rep: BCDIrrep, words):
    """The vectors of the words from the highest vector, on the module's
    trie: a multiplicity word is the top-level factor of GT basis words, so
    multiplicity_basis after gt_basis_bcd applies no prefix again."""
    return apply_words(rep.highest_vector, words, lambda letter: _letter(rep, letter),
                       rep._words)


def multiplicity_basis(rep: BCDIrrep, mu):
    """The vectors xi_nu spanning V(lam)^+_mu: the top-level factor of the
    GT basis vectors, one per branching tuple.

    Returns (tuples, vectors); tuples as produced by the branching module
    ((sigma, nu...) for B).  Vectors are asserted independent.
    """
    alg = rep.algebra
    mu = tuple(mu)
    spec = _branching.branch_BCD(alg.series, rep.lam, mu)
    words = []
    for tup in spec.data:
        sigma, nu = (tup[0], tup[1:]) if alg.series == "B" else (0, tup)
        words.append(_level_word(rep, alg.n, rep.lam, nu, mu, sigma))
    vecs = _walk(rep, words)
    if vecs:
        mat = SparseMat.from_columns(vecs, rep.dim)
        assert rank(mat) == len(vecs), "multiplicity vectors are dependent"
    return list(spec.data), vecs


def gt_basis_bcd(rep: BCDIrrep):
    """One vector per pattern, by the interleaved products of z-powers and
    evaluated interpolation polynomials; returns (patterns, vectors)."""
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


def gt_basis_checks(rep: BCDIrrep) -> bool:
    """Full rank, matching dimension, and the predicted weight on each
    basis vector."""
    pats, vecs = gt_basis_bcd(rep)
    if len(vecs) != rep.dim:
        return False
    if rank(SparseMat.from_columns(vecs, rep.dim)) != rep.dim:
        return False
    for p, v in zip(pats, vecs):
        want = _patterns.weight(p)
        for idx, x in enumerate(v):
            if x and rep.weight_doubled(idx) != want:
                return False
    return True


# ---------------------------------------------------------------------------
# diagonal/shift formulas on multiplicity bases and the Z_ab operators
# ---------------------------------------------------------------------------

def fnn_action_check(rep: BCDIrrep, mu) -> bool:
    """F_nn eigenvalue and (C case) the F_{n,-n} shift formula on the
    multiplicity basis of V^+_mu."""
    alg = rep.algebra
    n = alg.n
    tuples, vecs = multiplicity_basis(rep, mu)
    if not vecs:
        return True
    lam = rep.lam
    mu = tuple(mu)
    index = {t: i for i, t in enumerate(tuples)}
    fnn = rep.F(n, n)
    for tup, v in zip(tuples, vecs):
        sigma, nu = (tup[0], tup[1:]) if alg.series == "B" else (0, tup)
        if alg.series == "D":
            ext = (max(lam[0], mu[0]),) + nu
            ev = Fraction(2 * sum(ext) - sum(lam) - sum(mu), 2)
        else:
            ev = Fraction(2 * sum(nu) - sum(lam) - sum(mu) + 2 * sigma, 2)
        if fnn.apply(v) != vec_scale(ev, v):
            return False
    if alg.series != "C":
        return True
    fnm = rep.F(n, -n)
    for tup, v in zip(tuples, vecs):
        gammas = [_halves(tup[i - 1]) + alg.rho(i) + Fraction(1, 2) for i in range(1, n + 1)]
        got = fnm.apply(v)
        want = vec_zero(rep.dim)
        for i in range(1, n + 1):
            up = list(tup)
            up[i - 1] += 2
            if tuple(up) not in index:
                continue
            coeff = Fraction(1)
            for a in range(1, n + 1):
                if a != i:
                    coeff /= gammas[i - 1] ** 2 - gammas[a - 1] ** 2
            want = vec_add(want, vec_scale(coeff, vecs[index[tuple(up)]]))
        if got != want:
            return False
    return True


def zab_operators(rep: BCDIrrep, mu):
    """The operators Z_ab(u), a, b in {-n, n}, on the basis of V^+_mu.

    Returns (tuples, vectors, {(a,b): OpPoly}).  The polynomials are Z_ab(u)
    itself: the series prefactors of the twisted-Yangian homomorphism
    (-u^-2n for B, (u+1/2) u^-2n for C, -2 u^-2n+2 for D) are not applied.
    """
    alg = rep.algebra
    n = alg.n
    tuples, vecs = multiplicity_basis(rep, mu)
    out = {}
    solver = SpanSolver(vecs, rep.dim)
    # Z_ab(u) has degree at most 2n: interpolate through 2n + 1 points
    pts = [Fraction(2 * t + 1, 2) for t in range(2 * n + 1)]
    interpolate = _lagrange(pts)
    for a in (-n, n):
        for b in (-n, n):
            out[(a, b)] = interpolate([_matrix_on(
                solver, vecs, lambda v: _apply_zab_point(rep, a, b, u0, v),
                "Z_ab image left V^+_mu") for u0 in pts])
    return tuples, vecs, out


def _apply_zab_point(rep: BCDIrrep, a, b, u0, vec, rank_k=None):
    """Z_ab(u0) applied to a vector, by the series-specific display
    through the z_ai z_ib products (a, b in {-k, k})."""
    alg = rep.algebra
    k = alg.n if rank_k is None else rank_k
    u0 = Fraction(u0)
    idx_range = [i for i in range(-k + 1, k) if i != 0 or alg.series == "B"]
    fs = {i: _f_diag(rep, i) for i in idx_range}
    # with g_j = f_j + 1/2: u0 + g_j = v + f_j and g_i - g_j = f_i - f_j
    v = u0 + _HALF
    # F-term: (delta_ab (u0 + rho_k + 1/2) + F_ab) prod_i (u0 + g_i)
    head = rep.F(a, b).apply(vec)
    if a == b:
        head = vec_add(head, vec_scale(v + alg.rho(k), vec))
    head = tuple(x * prod(v + fs[i][t] for i in idx_range) if x else x
                 for t, x in enumerate(head))
    # z-sum: prod_{j != i} (u0 + g_j) / prod_{j != i} (g_i - g_j), in D
    # without the factor g_i - g_{-i} below
    zsum = vec_zero(rep.dim)
    for i in idx_range:
        others = [j for j in idx_range if j != i]
        # the denominators on the support of vec alone, where they are read
        wv = _apply_inv_diag([prod(fs[i][t] - fs[j][t] for j in others
                                   if alg.series != "D" or j != -i) if x else x
                              for t, x in enumerate(vec)], vec)
        wv = tuple(x * prod(v + fs[j][t] for j in others) if x else x
                   for t, x in enumerate(wv))
        wv = apply_z(rep, i, b, wv, rank_k=k)
        wv = apply_z_ai(rep, a, i, wv, rank_k=k)
        zsum = vec_add(zsum, wv)
    if alg.series == "B":
        return vec_add(vec_scale(-1, head), zsum)
    total = vec_add(head, vec_scale(-1, zsum))
    if alg.series == "C":
        return total
    if 2 * u0 + 1 == 0:
        raise ZeroDivisionError("D-case Z_ab cannot be evaluated at -1/2")
    return vec_scale(Fraction(-1) / (2 * u0 + 1), total)
