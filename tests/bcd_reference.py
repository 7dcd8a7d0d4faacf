"""Direct forms of o_N/sp_2n computations that the library does faster.

``cli.bcd_commutation_check`` checks the Chevalley-Serre relations on the
realized Cartan and simple generators and the cached generators against a
fresh ``realize``.  ``commutation_all_pairs`` is the bracket loop it
replaced, over every ordered pair of generators.

``gt_basis_bcd``, ``multiplicity_basis`` and ``orth_gt_basis`` walk the
lowering words of all patterns as one trie (``exact.apply_words``), on int
columns through column-indexed tables (``exact.column_apply``).  The
functions below apply every pattern's word from the highest vector, through
the library's tables applied to tuples of ``Fraction``s.
``orth_basis_checks``, ``gt_basis_checks`` and ``fnn_action_check`` check
one matrix B, the basis as columns: B^T G B is diagonal and positive, the
stored entries of B sit on the weights of their patterns, and F_nn B and
F_{n,-n} B equal B times the diagonal and shift matrices.  The functions of
the same names below are the loops they replaced: the rank and the form on
every pair, the weight of every entry of every vector, and each operator
applied to one vector at a time.
``construction.build_module`` runs on int numerators: the raising action,
the Gram blocks and the weight keys are ints over per-block denominators,
``_gram_basis`` is a fraction-free Gauss-Jordan pass over the int rows of a
block that returns each expansion as (den, ints), and the module keeps its
Gram blocks as ints.  ``build_module`` and ``_gram_basis`` below are the
``Fraction`` forms they replaced; ``build_parts`` returns the ``Fraction``
Gram blocks, and ``build_module`` hands them to the module as ints.
``signed_realization`` forms each chain sum behind ``apply_pf``, ``apply_z``
and ``apply_z_nminus`` once per module as one operator.  The functions of
the same names below sum the chains for every vector they are applied to.
``chain_sum_by_columns`` is the form ``signed_realization._chain_sum`` had
before ``exact.chain_sum``: each chain monomial built on its own, with its
Cartan factor and vanishing denominators worked out in place.
``signed_realization`` applies Z_ab(u0) and z_{ki} z_{i,-k} as tables formed
once per module, on ints, from the display and interpolation forms of
Z_ab(u).
``_apply_zab_point``, ``apply_z_interp`` and ``apply_znizin`` below apply
them to one vector at a time, through the z operators, with the Cartan
factors evaluated on the vector's support.
``table_pf``, ``table_zab_point``, ``s_prime`` and ``s_plain`` apply the
library's tables of pF_ia, Z_ab(u0) and s'/s to tuples of ``Fraction``s; the
library walks int columns and has no such wrappers. 
``OrthogonalChain`` applies each s'/s as one table, the extremal projector
of the level below (the projection onto the kernel of its raising
operators) after the first factor.  ``PerVectorChain`` is the chain as it
applied them before: the first factor, then the printed chain of
extremal-projector factors p_alpha, each a truncated series run on the
vector.
``HWModule._algebra_span`` brackets only with the simple generators and
forms one bracket per root; ``algebra_span_all_pairs`` is the closure it
replaced, which brackets every frontier pair with every accepted pair and
keeps a bracket when it is independent of the earlier ones.  Every bracket
here is the two-product ``exact_reference.commutator``, not the one-pass
``exact.commutator`` of the library.
``HWModule.realize`` reads each coefficient at the entry that only its span
pair has, and ``Realization.root_of`` reads a root off the diagonal of the
Cartan; ``realize_over`` (with ``_flat``) is the solve over flattened N x N
matrices, and ``root_of`` the commutator eigenvalue, that they replaced.
``ClassicalAlgebra.fdef`` and ``OrthogonalChain._fdef`` build each F_ij
once, as ints; ``fdef_fraction`` and ``chain_fdef_fraction`` are the
``Fraction`` forms built on every call.  ``matrix_on`` applies an operator
to one ``Fraction`` vector at a time, where the library's ``_matrix_on``
applies a table by its columns to int columns.

The differential tests compare the two forms.
"""

import functools
from fractions import Fraction
from math import lcm, prod

from gtbases import branching, patterns
from gtbases.exact import SpanSolver, SparseMat, rank
from gtbases.liealg_bcd import orthogonal_chain, signed_realization as sr
from gtbases.liealg_bcd.construction import DeskScaleError, HWModule, Realization, _over_lcm
from gtbases.liealg_bcd.signed_realization import _SERIES_FAMILY, BCDIrrep

import exact_reference
from exact_reference import commutator, vec_add, vec_scale, vec_zero


def _halves(x):
    return Fraction(x, 2)


def commutation_all_pairs(rep):
    # both sides change sign when the two pairs swap (realize is
    # linear), so only the ordered pairs (i, j) <= (k, l) are compared
    alg = rep.algebra
    pairs = [(i, j) for i in alg.indices for j in alg.indices]
    realized = {}       # each distinct bracket is realized once
    for a, (i, j) in enumerate(pairs):
        for (k, l) in pairs[a:]:
            rm = commutator(alg.fdef(i, j), alg.fdef(k, l))
            key = tuple(sorted(rm.entries.items()))
            if key not in realized:
                realized[key] = rep.module.realize(rm)
            if commutator(rep.F(i, j), rep.F(k, l)) != realized[key]:
                return False
    return True


def level_word(rep, v, k, top, prime, below, sigma=0):
    """Apply the level-k factor of a GT basis vector to v (the rows as in
    signed_realization._level_word)."""
    alg = rep.algebra
    if alg.series == "D":
        stop = _halves(prime[-1]) + alg.rho(k - 1) + Fraction(1, 2) - 2
        prime = (max(top[0], below[0]),) + tuple(prime)
    else:
        stop = _halves(prime[-1]) + alg.rho(k) + Fraction(1, 2) - 1
    arg = _halves(top[-1]) + alg.rho(k) + Fraction(1, 2)
    while arg <= stop:
        v = sr.apply_z_interp(rep, arg, v, rank_k=k)
        arg += 1
    for i in range(k - 1, 0, -1):
        for _ in range((prime[i - 1] - top[i - 1]) // 2):
            v = sr.apply_z(rep, i, -k, v, rank_k=k)
        for _ in range((prime[i - 1] - below[i - 1]) // 2):
            v = sr.apply_z_ai(rep, k, i, v, rank_k=k)
    if sigma:
        v = sr.apply_z_ai(rep, k, 0, v, rank_k=k)
    return v


def multiplicity_basis(rep, mu):
    """(tuples, vectors) of V(lam)^+_mu, one top-level word per tuple."""
    alg = rep.algebra
    spec = branching.branch_BCD(alg.series, rep.lam, tuple(mu))
    vecs = []
    for tup in spec.data:
        sigma, nu = (tup[0], tup[1:]) if alg.series == "B" else (0, tup)
        vecs.append(level_word(rep, rep.highest_vector, alg.n, rep.lam, nu, tuple(mu), sigma))
    return list(spec.data), vecs


def gt_basis_bcd(rep):
    """(patterns, vectors), each pattern's word applied from the highest
    vector."""
    alg = rep.algebra
    n = alg.n
    pats = patterns.enumerate_patterns(_SERIES_FAMILY[alg.series], rep.lam)
    out = []
    for p in pats:
        v = rep.highest_vector
        if alg.series == "D":
            for k in range(n, 1, -1):
                v = level_word(rep, v, k, p.lam[k - 1], p.lamp[k - 2], p.lam[k - 2])
        else:
            for k in range(n, 0, -1):
                sigma = p.sigma[k - 1] if alg.series == "B" else 0
                v = level_word(rep, v, k, p.lam[k - 1], p.lamp[k - 1], p.lam[k - 2], sigma)
        out.append(v)
    return pats, out


def orth_gt_basis(chain):
    """(patterns, vectors) of the orthogonal chain, each pattern's s'/s
    product applied from the highest vector."""
    pats = patterns.enumerate_patterns(chain.family, chain.lam)
    n = chain.n
    out = []
    for p in pats:
        v = tuple(Fraction(1) if t == 0 else Fraction(0) for t in range(chain.dim))
        if chain.family == "B4":
            for k in range(n, 1, -1):
                for i in range(k, 0, -1):
                    e = (p.lam[k - 1][i - 1] - p.lamp[k - 1][i - 1]) // 2
                    for _ in range(e):
                        v = s_prime(chain, k, i, v)
                for i in range(k - 1, 0, -1):
                    e = (p.lamp[k - 1][i - 1] - p.lam[k - 2][i - 1]) // 2
                    for _ in range(e):
                        v = s_plain(chain, k, i, v)
            e = (p.lam[0][0] - p.lamp[0][0]) // 2
            for _ in range(e):
                v = s_prime(chain, 1, 1, v)
        else:
            for k in range(n - 1, 0, -1):
                for i in range(k, 0, -1):
                    e = (p.lam[k][i - 1] - p.lamp[k - 1][i - 1]) // 2
                    for _ in range(e):
                        v = s_plain(chain, k + 1, i, v)
                for i in range(k, 0, -1):
                    e = (p.lamp[k - 1][i - 1] - p.lam[k - 1][i - 1]) // 2
                    for _ in range(e):
                        v = s_prime(chain, k, i, v)
        out.append(v)
    return pats, out


def orth_basis_checks(chain):
    """Count, rank, and the form on every pair; the vectors come from the
    library's orthogonal_chain.orth_gt_basis (looked up at call time, so a
    test can substitute them)."""
    pats, vecs = orthogonal_chain.orth_gt_basis(chain)
    if len(vecs) != chain.dim:
        return False
    if rank(SparseMat.from_columns(vecs, chain.dim)) != chain.dim:
        return False
    for a in range(len(vecs)):
        for b in range(a, len(vecs)):
            val = chain.module.inner(vecs[a], vecs[b])
            if a == b:
                if val <= 0:
                    return False
            elif val != 0:
                return False
    return True


def gt_basis_checks(rep):
    """Count, rank, and the predicted weight on every nonzero entry of
    every vector, scanned vector by vector; the vectors come from the
    library's signed_realization.gt_basis_bcd (looked up at call time)."""
    pats, vecs = sr.gt_basis_bcd(rep)
    if len(vecs) != rep.dim:
        return False
    if rank(SparseMat.from_columns(vecs, rep.dim)) != rep.dim:
        return False
    for p, v in zip(pats, vecs):
        want = patterns.weight(p)
        for idx, x in enumerate(v):
            if x and rep.weight_doubled(idx) != want:
                return False
    return True


def fnn_action_check(rep, mu):
    """F_nn on each vector of the multiplicity basis of V^+_mu against its
    eigenvalue, and (C case) F_{n,-n} on each against the shift formula;
    the basis comes from the library's signed_realization.multiplicity_basis
    (looked up at call time)."""
    alg = rep.algebra
    n = alg.n
    tuples, vecs = sr.multiplicity_basis(rep, mu)
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
        if fnn.apply(v) != tuple(ev * x for x in v):
            return False
    if alg.series != "C":
        return True
    fnm = rep.F(n, -n)
    basis = SparseMat.from_columns(vecs, rep.dim)
    for tup, v in zip(tuples, vecs):
        gammas = [_halves(tup[i - 1]) + alg.rho(i) + Fraction(1, 2) for i in range(1, n + 1)]
        coeffs = [Fraction(0)] * len(vecs)
        for i in range(1, n + 1):
            up = list(tup)
            up[i - 1] += 2
            if tuple(up) not in index:
                continue
            coeff = Fraction(1)
            for a in range(1, n + 1):
                if a != i:
                    coeff /= gammas[i - 1] ** 2 - gammas[a - 1] ** 2
            coeffs[index[tuple(up)]] = coeff
        if fnm.apply(v) != basis.apply(coeffs):
            return False
    return True


# -- the orthogonal chain's lowering operators, per vector ---------------------

class PerVectorChain:
    """The s'/s lowering operators of an OrthogonalChain as the chain applied
    them before its projector tables: the first factor of each s'/s as a
    table, then the printed chain of extremal-projector factors p_alpha of
    the level below, each a truncated series run on the vector.  The
    methods are the chain's old ones; every other attribute is read from
    the chain."""

    def __init__(self, chain):
        self.chain = chain
        self._low = {}          # (kind, k, i) -> first factor of s'/s, pi_i acting first
        self._p_data = {}       # (M, i, j) -> the data of the factor p_alpha

    def __getattr__(self, name):
        return getattr(self.chain, name)

    def f_level(self, M, a, b):
        """Realized module matrix of the level-M generator F_ab (its
        realization counterpart is also returned)."""
        ea = self.level_entry(M, a)
        eb = self.level_entry(M, b)
        F = self.module.F
        if ea[0] == "pure" and eb[0] == "pure":
            return F(ea[1], eb[1]), self._fdef(ea[1], eb[1])
        if ea[0] == "combo" and eb[0] == "combo":
            z = SparseMat.zero(self.N, self.N)
            return SparseMat.zero(self.dim, self.dim), z
        if ea[0] == "combo":
            p, q = ea[1], ea[2]
            rm = self._fdef(p, eb[1]) - self._fdef(q, eb[1])
            return F(p, eb[1]) - F(q, eb[1]), rm
        # middle as the column index: F_{a, mid} = -F_{mid, a'} at level M
        ap = M + 1 - a
        mat_mod, mat_real = self.f_level(M, b, ap)
        return -mat_mod, -mat_real

    # -- extremal projector factors ------------------------------------------

    def _rho_sub(self, M):
        """rho of the level-M subalgebra in its epsilon coordinates."""
        r = M // 2
        if M % 2:
            return [Fraction(2 * (r - j) + 1, 2) for j in range(1, r + 1)]
        return [Fraction(r - j) for j in range(1, r + 1)]

    def _p_factor(self, M, i, j, vec):
        """Apply the factor p_alpha of the level-M extremal projector for the
        root alpha of the raising F_ij and the lowering F_ji, with scales
        normalized via t = alpha([A, B]) for their realizations A and B.
        The operators, t and the Cartan values are formed once per (M, i, j).
        """
        key = (M, i, j)
        if key not in self._p_data:
            a_mod, a_real = self.f_level(M, i, j)
            b_mod, b_real = self.f_level(M, j, i)
            h_real = commutator(a_real, b_real)
            # alpha(h) via the adjoint action on the raising vector
            br = commutator(h_real, a_real)
            k0, v0 = next(iter(a_real.entries.items()))
            t = br.get(*k0) / v0
            assert br == a_real.scale(t) and t != 0
            rho = self._rho_sub(M)
            # h_alpha + rho(h_alpha) with h_alpha = (2/t) h, valued on the
            # weight of the INPUT components (the Cartan fraction acts first)
            coeffs = [h_real.get(c, c) for c in range(M // 2)]
            rho_h = sum(c * x for c, x in zip(coeffs, rho))
            base = [(sum(c * x for c, x in zip(coeffs, w)) + rho_h) * 2 / t
                    for w in self.module.weights]
            self._p_data[key] = (a_mod, b_mod, t, base)
        a_mod, b_mod, t, base = self._p_data[key]
        out = probe = divided = vec
        k = 0
        factor = Fraction(1)
        while True:
            k += 1
            probe = a_mod.apply(probe)
            if all(x == 0 for x in probe):
                break
            factor *= Fraction(-2) / t / k
            red = []
            for x, b0 in zip(divided, base):
                if x == 0:
                    red.append(x)
                elif b0 + k == 0:
                    raise ZeroDivisionError("vanishing extremal-projector denominator")
                else:
                    red.append(x / (b0 + k))
            divided = tuple(red)
            piece = divided
            for _ in range(k):
                piece = a_mod.apply(piece)
            for _ in range(k):
                piece = b_mod.apply(piece)
            out = vec_add(out, vec_scale(factor, piece))
        return out

    def _p_chain_B(self, M, i, vec):
        """p-factors of the even subalgebra o_{2k} below the odd level
        M = 2k + 1, applied in the printed order (rightmost first)."""
        k = M // 2
        Msub = M - 1
        # rightmost first: primed columns 1'..k' (skip i'), then k..i+1
        for m in range(1, k + 1):
            if m == i:
                continue
            vec = self._p_factor(Msub, i, self._prime(Msub, m), vec)
        for j in range(k, i, -1):
            vec = self._p_factor(Msub, i, j, vec)
        return vec

    def _p_chain_D(self, M, i, vec):
        """p-factors of o_{M-1} (odd) below the even level M = 2k."""
        k = M // 2
        Msub = M - 1
        for m in range(1, k):
            if m == i:
                continue
            vec = self._p_factor(Msub, i, self._prime(Msub, m), vec)
        # the short root factor p_i, through the middle index
        vec = self._p_factor(Msub, i, (Msub + 1) // 2, vec)
        for j in range(k - 1, i, -1):
            vec = self._p_factor(Msub, i, j, vec)
        return vec

    @staticmethod
    def _prime(M, j):
        return M + 1 - j

    # -- the normalized lowering operators -------------------------------------

    def s_prime(self, k, i, vec):
        """s'_{ki}: lowering for o_{2k+1} down to o_{2k} (1 <= i <= k)."""
        M = 2 * k + 1
        if M > self.N:
            raise ValueError("level %d exceeds N" % M)
        key = ("s'", k, i)
        if key not in self._low:
            # pi_i: product of f_{ij} over j = i+1..k and primed j (skip i')
            vals = []
            for w in self.module.weights:
                total = Fraction(1)
                fi = self.cartan_value(M, i, w)
                for j in range(i + 1, k + 1):
                    total *= fi - self.cartan_value(M, j, w) + (j - i)
                for m in range(k, 0, -1):
                    if m == i:
                        continue
                    total *= fi + self.cartan_value(M, m, w) + 2 * k - i - m
                vals.append(total)
            self._low[key] = self.f_level(M, k + 1, i)[0] @ SparseMat.diag(vals)
        return self._p_chain_B(M, i, self._low[key].apply(vec))

    def s_plain(self, k, i, vec):
        """s_{ki}: lowering for o_{2k} down to o_{2k-1} (1 <= i <= k-1)."""
        M = 2 * k
        if M > self.N:
            raise ValueError("level %d exceeds N" % M)
        key = ("s", k, i)
        if key not in self._low:
            vals = []
            for w in self.module.weights:
                fi = self.cartan_value(M, i, w)
                total = Fraction(1)
                for j in range(i + 1, k):
                    total *= fi - self.cartan_value(M, j, w) + (j - i)
                f_short = 2 * (fi + k - i)
                total *= f_short * (f_short + 1)
                for m in range(k - 1, 0, -1):
                    if m == i:
                        continue
                    total *= fi + self.cartan_value(M, m, w) + 2 * k - 1 - i - m
                vals.append(total)
            gen = self.f_level(M, k, i)[0] + self.f_level(M, self._prime(M, k), i)[0]
            self._low[key] = gen @ SparseMat.diag(vals)
        return self._p_chain_D(M, i, self._low[key].apply(vec))


# -- the chain sums, per vector -----------------------------------------------

def _chain_indices(rank_k, series, i):
    """Descending chains i > i_1 > ... > i_s > -rank_k in the subalgebra
    index set (0 included only for B)."""
    pool = [t for t in range(i - 1, -rank_k, -1) if t != 0 or series == "B"]
    chains = [()]
    for t in pool:
        chains += [c + (t,) for c in chains if not c or c[-1] > t]
    return chains


def _chain_monomial(rep: BCDIrrep, i, a, chain) -> SparseMat:
    prev = i
    mono = None
    for t in chain:
        mono = rep.F(prev, t) if mono is None else mono @ rep.F(prev, t)
        prev = t
    return rep.F(prev, a) if mono is None else mono @ rep.F(prev, a)


def chain_sum_by_columns(rep: BCDIrrep, i, a, k, pool):
    """The table (matrix, raise columns) of the sum over the chains
    i > i_1 > ... > i_s > -k of F_{i i_1} ... F_{i_s a} times a Cartan
    factor acting first: the product of (f_i - f_j) over j in pool but not
    in the chain, over the product of (f_i - f_t) over t in the chain but
    not in pool.  The sum is formed as int numerators over one denominator,
    with no cache.  The raise columns are those where, for a chain with a
    nonzero monomial, a denominator vanishes under a nonzero numerator."""
    d = rep.dim
    series = rep.algebra.series
    fi = _f_diag(rep, i)
    # 2 (f_i - f_j) over the basis, as ints
    diff = {j: [int(2 * (x - y)) for x, y in zip(fi, _f_diag(rep, j))]
            for j in range(i - 1, -k, -1) if j or series == "B"}
    terms = []
    bad = set()
    for chain in _chain_indices(k, series, i):
        mono = _chain_monomial(rep, i, a, chain)
        if mono.is_zero():
            continue
        ups = [j for j in pool if j not in chain]
        downs = [t for t in chain if t not in pool]
        up = [prod(xs) for xs in zip([1] * d, *(diff[j] for j in ups))]
        down = [prod(xs) for xs in zip([1] * d, *(diff[t] for t in downs))]
        bad.update(c for c in range(d) if up[c] and not down[c])
        # the factor at column c is up[c] 2^|downs| / (down[c] 2^|ups|)
        lcd = lcm(*(x for x in down if x))
        num = [u * (lcd // x) << len(downs) if x else 0 for u, x in zip(up, down)]
        terms.append((1, SparseMat.from_num(
            d, d, {(r, c): v * num[c] for (r, c), v in mono.num.items() if num[c]},
            mono.den * lcd << len(ups))))
    return SparseMat.combination(d, d, terms), frozenset(bad)


@functools.cache
def _f_diag(rep: BCDIrrep, i):
    """Componentwise values of f_i over the module basis."""
    return [rep.algebra.f_values(w)[i] for w in rep.module.weights]


def _apply_diag(vals, vec):
    return tuple(v * x if x else x for v, x in zip(vals, vec))


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


def apply_pf(rep: BCDIrrep, i, a, vec, rank_k=None):
    """Apply pF_ia (the extremal-projector image of F_ia) to vec.

    The scalar denominators 1/((f_i - f_{i_1})...) act first, evaluated
    componentwise on the input; raises if a needed denominator vanishes."""
    alg = rep.algebra
    k = alg.n if rank_k is None else rank_k
    out = rep.F(i, a).apply(vec)
    fi = _f_diag(rep, i)
    for chain in _chain_indices(k, alg.series, i):
        if not chain:
            continue
        mono = _chain_monomial(rep, i, a, chain)
        if mono.is_zero():
            continue
        den = [Fraction(1)] * rep.dim
        for t in chain:
            ft = _f_diag(rep, t)
            den = [d * (x - y) for d, x, y in zip(den, fi, ft)]
        out = vec_add(out, mono.apply(_apply_inv_diag(den, vec)))
    return out


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
    fi = _f_diag(rep, i)
    pi_list = [j for j in range(i - 1, -k, -1)
               if (j != 0 or alg.series == "B") and not (alg.series == "D" and j == -i)]
    out = vec_zero(rep.dim)
    for chain in _chain_indices(k, alg.series, i):
        mono = _chain_monomial(rep, i, a, chain)
        if mono.is_zero():
            continue
        num = [Fraction(1)] * rep.dim
        for j in pi_list:
            if j not in chain:
                fj = _f_diag(rep, j)
                num = [p * (x - y) for p, x, y in zip(num, fi, fj)]
        w = _apply_diag(num, vec)
        leftover = [t for t in chain if t not in pi_list]
        for t in leftover:
            # only the omitted D-case factor can land here
            ft = _f_diag(rep, t)
            w = _apply_inv_diag([x - y for x, y in zip(fi, ft)], w)
        out = vec_add(out, mono.apply(w))
    return out


def apply_z_nminus(rep: BCDIrrep, vec, rank_k=None):
    """The element z_{k,-k}: chains k > i_1 > ... > i_s > -k with the
    complementary product of (f_k - f_j) factors (divided by 2 f_k in D)."""
    alg = rep.algebra
    k = alg.n if rank_k is None else rank_k
    pool = [t for t in range(k - 1, -k, -1) if t != 0 or alg.series == "B"]
    fk = _f_diag(rep, k)
    if alg.series == "D":
        vec = _apply_inv_diag([2 * x for x in fk], vec)
    out = vec_zero(rep.dim)
    for chain in _chain_indices(k, alg.series, k):
        coeff = [Fraction(1)] * rep.dim
        for j in pool:
            if j not in chain:
                fj = _f_diag(rep, j)
                coeff = [c * (x - y) for c, x, y in zip(coeff, fk, fj)]
        mono = _chain_monomial(rep, k, -k, chain)
        out = vec_add(out, mono.apply(_apply_diag(coeff, vec)))
    return out


# -- Z_ab(u0) and z_{ki} z_{i,-k}, per vector -----------------------------------

def apply_znizin(rep: BCDIrrep, i, vec, rank_k=None):
    """z_{ki} z_{i,-k} with the convention z_{kk} = 1 at i = k."""
    k = rep.algebra.n if rank_k is None else rank_k
    if i == k:
        return apply_z_nminus(rep, vec, rank_k=k)
    w = sr.apply_z(rep, i, -k, vec, rank_k=k)
    return sr.apply_z_ai(rep, k, i, w, rank_k=k)


def apply_z_interp(rep: BCDIrrep, u0, vec, rank_k=None):
    """Z_{k,-k}(u0): the interpolation form through the nodes g_i (i = 1..k
    for B/C, 1..k-1 for D) on the components where its node denominators
    are regular, the display form _apply_zab_point on the components where
    two nodes collide."""
    alg = rep.algebra
    k = alg.n if rank_k is None else rank_k
    u0 = Fraction(u0)
    top = k if alg.series in ("B", "C") else k - 1
    sq = [[(x + Fraction(1, 2)) ** 2 for x in _f_diag(rep, i)] for i in range(1, top + 1)]
    dens = [[prod(x - y for j, y in enumerate(col) if j != i) for i, x in enumerate(col)]
            for col in zip(*sq)]
    colliding = frozenset(t for t, ds in enumerate(dens) if not all(ds))
    vgood = tuple(Fraction(0) if t in colliding else x for t, x in enumerate(vec))
    out = vec_zero(rep.dim)
    if any(vgood):
        u2 = u0 * u0
        for i in range(len(sq)):
            w = tuple(x * prod(u2 - s[t] for j, s in enumerate(sq) if j != i) / dens[t][i]
                      if x else x for t, x in enumerate(vgood))
            out = vec_add(out, apply_znizin(rep, i + 1, w, rank_k=k))
    if any(vec[t] for t in colliding):
        vbad = tuple(x if t in colliding else Fraction(0) for t, x in enumerate(vec))
        out = vec_add(out, _apply_zab_point(rep, k, -k, u0, vbad, rank_k=k))
    return out


def _apply_zab_point(rep: BCDIrrep, a, b, u0, vec, rank_k=None):
    """Z_ab(u0) applied to a vector, by the series-specific display
    through the z_ai z_ib products (a, b in {-k, k})."""
    alg = rep.algebra
    k = alg.n if rank_k is None else rank_k
    u0 = Fraction(u0)
    idx_range = [i for i in range(-k + 1, k) if i != 0 or alg.series == "B"]
    fs = {i: _f_diag(rep, i) for i in idx_range}
    # with g_j = f_j + 1/2: u0 + g_j = v + f_j and g_i - g_j = f_i - f_j
    v = u0 + Fraction(1, 2)
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
        wv = sr.apply_z(rep, i, b, wv, rank_k=k)
        wv = sr.apply_z_ai(rep, a, i, wv, rank_k=k)
        zsum = vec_add(zsum, wv)
    if alg.series == "B":
        return vec_add(vec_scale(-1, head), zsum)
    total = vec_add(head, vec_scale(-1, zsum))
    if alg.series == "C":
        return total
    if 2 * u0 + 1 == 0:
        raise ZeroDivisionError("D-case Z_ab cannot be evaluated at -1/2")
    return vec_scale(Fraction(-1) / (2 * u0 + 1), total)


# -- the library's tables, applied to tuples of Fractions ----------------------
#
# The library walks its GT words on int columns (exact.column_apply); these
# test wrappers apply the tables of pF_ia, Z_ab(u0) and the s'/s lowerings
# to tuples of Fractions, as the library's apply_z functions do.

def table_pf(rep: BCDIrrep, i, a, vec, rank_k=None):
    """pF_ia applied to vec through its chain-sum table."""
    k = rep.algebra.n if rank_k is None else rank_k
    return sr._apply(sr._chain_sum(rep, i, a, k, ()), vec)


def table_zab_point(rep: BCDIrrep, a, b, u0, vec, rank_k=None):
    """Z_ab(u0) applied to vec through the table of its display form."""
    k = rep.algebra.n if rank_k is None else rank_k
    u0 = Fraction(u0)
    return sr._apply(sr._column_sum(rep, sr._at(sr._display(rep, a, b, k), u0,
                                                sr._div(rep, u0))), vec)


def matrix_on(solver, vecs, op, error) -> SparseMat:
    """The matrix on the basis vecs (tuples of ``Fraction``s), factored by
    solver, of the operator that the function op applies, one vector at a
    time; ArithmeticError(error) if an image leaves their span.  The
    library's ``_matrix_on`` applies a table by its columns to int
    columns."""
    out_cols = []
    for v in vecs:
        coeffs = solver.solve(op(v))
        if coeffs is None:
            raise ArithmeticError(error)
        out_cols.append(coeffs)
    return SparseMat.from_columns(out_cols, len(vecs))


def s_prime(chain, k, i, vec):
    """s'_{ki}: lowering for o_{2k+1} down to o_{2k} (1 <= i <= k)."""
    return chain.lowering("s'", k, i).apply(vec)


def s_plain(chain, k, i, vec):
    """s_{ki}: lowering for o_{2k} down to o_{2k-1} (1 <= i <= k-1)."""
    return chain.lowering("s", k, i).apply(vec)


# -- the Fraction construction of highest-weight modules -----------------------

_ZERO = Fraction(0)
_ONE = Fraction(1)


def build_module(real: Realization, lam, max_dim=600) -> HWModule:
    """Irreducible highest-weight module with highest weight lam.

    lam is a tuple of Fractions (eigenvalues of F_cc on the highest
    vector in cartan order).  Raises DeskScaleError beyond max_dim.  The
    module keeps each Gram block as int rows over one denominator,
    converted from the ``Fraction`` blocks of ``build_parts``.
    """
    lam = tuple(Fraction(x) for x in lam)
    weights, blocks, e_mats, f_mats = build_parts(real, lam, max_dim)
    int_blocks = {w: (off, size, *_over_lcm(gram)) for w, (off, size, gram) in blocks.items()}
    return HWModule(real, lam, weights, int_blocks, e_mats, f_mats)


def build_parts(real: Realization, lam, max_dim=600):
    """(weights, blocks, e matrices, f matrices) of the module with highest
    weight lam, blocks mapping each weight to (offset, size, Fraction Gram
    rows)."""
    lam = tuple(Fraction(x) for x in lam)
    nsimple = len(real.simples)
    e_real = [real.fdef(i, j) for i, j in real.simples]
    f_real = [real.fdef(j, i) for i, j in real.simples]
    h_real = [commutator(e_real[s], f_real[s]) for s in range(nsimple)]
    alphas = [real.root_of(e_real[s]) for s in range(nsimple)]
    # a weight lam - sum_t k_t alpha_t is keyed by its root coordinates k;
    # h_s takes the value h_lam[s] - sum_t k_t h_alpha[s][t] on it
    h_lam = [real.weight_pairing(h, lam) for h in h_real]
    h_alpha = [[real.weight_pairing(h, a) for a in alphas] for h in h_real]
    unit = [tuple(int(t == s) for t in range(nsimple)) for s in range(nsimple)]

    def down(k, s):
        return tuple(x + y for x, y in zip(k, unit[s]))

    def up(k, s):
        return tuple(x - y for x, y in zip(k, unit[s]))

    top = (0,) * nsimple
    index = {top: (0, 1, [[Fraction(1)]])}      # k -> (offset, size, gram)
    blocks = {lam: index[top]}                  # weight -> (offset, size, gram)
    weights = [lam]
    # simple index -> global column -> [(global row, value)]
    e_cols = [{} for _ in range(nsimple)]
    f_cols = [{} for _ in range(nsimple)]

    current = [top]
    while current:
        # candidate lower weights, placed in decreasing weight order
        cand = {}
        for k in current:
            for s in range(nsimple):
                cand.setdefault(down(k, s), set()).add(s)
        cand_weight = {kd: tuple(x - sum(kt * a[i] for kt, a in zip(kd, alphas))
                                 for i, x in enumerate(lam)) for kd in cand}
        next_level = []
        for kd in sorted(cand, key=cand_weight.get, reverse=True):
            cands = []          # (s, t, up block, global index of b_t): f_s b_t
            h_val = {}          # s -> value of h_s on the weight of f_s's source
            for s in sorted(cand[kd]):
                ku = up(kd, s)
                if ku in index:
                    ou, nu, _ = index[ku]
                    cands.extend((s, t, ku, ou + t) for t in range(nu))
                    h_val[s] = h_lam[s] - sum(x * a for x, a in zip(ku, h_alpha[s]))
            if not cands:
                continue
            # raising action on candidates, e_j f_s b_t = f_s e_j b_t (+ h_s b_t
            # if s == j), over the nonzeros of the stored e and f columns
            raises = {}
            for j in range(nsimple):
                kj = up(kd, j)
                if kj not in index:
                    continue
                oj, nj, _ = index[kj]
                cols = []
                for (s, t, _, g) in cands:
                    col = [_ZERO] * nj
                    if s == j:
                        col[t] = h_val[s]
                    fs = f_cols[s]
                    for r, cval in e_cols[j].get(g, ()):
                        for q, fval in fs[r]:
                            col[q - oj] += cval * fval
                    cols.append(col)
                raises[j] = cols
            # Gram of candidates via <f_s b, c> = <b, e_s c>; it is symmetric,
            # so the entries with b >= a are summed and mirrored
            m = len(cands)
            gram = [[None] * m for _ in range(m)]
            for a, (s, t, ku, _) in enumerate(cands):
                gup = index[ku][2][t]
                cols = raises[s]
                for b in range(a, m):
                    gram[a][b] = gram[b][a] = sum(
                        (x * y for x, y in zip(gup, cols[b]) if y), _ZERO)
            chosen, expansions = _gram_basis(gram)
            if not chosen:
                continue
            # blocks are accepted in basis order: place this one next
            off, size = len(weights), len(chosen)
            if off + size > max_dim:
                raise DeskScaleError("module dimension exceeds the cap %d" % max_dim)
            wd = cand_weight[kd]
            index[kd] = blocks[wd] = (off, size, [[gram[a][b] for b in chosen] for a in chosen])
            weights.extend([wd] * size)
            for j, cols in raises.items():
                oj = index[up(kd, j)][0]
                for c, b in enumerate(chosen):
                    e_cols[j][off + c] = [(oj + r, v) for r, v in enumerate(cols[b]) if v]
            for (s, _, _, g), x in zip(cands, expansions):
                f_cols[s][g] = [(off + q, v) for q, v in enumerate(x) if v]
            next_level.append(kd)
        current = next_level

    dim = len(weights)

    def assemble(cols):
        return SparseMat(dim, dim, {(r, c): v for c, col in cols.items() for r, v in col})

    return weights, blocks, [assemble(c) for c in e_cols], [assemble(c) for c in f_cols]


def _gram_basis(gram):
    """Basis and expansions of a positive semidefinite Gram block.

    The columns go in order through one ``Fraction`` SpanSolver
    (``exact_reference``): the independent ones are the chosen basis, and
    expansions[b] writes column b over them (a unit vector for a chosen
    column), solved over the columns up to b.  In a symmetric matrix the
    residual of column j vanishes on every earlier row, so the form is
    positive semidefinite exactly when each independent column pivots at
    its own row with a positive value; any other pivot raises
    ArithmeticError.
    """
    solver = exact_reference.SpanSolver([], len(gram))
    chosen = []
    coeffs = []
    for j, col in enumerate(gram):          # symmetric: row j is column j
        x = None
        if solver.add(col):
            p, v = solver.last_pivot
            if p != j or v < 0:
                raise ArithmeticError("contravariant form is not positive semidefinite")
            chosen.append(j)
        else:
            x = solver.solve(col)
        coeffs.append(x)
    expansions = []
    for b, x in enumerate(coeffs):
        if x is None:
            expansions.append([_ONE if c == b else _ZERO for c in chosen])
        else:
            expansions.append([x[c] if c < b else _ZERO for c in chosen])
    return chosen, expansions


# -- the all-pairs algebra span behind HWModule.realize ------------------------

def algebra_span_all_pairs(module: HWModule):
    """Bracket closure of the realized simple generators, paired with
    their realization counterparts, and a solver over the flattened
    realization matrices of the pairs: every frontier pair is bracketed
    with every accepted pair, and each realization bracket is kept if it
    is independent of the pairs before it."""
    real = module.realization
    n = len(real.labels)
    pairs = []
    solver = SpanSolver([], n * n)

    def accept(rm):
        # one reduction; a dependent rm gets no column
        res, k, steps = solver._reduce(_flat(rm, n))
        return bool(res) and solver._append(res, k, steps)

    for c in real.cartan:
        rm = real.fdef(c, c)
        if accept(rm):
            pairs.append((rm, module.cartan_matrix(c)))
    frontier = []
    for s, (i, j) in enumerate(real.simples):
        for rm, mm in ((real.fdef(i, j), module._e[s]), (real.fdef(j, i), module._f[s])):
            if accept(rm):
                pairs.append((rm, mm))
                frontier.append((rm, mm))
    while frontier:
        new = []
        for ra, ma in frontier:
            for rb, mb in list(pairs):
                rc = commutator(ra, rb)
                if accept(rc):
                    pair = (rc, commutator(ma, mb))
                    pairs.append(pair)
                    new.append(pair)
        frontier = new
    return pairs, solver


def realize_over(span, module: HWModule, real_mat: SparseMat) -> SparseMat:
    """HWModule.realize over span, a (pairs, solver) of module."""
    pairs, solver = span
    coeffs = solver.solve(_flat(real_mat, len(module.realization.labels)))
    if coeffs is None:
        raise ValueError("element is not in the realized algebra span")
    return SparseMat.combination(module.dim, module.dim,
                                 ((c, mm) for c, (_, mm) in zip(coeffs, pairs)))


# -- the flattened matrices, commutator roots and Fraction fdefs ---------------

def _flat(m: SparseMat, n):
    """Row-major entries of an n x n realization matrix: ints if it is
    integral, else Fractions."""
    out = [0] * (n * n)
    for (r, c), v in m.num.items():
        out[r * n + c] = v if m.den == 1 else Fraction(v, m.den)
    return out


def root_of(real: Realization, mat: SparseMat):
    """Realization.root_of by commutators: the eigenvalue of ad fdef(c, c)
    on mat, read at the first entry where the bracket is nonzero and
    checked on the whole bracket."""
    out = []
    for c in real.cartan:
        br = commutator(real.fdef(c, c), mat)
        scal = Fraction(0)
        for key, v in mat.entries.items():
            if br.get(*key) != 0:
                scal = br.get(*key) / v
                break
        if br != mat.scale(scal):
            raise ValueError("not a weight vector for the Cartan")
        out.append(scal)
    return tuple(out)


def fdef_fraction(alg, i, j) -> SparseMat:
    """ClassicalAlgebra.fdef as it was built before, from Fraction entries
    on every call."""
    ent = {(alg._pos[i], alg._pos[j]): Fraction(1)}
    key = (alg._pos[-j], alg._pos[-i])
    ent[key] = ent.get(key, Fraction(0)) - alg.theta(i, j)
    return SparseMat(alg.N, alg.N, ent)


def chain_fdef_fraction(chain, i, j) -> SparseMat:
    """OrthogonalChain._fdef as it was built before."""
    N = chain.N
    ent = {(i - 1, j - 1): Fraction(1)}
    key = (N - j, N - i)
    ent[key] = ent.get(key, Fraction(0)) - 1
    return SparseMat(N, N, ent)
