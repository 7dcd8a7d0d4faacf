"""Orthogonal Gelfand-Tsetlin bases through the alternating reductions
o_M > o_{M-1}, in the positive-convention realization with indices 1..N
and F_ij = E_ij - E_{j'i'}, i' = N - i + 1.

Each algebra of the chain is realized inside the top one; below the top,
the odd members acquire a middle index realized by differences of two
generators of the even member above (the 1/sqrt(2) normalizations of
those combinations are dropped, which only rescales the lowering
operators and leaves spans and orthogonality untouched).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from ..exact import SparseMat, apply_words, commutator, vec_add, vec_scale, vec_unit
from .. import branching as _branching
from .. import patterns as _patterns
from .construction import MAX_RANK, Realization, build_module, refuse_beyond_caps


class OrthogonalChain:
    """Module over o_N (positive convention) plus the reduction machinery."""

    def __init__(self, N, lam, max_dim=600):
        if N < 2:
            raise ValueError("need N >= 2")
        self.N = N
        self.n = N // 2
        lam = tuple(lam)
        if len(lam) != self.n:
            raise ValueError("weight length != rank")
        fam = "B4" if N % 2 else "D4"
        refuse_beyond_caps("o_%d" % N, self.n, MAX_RANK,
                           lambda: _branching.weyl_dim(fam[0], _patterns.check_dominant(fam, lam)),
                           max_dim)
        self.family = fam
        self.lam = lam
        real = self._realization()
        self.module = build_module(real, [Fraction(x, 2) for x in lam], max_dim)
        self.dim = self.module.dim
        self._low = {}          # (kind, k, i) -> first factor of s'/s, pi_i acting first
        self._p_data = {}       # (M, i, j) -> the data of the factor p_alpha

    # -- realization ---------------------------------------------------------

    def _fdef(self, i, j) -> SparseMat:
        N = self.N
        ent = {(i - 1, j - 1): Fraction(1)}
        key = (N - j, N - i)
        ent[key] = ent.get(key, Fraction(0)) - 1
        return SparseMat(N, N, ent)

    def _realization(self) -> Realization:
        n, N = self.n, self.N
        simples = [(i, i + 1) for i in range(1, n)]
        if N % 2:
            simples.append((n, n + 1))
        elif n >= 2:
            simples.append((n - 1, n + 1))
        return Realization(list(range(1, N + 1)), self._fdef,
                           list(range(1, n + 1)), simples)

    # -- level resolution ------------------------------------------------------

    def level_entry(self, M, pos):
        """Big-index content of position pos (1-based) of the level-M member.

        Returns ("pure", label) or ("combo", p, q) for the middle position
        of an odd member below the top.
        """
        r = M // 2
        if pos <= r:
            return ("pure", pos)
        if pos > M - r:
            return ("pure", self.N - M + pos)
        # odd M, middle position r+1
        if M == self.N:
            return ("pure", r + 1)
        return ("combo", r + 1, self.N - r)

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

    def cartan_value(self, M, j, w):
        """Value of the level-M Cartan element F_jj on a weight w."""
        ent = self.level_entry(M, j)
        assert ent[0] == "pure"
        label = ent[1]
        if label <= self.n:
            return w[label - 1]
        if self.N - label + 1 <= self.n:
            return -w[self.N - label]
        return Fraction(0)

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


def orth_gt_basis(chain: OrthogonalChain):
    """One vector per B4/D4 pattern by the chain product formulas.

    Returns (patterns, vectors).  The operator products are applied in
    branching order: for each level the odd-to-even lowerings s' act
    before the even-to-odd lowerings s of the same level, descending the
    chain from the top.  (Applying the printed products rightmost factor
    first instead produces zero or non-orthogonal vectors, e.g. for o_5
    with top row (1,1); the factors do not commute across the two
    reduction types, and only the branching order keeps every operator on
    the highest-vector subspace it is defined on.)
    """
    pats = _patterns.enumerate_patterns(chain.family, chain.lam)
    n = chain.n
    s1, s0 = chain.s_prime, chain.s_plain      # a letter (s, k, i) applies s(k, i, .)
    words = []
    for p in pats:
        word = []
        if chain.family == "B4":
            for k in range(n, 1, -1):
                for i in range(k, 0, -1):
                    word += [(s1, k, i)] * ((p.lam[k - 1][i - 1] - p.lamp[k - 1][i - 1]) // 2)
                for i in range(k - 1, 0, -1):
                    word += [(s0, k, i)] * ((p.lamp[k - 1][i - 1] - p.lam[k - 2][i - 1]) // 2)
            word += [(s1, 1, 1)] * ((p.lam[0][0] - p.lamp[0][0]) // 2)
        else:
            for k in range(n - 1, 0, -1):
                for i in range(k, 0, -1):
                    word += [(s0, k + 1, i)] * ((p.lam[k][i - 1] - p.lamp[k - 1][i - 1]) // 2)
                for i in range(k, 0, -1):
                    word += [(s1, k, i)] * ((p.lamp[k - 1][i - 1] - p.lam[k - 1][i - 1]) // 2)
        words.append(word)
    return pats, apply_words(vec_unit(chain.dim, 0), words, lambda letter: partial(*letter))


def orth_basis_checks(chain: OrthogonalChain) -> bool:
    """Count, pairwise orthogonality and positive norms.  Independence
    follows: the form is symmetric, so pairing sum_a c_a v_a = 0 with v_b
    leaves c_b <v_b, v_b> = 0.  The form pairs distinct weights to 0, so
    only pairs of vectors that meet a common weight block are summed."""
    pats, vecs = orth_gt_basis(chain)
    if len(vecs) != chain.dim:
        return False
    slices = chain.module.weight_slices().values()
    blocks = [{off for off, size in slices if any(v[off:off + size])} for v in vecs]
    for a, u in enumerate(vecs):
        if chain.module.inner(u, u) <= 0:
            return False
        for b in range(a + 1, len(vecs)):
            if not blocks[a].isdisjoint(blocks[b]) and chain.module.inner(u, vecs[b]):
                return False
    return True
