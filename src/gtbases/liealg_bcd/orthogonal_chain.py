"""Orthogonal Gelfand-Tsetlin bases through the alternating reductions
o_M > o_{M-1}, in the positive-convention realization with indices 1..N
and F_ij = E_ij - E_{j'i'}, i' = N - i + 1.

Each algebra of the chain is realized inside the top one; below the top,
the odd members acquire a middle index realized by differences of two
generators of the even member above (the 1/sqrt(2) normalizations of
those combinations are dropped, which only rescales the lowering
operators and leaves spans and orthogonality untouched).

The lowering operators s'_{ki} and s_{ki} are the extremal projector of the
level below (Asherova-Smirnov-Tolstoy; see OrthogonalChain.projector)
applied after a generator and a Cartan factor pi_i, one table per chain.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from ..exact import (SpanSolver, SparseMat, _columns, apply_words, column_apply,
                     column_fractions, columns_matrix, scale_columns)
from .. import branching as _branching
from .. import patterns as _patterns
from .construction import (MAX_RANK, Realization, build_module, raising_kernel,
                           refuse_beyond_caps, unit_pair)


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
        self._fdefs = {}
        real = self._realization()
        self.module = build_module(real, [Fraction(x, 2) for x in lam], max_dim)
        self.dim = self.module.dim
        self._low = {}          # (kind, k, i) -> the table of s'/s
        self._proj = {}         # level L -> the extremal projector of o_L

    # -- realization ---------------------------------------------------------

    def _fdef(self, i, j) -> SparseMat:
        """F_ij, made once per (i, j)."""
        if (i, j) not in self._fdefs:
            N = self.N
            self._fdefs[i, j] = unit_pair(N, (i - 1, j - 1), (N - j, N - i))
        return self._fdefs[i, j]

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

    def f_level(self, M, a, b) -> SparseMat:
        """Realized module matrix of the level-M generator F_ab."""
        ea = self.level_entry(M, a)
        eb = self.level_entry(M, b)
        F = self.module.F
        if ea[0] == "pure" and eb[0] == "pure":
            return F(ea[1], eb[1])
        if ea[0] == "combo" and eb[0] == "combo":
            return SparseMat.zero(self.dim, self.dim)
        if ea[0] == "combo":
            p, q = ea[1], ea[2]
            return F(p, eb[1]) - F(q, eb[1])
        # middle as the column index: F_{a, mid} = -F_{mid, a'} at level M
        return -self.f_level(M, b, M + 1 - a)

    def cartan_value(self, M, j, w):
        """Value of the level-M Cartan element F_jj on a weight w."""
        ent = self.level_entry(M, j)
        assert ent[0] == "pure"
        label = ent[1]
        if label <= self.n:
            return w[label - 1]
        if self.N - label + 1 <= self.n:
            return -w[self.N - label]
        return 0

    # -- the extremal projector ------------------------------------------------

    def projector(self, L) -> SparseMat:
        """The extremal projector of the level-L algebra o_L.

        On a finite-dimensional module it is the projection onto V^+, the
        joint kernel of the raising F_ab (a < b) of o_L, along n_- V.  The
        adjoint of a raising operator under the contravariant form is a
        lowering one, so V^+ is orthogonal to n_- V, and the form is
        positive definite: with H a basis of V^+ and G the Gram matrix the
        projector is H (H^T G H)^-1 H^T G.  It commutes with the Cartan
        elements of o_N that commute with o_L, so it acts within groups of
        weight blocks: single blocks, except at an odd level below the top,
        whose middle index mixes weight coordinate (L + 1)/2, so that a
        group joins the blocks that differ only there.
        """
        if L not in self._proj:
            key = (lambda w, r=L // 2: w[:r] + w[r + 1:]) if L % 2 and L < self.N else None
            raising = [self.f_level(L, a, b) for a in range(1, L + 1) for b in range(a + 1, L + 1)]
            # G's numerators row by row: a positive scale of G leaves the
            # projector as it is, and G pairs only columns of one group
            gram = {}
            for (i, j), v in self.module.gram_matrix().num.items():
                gram.setdefault(i, []).append((j, v))
            parts = []
            for _, cols, kernel in raising_kernel(self.module, raising, key):
                if not kernel:
                    continue
                pos = {c: j for j, c in enumerate(cols)}
                g = SparseMat.from_num(len(cols), len(cols), {
                    (pos[i], pos[j]): v for i in cols for j, v in gram.get(i, ())})
                # H scaled to ints, which leaves the projector as it is
                h = SparseMat.from_num(len(cols), len(kernel),
                                       SparseMat.from_columns(kernel, len(cols)).num)
                gh = g @ h
                # h^T g h is symmetric, so its rows are its columns; and
                # h^T g = (g h)^T, so the rows of g h are the columns to solve
                solver = SpanSolver(_columns(h.transpose() @ gh), h.ncols)
                parts.append((cols, h @ SparseMat.from_columns(
                    [solver.solve(row) for row in _columns(gh.transpose())], h.ncols)))
            den = lcm(*(p.den for _, p in parts))
            self._proj[L] = SparseMat.from_num(self.dim, self.dim, {
                (cols[i], cols[j]): v * (den // p.den)
                for cols, p in parts for (i, j), v in p.num.items()}, den)
        return self._proj[L]

    # -- the normalized lowering operators -------------------------------------

    def lowering(self, kind, k, i) -> SparseMat:
        """The table of s'_{ki} (kind "s'", level M = 2k + 1) or s_{ki}
        (kind "s", M = 2k): the extremal projector of level M - 1 after the
        generator and the Cartan factor pi_i, which acts first."""
        key = (kind, k, i)
        if key not in self._low:
            M = 2 * k + 1 if kind == "s'" else 2 * k
            if M > self.N:
                raise ValueError("level %d exceeds N" % M)
            # pi_i per weight from its doubled Cartan values c: the 2 f_{ij}
            # over j = i+1..top and primed j (skip i'), each over 2, and for
            # s the short root factor
            top = k if kind == "s'" else k - 1
            pis, e = [0] * self.dim, 0
            for w, (off, size) in self.module.weight_slices().items():
                w = tuple(int(2 * x) for x in w)
                c = {j: self.cartan_value(M, j, w) for j in range(1, top + 1)}
                fs = [c[i] - c[j] + 2 * (j - i) for j in range(i + 1, top + 1)] + [
                    c[i] + c[m] + 2 * (M - 1 - i - m) for m in range(top, 0, -1) if m != i]
                total, e = prod(fs), len(fs)
                if kind == "s":
                    total *= (c[i] + 2 * (k - i)) * (c[i] + 2 * (k - i) + 1)
                pis[off:off + size] = [total] * size
            if kind == "s'":
                gen = self.f_level(M, k + 1, i)
            else:
                gen = self.f_level(M, k, i) + self.f_level(M, M + 1 - k, i)
            self._low[key] = scale_columns(self.projector(M - 1) @ gen, pis, 2 ** e)
        return self._low[key]


def _orth_walk(chain: OrthogonalChain):
    """(patterns, the int columns of orth_gt_basis)."""
    pats = _patterns.enumerate_patterns(chain.family, chain.lam)
    n = chain.n
    words = []
    for p in pats:
        word = []
        if chain.family == "B4":
            for k in range(n, 0, -1):
                for i in range(k, 0, -1):
                    word += [("s'", k, i)] * ((p.lam[k - 1][i - 1] - p.lamp[k - 1][i - 1]) // 2)
                for i in range(k - 1, 0, -1):
                    word += [("s", k, i)] * ((p.lamp[k - 1][i - 1] - p.lam[k - 2][i - 1]) // 2)
        else:
            for k in range(n - 1, 0, -1):
                for i in range(k, 0, -1):
                    word += [("s", k + 1, i)] * ((p.lam[k][i - 1] - p.lamp[k - 1][i - 1]) // 2)
                for i in range(k, 0, -1):
                    word += [("s'", k, i)] * ((p.lamp[k - 1][i - 1] - p.lam[k - 1][i - 1]) // 2)
        words.append(word)
    return pats, apply_words(({0: 1}, 1), words,
                             lambda letter: column_apply(chain.lowering(*letter)))


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
    pats, cols = _orth_walk(chain)
    return pats, [column_fractions(c, chain.dim) for c in cols]


def orth_basis_checks(chain: OrthogonalChain) -> bool:
    """Count, and B^T G B diagonal with a positive diagonal, B the basis as
    columns and G the Gram matrix: pairwise orthogonality and positive
    norms.  Independence follows, since B^T G B is then invertible."""
    pats, cols = _orth_walk(chain)
    if len(cols) != chain.dim:
        return False
    b = columns_matrix(cols, chain.dim)
    d = b.transpose() @ (chain.module.gram_matrix() @ b)
    return len(d.num) == chain.dim and all(r == c and v > 0 for (r, c), v in d.num.items())
