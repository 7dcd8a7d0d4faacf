"""Orthogonal Gelfand-Tsetlin bases through the alternating reductions
o_M > o_{M-1}, in the positive-convention realization with indices 1..N
and F_ij = E_ij - E_{j'i'}, i' = N - i + 1.

Each algebra of the chain is realized inside the top one; below the top,
the odd members acquire a middle index realized by differences of two
generators of the even member above (the 1/sqrt(2) normalizations of
those combinations are dropped, which only rescales the lowering
operators and leaves spans and orthogonality untouched).

The lowering operators s'_{ki} and s_{ki} are the extremal projector of the
level below applied after a generator and a Cartan factor pi_i.  On a
finite-dimensional module that projector is the projection onto the vectors
its raising operators kill, along the image of its lowering ones
(Asherova-Smirnov-Tolstoy), so each s'/s is one table per chain, formed from
the kernel and the Gram matrix group by group of weight blocks; at an odd
level below the top a group joins the blocks that differ only in the weight
coordinate the middle index mixes.
"""

from __future__ import annotations

from fractions import Fraction

from ..exact import SpanSolver, SparseMat, apply_words, vec_unit
from .. import branching as _branching
from .. import patterns as _patterns
from .construction import MAX_RANK, Realization, build_module, raising_kernel, refuse_beyond_caps


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
        self._low = {}          # (kind, k, i) -> the table of s'/s
        self._proj = {}         # level L -> the extremal projector of o_L

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
        return Fraction(0)

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
            ent = {}
            for _, cols, kernel in raising_kernel(self.module, raising, key):
                if not kernel:
                    continue
                pos = {c: j for j, c in enumerate(cols)}
                g = SparseMat.from_num(len(cols), len(cols), {
                    (pos[i], pos[j]): v for i in cols for j, v in gram.get(i, ())})
                h = SparseMat.from_columns(kernel, len(cols))
                gh = g @ h
                # h^T g h is symmetric, so its rows are its columns; and
                # h^T g = (g h)^T, so the rows of g h are the columns to solve
                solver = SpanSolver((h.transpose() @ gh).to_rows(), h.ncols)
                p = h @ SparseMat.from_columns([solver.solve(row) for row in gh.to_rows()],
                                               h.ncols)
                ent.update(((cols[i], cols[j]), v) for (i, j), v in p.entries.items())
            self._proj[L] = SparseMat(self.dim, self.dim, ent)
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
            # pi_i: the f_{ij} over j = i+1..top and primed j (skip i'),
            # and for s the short root factor
            top = k if kind == "s'" else k - 1
            vals = []
            for w in self.module.weights:
                fi = self.cartan_value(M, i, w)
                total = Fraction(1)
                for j in range(i + 1, top + 1):
                    total *= fi - self.cartan_value(M, j, w) + (j - i)
                for m in range(top, 0, -1):
                    if m != i:
                        total *= fi + self.cartan_value(M, m, w) + M - 1 - i - m
                if kind == "s":
                    f_short = 2 * (fi + k - i)
                    total *= f_short * (f_short + 1)
                vals.append(total)
            if kind == "s'":
                gen = self.f_level(M, k + 1, i)
            else:
                gen = self.f_level(M, k, i) + self.f_level(M, M + 1 - k, i)
            self._low[key] = self.projector(M - 1) @ gen @ SparseMat.diag(vals)
        return self._low[key]

    def s_prime(self, k, i, vec):
        """s'_{ki}: lowering for o_{2k+1} down to o_{2k} (1 <= i <= k)."""
        return self.lowering("s'", k, i).apply(vec)

    def s_plain(self, k, i, vec):
        """s_{ki}: lowering for o_{2k} down to o_{2k-1} (1 <= i <= k-1)."""
        return self.lowering("s", k, i).apply(vec)


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
    words = []
    for p in pats:
        word = []
        if chain.family == "B4":
            for k in range(n, 1, -1):
                for i in range(k, 0, -1):
                    word += [("s'", k, i)] * ((p.lam[k - 1][i - 1] - p.lamp[k - 1][i - 1]) // 2)
                for i in range(k - 1, 0, -1):
                    word += [("s", k, i)] * ((p.lamp[k - 1][i - 1] - p.lam[k - 2][i - 1]) // 2)
            word += [("s'", 1, 1)] * ((p.lam[0][0] - p.lamp[0][0]) // 2)
        else:
            for k in range(n - 1, 0, -1):
                for i in range(k, 0, -1):
                    word += [("s", k + 1, i)] * ((p.lam[k][i - 1] - p.lamp[k - 1][i - 1]) // 2)
                for i in range(k, 0, -1):
                    word += [("s'", k, i)] * ((p.lamp[k - 1][i - 1] - p.lam[k - 1][i - 1]) // 2)
        words.append(word)
    return pats, apply_words(vec_unit(chain.dim, 0), words,
                             lambda letter: chain.lowering(*letter).apply)


def orth_basis_checks(chain: OrthogonalChain) -> bool:
    """Count, and B^T G B diagonal with a positive diagonal, B the basis as
    columns and G the Gram matrix: pairwise orthogonality and positive
    norms.  Independence follows, since B^T G B is then invertible."""
    pats, vecs = orth_gt_basis(chain)
    if len(vecs) != chain.dim:
        return False
    b = SparseMat.from_columns(vecs, chain.dim)
    d = b.transpose() @ (chain.module.gram_matrix() @ b)
    return len(d.num) == chain.dim and all(r == c and v > 0 for (r, c), v in d.num.items())
