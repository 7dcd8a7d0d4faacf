"""Exact construction of finite-dimensional highest-weight modules.

The constructor takes the defining matrix realization of a semisimple Lie
algebra (generators F_ij as small int matrices), a choice of simple
raising/lowering pairs and a highest weight, and builds the irreducible
quotient weight space by weight space: each space is spanned by simple
lowerings of the spaces one level up and cut to the rank of its Gram
matrix, whose kernel is the maximal submodule of the Verma module.  The
loop runs on ints: weights are keyed by root coordinates, e/f columns and
raisings are (den, ints), and each symmetric Gram block is summed on and
above its diagonal as int rows over one denominator; one fraction-free
Gauss-Jordan pass (_gram_basis) picks each block's basis, in order (depth,
then weight), expands the lowerings in it and checks that the form is
positive semidefinite.  ``Fraction``s are made only for ``weights``, the
e/f matrices and, on first read, ``blocks``.  Generators are transported
to the module by root (HWModule._algebra_span and realize).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cached_property
from operator import add, mul

from ..exact import SparseMat, commutator, nullspace


class DeskScaleError(RuntimeError):
    """Construction refused: the request exceeds the configured size caps."""


MAX_RANK = 3    # the desk-scale rank cap of o_N and sp_2n


def refuse_beyond_caps(name, rank, max_rank, dimension, max_dim):
    """Raise DeskScaleError when rank exceeds max_rank or, after that, when
    dimension(), the predicted dimension of the module called name (e.g.
    "sp_6"), exceeds max_dim; so a refusal comes before anything is built."""
    if rank > max_rank:
        raise DeskScaleError("rank %d exceeds the cap %d" % (rank, max_rank))
    dim = dimension()
    if dim > max_dim:
        raise DeskScaleError("%s module of dimension %d exceeds the cap %d"
                             % (name, dim, max_dim))


def unit_pair(n, pq, rs, theta=1) -> SparseMat:
    """The n x n int matrix E_pq - theta E_rs."""
    ent = {pq: 1}
    ent[rs] = ent.get(rs, 0) - theta
    return SparseMat.from_num(n, n, {k: v for k, v in ent.items() if v})


class Realization:
    """Defining matrix realization used to drive the construction.

    labels: index labels in matrix order; fdef(i, j) returns the N x N
    generator; cartan: labels whose fdef(c, c) span the Cartan subalgebra;
    simples: list of (i, j) pairs, e = F_ij raising, F_ji lowering.
    """

    def __init__(self, labels, fdef, cartan, simples):
        self.labels = list(labels)
        self.pos = {a: t for t, a in enumerate(self.labels)}
        self.fdef = fdef
        self.cartan = list(cartan)
        self.simples = list(simples)
        self.rank = len(self.cartan)

    def weight_pairing(self, h_real: SparseMat, w) -> Fraction:
        """Value on a weight of h_real in the span of the fdef(c, c), whose
        coefficient over F_cc is read off the diagonal at position c."""
        return sum((h_real.get(self.pos[c], self.pos[c]) * w[t]
                    for t, c in enumerate(self.cartan)), Fraction(0))

    def _root(self, mat: SparseMat):
        """root_of(mat) as ints, each over the den of its fdef(c, c)."""
        out = []
        for c in self.cartan:
            h = self.fdef(c, c).num
            vals = {h.get((p, p), 0) - h.get((q, q), 0) for p, q in mat.num}
            if len(vals) > 1:
                raise ValueError("not a weight vector for the Cartan")
            out.append(max(vals, default=0))
        return tuple(out)

    def root_of(self, mat: SparseMat):
        """Weight of a realization root vector under ad of the diagonal
        Cartan: [h, E_pq] = (h_pp - h_qq) E_pq at every entry (p, q)."""
        return tuple(Fraction(x, self.fdef(c, c).den)
                     for x, c in zip(self._root(mat), self.cartan))


class HWModule:
    """Constructed module: global basis ordered by depth, then weight."""

    def __init__(self, realization, lam, weights, blocks, e_mats, f_mats):
        self.realization = realization
        self.lam = tuple(lam)
        self.weights = weights          # weight tuple per basis index
        self._gram = blocks             # weight -> (offset, size, den, int gram rows)
        self.dim = len(weights)
        self._e = e_mats                # simple index -> global SparseMat
        self._f = f_mats
        self._fmat = {}                 # realized generators, filled lazily
        self._span = None

    # -- contravariant form ------------------------------------------------

    @cached_property
    def blocks(self):
        """weight -> (offset, size, Fraction gram rows), made on first read."""
        return {w: (off, size, [[Fraction(v, den) for v in row] for row in gram])
                for w, (off, size, den, gram) in self._gram.items()}

    def inner(self, u, v) -> Fraction:
        """Contravariant form; basis vectors of distinct weights are
        orthogonal, within a weight space the stored Gram block applies."""
        total = Fraction(0)
        for off, size, den, gram in self._gram.values():
            vs = v[off:off + size]
            total += Fraction(sum(x * y * z for x, row in zip(u[off:off + size], gram) if x
                                  for y, z in zip(row, vs) if z), den)
        return total

    def gram_matrix(self) -> SparseMat:
        L = math.lcm(*(den for _, _, den, _ in self._gram.values()))
        return SparseMat.from_num(self.dim, self.dim, {
            (off + a, off + b): v * (L // den) for off, size, den, gram in self._gram.values()
            for a, row in enumerate(gram) for b, v in enumerate(row) if v}, L)

    # -- realized generators -------------------------------------------------

    def cartan_matrix(self, c) -> SparseMat:
        t = self.realization.cartan.index(c)
        den = math.lcm(*(w[t].denominator for w in self._gram))
        return SparseMat.from_num(self.dim, self.dim, {
            (i, i): w[t].numerator * (den // w[t].denominator)
            for w, (off, size, _, _) in self._gram.items() if w[t]
            for i in range(off, off + size)}, den)

    def _algebra_span(self):
        """(realization, module) pairs over a basis of the algebra, and
        {key: t}, key an entry where pair t's realization matrix alone is
        nonzero (root vectors of distinct roots have disjoint supports, the
        Cartan is diagonal; else ValueError).

        The basis is the Cartan and one vector per root: root spaces are
        lines, each reached from a simple one by brackets with the simple
        e_s and f_s, and a bracket of root vectors is zero only if the sum
        of their roots is not a root (Humphreys 8.4, 10.2), so a bracket is
        formed only for a root not seen.
        """
        if self._span is not None:
            return self._span
        real = self.realization
        simple = []
        for (i, j), me, mf in zip(real.simples, self._e, self._f):
            simple += [(real._root(rm), rm, mm) for rm, mm in ((real.fdef(i, j), me),
                                                              (real.fdef(j, i), mf))]
        pairs = [(real.fdef(c, c), self.cartan_matrix(c)) for c in real.cartan]
        seen = {(0,) * real.rank, *(root for root, _, _ in simple)}
        frontier = simple
        while frontier:
            pairs += [(rm, mm) for _, rm, mm in frontier]
            new = []
            for ra, rm, mm in frontier:
                for rb, rs, ms in simple:
                    root = tuple(map(add, ra, rb))
                    if root not in seen:
                        seen.add(root)
                        rc = commutator(rm, rs)
                        if not rc.is_zero():
                            new.append((root, rc, commutator(mm, ms)))
            frontier = new
        count = Counter(k for rm, _ in pairs for k in rm.num)
        own = {}
        for t, (rm, mm) in enumerate(pairs):
            k = next((k for k in rm.num if count[k] == 1), None)
            if k is None:
                raise ValueError("a basis element of the algebra has no entry of its own")
            # c fdef(i, j), i, j the labels of k, becomes fdef(i, j)
            f = real.fdef(real.labels[k[0]], real.labels[k[1]])
            c = Fraction(f.num.get(k, 0) * rm.den, rm.num[k] * f.den)
            if c not in (0, 1) and rm.scale(c) == f:
                pairs[t] = (f, mm.scale(c))
            own[k] = t
        self._span = (pairs, own)
        return self._span

    def F(self, i, j) -> SparseMat:
        """Realized generator matrix for the realization element F_ij."""
        key = (i, j)
        if key not in self._fmat:
            self._fmat[key] = self.realize(self.realization.fdef(i, j))
        return self._fmat[key]

    def cache_agrees(self) -> bool:
        """Every cached F(i, j) equals a fresh realize(fdef(i, j))."""
        fdef = self.realization.fdef
        return all(m == self.realize(fdef(*key)) for key, m in self._fmat.items())

    def realize(self, real_mat: SparseMat) -> SparseMat:
        """Transport a realization element to the module: each pair's
        coefficient is read at its own entry, and the sum checked."""
        pairs, own = self._algebra_span()
        terms = []
        for key, x in real_mat.num.items():
            if key in own:
                rm, mm = pairs[own[key]]
                terms.append((Fraction(x * rm.den, rm.num[key] * real_mat.den), rm, mm))
        n = len(self.realization.labels)
        if SparseMat.combination(n, n, [t[:2] for t in terms]) != real_mat:
            raise ValueError("element is not in the realized algebra span")
        if len(terms) == 1 and abs(terms[0][0]) == 1:
            c, _, mm = terms[0]
            return mm if c > 0 else -mm
        return SparseMat.combination(self.dim, self.dim, [(c, mm) for c, _, mm in terms])

    def weight_slices(self):
        return {w: (off, size) for w, (off, size, _, _) in self._gram.items()}

    def __repr__(self):
        return "HWModule(lam=%s, dim=%d)" % (self.lam, self.dim)


def raising_kernel(module: HWModule, raising, key=None):
    """[(group, columns, kernel)]: per group of weight blocks, in
    decreasing order, its basis indices (increasing) and a basis of the
    joint kernel of the raising matrices on them, ``nullspace`` of the
    stacked matrices restricted to those columns.  key maps a weight to
    its group; without it each block is its own group, keyed by its
    weight."""
    # each matrix's numerators: scaling a matrix leaves the kernel and
    # the basis nullspace reads off it as they are
    stacked = {}
    for t, m in enumerate(raising):
        for (r, c), v in m.num.items():
            stacked.setdefault(c, []).append((t * module.dim + r, v))
    groups = {}
    for w, (off, size) in module.weight_slices().items():
        groups.setdefault(w if key is None else key(w), []).extend(range(off, off + size))
    out = []
    for g, cols in sorted(groups.items(), reverse=True):
        cols.sort()
        # the group's columns, on the stacked rows that meet them (in order)
        ent = {(r, j): v for j, c in enumerate(cols) for r, v in stacked.get(c, ())}
        rows = {r: i for i, r in enumerate(sorted({r for r, _ in ent}))}
        block = SparseMat.from_num(len(rows), len(cols),
                                   {(rows[r], j): v for (r, j), v in ent.items()})
        out.append((g, cols, nullspace(block)))
    return out


def build_module(real: Realization, lam, max_dim=600) -> HWModule:
    """Irreducible highest-weight module with highest weight lam.

    lam is a tuple of Fractions (eigenvalues of F_cc on the highest
    vector in cartan order).  Raises DeskScaleError beyond max_dim.
    """
    lam = tuple(Fraction(x) for x in lam)
    nsimple = len(real.simples)
    h_real = [commutator(real.fdef(i, j), real.fdef(j, i)) for i, j in real.simples]
    alphas = [real.root_of(real.fdef(i, j)) for i, j in real.simples]
    # a weight lam - sum_t k_t alpha_t is keyed by its root coordinates k;
    # h_s takes the value h[s][0] - sum_t k_t h[s][1 + t] on it (weights are
    # ints over wden, values of h_s ints over hden)
    wden, (lam_n, *alpha_n) = _over_lcm([lam] + alphas)
    hden, h = _over_lcm([[real.weight_pairing(x, w) for w in [lam] + alphas] for x in h_real])

    def down(k, s):
        return k[:s] + (k[s] + 1,) + k[s + 1:]

    def up(k, s):
        return k[:s] + (k[s] - 1,) + k[s + 1:]

    top = (0,) * nsimple
    index = {top: (0, 1, 1, [[1]])}             # k -> (offset, size, gram den, gram)
    blocks = {lam: index[top]}                  # weight -> the same
    weights = [lam]
    # simple index -> global column -> (den, [(global row, int)])
    e_cols = [{} for _ in range(nsimple)]
    f_cols = [{} for _ in range(nsimple)]

    current = [top]
    while current:
        # candidate lower weights, placed in decreasing weight order
        cand = {}
        for k in current:
            for s in range(nsimple):
                cand.setdefault(down(k, s), set()).add(s)
        cand_weight = {kd: tuple(x - sum(kt * a[i] for kt, a in zip(kd, alpha_n))
                                 for i, x in enumerate(lam_n)) for kd in cand}
        next_level = []
        for kd in sorted(cand, key=cand_weight.get, reverse=True):
            cands = []          # (s, t, up block, global index of b_t): f_s b_t
            h_val = {}          # s -> h_s on the weight of f_s's source
            for s in sorted(cand[kd]):
                ku = up(kd, s)
                if ku in index:
                    ou, nu = index[ku][:2]
                    cands.extend((s, t, ku, ou + t) for t in range(nu))
                    h_val[s] = h[s][0] - sum(map(mul, ku, h[s][1:]))
            if not cands:
                continue
            # raising action on candidates, e_j f_s b_t = f_s e_j b_t (+ h_s b_t
            # if s == j), over the nonzeros of the stored e and f columns, as
            # (den, ints)
            raises = {}
            for j in range(nsimple):
                kj = up(kd, j)
                if kj not in index:
                    continue
                oj, nj = index[kj][:2]
                cols = []
                for (s, t, _, g) in cands:
                    de, ecol = e_cols[j].get(g, (1, ()))
                    fs = f_cols[s]
                    den = de * math.lcm(*(fs[r][0] for r, _ in ecol))
                    col = [0] * nj
                    if s == j:
                        den = math.lcm(den, hden)
                        col[t] = h_val[s] * (den // hden)
                    for r, cval in ecol:
                        fd, fcol = fs[r]
                        c = cval * (den // (de * fd))
                        for q, fval in fcol:
                            col[q - oj] += c * fval
                    cols.append((den, col))
                raises[j] = cols
            # Gram of candidates via <f_s b, c> = <b, e_s c>; it is symmetric,
            # so the entries with b >= a are summed, each as an int over its
            # own denominator, and mirrored in L * gram
            m = len(cands)
            sums = []
            for a, (s, t, ku, _) in enumerate(cands):
                _, _, gden, grows = index[ku]
                gup = grows[t]
                cols = raises[s]
                for b in range(a, m):
                    den, col = cols[b]
                    sums.append((a, b, sum(map(mul, gup, col)), gden * den))
            L = math.lcm(*(den for _, _, v, den in sums if v))
            gram = [[0] * m for _ in range(m)]
            for a, b, v, den in sums:
                if v:
                    gram[a][b] = gram[b][a] = v * (L // den)
            chosen, expansions = _gram_basis(gram)
            if not chosen:
                continue
            # blocks are accepted in basis order: place this one next
            off, size = len(weights), len(chosen)
            if off + size > max_dim:
                raise DeskScaleError("module dimension exceeds the cap %d" % max_dim)
            sub = [[gram[a][b] for b in chosen] for a in chosen]
            g = math.gcd(L, *(v for row in sub for v in row))
            sub = [[v // g for v in row] for row in sub]
            wd = tuple(Fraction(x, wden) for x in cand_weight[kd])
            index[kd] = blocks[wd] = (off, size, L // g, sub)
            weights.extend([wd] * size)
            for j, cols in raises.items():
                oj = index[up(kd, j)][0]
                for c, b in enumerate(chosen):
                    e_cols[j][off + c] = _column(*cols[b], oj)
            for (s, _, _, g), (den, x) in zip(cands, expansions):
                f_cols[s][g] = _column(den, x, off)
            next_level.append(kd)
        current = next_level

    dim = len(weights)

    def assemble(cols):
        den = math.lcm(*(d for d, _ in cols.values()))
        return SparseMat.from_num(dim, dim, {(r, c): v * (den // d)
                                             for c, (d, col) in cols.items() for r, v in col}, den)

    return HWModule(real, lam, weights, blocks,
                    [assemble(c) for c in e_cols], [assemble(c) for c in f_cols])


def _over_lcm(vectors):
    """(den, int vectors): the Fraction vectors times den, the lcm of their
    denominators."""
    den = math.lcm(*(x.denominator for v in vectors for x in v))
    return den, [[x.numerator * (den // x.denominator) for x in v] for v in vectors]


def _column(den, vals, off):
    """(den, [(off + q, v)]) over the nonzero v of the int column vals / den,
    in lowest terms."""
    g = math.gcd(den, *vals)
    return den // g, [(off + q, v // g) for q, v in enumerate(vals) if v]


def _gram_basis(gram):
    """Basis and expansions of a positive semidefinite Gram block of int rows.

    Fraction-free Gauss-Jordan on the rows in order (row j is column j)
    against kept pivot rows, each positive at its own column and zero at
    the other chosen ones.  A nonzero residual is a positive multiple of
    the Schur complement of column j: the form is positive semidefinite
    iff each vanishes before j and is positive at j; else ArithmeticError.
    expansions[b] = (den, ints) writes column b over the chosen ones:
    row_c[b] / row_c[c] on chosen c.  A positive multiple of gram gives the
    same result.
    """
    chosen, rows = [], []
    for j, res in enumerate(gram):
        for c, row in zip(chosen, rows):
            res = _clear(res, row, c)
        if any(res):
            if res[j] <= 0 or any(res[:j]):
                raise ArithmeticError("contravariant form is not positive semidefinite")
            res = _primitive(res)
            rows = [_clear(row, res, j) for row in rows] + [res]
            chosen.append(j)
    den = math.lcm(*(row[c] for c, row in zip(chosen, rows)))
    return chosen, [(1, [int(c == b) for c in chosen]) if b in chosen else
                    (den, [row[b] * (den // row[c]) for c, row in zip(chosen, rows)])
                    for b in range(len(gram))]


def _clear(v, row, c):
    """v with entry c cleared by row (positive there), divided by its content."""
    f = v[c]
    if not f:
        return v
    g = math.gcd(row[c], f)
    a, f = row[c] // g, f // g
    return _primitive([a * x - f * y for x, y in zip(v, row)])


def _primitive(v):
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v
