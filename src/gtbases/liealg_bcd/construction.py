"""Exact construction of finite-dimensional highest-weight modules.

The constructor is realization-agnostic: it takes the defining matrix
realization of a semisimple Lie algebra (generators F_ij as small exact
matrices), a choice of simple raising/lowering pairs, and a highest weight,
and builds the irreducible quotient weight space by weight space.

Each weight space is spanned by simple lowerings of the spaces one level
up; the contravariant form is computed recursively and the space is cut to
the rank of its Gram matrix (the kernel of the form is exactly the maximal
submodule of the Verma module, so the quotient is the irreducible module).
Finally every generator of the realization is transported to the module by
closing the simple generators under commutators.
"""

from __future__ import annotations

from fractions import Fraction

from ..exact import SpanSolver, SparseMat, commutator


class DeskScaleError(RuntimeError):
    """Construction refused: the request exceeds the configured size caps."""


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
        """Value of a Cartan realization element on a weight vector.

        h_real must lie in the span of the fdef(c, c); its coefficient over
        F_cc is read off the diagonal at position c.
        """
        return sum((h_real.get(self.pos[c], self.pos[c]) * w[t]
                    for t, c in enumerate(self.cartan)), Fraction(0))

    def root_of(self, mat: SparseMat):
        """Weight of a realization root vector under ad of the Cartan."""
        out = []
        for c in self.cartan:
            h = self.fdef(c, c)
            br = commutator(h, mat)
            scal = Fraction(0)
            for key, v in mat.entries.items():
                if br.get(*key) != 0:
                    scal = br.get(*key) / v
                    break
            # consistency of the eigenvalue
            if br != mat.scale(scal):
                raise ValueError("not a weight vector for the Cartan")
            out.append(scal)
        return tuple(out)


class HWModule:
    """Constructed module: global basis ordered by depth, then weight."""

    def __init__(self, realization, lam, weights, blocks, e_mats, f_mats):
        self.realization = realization
        self.lam = tuple(lam)
        self.weights = weights          # weight tuple per basis index
        self.blocks = blocks            # weight -> (offset, size, gram rows)
        self.dim = len(weights)
        self._e = e_mats                # simple index -> global SparseMat
        self._f = f_mats
        self._fmat = {}                 # realized generators, filled lazily
        self._span = None

    # -- contravariant form ------------------------------------------------

    def inner(self, u, v) -> Fraction:
        """Contravariant form; basis vectors of distinct weights are
        orthogonal, within a weight space the stored Gram block applies."""
        total = Fraction(0)
        for w, (off, size, gram) in self.blocks.items():
            for a in range(size):
                ua = u[off + a]
                if not ua:
                    continue
                row = gram[a]
                for b in range(size):
                    vb = v[off + b]
                    if vb:
                        total += ua * row[b] * vb
        return total

    def gram_matrix(self) -> SparseMat:
        ent = {}
        for w, (off, size, gram) in self.blocks.items():
            for a in range(size):
                for b in range(size):
                    if gram[a][b]:
                        ent[(off + a, off + b)] = gram[a][b]
        return SparseMat(self.dim, self.dim, ent)

    # -- realized generators -------------------------------------------------

    def cartan_matrix(self, c) -> SparseMat:
        t = self.realization.cartan.index(c)
        return SparseMat.diag([w[t] for w in self.weights])

    def _algebra_span(self):
        """Bracket closure of the realized simple generators, paired with
        their realization counterparts, and a solver over the flattened
        realization matrices of the pairs."""
        if self._span is not None:
            return self._span
        real = self.realization
        n = len(real.labels)
        pairs = []
        solver = SpanSolver([], n * n)

        def accept(rm):
            v = _flat(rm, n)
            if solver.spans(v):
                return False
            solver.add(v)
            return True

        for c in real.cartan:
            rm = real.fdef(c, c)
            if accept(rm):
                pairs.append((rm, self.cartan_matrix(c)))
        frontier = []
        for s, (i, j) in enumerate(real.simples):
            for rm, mm in ((real.fdef(i, j), self._e[s]), (real.fdef(j, i), self._f[s])):
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
        self._span = (pairs, solver)
        return self._span

    def F(self, i, j) -> SparseMat:
        """Realized generator matrix for the realization element F_ij."""
        key = (i, j)
        if key not in self._fmat:
            self._fmat[key] = self.realize(self.realization.fdef(i, j))
        return self._fmat[key]

    def realize(self, real_mat: SparseMat) -> SparseMat:
        """Transport an arbitrary realization element to the module."""
        pairs, solver = self._algebra_span()
        coeffs = solver.solve(_flat(real_mat, len(self.realization.labels)))
        if coeffs is None:
            raise ValueError("element is not in the realized algebra span")
        return SparseMat.combination(self.dim, self.dim,
                                     ((c, mm) for c, (_, mm) in zip(coeffs, pairs)))

    def weight_slices(self):
        return {w: (off, size) for w, (off, size, _) in self.blocks.items()}

    def __repr__(self):
        return "HWModule(lam=%s, dim=%d)" % (self.lam, self.dim)


def build_module(real: Realization, lam, max_dim=600) -> HWModule:
    """Irreducible highest-weight module with highest weight lam.

    lam is a tuple of Fractions (eigenvalues of F_cc on the highest
    vector in cartan order).  Raises DeskScaleError beyond max_dim.
    """
    lam = tuple(Fraction(x) for x in lam)
    nsimple = len(real.simples)
    e_real = [real.fdef(i, j) for i, j in real.simples]
    f_real = [real.fdef(j, i) for i, j in real.simples]
    h_real = [commutator(e_real[s], f_real[s]) for s in range(nsimple)]
    alphas = [real.root_of(e_real[s]) for s in range(nsimple)]

    # per-weight records
    grams = {lam: [[Fraction(1)]]}
    sizes = {lam: 1}
    raise_act = {}           # (s, w) -> rows: e_s of basis of w in basis of w+alpha_s
    lower_exp = {}           # (s, w) -> columns: f_s of basis of w expanded one level down
    levels = [[lam]]
    total = 1

    current = [lam]
    while current:
        # gather candidate lower weights
        cand_weights = {}
        for w in current:
            for s in range(nsimple):
                wd = tuple(a - b for a, b in zip(w, alphas[s]))
                cand_weights.setdefault(wd, set()).add(s)
        next_level = []
        for wd in sorted(cand_weights, reverse=True):
            cands = []
            for s in sorted(cand_weights[wd]):
                up = tuple(a + b for a, b in zip(wd, alphas[s]))
                for t in range(sizes.get(up, 0)):
                    cands.append((s, t))
            if not cands:
                continue
            # raising action on candidates: e_j (f_s b_t)
            raises = {}
            for j in range(nsimple):
                wj = tuple(a + b for a, b in zip(wd, alphas[j]))
                if wj not in sizes:
                    continue
                cols = []
                for (s, t) in cands:
                    up = tuple(a + b for a, b in zip(wd, alphas[s]))
                    col = [Fraction(0)] * sizes[wj]
                    if s == j:
                        col[t] += real.weight_pairing(h_real[s], up)
                    upup = tuple(a + b for a, b in zip(up, alphas[j]))
                    if upup in sizes and (j, up) in raise_act:
                        rcol = [raise_act[(j, up)][r][t] for r in range(sizes[upup])]
                        lexp = lower_exp.get((s, upup))
                        if lexp is not None:
                            for r, cval in enumerate(rcol):
                                if cval:
                                    for q in range(sizes[wj]):
                                        col[q] += cval * lexp[q][r]
                    cols.append(col)
                raises[j] = cols
            # Gram of candidates via <f_s b, c> = <b, e_s c>
            m = len(cands)
            gram = [[Fraction(0)] * m for _ in range(m)]
            for a, (s, t) in enumerate(cands):
                up = tuple(x + y for x, y in zip(wd, alphas[s]))
                gup = grams[up]
                for b in range(m):
                    col = raises[s][b]
                    gram[a][b] = sum((gup[t][r] * col[r] for r in range(sizes[up])), Fraction(0))
            for a in range(m):
                for b in range(a):
                    assert gram[a][b] == gram[b][a], "asymmetric Gram block"
            chosen = _greedy_psd_pivots(gram)
            if not chosen:
                continue
            size = len(chosen)
            total += size
            if total > max_dim:
                raise DeskScaleError("module dimension exceeds the cap %d" % max_dim)
            sub = [[gram[a][b] for b in chosen] for a in chosen]
            grams[wd] = sub
            sizes[wd] = size
            # expansion of every candidate in the chosen basis: solve
            # sub x = rhs against one factorization of the nondegenerate
            # block (sub is symmetric, so its rows are its columns)
            solver = SpanSolver([], size)
            independent = [solver.add(col) for col in sub]
            assert all(independent), "degenerate Gram block"
            expansions = [solver.solve([gram[a][b] for a in chosen]) for b in range(m)]
            assert None not in expansions, "candidate outside the Gram block span"
            for s in sorted(cand_weights[wd]):
                up = tuple(a + b for a, b in zip(wd, alphas[s]))
                if up not in sizes:
                    continue
                cols = [[Fraction(0)] * sizes[up] for _ in range(size)]
                for b, (s2, t) in enumerate(cands):
                    if s2 == s:
                        for q in range(size):
                            cols[q][t] = expansions[b][q]
                lower_exp[(s, up)] = cols
            for j in range(nsimple):
                if j in raises:
                    rows = [[raises[j][b][r] for b in chosen] for r in range(len(raises[j][0]))]
                    raise_act[(j, wd)] = rows
            next_level.append(wd)
        if next_level:
            levels.append(next_level)
        current = next_level

    # global assembly
    offsets = {}
    weights = []
    blocks = {}
    off = 0
    for level in levels:
        for w in level:
            offsets[w] = off
            blocks[w] = (off, sizes[w], grams[w])
            weights.extend([w] * sizes[w])
            off += sizes[w]
    dim = off

    e_mats = []
    f_mats = []
    for s in range(nsimple):
        ent_e = {}
        ent_f = {}
        for w in offsets:
            up = tuple(a + b for a, b in zip(w, alphas[s]))
            if (s, w) in raise_act and up in offsets:
                rows = raise_act[(s, w)]
                for r in range(sizes[up]):
                    for c in range(sizes[w]):
                        if rows[r][c]:
                            ent_e[(offsets[up] + r, offsets[w] + c)] = rows[r][c]
        for (s2, up), cols in lower_exp.items():
            if s2 != s or up not in offsets:
                continue
            wd = tuple(a - b for a, b in zip(up, alphas[s]))
            if wd not in offsets:
                continue
            for q in range(sizes[wd]):
                for t in range(sizes[up]):
                    if cols[q][t]:
                        ent_f[(offsets[wd] + q, offsets[up] + t)] = cols[q][t]
        e_mats.append(SparseMat(dim, dim, ent_e))
        f_mats.append(SparseMat(dim, dim, ent_f))

    return HWModule(real, lam, weights, blocks, e_mats, f_mats)


def _flat(m: SparseMat, n):
    """Row-major entries of an n x n realization matrix."""
    return tuple(m.get(r, c) for r in range(n) for c in range(n))


def _greedy_psd_pivots(gram):
    """Indices of a maximal principal positive-definite block.

    The form is positive semidefinite on a real weight space, so greedy
    Cholesky pivoting (Schur complement diagonal > 0) finds the rank; once
    every remaining diagonal vanishes the whole remaining block must vanish.
    """
    m = len(gram)
    work = [row[:] for row in gram]
    chosen = []
    active = list(range(m))
    while True:
        pick = None
        for idx in active:
            if work[idx][idx] > 0:
                pick = idx
                break
            if work[idx][idx] < 0:
                raise ArithmeticError("contravariant form is not positive semidefinite")
        if pick is None:
            for a in active:
                for b in active:
                    if work[a][b] != 0:
                        raise ArithmeticError("contravariant form is not positive semidefinite")
            break
        chosen.append(pick)
        active.remove(pick)
        d = work[pick][pick]
        col = {a: work[a][pick] for a in active}
        for a in active:
            if col[a]:
                fa = col[a] / d
                for b in active:
                    work[a][b] -= fa * work[pick][b]
    return chosen

