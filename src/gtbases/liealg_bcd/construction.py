"""Exact construction of finite-dimensional highest-weight modules.

The constructor is realization-agnostic: it takes the defining matrix
realization of a semisimple Lie algebra (generators F_ij as small exact
matrices), a choice of simple raising/lowering pairs, and a highest weight,
and builds the irreducible quotient weight space by weight space.

Each weight space is spanned by simple lowerings of the spaces one level
up; the contravariant form is computed recursively and the space is cut to
the rank of its Gram matrix (the kernel of the form is exactly the maximal
submodule of the Verma module, so the quotient is the irreducible module).
A weight lam - sum_s k_s alpha_s is keyed internally by its integer root
coordinates k.  The raising action on the candidates is read off the
nonzeros of the stored e and f columns, and since the Gram block is
symmetric only its entries on and above the diagonal are summed.  One
``SpanSolver`` pass over the Gram columns picks the basis, expands every
lowering in it (from the reduction that finds the column dependent) and
checks that the form is positive semidefinite: each independent column
must pivot on its own diagonal entry, with a positive value.  Blocks are
accepted in basis order (depth, then weight), so each one's offset and its
e/f entries are written when it is accepted.  Finally every generator of
the realization is transported to the module by closing the simple
generators under commutators.
"""

from __future__ import annotations

from fractions import Fraction

from ..exact import SpanSolver, SparseMat, commutator

_ZERO = Fraction(0)
_ONE = Fraction(1)


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

    return HWModule(real, lam, weights, blocks,
                    [assemble(c) for c in e_cols], [assemble(c) for c in f_cols])


def _gram_basis(gram):
    """Basis and expansions of a positive semidefinite Gram block.

    The columns go in order through one SpanSolver: the independent ones
    are the chosen basis, and expansions[b] writes column b over them (a
    unit vector for a chosen column), from the reduction that found column
    b dependent.  In a symmetric matrix the residual of column j vanishes
    on every earlier row, so the form is positive semidefinite exactly when
    each independent column pivots at its own row with a positive value;
    any other pivot raises ArithmeticError.
    """
    solver = SpanSolver([], len(gram))
    chosen = []
    coeffs = []
    for j, col in enumerate(gram):          # symmetric: row j is column j
        x = solver._add_or_solve(col)
        if x is None:
            p, v = solver.last_pivot
            if p != j or v < 0:
                raise ArithmeticError("contravariant form is not positive semidefinite")
            chosen.append(j)
        coeffs.append(x)
    expansions = []
    for b, x in enumerate(coeffs):
        if x is None:
            expansions.append([_ONE if c == b else _ZERO for c in chosen])
        else:
            expansions.append([x[c] if c < b else _ZERO for c in chosen])
    return chosen, expansions


def _flat(m: SparseMat, n):
    """Row-major entries of an n x n realization matrix: ints if it is
    integral, else Fractions."""
    out = [0] * (n * n)
    for (r, c), v in m.num.items():
        out[r * n + c] = v if m.den == 1 else Fraction(v, m.den)
    return out
