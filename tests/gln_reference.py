"""Direct forms of the gl_n operator identities of ``gtbases.gln``.

The library expands each quantum minor once per module, by Laplace along
the last column, builds the generators from int products over a table of
shifted patterns, checks each Drinfeld, Capelli and characteristic
identity once per evaluation point or coefficient, and the commutation
relations as the Chevalley-Serre relations.  These are the plain
readings that the differential tests compare them against: both s!
expansions of a quantum minor, the matrix elements on ``Fraction``
l-values with every shifted array validated, the checks applied basis
vector by basis vector, the Lagrange projectors as separate products, the
commutation relations over all ordered pairs of generators, the
squared norms and eigenvalues as ``Fraction`` products, the lowering-word
and kappa bases applied pattern by pattern from the highest vector, and
the L(lam)^+ relations as full dim x dim products restricted to L^+
afterwards, the lowering operators with their Cartan factors as
products of diagonal matrices, the adjointness relations as products with
the diagonal norm matrix, and the scalar actions of an operator
polynomial as comparisons with diagonal matrices.  ``expand_last_column`` is
the two-step Laplace expansion that ``gln._expand_last_column`` made before
``OpPoly.sum_products`` (each product reduced on its own, then each power
of u summed), and ``_entry_poly`` the entry polynomial it started from.
``lowering_operator_by_chain_adds`` is the
form that ``gln.lowering_operator`` had before ``exact.chain_sum``: one
integer diagonal and one sum per chain.

The reference checks use the column-ordered expansion alone, so that they
return a verdict (rather than fail on the equality of the two expansions)
on a corrupted copy of a module.
"""

from fractions import Fraction
from itertools import permutations
from math import prod

import exact_reference
from exact_reference import spoly_from_roots
from gtbases.exact import (OpPoly, SparseMat, commutator, factorial, nullspace, vec_is_zero,
                           vec_unit)
from gtbases.gln import (_big_e, capelli_det,
                         l_plus_matrix, lowering_operator, tau_poly)
from gtbases.patterns import GTPatternA, validate, weight


def shift(p, k, i, delta2):
    """The gl_n array p with lambda_{ki} changed by delta2 (doubled units)."""
    rows = [list(r) for r in p.rows]
    rows[p.n - k][i - 1] += delta2
    return GTPatternA(tuple(tuple(r) for r in rows))


def _lvals(pattern, k):
    """l_{ki} = lambda_{ki} - i + 1 for the k-entry row, as Fractions."""
    return [Fraction(x, 2) - i for i, x in enumerate(pattern.row(k))]


def _sgn(perm):
    s = 1
    for x in range(len(perm)):
        for y in range(x + 1, len(perm)):
            if perm[x] > perm[y]:
                s = -s
    return s


def _entry_poly(rep, a, b, shift) -> OpPoly:
    """E(u + shift)_{ab} = delta_ab (u + shift) + E_ab as an OpPoly."""
    d = rep.dim
    const = rep.gen(a, b)
    if a == b:
        const = const + SparseMat.identity(d).scale(shift)
        return OpPoly(d, d, [const, SparseMat.identity(d)])
    return OpPoly(d, d, [const])


def expand_last_column(rep, rows, cols, memo=None) -> OpPoly:
    """The quantum minor by Laplace along the last column in two steps, as
    ``gln._expand_last_column`` formed it before ``OpPoly.sum_products``:
    every product M_a,j @ E_{rows[a], cols[s]} made and reduced on its own
    (``exact_reference.matmul``), then each power of u summed by
    ``exact_reference.combination``.  The sub-minors recurse here, memoized
    in memo."""
    memo = {} if memo is None else memo
    key = (rows, cols)
    if key in memo:
        return memo[key]
    s = len(rows)
    if s == 1:
        return _entry_poly(rep, rows[0], cols[0], 0)
    d = rep.dim
    c = cols[-1]
    terms = [[] for _ in range(s + 1)]      # power of u -> [(scalar, matrix)]
    for a, r in enumerate(rows):
        sign = -1 if (s - 1 - a) % 2 else 1
        e = rep.gen(r, c)
        for j, m in enumerate(expand_last_column(rep, rows[:a] + rows[a + 1:], cols[:-1],
                                                 memo).coeffs):
            terms[j].append((sign, exact_reference.matmul(m, e)))
            if r == c:
                # the diagonal entry also carries u - s + 1
                terms[j].append((sign * (1 - s), m))
                terms[j + 1].append((sign, m))
    out = memo[key] = OpPoly(d, d, [exact_reference.combination(d, d, t) for t in terms])
    return out


def quantum_minor_expansions(rep, rows, cols):
    """(column-ordered, row-ordered) expansions of the quantum minor."""
    rows = tuple(rows)
    cols = tuple(cols)
    if len(rows) != len(cols):
        raise ValueError("row and column sets must have equal size")
    s = len(rows)
    d = rep.dim
    first = OpPoly(d, d, [])
    second = OpPoly(d, d, [])
    for perm in permutations(range(s)):
        sgn = _sgn(perm)
        t1 = _entry_poly(rep, rows[perm[0]], cols[0], 0)
        t2 = _entry_poly(rep, rows[0], cols[perm[0]], -(s - 1))
        for t in range(1, s):
            t1 = t1 @ _entry_poly(rep, rows[perm[t]], cols[t], -t)
            t2 = t2 @ _entry_poly(rep, rows[t], cols[perm[t]], -(s - 1) + t)
        if sgn == 1:
            first = first + t1
            second = second + t2
        else:
            first = first - t1
            second = second - t2
    return first, second


def quantum_minor(rep, rows, cols):
    """Quantum minor of E(u); both expansions must agree, which is asserted."""
    first, second = quantum_minor_expansions(rep, rows, cols)
    assert first == second, "the two quantum-minor expansions disagree"
    return first


def _column_minor(rep, rows, cols):
    return quantum_minor_expansions(rep, rows, cols)[0]


def drinfeld_poly(rep, m, which):
    if which == "A":
        return _column_minor(rep, tuple(range(1, m + 1)), tuple(range(1, m + 1)))
    if which == "B":
        return _column_minor(rep, tuple(range(1, m + 1)), tuple(range(1, m)) + (m + 1,))
    if which == "C":
        return _column_minor(rep, tuple(range(1, m)) + (m + 1,), tuple(range(1, m + 1)))
    raise ValueError("which must be A, B or C")


def capelli_scalar_check(rep):
    """C(u) acts on every basis vector as prod(u + l_i)."""
    idx = tuple(range(1, rep.n + 1))
    c = _column_minor(rep, idx, idx)
    lam_l = [Fraction(rep.lam[i], 2) - i for i in range(rep.n)]
    want = spoly_from_roots(lam_l)
    zero = (Fraction(0),) * rep.dim
    for t in range(rep.dim):
        vec = vec_unit(rep.dim, t)
        coeffs = c.apply_to(vec)
        for j in range(max(len(coeffs), len(want))):
            scal = want[j] if j < len(want) else Fraction(0)
            got = coeffs[j] if j < len(coeffs) else zero
            if got != tuple(scal * x for x in vec):
                return False
    return True


def drinfeld_checks(rep, m):
    """Eigenvalue and shift displays for A_m, B_m, C_m on every pattern."""
    n = rep.n
    a_poly = drinfeld_poly(rep, m, "A")
    b_poly = drinfeld_poly(rep, m, "B") if m < n else None
    c_poly = drinfeld_poly(rep, m, "C") if m < n else None
    for t, p in enumerate(rep.basis):
        vec = vec_unit(rep.dim, t)
        lm = _lvals(p, m)
        want = spoly_from_roots(lm)
        got = a_poly.apply_to(vec)
        for j in range(max(len(got), len(want))):
            scal = want[j] if j < len(want) else Fraction(0)
            gv = got[j] if j < len(got) else (Fraction(0),) * rep.dim
            if gv != tuple(scal * x for x in vec):
                return False
        if m == n:
            continue
        lm1 = _lvals(p, m + 1)
        lmm = _lvals(p, m - 1) if m > 1 else []
        for j in range(1, m + 1):
            u0 = -lm[j - 1]
            got_b = b_poly.eval_at(u0).apply(vec)
            plus = shift(p, m, j, 2)
            coeff = Fraction(-1)
            for i in range(1, m + 2):
                coeff *= lm1[i - 1] - lm[j - 1]
            if validate(plus):
                want_b = tuple(coeff * x for x in vec_unit(rep.dim, rep.index[plus]))
            else:
                # the zero-vector convention for invalid arrays
                want_b = (Fraction(0),) * rep.dim
            if got_b != want_b:
                return False
            got_c = c_poly.eval_at(u0).apply(vec)
            minus = shift(p, m, j, -2)
            coeff = Fraction(1)
            for i in range(1, m):
                coeff *= lmm[i - 1] - lm[j - 1]
            if validate(minus):
                want_c = tuple(coeff * x for x in vec_unit(rep.dim, rep.index[minus]))
            else:
                want_c = (Fraction(0),) * rep.dim
            if got_c != want_c:
                return False
    return True


def characteristic_identity_check(rep):
    """prod_r (E - alpha_r) = 0 on L* (x) L(lam), with idempotent spectral
    projectors that sum to the identity and reassemble E."""
    n, d = rep.n, rep.dim
    big = _big_e(rep)
    nd = n * d
    ident = SparseMat.identity(nd)
    alphas = [Fraction(rep.lam[r - 1], 2) + n - r for r in range(1, n + 1)]
    prod = ident
    for a in alphas:
        prod = prod @ (big - ident.scale(a))
    if not prod.is_zero():
        return False
    projs = []
    for r in range(n):
        pr = ident
        for s in range(n):
            if s != r:
                pr = pr @ (big - ident.scale(alphas[s]))
                pr = pr.scale(1 / (alphas[r] - alphas[s]))
        projs.append(pr)
    total = SparseMat.zero(nd, nd)
    recon = SparseMat.zero(nd, nd)
    for r, pr in enumerate(projs):
        if pr @ pr != pr:
            return False
        total = total + pr
        recon = recon + pr.scale(alphas[r])
    if total != ident or recon != big:
        return False
    # summands killed by equal consecutive weights vanish
    for r in range(n - 1):
        if rep.lam[r] == rep.lam[r + 1] and not projs[r].is_zero():
            return False
    return True


def commutation_check(rep):
    """[E_ij, E_kl] = d_jk E_il - d_li E_kj for all index pairs."""
    n, d = rep.n, rep.dim
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    want = SparseMat.zero(d, d)
                    if j == k:
                        want = want + rep.gen(i, l)
                    if l == i:
                        want = want - rep.gen(k, j)
                    if commutator(rep.gen(i, j), rep.gen(k, l)) != want:
                        return False
    return True


def norms_of_patterns(basis):
    """Squared norms N_Lambda by the double-product factorial formula."""
    out = []
    for p in basis:
        n = p.n
        val = Fraction(1)
        for k in range(2, n + 1):
            lk = _lvals(p, k)
            lk1 = _lvals(p, k - 1)
            for i in range(1, k):
                for j in range(i, k):
                    val *= factorial(lk[i - 1] - lk1[j - 1]) / factorial(lk1[i - 1] - lk1[j - 1])
            for i in range(1, k + 1):
                for j in range(i + 1, k + 1):
                    val *= factorial(lk[i - 1] - lk[j - 1] - 1) / factorial(lk1[i - 1] - lk[j - 1] - 1)
        out.append(val)
    return out


def near_diagonal_generators(n, basis):
    """E_kk, E_{k,k+1}, E_{k+1,k} by the matrix-element formulas on Fraction
    l-values, with each shifted array built and validated."""
    index = {p: i for i, p in enumerate(basis)}
    dim = len(basis)
    gens = {}
    for k in range(1, n + 1):
        gens[(k, k)] = SparseMat(dim, dim, {(t, t): Fraction(weight(p)[k - 1], 2)
                                            for t, p in enumerate(basis)})
    for k in range(1, n):
        up, down = {}, {}
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
                plus = shift(p, k, i, 2)
                if validate(plus):
                    num = Fraction(1)
                    for x in lk1:
                        num *= li - x
                    up[(index[plus], col)] = -num / den
                minus = shift(p, k, i, -2)
                if validate(minus):
                    num = Fraction(1)
                    for x in lkm:
                        num *= li - x
                    down[(index[minus], col)] = num / den
        gens[(k, k + 1)] = SparseMat(dim, dim, up)
        gens[(k + 1, k)] = SparseMat(dim, dim, down)
    return gens


def gt_eigenvalues(pattern):
    """Elementary symmetric values of the Fraction l-values of each row."""
    out = []
    for m in range(1, pattern.n + 1):
        es = [Fraction(1)]
        for x in _lvals(pattern, m):
            nxt = es + [Fraction(0)]
            for i in range(len(es), 0, -1):
                nxt[i] = nxt[i] + x * es[i - 1]
            es = nxt
        out.append(es[1:])
    return out


# Lowering words applied pattern by pattern from the highest vector, and
# the L^+ relations as full dim x dim products restricted afterwards.

def basis_via_lowering(rep):
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


def capelli_interpolation_check(rep) -> bool:
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


def zrelation_checks(rep) -> bool:
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


def tau_equals_z_check(rep, i) -> bool:
    """tau_ni(-h_i - i + 1) = z_ni and tau_in(-h_i) = z_in on L(lam)^+."""
    plus = l_plus_matrix(rep)
    h = rep.h_matrix(i)
    ident = SparseMat.identity(rep.dim)
    lhs = tau_poly(rep, i, "lowering").eval_left(-h + ident.scale(1 - i))
    if lhs @ plus != lowering_operator(rep, i, "lowering") @ plus:
        return False
    lhs = tau_poly(rep, i, "raising").eval_left(-h)
    return lhs @ plus == lowering_operator(rep, i, "raising") @ plus


def kappa_basis(rep):
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


def _subsets_desc(pool):
    """All subsets of pool as descending tuples (pool ascending)."""
    out = [()]
    for x in pool:
        out += [s + (x,) for s in out]
    return [tuple(sorted(s, reverse=True)) for s in out]


def lowering_operator_by_chain_adds(rep, i, kind, m):
    """z_{mi} or z_{im}, each chain's Cartan factor formed as one integer
    diagonal and its term added to the running sum."""
    if kind == "raising":
        pool, step = list(range(1, i)), 1
    else:
        pool, step = list(range(i + 1, m)), -1
    d = rep.dim
    ident = SparseMat.identity(d)
    diffs = {j: rep.h_matrix(i) - rep.h_matrix(j) for j in pool}
    total = SparseMat.zero(d, d)
    for chain in _subsets_desc(pool):
        mono = ident
        prev = i
        for t in chain[::step] + (m,):
            mono = mono @ rep.gen(*(prev, t)[::step])
            prev = t
        # the Cartan factor as one diagonal: the products of the numerators of
        # the diagonal matrices h_i - h_j, over the product of their denominators
        cut = [diffs[j] for j in pool if j not in chain]
        vals = [prod(f.num.get((r, r), 0) for f in cut) for r in range(d)]
        total = total + mono @ SparseMat.from_num(
            d, d, {(r, r): v for r, v in enumerate(vals) if v}, prod(f.den for f in cut))
    return total


def lowering_operator_by_products(rep, i, kind, m):
    """z_{mi} or z_{im}, each Cartan factor h_i - h_j multiplied in as a
    matrix, starting from the identity."""
    if kind == "raising":
        pool, step = list(range(1, i)), 1
    else:
        pool, step = list(range(i + 1, m)), -1
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
    return total


def adjointness_check(rep) -> bool:
    """N_M (E_ij)_{M,Lam} = N_Lam (E_ji)_{Lam,M} for every entry."""
    dmat = SparseMat.diag(rep.normsq)
    for i in range(1, rep.n + 1):
        for j in range(1, rep.n + 1):
            if dmat @ rep.gen(i, j) != rep.gen(j, i).transpose() @ dmat:
                return False
    return True


def acts_diagonally(poly, scalars) -> bool:
    """poly(u) acts on basis vector t as the scalar polynomial scalars[t]:
    each coefficient matrix is the diagonal matrix of those coefficients."""
    for j in range(max(len(poly.coeffs), max(len(w) for w in scalars))):
        want = SparseMat.diag([w[j] if j < len(w) else 0 for w in scalars])
        if poly.coeff(j) != want:
            return False
    return True


def l_plus_nullspace(rep):
    """Independent computation of L^+ as the joint kernel of E_ij, i<j<n."""
    rows = []
    for i in range(1, rep.n):
        for j in range(i + 1, rep.n):
            rows.extend(rep.gen(i, j).to_rows())
    if not rows:
        return [vec_unit(rep.dim, t) for t in range(rep.dim)]
    stacked = SparseMat.from_rows(rows)
    return nullspace(stacked)
