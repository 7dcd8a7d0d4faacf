"""Direct forms of the Y(2) operators of ``gtbases.yangian``.

The library builds T(u) by folding the coproduct one tensor factor at a
time and states the twisted generators Sigma_ab(u) once, with S_{n,-n}(u)
read off Sigma_{n,-n}(u).  These are the readings that the differential
tests compare them against: T_ab(u) expanded over every chain of
intermediate labels a = c_0, c_1, ..., c_k = b, the untwisted Sigma_ab(u)
and its W(delta)-twisted orthogonal form written out separately, the
displayed formula for S_{n,-n}(u) in each sign, the brute-force
irreducibility test that picks its generators by the sign, and the RTT
check that forms the four products of each relation afresh.

``eta_basis``, ``eta_action_checks`` and ``algebra_closure`` are the
library forms before the int columns: the eta walk on tuples of
``Fraction``s through ``OpPoly.eval_at`` and ``SparseMat.apply``, the four
displays with an evaluation per point and vector and one ``OpPoly`` product
per gamma for the T_{-n,-n}(u) display, and the spin closure that forms
each product g @ b on its own.

``fold_T``, ``quantum_det`` and ``sigma`` are the coproduct fold, the two
quantum-determinant displays and the Sigma_ab(u) add loop as the library
formed them before ``OpPoly.sum_products``: each product and each sum made
on its own.  They run in the dict-of-``Fraction`` classes of
``exact_reference`` on the reference twins of the module's matrices.
"""

import math
from fractions import Fraction
from itertools import product as iproduct

import exact_reference as eref
from gtbases import gln, yangian
from gtbases.exact import OpPoly, SpanSolver, SparseMat, apply_words, kron, rank, vec_unit
from gtbases.yangian import (_KEYS, MINUS, PLUS, _LABELS, _fpoly, _gl2_index, _theta,
                             brute_force_irreducible, gamma_tuples, twisted_snn)


def chain_expansion_T(module):
    """{(a, b): T_ab(u)} summed over all 2^(k-1) label chains, each chain a
    product of slot operators E^{(s)}_{c_s c_{s+1}} + delta u."""
    reps = [gln.build_irrep(2, (f.alpha2, f.beta2)) for f in module.factors]
    dims = [r.dim for r in reps]
    k = len(reps)
    dim = module.dim
    # slot operators E^{(s)}_{ab} on the full tensor space
    full = []
    for s, r in enumerate(reps):
        mats = {}
        for a in _LABELS:
            for b in _LABELS:
                m = r.gen(_gl2_index(a), _gl2_index(b))
                big = None
                for t in range(k):
                    piece = m if t == s else SparseMat.identity(dims[t])
                    big = piece if big is None else kron(big, piece)
                mats[(a, b)] = big
        full.append(mats)
    ident = SparseMat.identity(dim)
    T = {}
    for a in _LABELS:
        for b in _LABELS:
            total = OpPoly(dim, dim, [])
            for mid in iproduct(_LABELS, repeat=k - 1):
                chain = (a,) + mid + (b,)
                term = None
                for s in range(k):
                    c, d = chain[s], chain[s + 1]
                    coeffs = [full[s][(c, d)]]
                    if c == d:
                        coeffs.append(ident)
                    fac = OpPoly(dim, dim, coeffs)
                    term = fac if term is None else term @ fac
                total = total + term
            T[(a, b)] = total
    return T


def sigma_operators(module, sign):
    """Untwisted Sigma_ab(u) = sum_d theta_bd T_ad(u) T_{-b,-d}(-u)."""
    out = {}
    for a in _LABELS:
        for b in _LABELS:
            # theta_{nb} t_{an}(u) t_{-b,-n}(-u) + theta_{-n,b} t_{a,-n}(u) t_{-b,n}(-u)
            th1 = _theta(sign, PLUS, b)
            th2 = _theta(sign, MINUS, b)
            term1 = (module.T[(a, PLUS)] @ module.T[(-b, MINUS)].negate_u()).scale(th1)
            term2 = (module.T[(a, MINUS)] @ module.T[(-b, PLUS)].negate_u()).scale(th2)
            out[(a, b)] = term1 + term2
    return out


def sigma_operators_plus(module, delta2) -> dict:
    """Polynomial forms of the Y+(2) action on L itself (through the
    isomorphism L (x) W(delta) -> L).

    By the coproduct, s_ab(u) acts on L (x) W(delta) as
    sum_{cd} theta_bd t_ac(u) t_{-b,-d}(-u) (x) s_cd(u)|_W with the W values
    s_nn = (u+delta)/(u+1/2), s_{-n,-n} = (u-delta+1)/(u+1/2) and zero
    off-diagonal.  Cleared of (-1)^k u^{-2k} / (u+1/2), the polynomial form is
    Sigma+_ab(u) = (u+delta) t~_ab^{(n)} + (u-delta+1) t~_ab^{(-n)} with
    t~_ab^{(d)} = theta_bd T_{a d}(u) T_{-b,-d}(-u).
    """
    dlt = Fraction(delta2, 2)
    out = {}
    for a in _LABELS:
        for b in _LABELS:
            tn = module.T[(a, PLUS)] @ module.T[(-b, MINUS)].negate_u()
            tm = module.T[(a, MINUS)] @ module.T[(-b, PLUS)].negate_u()
            un = OpPoly.from_scalar_poly([dlt, Fraction(1)], module.dim)
            um = OpPoly.from_scalar_poly([1 - dlt, Fraction(1)], module.dim)
            out[(a, b)] = un @ tn + um @ tm
    return out


def twisted_snn_display(module, sign, delta2=None) -> OpPoly:
    """S_{n,-n}(u) from its displayed formula in T_{n,-n} and T_{n,n}."""
    tpm = module.T[(PLUS, MINUS)]
    tpp = module.T[(PLUS, PLUS)]
    k = module.k
    if sign == "-":
        raw = tpm @ tpp.negate_u() - tpm.negate_u() @ tpp
    elif sign == "+":
        if delta2 is None:
            raise ValueError("the orthogonal case needs delta")
        dlt = Fraction(delta2, 2)
        um = OpPoly.from_scalar_poly([-dlt, Fraction(1)], module.dim)
        up = OpPoly.from_scalar_poly([dlt, Fraction(1)], module.dim)
        raw = um @ tpm @ tpp.negate_u() + up @ tpm.negate_u() @ tpp
    else:
        raise ValueError("sign must be '+' or '-'")
    out = eref.divide_by_u(raw).scale(Fraction((-1) ** k))
    assert all(c.is_zero() for j, c in enumerate(out.coeffs) if j % 2 == 1), \
        "S_{n,-n} is not even"
    assert out.degree() <= 2 * k - 2
    return out


def brute_force_irreducible_twisted(module, sign, delta2=None) -> bool:
    if sign == "-":
        sig = sigma_operators(module, sign)
        gens = [c for p in sig.values() for c in p.coeffs]
    else:
        sig = sigma_operators_plus(module, delta2)
        gens = [c for p in sig.values() for c in p.coeffs]
    return brute_force_irreducible(gens, module.dim)


def rtt_check(module, pairs) -> bool:
    """(u-v)[T_ab(u), T_cd(v)] = T_cb(u)T_ad(v) - T_cb(v)T_ad(u) at sample
    points (the cleared form of the defining relations)."""
    for u0, v0 in pairs:
        u0, v0 = Fraction(u0), Fraction(v0)
        tu = {key: p.eval_at(u0) for key, p in module.T.items()}
        tv = {key: p.eval_at(v0) for key, p in module.T.items()}
        for a in _LABELS:
            for b in _LABELS:
                for c in _LABELS:
                    for d in _LABELS:
                        lhs = (tu[(a, b)] @ tv[(c, d)] - tv[(c, d)] @ tu[(a, b)]).scale(u0 - v0)
                        rhs = tu[(c, b)] @ tv[(a, d)] - tv[(c, b)] @ tu[(a, d)]
                        if lhs != rhs:
                            return False
    return True


def fold_T(module):
    """{(a, b): T_ab(u)} in the reference classes: T = slot_1, then
    T_ab <- T_{a,-n} slot_s(-n, b) + T_{a,n} slot_s(n, b), with
    slot_s(c, d) = E^{(s)}_cd + delta_cd u on the full tensor space."""
    reps = [gln.build_irrep(2, (f.alpha2, f.beta2)) for f in module.factors]
    dims = [r.dim for r in reps]
    ident = eref.SparseMat.identity(module.dim)
    for s, r in enumerate(reps):
        before = eref.SparseMat.identity(math.prod(dims[:s]))
        after = eref.SparseMat.identity(math.prod(dims[s + 1:]))
        slot = {(c, d): eref.OpPoly(module.dim, module.dim,
                                    [eref.kron(eref.kron(before, eref.to_ref(
                                        r.gen(_gl2_index(c), _gl2_index(d)))), after)]
                                    + [ident] * (c == d))
                for c, d in _KEYS}
        T = slot if s == 0 else {
            (a, b): T[(a, MINUS)] @ slot[(MINUS, b)] + T[(a, PLUS)] @ slot[(PLUS, b)]
            for a, b in _KEYS}
    return T


def quantum_det(T):
    """d(u) of {(a, b): T_ab(u)} from the first display, asserted equal to
    the second."""
    tpp, tmm = T[(PLUS, PLUS)], T[(MINUS, MINUS)]
    tpm, tmp = T[(PLUS, MINUS)], T[(MINUS, PLUS)]
    d1 = tmm.shift_u(1) @ tpp - tpm.shift_u(1) @ tmp
    d2 = tmm @ tpp.shift_u(1) - tmp @ tpm.shift_u(1)
    assert d1 == d2, "the two quantum-determinant forms disagree"
    return d1


def sigma(T, sign, weights, keys):
    """{(a, b): Sigma_ab(u)} = sum_d w_d(u) theta_bd T_ad(u) T_{-b,-d}(-u)
    of {(a, b): T_ab(u)}, each term scaled and added on its own."""
    out = {}
    for a, b in keys:
        total = None
        for d in (PLUS, MINUS):
            term = (T[(a, d)] @ T[(-b, -d)].negate_u()).scale(_theta(sign, b, d))
            term = term if weights is None else eref.oppoly_mul_scalar_poly(term, weights[d])
            total = term if total is None else total + term
        out[(a, b)] = total
    return out


def eta_basis(module):
    """{gamma: eta_gamma} as tuples of Fractions: T_{n,-n}(-val/2) applied
    to eta for each doubled val = beta_i, ..., gamma_i - 2, factor by
    factor, one evaluation per distinct point.  The hypotheses are not
    checked."""
    gammas = gamma_tuples(module.factors)
    words = [[Fraction(-val, 2) for f, g in zip(module.factors, gamma)
              for val in range(f.beta2, g, 2)] for gamma in gammas]
    op = module.T[(PLUS, MINUS)]
    return dict(zip(gammas, apply_words(vec_unit(module.dim, 0), words,
                                        lambda u0: op.eval_at(u0).apply)))


def _is_scalar_action(poly, vec, scalar) -> bool:
    got = [c.apply(vec) for c in poly.coeffs]
    zero = (Fraction(0),) * len(vec)
    for j in range(max(len(got), len(scalar))):
        g = got[j] if j < len(got) else zero
        s = scalar[j] if j < len(scalar) else 0
        if g != tuple(s * x for x in vec):
            return False
    return True


def eta_action_checks(module) -> bool:
    """The eta_gamma are independent, and all four displayed actions of the
    generators hold on every eta_gamma."""
    basis = eta_basis(module)
    if rank(SparseMat.from_columns(list(basis.values()), module.dim)) != module.dim:
        return False
    k = module.k
    tpm = module.T[(PLUS, MINUS)]
    tmp = module.T[(MINUS, PLUS)]
    tpp = module.T[(PLUS, PLUS)]
    tmm = module.T[(MINUS, MINUS)]
    alphas = [Fraction(f.alpha2, 2) for f in module.factors]
    betas = [Fraction(f.beta2, 2) for f in module.factors]
    zero = (Fraction(0),) * module.dim
    # T_{-n,-n}(u) display, cleared of the denominators prod(u+gamma_i+1)
    rhs = OpPoly.sum_products(module.dim, module.dim, [
        (_fpoly([f.alpha2 + 2 for f in module.factors] + [f.beta2 for f in module.factors]),
         OpPoly.constant(SparseMat.identity(module.dim)), None),
        ((1,), tmp, tpm.shift_u(1))])
    for gamma, v in basis.items():
        gvals = [Fraction(g, 2) for g in gamma]
        if not _is_scalar_action(tpp, v, _fpoly(gamma)):
            return False
        for i in range(k):
            up = list(gamma)
            up[i] += 2
            got = tpm.eval_at(-gvals[i]).apply(v)
            want = basis[tuple(up)] if tuple(up) in basis else zero
            if got != want:
                return False
            down = list(gamma)
            down[i] -= 2
            got = tmp.eval_at(-gvals[i]).apply(v)
            coeff = Fraction(-1)
            for m in range(k):
                coeff *= (alphas[m] - gvals[i] + 1) * (betas[m] - gvals[i])
            want = basis.get(tuple(down), zero)
            if got != tuple(coeff * x for x in want):
                return False
        lhs = OpPoly.sum_products(module.dim, module.dim,
                                  [(_fpoly([g + 2 for g in gamma]), tmm, None)])
        if [c.apply(v) for c in lhs.coeffs] != [c.apply(v) for c in rhs.coeffs]:
            return False
    return True


def algebra_closure(gens, n):
    """The spin closure with each product g @ b formed on its own."""
    solver = SpanSolver((), n * n)
    basis = []

    def keep(m):
        vec = [0] * (n * n)
        for (r, c), x in m.num.items():
            vec[r * n + c] = x
        if solver.add(vec):
            basis.append(m)
            return True
        return False

    keep(SparseMat.identity(n))
    kept = [g for g in gens if keep(g)]
    frontier = kept
    while frontier and len(basis) < n * n:
        new = []
        for b in frontier:
            for g in kept:
                prod = g @ b
                if keep(prod):
                    new.append(prod)
                    if len(basis) == n * n:
                        return basis
        frontier = new
    return basis


# Two Y(2) identities that no verify line runs.

def qdet_centrality_check(module, points) -> bool:
    """d(u) commutes with all T_ab(v) at the given sample pairs."""
    d = yangian.quantum_det(module)
    for u0, v0 in points:
        dm = d.eval_at(u0)
        for key in module.T:
            tv = module.T[key].eval_at(v0)
            if dm @ tv != tv @ dm:
                return False
    return True


def snn_commutativity_check(module, sign, points, delta2=None) -> bool:
    s = twisted_snn(module, sign, delta2)
    for u0, v0 in points:
        a = s.eval_at(u0)
        b = s.eval_at(v0)
        if a @ b != b @ a:
            return False
    return True
