"""Y(2) tensor modules, their Gelfand-Tsetlin-type bases, quantum
determinant and the twisted (orthogonal/symplectic) operators.

Row and column labels of the 2x2 generator matrix are +1 ("n") and -1
("-n").  A factor L(alpha, beta) is realized through the gl_2 module built
by :mod:`gtbases.gln` with the label -1 mapped to the first gl_2 index, so
that the highest vector has t_{-1,-1}-eigenvalue built from alpha.

T(u) on L(alpha_1, beta_1) (x) ... (x) L(alpha_k, beta_k) folds the
coproduct Delta(t_ab(u)) = sum_c t_ac(u) (x) t_cb(u) one factor at a time.
The twisted generators are stated once, as the polynomial forms
Sigma_ab(u) = sum_d w_d(u) theta_bd T_ad(u) T_{-b,-d}(-u) of
S(u) = T(u) T^t(-u) (w_d = 1 untwisted; the orthogonal W(delta) twist
gives w_n = u + delta, w_{-n} = u - delta + 1), and S_{n,-n}(u) is read
off Sigma_{n,-n}(u).

All string parameters (alpha, beta, gamma, delta) are doubled integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as iproduct

from .exact import (OpPoly, SpanSolver, SparseMat, apply_words, kron, rank,
                    spoly, vec_is_zero, vec_unit)
from . import gln

PLUS, MINUS = 1, -1
_LABELS = (MINUS, PLUS)
_KEYS = ((MINUS, MINUS), (MINUS, PLUS), (PLUS, MINUS), (PLUS, PLUS))


@dataclass(frozen=True)
class HWString:
    """Highest-weight pair (alpha, beta) with its string {beta..alpha-1}."""

    alpha2: int
    beta2: int

    def __post_init__(self):
        d = self.alpha2 - self.beta2
        if d < 0 or d % 2 != 0:
            raise ValueError("need alpha - beta a nonnegative integer")

    @property
    def dim(self):
        return (self.alpha2 - self.beta2) // 2 + 1

    def values(self):
        """The string as a tuple of doubled values."""
        return tuple(range(self.beta2, self.alpha2, 2))

    def reflected(self):
        return HWString(-self.beta2, -self.alpha2)


def _is_string_set(vals):
    """A set of doubled values is a string iff it is empty or a run of step 2."""
    if not vals:
        return True
    lo, hi = min(vals), max(vals)
    if (hi - lo) % 2 != 0:
        return False
    return set(range(lo, hi + 1, 2)) == set(vals)


def string_general_position(s1: HWString, s2: HWString) -> bool:
    """Union is not a string, or one string contains the other."""
    v1, v2 = set(s1.values()), set(s2.values())
    if v1 <= v2 or v2 <= v1:
        return True
    return not _is_string_set(v1 | v2)


def _all_pairs(factors, test) -> bool:
    return all(test(f, g) for f, g in combinations(factors, 2))


def irreducible_Y2(factors) -> bool:
    return _all_pairs(factors, string_general_position)


def irreducible_Yminus(factors) -> bool:
    return _all_pairs(factors, lambda f, g: string_general_position(f, g)
                      and string_general_position(f, g.reflected()))


def irreducible_Yplus(factors, delta2) -> bool:
    factors = list(factors)
    if not irreducible_Yminus(factors):
        return False
    for f in factors:
        if -delta2 in f.values() or -delta2 in f.reflected().values():
            return False
    return True


class YTensorModule:
    """Tensor product of gl_2 evaluation modules with polynomial operators
    T_ab(u) of degree <= k obtained from the coproduct."""

    def __init__(self, factors):
        self.factors = tuple(HWString(f.alpha2, f.beta2) for f in factors)
        self.k = len(self.factors)
        if not self.k:
            raise ValueError("need at least one factor")
        reps = [gln.build_irrep(2, (f.alpha2, f.beta2)) for f in self.factors]
        self.dims = [r.dim for r in reps]
        self.dim = math.prod(self.dims)
        # fold the coproduct from T = Id: T_ab <- sum_c T_ac E^{(s)}_cb + u T_ab,
        # with E^{(s)}_cb the slot-s generator on the full tensor space
        n = self.dim
        ident = OpPoly.constant(SparseMat.identity(n))
        self.T = {(a, b): ident if a == b else OpPoly(n, n) for a, b in _KEYS}
        for s, r in enumerate(reps):
            before = SparseMat.identity(math.prod(self.dims[:s]))
            after = SparseMat.identity(math.prod(self.dims[s + 1:]))
            slot = {(c, d): OpPoly.constant(
                kron(kron(before, r.gen(_gl2_index(c), _gl2_index(d))), after)) for c, d in _KEYS}
            self.T = {(a, b): OpPoly.sum_products(
                n, n, [((1,), self.T[(a, c)], slot[(c, b)]) for c in _LABELS]
                + [((0, 1), self.T[(a, b)], None)]) for a, b in _KEYS}
        self.eta = vec_unit(self.dim, 0)
        self._check_highest()

    def _check_highest(self):
        assert all(vec_is_zero(v) for v in self.T[(MINUS, PLUS)].apply_to(self.eta))
        assert _is_scalar_action(self.T[(MINUS, MINUS)], self.eta,
                                 _fpoly([f.alpha2 for f in self.factors]))
        assert _is_scalar_action(self.T[(PLUS, PLUS)], self.eta,
                                 _fpoly([f.beta2 for f in self.factors]))

    def t_coefficients(self):
        """Matrices of t^(r)_ab, r = 1..k (the identity top term dropped)."""
        out = []
        for key, poly in self.T.items():
            for r in range(1, self.k + 1):
                out.append(poly.coeff(self.k - r))
        return out

    def __repr__(self):
        return "YTensorModule(%s, dim=%d)" % (list(self.factors), self.dim)


def _gl2_index(label):
    # -n is the first gl_2 index (weight alpha on the highest vector)
    return 1 if label == MINUS else 2


def _fpoly(doubled):
    """prod (u + r / 2) over the ints r of doubled, as Fractions."""
    den = 2 ** len(doubled)
    return [Fraction(x, den) for x in spoly(doubled)]


def _is_scalar_action(poly: OpPoly, vec, scalar) -> bool:
    got = poly.apply_to(vec)
    zero = (Fraction(0),) * len(vec)
    for j in range(max(len(got), len(scalar))):
        g = got[j] if j < len(got) else zero
        s = scalar[j] if j < len(scalar) else 0
        if g != tuple(s * x for x in vec):
            return False
    return True


def build_tensor_module(factors) -> YTensorModule:
    return YTensorModule([f if isinstance(f, HWString) else HWString(*f) for f in factors])


# ---------------------------------------------------------------------------
# GT-type basis of the Y(2) module
# ---------------------------------------------------------------------------

def gamma_tuples(factors):
    """All gamma with alpha_i >= gamma_i >= beta_i, descending lex order."""
    ranges = [range(f.alpha2, f.beta2 - 1, -2) for f in factors]
    return [g for g in iproduct(*ranges)]


def _pairwise_disjoint(factors, reflected=False):
    """No two strings meet; with ``reflected``, no string meets the
    reflection of another."""
    return _all_pairs(factors, lambda f, g: not set(f.values()).intersection(
        (g.reflected() if reflected else g).values()))


def eta_basis(module: YTensorModule):
    """Vectors eta_gamma built by iterated evaluated T_{n,-n}; requires an
    irreducible module with pairwise disjoint strings."""
    if not irreducible_Y2(module.factors):
        raise ValueError("module is not irreducible")
    if not _pairwise_disjoint(module.factors):
        raise ValueError("strings are not pairwise disjoint")
    out = _walk_strings(module, module.T[(PLUS, MINUS)], -1)
    mat = SparseMat.from_columns(list(out.values()), module.dim)
    assert rank(mat) == module.dim, "eta vectors do not form a basis"
    return out


def _walk_strings(module: YTensorModule, op: OpPoly, sign):
    """{gamma: v_gamma} in gamma_tuples order: v_gamma is op(sign * val/2)
    applied to eta for each doubled val = beta_i, beta_i + 2, ..., gamma_i - 2,
    factor by factor.  The words are walked with exact.apply_words, so each
    distinct point is evaluated once and each prefix applied once."""
    gammas = gamma_tuples(module.factors)
    words = [[Fraction(sign * val, 2) for f, g in zip(module.factors, gamma)
              for val in range(f.beta2, g, 2)] for gamma in gammas]
    return dict(zip(gammas, apply_words(module.eta, words,
                                        lambda u0: op.eval_at(u0).apply)))


def eta_action_checks(module: YTensorModule) -> bool:
    """All four displayed actions of the generators on every eta_gamma."""
    basis = eta_basis(module)
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
        lhs = tmm.mul_scalar_poly(_fpoly([g + 2 for g in gamma]))
        if lhs.apply_to(v) != rhs.apply_to(v):
            return False
    return True


# ---------------------------------------------------------------------------
# quantum determinant and RTT relation
# ---------------------------------------------------------------------------

def quantum_det(module: YTensorModule) -> OpPoly:
    """d(u) from the first display; the second display must agree."""
    tpp = module.T[(PLUS, PLUS)]
    tmm = module.T[(MINUS, MINUS)]
    tpm = module.T[(PLUS, MINUS)]
    tmp = module.T[(MINUS, PLUS)]
    n = module.dim
    d1 = OpPoly.sum_products(n, n, [((1,), tmm.shift_u(1), tpp), ((-1,), tpm.shift_u(1), tmp)])
    d2 = OpPoly.sum_products(n, n, [((1,), tmm, tpp.shift_u(1)), ((-1,), tmp, tpm.shift_u(1))])
    assert d1 == d2, "the two quantum-determinant forms disagree"
    return d1


def quantum_det_scalar_check(module: YTensorModule) -> bool:
    """d(u) acts as prod (u+alpha_i+1)(u+beta_i) on the whole module."""
    return quantum_det(module) == OpPoly.from_scalar_poly(
        _fpoly([f.alpha2 + 2 for f in module.factors] + [f.beta2 for f in module.factors]),
        module.dim)


def qdet_centrality_check(module: YTensorModule, points) -> bool:
    """d(u) commutes with all T_ab(v) at the given sample pairs."""
    d = quantum_det(module)
    for u0, v0 in points:
        dm = d.eval_at(u0)
        for key in module.T:
            tv = module.T[key].eval_at(v0)
            if dm @ tv != tv @ dm:
                return False
    return True


def rtt_check(module: YTensorModule, pairs) -> bool:
    """(u-v)[T_ab(u), T_cd(v)] = T_cb(u)T_ad(v) - T_cb(v)T_ad(u) at sample
    points (the cleared form of the defining relations).

    Every term is T_x(u)T_y(v) or T_y(v)T_x(u) for label pairs x, y, so
    the 16 products of each kind are formed once per sample pair."""
    keys = list(module.T)
    for u0, v0 in pairs:
        u0, v0 = Fraction(u0), Fraction(v0)
        tu = {key: p.eval_at(u0) for key, p in module.T.items()}
        tv = {key: p.eval_at(v0) for key, p in module.T.items()}
        uv = {(x, y): tu[x] @ tv[y] for x in keys for y in keys}
        vu = {(x, y): tv[y] @ tu[x] for x in keys for y in keys}
        for a in _LABELS:
            for b in _LABELS:
                for c in _LABELS:
                    for d in _LABELS:
                        if SparseMat.combination(module.dim, module.dim, [
                                (u0 - v0, uv[(a, b), (c, d)]), (v0 - u0, vu[(a, b), (c, d)]),
                                (-1, uv[(c, b), (a, d)]), (1, vu[(a, d), (c, b)])]).num:
                            return False
    return True


# ---------------------------------------------------------------------------
# twisted Yangian operators
# ---------------------------------------------------------------------------

def _twist(sign, delta2, need_delta=True):
    """The weights {d: w_d(u)} of Sigma_ab(u) as scalar polynomials, or None
    for the untwisted form: sign "-" is the symplectic case; sign "+" is the
    orthogonal case, twisted by W(delta) when delta is given."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if sign == "-":
        return None
    if delta2 is None:
        if need_delta:
            raise ValueError("the orthogonal case needs delta")
        return None
    dlt = Fraction(delta2, 2)
    return {PLUS: (dlt, Fraction(1)), MINUS: (1 - dlt, Fraction(1))}


def _sigma(module: YTensorModule, sign, weights, keys):
    """{(a, b): Sigma_ab(u)} = sum_d w_d(u) theta_bd T_ad(u) T_{-b,-d}(-u)."""
    return {(a, b): OpPoly.sum_products(module.dim, module.dim, [
        ([_theta(sign, b, d) * w for w in ((1,) if weights is None else weights[d])],
         module.T[(a, d)], module.T[(-b, -d)].negate_u()) for d in (PLUS, MINUS)])
        for a, b in keys}


def sigma_operators(module: YTensorModule, sign, delta2=None):
    """Polynomial forms Sigma_ab(u) of the twisted generators s_ab(u).

    Untwisted, s_ab(u) = (-1)^k u^{-2k} Sigma_ab(u) with all w_d = 1.  With
    delta (sign "+"), s_ab(u) acts on L (x) W(delta), identified with L, by
    the coproduct with the W values s_nn = (u+delta)/(u+1/2),
    s_{-n,-n} = (u-delta+1)/(u+1/2) and zero off-diagonal; cleared of
    (-1)^k u^{-2k} / (u+1/2), that is w_n = u+delta and w_{-n} = u-delta+1.
    """
    return _sigma(module, sign, _twist(sign, delta2, need_delta=False), _KEYS)


def twisted_snn(module: YTensorModule, sign, delta2=None) -> OpPoly:
    """S_{n,-n}(u) = (-1)^k Sigma_{n,-n}(u) / (u + 1/2): even polynomial of
    degree <= 2k-2.

    sign "-" is the symplectic case; sign "+" (orthogonal) carries the
    one-dimensional twist W(delta) and requires delta.
    """
    key = (PLUS, MINUS)
    sig = _sigma(module, sign, _twist(sign, delta2), [key])[key]
    out = sig.divide_linear(1, Fraction(1, 2)).scale(Fraction((-1) ** module.k))
    assert all(c.is_zero() for j, c in enumerate(out.coeffs) if j % 2 == 1), \
        "S_{n,-n} is not even"
    assert out.degree() <= 2 * module.k - 2
    return out


def twisted_snn_action_check(module: YTensorModule, sign, delta2=None) -> bool:
    """S_{n,-n}(gamma_i) shift displays on the eta basis."""
    s = twisted_snn(module, sign, delta2)
    basis = eta_basis(module)
    zero = (Fraction(0),) * module.dim
    for gamma, v in basis.items():
        gvals = [Fraction(g, 2) for g in gamma]
        for i in range(module.k):
            up = list(gamma)
            up[i] += 2
            got = s.eval_at(gvals[i]).apply(v)
            coeff = Fraction(2)
            for a in range(module.k):
                if a != i:
                    coeff *= -gvals[i] - gvals[a]
            if sign == "+":
                coeff *= -Fraction(delta2, 2) - gvals[i]
            want = basis.get(tuple(up), zero)
            if got != tuple(coeff * x for x in want):
                return False
    return True


def twisted_basis(module: YTensorModule, sign, delta2=None):
    """xi_gamma built by iterated evaluated S_{n,-n}.

    Hypotheses: the module is irreducible over the twisted Yangian and the
    strings are pairwise disjoint, also from the reflected strings.
    """
    facts = module.factors
    _twist(sign, delta2)
    if not _pairwise_disjoint(facts):
        raise ValueError("strings are not pairwise disjoint")
    if not _pairwise_disjoint(facts, reflected=True):
        raise ValueError("strings meet the reflected strings")
    if not (irreducible_Yminus(facts) if sign == "-" else irreducible_Yplus(facts, delta2)):
        raise ValueError("module is not irreducible over the twisted Yangian")
    out = _walk_strings(module, twisted_snn(module, sign, delta2), 1)
    mat = SparseMat.from_columns(list(out.values()), module.dim)
    assert rank(mat) == module.dim, "twisted basis is not linearly independent"
    return out


def _theta(sign, i, j):
    if sign == "+":
        return Fraction(1)
    return Fraction(i * j // abs(i * j))


def twisted_symmetry_check(module: YTensorModule, sign, points) -> bool:
    """theta_ab s_{-b,-a}(-u) = s_ab(u) +- (s_ab(u) - s_ab(-u)) / (2u) at
    sample points, in the cleared polynomial form."""
    sig = sigma_operators(module, sign)
    pm = Fraction(1) if sign == "+" else Fraction(-1)
    for u0 in points:
        u0 = Fraction(u0)
        if u0 == 0:
            raise ValueError("sample points must be nonzero")
        for a in _LABELS:
            for b in _LABELS:
                lhs = sig[(-b, -a)].negate_u().eval_at(u0).scale(_theta(sign, a, b) * 2 * u0)
                rhs = sig[(a, b)].eval_at(u0).scale(2 * u0) + \
                    (sig[(a, b)].eval_at(u0) - sig[(a, b)].eval_at(-u0)).scale(pm)
                if lhs != rhs:
                    return False
    return True


def snn_commutativity_check(module: YTensorModule, sign, points, delta2=None) -> bool:
    s = twisted_snn(module, sign, delta2)
    for u0, v0 in points:
        a = s.eval_at(u0)
        b = s.eval_at(v0)
        if a @ b != b @ a:
            return False
    return True


# ---------------------------------------------------------------------------
# brute-force irreducibility over QQ.  By Burnside's theorem a module over a
# field of characteristic 0 is absolutely irreducible iff the unital algebra
# generated by the action is all of M_n; absolute irreducibility is the
# situation the string predicates describe.
# ---------------------------------------------------------------------------

def algebra_closure(gens, n):
    """Basis of the unital matrix algebra generated by gens (n x n).

    Spin order: the identity, then the generators in order, then, breadth
    first, each newly kept element left-multiplied by each kept generator.
    Every word in the generators is then in the span, since the span is
    closed under left multiplication by them.  Independence is tested on
    the row-major n*n vector of integer numerators (a multiple of the
    matrix, which is independent of the others exactly when the matrix
    is), and the spin stops once n*n elements are kept.
    """
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


def commutant_dimension(gens, n) -> int:
    """dim of {X : [X, g] = 0 for all g} inside n x n matrices."""
    rows = []
    for g in gens:
        # [X, g] entry (r, c): sum_t X[r,t] g[t,c] - g[r,t] X[t,c]
        for r in range(n):
            for c in range(n):
                row = [Fraction(0)] * (n * n)
                for t in range(n):
                    row[r * n + t] += g.get(t, c)
                    row[t * n + c] -= g.get(r, t)
                if any(row):
                    rows.append(row)
    return n * n - rank(SparseMat.from_rows(rows))


def algebra_is_semisimple(basis) -> bool:
    """Trace-form nondegeneracy (Dickson's criterion in characteristic 0)."""
    m = len(basis)
    gram = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            prod = basis[i] @ basis[j]
            tr = sum(prod.get(t, t) for t in range(prod.nrows))
            gram[i][j] = gram[j][i] = tr
    return rank(SparseMat.from_rows(gram)) == m


def brute_force_irreducible(gens, n) -> bool:
    """Absolutely irreducible iff the generated algebra is all of M_n
    (Burnside), i.e. the spin closure of ``algebra_closure`` reaches n*n."""
    return len(algebra_closure(gens, n)) == n * n


def brute_force_irreducible_Y2(module: YTensorModule) -> bool:
    return brute_force_irreducible(module.t_coefficients(), module.dim)


def brute_force_irreducible_twisted(module: YTensorModule, sign, delta2=None) -> bool:
    sig = _sigma(module, sign, _twist(sign, delta2), _KEYS)
    return brute_force_irreducible([c for p in sig.values() for c in p.coeffs], module.dim)
