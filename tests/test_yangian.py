from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gtbases import yangian as y
from exact_reference import spoly_from_roots
from gtbases.exact import SparseMat, rank

import yangian_reference as ref

RTT_PAIRS = [(Fraction(1), Fraction(2)), (Fraction(1, 2), Fraction(3)),
             (Fraction(5), Fraction(-7, 3)), (Fraction(2), Fraction(9)),
             (Fraction(11, 7), Fraction(3, 5))]
SYM_POINTS = [Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-5), Fraction(7, 2)]


def S(a, b):
    return y.HWString(2 * a, 2 * b)


class TestStrings:
    def test_union_not_string(self):
        assert y.string_general_position(S(2, 0), S(4, 3))

    def test_adjacent_overlap(self):
        assert not y.string_general_position(S(2, 0), S(3, 1))

    def test_containment(self):
        assert y.string_general_position(S(3, 0), S(2, 1))

    def test_empty_contained(self):
        assert y.string_general_position(S(1, 1), S(5, 3))

    def test_rejects_bad_pair(self):
        with pytest.raises(ValueError):
            y.HWString(0, 2)
        with pytest.raises(ValueError):
            y.HWString(1, 0)


class TestIrreduciblePredicates:
    def test_single_factor(self):
        assert y.irreducible_Y2([S(1, 0)])
        assert y.irreducible_Yminus([S(1, 0)])

    def test_pairs(self):
        assert y.irreducible_Y2([S(2, 0), S(4, 3)])
        assert not y.irreducible_Y2([S(2, 0), S(3, 1)])

    def test_yminus_reflected(self):
        # S(2,0) = {0,1} and the reflection of S(1,-1) is {-1,0}: overlap
        assert not y.irreducible_Yminus([S(2, 0), S(1, -1)])

    def test_yplus_delta(self):
        fs = [S(2, 0)]
        assert y.irreducible_Yplus(fs, 6)
        # -delta = beta_1 = 0 lies in the string
        assert not y.irreducible_Yplus(fs, 0)
        assert not y.irreducible_Yplus(iter(fs), 0)


@pytest.fixture(scope="module")
def mod1():
    return y.build_tensor_module([S(1, 0)])


@pytest.fixture(scope="module")
def mod2():
    return y.build_tensor_module([S(1, 0), S(3, 2)])


@pytest.fixture(scope="module")
def mod3():
    return y.build_tensor_module([S(1, 0), S(3, 2), S(5, 4)])


class TestTensorModule:
    def test_k1_dims(self, mod1):
        assert mod1.dim == 2 and mod1.k == 1

    def test_trivial_factor(self):
        m = y.build_tensor_module([S(1, 1)])
        assert m.dim == 1
        assert m.T[(y.PLUS, y.MINUS)].is_zero()

    def test_needs_a_factor(self):
        with pytest.raises(ValueError, match="at least one factor"):
            y.build_tensor_module([])

    def test_tnn_on_eta_k1(self, mod1):
        got = mod1.T[(y.PLUS, y.PLUS)].apply_to(mod1.eta)
        # (u + beta_1) eta with beta_1 = 0
        assert got[0] == (Fraction(0),) * 2
        assert got[1] == mod1.eta

    def test_degrees(self, mod2):
        for key, p in mod2.T.items():
            assert p.degree() <= 2


class TestEtaBasis:
    def test_gamma_min_is_eta(self, mod2):
        basis = y.eta_basis(mod2)
        assert basis[(0, 4)] == mod2.eta

    def test_k1_shift(self, mod1):
        basis = y.eta_basis(mod1)
        got = mod1.T[(y.PLUS, y.MINUS)].eval_at(0).apply(mod1.eta)
        assert got == basis[(2,)]

    @pytest.mark.parametrize("fixture", ["mod1", "mod2", "mod3"])
    def test_action_displays(self, fixture, request):
        assert y.eta_action_checks(request.getfixturevalue(fixture))

    def test_action_displays_dim18(self):
        m = y.build_tensor_module([S(2, 0), S(5, 3), S(8, 7)])
        assert m.dim == 18
        assert y.eta_action_checks(m)

    def test_refuses_overlapping_strings(self):
        m = y.build_tensor_module([S(3, 0), S(2, 1)])
        with pytest.raises(ValueError):
            y.eta_basis(m)


class TestQuantumDet:
    def test_k1_trivial(self):
        m = y.build_tensor_module([S(2, 2)])
        dd = y.quantum_det(m)
        want = spoly_from_roots([Fraction(3), Fraction(2)])
        for j, c in enumerate(want):
            assert dd.coeff(j) == SparseMat.identity(1).scale(c)

    def test_k1_scalar(self, mod1):
        assert y.quantum_det_scalar_check(mod1)
        dd = y.quantum_det(mod1)
        want = spoly_from_roots([Fraction(2), Fraction(0)])
        for j, c in enumerate(want):
            assert dd.coeff(j) == SparseMat.identity(2).scale(c)

    def test_k2_spec_example(self, mod2):
        dd = y.quantum_det(mod2)
        want = spoly_from_roots([2, 4, 0, 2])
        for j in range(len(want)):
            assert dd.coeff(j) == SparseMat.identity(4).scale(want[j])

    def test_centrality(self, mod2):
        assert y.qdet_centrality_check(mod2, RTT_PAIRS)

    @pytest.mark.parametrize("fixture", ["mod2", "mod3"])
    def test_scalar(self, fixture, request):
        assert y.quantum_det_scalar_check(request.getfixturevalue(fixture))


class TestRTT:
    @pytest.mark.parametrize("fixture", ["mod1", "mod2", "mod3"])
    def test_rtt(self, fixture, request):
        assert y.rtt_check(request.getfixturevalue(fixture), RTT_PAIRS)


class TestTwisted:
    def test_snn_minus_k1_display(self, mod1):
        s = y.twisted_snn(mod1, "-")
        basis = y.eta_basis(mod1)
        for g2 in (0, 2):
            got = s.eval_at(Fraction(g2, 2)).apply(basis[(g2,)])
            up = (g2 + 2,)
            want = basis.get(up)
            if want is None:
                assert all(x == 0 for x in got)
            else:
                assert got == tuple(2 * x for x in want)

    def test_trivial_factor_zero(self):
        m = y.build_tensor_module([S(1, 1)])
        assert y.twisted_snn(m, "-").is_zero()

    @pytest.mark.parametrize("sign,delta2", [("-", None), ("+", 4)])
    def test_action_displays(self, mod2, sign, delta2):
        assert y.twisted_snn_action_check(mod2, sign, delta2)

    def test_plus_needs_delta(self, mod1):
        with pytest.raises(ValueError):
            y.twisted_snn(mod1, "+")

    def test_even_degree(self, mod3):
        s = y.twisted_snn(mod3, "-")
        assert s.degree() <= 2 * mod3.k - 2
        assert all(c.is_zero() for j, c in enumerate(s.coeffs) if j % 2)

    def test_snn_commutativity(self, mod2):
        assert y.snn_commutativity_check(mod2, "-", RTT_PAIRS)
        assert y.snn_commutativity_check(mod2, "+", RTT_PAIRS, delta2=4)

    @pytest.mark.parametrize("sign", ["-", "+"])
    def test_symmetry_relation(self, mod2, sign):
        assert y.twisted_symmetry_check(mod2, sign, SYM_POINTS)

    def test_sigma_consistent_with_snn(self, mod2):
        # Sigma_{n,-n}(u) = (-1)^k (u + 1/2) S_{n,-n}(u), S from its display
        sig = y.sigma_operators(mod2, "-")[(y.PLUS, y.MINUS)]
        s = ref.twisted_snn_display(mod2, "-")
        lhs = s.mul_scalar_poly([Fraction(1, 2), Fraction(1)]).scale(Fraction((-1) ** mod2.k))
        assert sig == lhs

    @pytest.mark.parametrize("factors,delta2", [
        ([S(1, 0)], 4), ([S(1, 0), S(3, 2)], 9), ([S(1, 0), S(3, 2)], -3),
    ])
    def test_plus_coproduct_matches_display(self, factors, delta2):
        # the coproduct route through W(delta) and the rewritten display for
        # S_{n,-n} must agree as polynomials, up to (-1)^k (u + 1/2)
        m = y.build_tensor_module(factors)
        sig = y.sigma_operators(m, "+", delta2)[(y.PLUS, y.MINUS)]
        s = ref.twisted_snn_display(m, "+", delta2)
        want = s.mul_scalar_poly([Fraction(1, 2), Fraction(1)]).scale(Fraction((-1) ** m.k))
        assert sig == want

    def test_plus_symmetry_through_wdelta(self, mod2):
        # the abstract symmetry relation holds for the W(delta)-twisted
        # action once the non-even prefactor is evaluated honestly
        delta2 = 9
        sig = y.sigma_operators(mod2, "+", delta2)
        k = mod2.k

        def s_at(a, b, u0):
            pref = Fraction((-1) ** k) / (u0 ** (2 * k)) / (u0 + Fraction(1, 2))
            return sig[(a, b)].eval_at(u0).scale(pref)

        for u0 in (Fraction(1), Fraction(2), Fraction(5, 3)):
            for a in (y.MINUS, y.PLUS):
                for b in (y.MINUS, y.PLUS):
                    lhs = s_at(-b, -a, -u0).scale(2 * u0)
                    rhs = s_at(a, b, u0).scale(2 * u0) + \
                        (s_at(a, b, u0) - s_at(a, b, -u0))
                    assert lhs == rhs


class TestTwistedBasis:
    def test_k1(self, mod1):
        basis = y.twisted_basis(mod1, "-")
        assert len(basis) == 2
        assert basis[(0,)] == mod1.eta

    def test_k2(self, mod2):
        basis = y.twisted_basis(mod2, "-")
        assert len(basis) == mod2.dim

    def test_plus(self, mod2):
        basis = y.twisted_basis(mod2, "+", delta2=9)
        assert len(basis) == mod2.dim

    def test_hypothesis_enforced(self):
        # S(2,0) meets the reflection of S(1,-1)
        m = y.build_tensor_module([S(2, 0), S(1, -1)])
        with pytest.raises(ValueError):
            y.twisted_basis(m, "-")


@pytest.mark.parametrize("call,match", [
    (lambda m: y.brute_force_irreducible_twisted(m, "+"), "needs delta"),
    (lambda m: y.brute_force_irreducible_twisted(m, "x", delta2=4), "sign"),
    (lambda m: y.sigma_operators(m, "x"), "sign"),
    (lambda m: y.twisted_basis(m, "+"), "needs delta"),
    (lambda m: y.twisted_basis(m, "x", delta2=9), "sign"),
    (lambda m: y.twisted_snn(m, "x"), "sign"),
], ids=["brute-force-delta", "brute-force-sign", "sigma-sign", "basis-delta",
        "basis-sign", "snn-sign"])
def test_sign_and_delta_are_checked(mod2, call, match):
    # a sign other than "+" or "-", and a missing delta where the orthogonal
    # case needs one, raise ValueError on every twisted entry point
    with pytest.raises(ValueError, match=match):
        call(mod2)


Y2_CASES = [
    ([S(1, 0)], True),
    ([S(2, 0), S(4, 3)], True),
    ([S(2, 0), S(3, 2)], False),
    ([S(1, 0), S(3, 2), S(5, 4)], True),
    ([S(1, 0), S(1, 0)], True),       # equal strings: containment
    ([S(2, 0), S(1, 0)], True),
    ([S(2, 1), S(1, 0)], False),
]
YMINUS_CASES = [
    [S(1, 0)], [S(1, 0), S(3, 2)], [S(1, 0), S(1, -1)],
    [S(1, 0), S(1, 0)],   # Y2-irreducible but meets a reflected string
    [S(2, 1), S(-1, -2)],
]
YPLUS_CASES = [
    ([S(1, 0)], 3), ([S(1, 0)], 0), ([S(1, 0), S(3, 2)], 5),
    ([S(1, 0), S(3, 2)], -2),
]


class TestBruteForce:
    @pytest.mark.parametrize("factors,expect", Y2_CASES)
    def test_y2_agreement(self, factors, expect):
        m = y.build_tensor_module(factors)
        assert m.dim <= 8
        assert y.irreducible_Y2(factors) == expect
        assert y.brute_force_irreducible_Y2(m) == expect

    @pytest.mark.parametrize("factors", YMINUS_CASES)
    def test_yminus_agreement(self, factors):
        m = y.build_tensor_module(factors)
        assert m.dim <= 8
        assert y.brute_force_irreducible_twisted(m, "-") == y.irreducible_Yminus(factors)

    @pytest.mark.parametrize("factors,delta", YPLUS_CASES)
    def test_yplus_agreement(self, factors, delta):
        m = y.build_tensor_module(factors)
        assert m.dim <= 8
        assert y.brute_force_irreducible_twisted(m, "+", delta2=2 * delta) == \
            y.irreducible_Yplus(factors, 2 * delta)


# ---------------------------------------------------------------------------
# the spin closure against a two-sided reference closure
# ---------------------------------------------------------------------------

def _vec(m):
    return [m.get(r, c) for r in range(m.nrows) for c in range(m.ncols)]


def reference_closure(gens, n):
    """Two-sided closure: every new element times the whole basis, on both
    sides, until nothing new appears or all of M_n is reached (dense
    echelon independence test)."""
    basis = []
    rows = []

    def reduce_add(m):
        v = _vec(m)
        for pivot_col, row in rows:
            if v[pivot_col]:
                f = v[pivot_col]
                v = [x - f * y for x, y in zip(v, row)]
        for c, x in enumerate(v):
            if x:
                v = [y / x for y in v]
                rows.append((c, v))
                basis.append(m)
                return True
        return False

    reduce_add(SparseMat.identity(n))
    frontier = [g for g in gens if reduce_add(g)]
    while frontier:
        new = []
        for f in frontier:
            for b in list(basis):
                for prod in (f @ b, b @ f):
                    if reduce_add(prod):
                        new.append(prod)
                if len(basis) == n * n:
                    return basis
        frontier = new
    return basis


def _span_rank(mats):
    return rank(SparseMat.from_rows([_vec(m) for m in mats])) if mats else 0


@st.composite
def generator_sets(draw):
    """Small integer n x n generator sets, n <= 4: random, zero, duplicated
    and block upper triangular (a common invariant subspace) ones."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "zero", "duplicate", "block"]))
    split = draw(st.integers(1, n - 1)) if kind == "block" and n > 1 else n
    entry = st.sampled_from((0, 0, 0, 1, -1, 2))

    def mat():
        return SparseMat(n, n, {(r, c): draw(entry) for r in range(n) for c in range(n)
                                if r < split or c >= split})

    gens = [mat() for _ in range(draw(st.integers(0, 3)))]
    if kind == "zero":
        gens.insert(draw(st.integers(0, len(gens))), SparseMat.zero(n, n))
    elif kind == "duplicate" and gens:
        gens.append(gens[draw(st.integers(0, len(gens) - 1))])
    return gens, n


class TestSpinClosure:
    @settings(max_examples=150, deadline=None)
    @given(generator_sets())
    def test_spans_the_reference_closure(self, case):
        gens, n = case
        spin = y.algebra_closure(gens, n)
        ref = reference_closure(gens, n)
        assert len(spin) == _span_rank(spin) <= n * n
        assert _span_rank(spin) == _span_rank(ref) == _span_rank(spin + ref)

    def test_empty_set_is_the_scalars(self):
        assert len(y.algebra_closure([], 3)) == 1
        assert not y.brute_force_irreducible([], 2)
        assert y.brute_force_irreducible([], 1)

    @pytest.mark.parametrize("kind,factors,delta2",
                             [("y2", f, None) for f, _ in Y2_CASES]
                             + [("-", f, None) for f in YMINUS_CASES]
                             + [("+", f, 2 * dl) for f, dl in YPLUS_CASES])
    def test_burnside_matches_commutant_and_semisimple(self, kind, factors, delta2,
                                                       monkeypatch):
        calls = []
        burnside = y.brute_force_irreducible

        def spy(gens, n):
            calls.append((gens, n))
            return burnside(gens, n)

        monkeypatch.setattr(y, "brute_force_irreducible", spy)
        m = y.build_tensor_module(factors)
        if kind == "y2":
            got = y.brute_force_irreducible_Y2(m)
        else:
            got = y.brute_force_irreducible_twisted(m, kind, delta2)
        [(gens, n)] = calls
        assert got == (y.commutant_dimension(gens, n) == 1
                       and y.algebra_is_semisimple(reference_closure(gens, n)))
