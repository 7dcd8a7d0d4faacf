"""The Y(2) operators against their direct forms in yangian_reference: T(u)
folded from the coproduct against T(u) summed over every label chain, the
one Sigma_ab(u) against the untwisted and the W(delta)-twisted forms
written out separately, S_{n,-n}(u) read off Sigma_{n,-n}(u) against its
displayed formula, the brute-force verdicts on the generators of each, and
the RTT check against the loop that forms every product afresh.  T(u), d(u)
and Sigma_ab(u) are also compared with the forms that made each product and
each sum on their own, in the dict-of-Fraction classes."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import exact_reference as eref
import yangian_reference as ref
from test_yangian import generator_sets
from gtbases import yangian as y
from gtbases.exact import OpPoly, SparseMat, column_fractions

DELTAS = (-3, 0, 2, 4, 9)


@st.composite
def string_lists(draw):
    """1 to 3 strings, integer or half-integer, of total dimension <= 8."""
    factors, dim = [], 1
    for _ in range(draw(st.integers(1, 3))):
        length = draw(st.integers(0, min(3, 8 // dim - 1)))
        beta2 = draw(st.integers(-6, 6))
        factors.append(y.HWString(beta2 + 2 * length, beta2))
        dim *= length + 1
    return factors


@settings(max_examples=60, deadline=None)
@given(string_lists(), st.sampled_from(DELTAS))
def test_operators_match_the_reference(factors, delta2):
    m = y.build_tensor_module(factors)
    assert m.dim <= 8
    assert m.T == ref.chain_expansion_T(m)
    for sign in "+-":
        assert y.sigma_operators(m, sign) == ref.sigma_operators(m, sign)
    assert y.sigma_operators(m, "+", delta2) == ref.sigma_operators_plus(m, delta2)
    assert y.twisted_snn(m, "-") == ref.twisted_snn_display(m, "-")
    assert y.twisted_snn(m, "+", delta2) == ref.twisted_snn_display(m, "+", delta2)


@settings(max_examples=40, deadline=None)
@given(string_lists(), st.sampled_from(DELTAS))
def test_brute_force_verdicts_match_the_reference(factors, delta2):
    m = y.build_tensor_module(factors)
    assert y.brute_force_irreducible_twisted(m, "-") == \
        ref.brute_force_irreducible_twisted(m, "-")
    assert y.brute_force_irreducible_twisted(m, "+", delta2) == \
        ref.brute_force_irreducible_twisted(m, "+", delta2)


RTT_PAIRS = [(1, 2), (Fraction(1, 2), 3), (5, Fraction(-7, 3)), (2, 9), (Fraction(11, 7), Fraction(3, 5))]


@settings(max_examples=40, deadline=None)
@given(string_lists(), st.data())
def test_rtt_verdict_matches_the_reference(factors, data):
    """rtt_check, which forms each product T_x(u)T_y(v) and T_y(v)T_x(u)
    once per sample pair, against the loop that forms the four products of
    each relation afresh, on T(u) as built and with one entry of one
    coefficient of one T_ab(u) changed."""
    m = y.build_tensor_module(factors)
    pairs = data.draw(st.lists(st.sampled_from(RTT_PAIRS), min_size=1, max_size=2), label="pairs")
    assert y.rtt_check(m, pairs) is ref.rtt_check(m, pairs) is True
    key = data.draw(st.sampled_from(sorted(m.T)), label="T entry")
    poly = m.T[key]
    j = data.draw(st.integers(0, len(poly.coeffs)), label="coefficient")
    r = data.draw(st.integers(0, m.dim - 1), label="row")
    c = data.draw(st.integers(0, m.dim - 1), label="col")
    bump = data.draw(st.sampled_from([1, -1, Fraction(1, 2)]), label="bump")
    coeffs = list(poly.coeffs) + [SparseMat.zero(m.dim, m.dim)]
    coeffs[j] = coeffs[j] + SparseMat(m.dim, m.dim, {(r, c): bump})
    corrupted = copy.copy(m)
    corrupted.T = dict(m.T)
    corrupted.T[key] = OpPoly(m.dim, m.dim, coeffs)
    assert y.rtt_check(corrupted, pairs) is ref.rtt_check(corrupted, pairs)


def test_rtt_forms_32_products_per_sample_pair(monkeypatch):
    """On the dim-8 module L(1,0) x L(3,2) x L(5,4) with the five sample
    pairs of `gt yangian-demo`, rtt_check makes 160 SparseMat products
    against the reference loop's 320, with the same verdict."""
    m = y.build_tensor_module([y.HWString(2, 0), y.HWString(6, 4), y.HWString(10, 8)])
    calls = []
    real = SparseMat.__matmul__

    def spy(self, other):
        calls.append(1)
        return real(self, other)
    monkeypatch.setattr(SparseMat, "__matmul__", spy)
    assert ref.rtt_check(m, RTT_PAIRS) is True
    assert len(calls) == 320
    calls.clear()
    assert y.rtt_check(m, RTT_PAIRS) is True
    assert len(calls) == 32 * len(RTT_PAIRS) == 160


def _same_as_old_forms(m, delta2):
    """T(u), d(u) and every Sigma_ab(u) of m equal the fold, the two
    displays and the add loop that formed each product and sum alone."""
    def lib(polys):
        return {key: eref.from_ref(p) for key, p in polys.items()}
    T = ref.fold_T(m)
    assert lib(T) == m.T
    assert eref.from_ref(ref.quantum_det(T)) == y.quantum_det(m)
    for sign, d2 in (("-", None), ("+", None), ("+", delta2)):
        weights = y._twist(sign, d2, need_delta=False)
        assert lib(ref.sigma(T, sign, weights, y._KEYS)) == y.sigma_operators(m, sign, d2)


# the Y(2) modules of the bench's yangian-closure group, at string offsets
# -1 and 0: two brute-force Y(2) cases, the twisted case (never offset) and
# the yangian-demo module
BENCH_MODULES = [[(2 * (a + k), 2 * (b + k)) for a, b in strings]
                 for strings in ([(2, 0), (4, 3)], [(2, 0), (3, 2)], [(1, 0), (3, 2), (5, 4)])
                 for k in (-1, 0)] + [[(2, 0), (2, -2)]]


@pytest.mark.parametrize("strings", BENCH_MODULES)
def test_bench_modules_match_the_old_forms(strings):
    _same_as_old_forms(y.build_tensor_module(strings), 3)


@settings(max_examples=30, deadline=None)
@given(string_lists(), st.sampled_from(DELTAS))
def test_random_modules_match_the_old_forms(factors, delta2):
    _same_as_old_forms(y.build_tensor_module(factors), delta2)


def test_rtt_products_on_the_demo_module_are_distinct(monkeypatch):
    """On the `yangian-demo` module 0,-1;2,1;4,3 with the demo's five
    sample pairs, rtt_check makes 160 products and no operand pair repeats
    (each pair is compared by its entries)."""
    m = y.build_tensor_module([y.HWString(0, -2), y.HWString(4, 2), y.HWString(8, 6)])
    seen = []
    real = SparseMat.__matmul__

    def spy(self, other):
        seen.append((self.den, sorted(self.num.items()), other.den, sorted(other.num.items())))
        return real(self, other)
    monkeypatch.setattr(SparseMat, "__matmul__", spy)
    pairs = [(1, 2), (Fraction(1, 2), 3), (5, Fraction(-7, 3)), (2, 9),
             (Fraction(11, 7), Fraction(3, 5))]
    assert y.rtt_check(m, pairs) is True
    assert len(seen) == 160
    assert len({repr(x) for x in seen}) == 160


def _corrupted(m, data):
    """A copy of m with one entry of one coefficient of one T_ab(u) changed."""
    key = data.draw(st.sampled_from(sorted(m.T)), label="T entry")
    poly = m.T[key]
    j = data.draw(st.integers(0, len(poly.coeffs)), label="coefficient")
    r = data.draw(st.integers(0, m.dim - 1), label="row")
    c = data.draw(st.integers(0, m.dim - 1), label="col")
    bump = data.draw(st.sampled_from([1, -1, Fraction(1, 2)]), label="bump")
    coeffs = list(poly.coeffs) + [SparseMat.zero(m.dim, m.dim)]
    coeffs[j] = coeffs[j] + SparseMat(m.dim, m.dim, {(r, c): bump})
    out = copy.copy(m)
    out.T = dict(m.T)
    out.T[key] = OpPoly(m.dim, m.dim, coeffs)
    return out


def _eta_modules(factors):
    return (y.irreducible_Y2(factors) and y._pairwise_disjoint(factors)
            and all(f.alpha2 != f.beta2 for f in factors))


@settings(max_examples=60, deadline=None)
@given(string_lists().filter(_eta_modules), st.data())
def test_eta_verdicts_match_the_reference(factors, data):
    """eta_action_checks, which walks and checks on int columns, against
    the Fraction form with one evaluation per point and vector, on the
    module as built and with one T_ab(u) entry changed; eta_basis against
    the Fraction walk."""
    m = y.build_tensor_module(factors)
    assert {g: column_fractions(c, m.dim) for g, c in y.eta_basis(m, columns=True).items()} == \
        ref.eta_basis(m)
    assert y.eta_action_checks(m) is ref.eta_action_checks(m)
    corrupted = _corrupted(m, data)
    assert y.eta_action_checks(corrupted) is ref.eta_action_checks(corrupted)


@pytest.mark.parametrize("strings", [s for s in BENCH_MODULES if _eta_modules(
    [y.HWString(*f) for f in s])])
def test_eta_checks_pass_on_bench_modules(strings):
    m = y.build_tensor_module(strings)
    assert y.eta_basis(m) == ref.eta_basis(m)
    assert y.eta_action_checks(m) is ref.eta_action_checks(m) is True


@pytest.mark.parametrize("strings", [[(2, 0), (6, 4)]])
def test_eta_checks_fail_on_a_dependent_walk(strings):
    """The eta_gamma are dependent when T_{n,-n}(u) is scaled by 0: the
    check reads False where eta_basis raises."""
    m = copy.copy(y.build_tensor_module(strings))
    m.T = dict(m.T)
    m.T[(y.PLUS, y.MINUS)] = m.T[(y.PLUS, y.MINUS)].scale(0)
    assert _eta_modules(m.factors)
    assert y.eta_action_checks(m) is ref.eta_action_checks(m) is False
    with pytest.raises(AssertionError):
        y.eta_basis(m)


@pytest.mark.parametrize("strings", [[(0, 0), (2, 0)], [(2, 0), (5, 5)], [(-3, -3)]])
def test_eta_basis_refuses_a_trivial_factor(strings):
    """On L(0,0) x L(1,0) the module is irreducible and its strings are
    disjoint, but the trivial factor makes T(u) = u T'(u) and the walk's
    one point is u = 0, where the reference's eta vectors are dependent:
    eta_basis and eta_action_checks refuse every factor L(alpha, alpha)."""
    m = y.build_tensor_module(strings)
    assert y.irreducible_Y2(m.factors) and y._pairwise_disjoint(m.factors)
    for check in (y.eta_basis, y.eta_action_checks):
        with pytest.raises(ValueError, match="a factor is trivial"):
            check(m)
    if strings[0] == (0, 0):
        assert ref.eta_action_checks(m) is False


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_closure_matches_the_reference(case):
    """algebra_closure, which forms the products of one b with all kept
    generators as one product, keeps the same matrices in the same order as
    the loop that forms each g @ b on its own."""
    gens, n = case
    assert y.algebra_closure(gens, n) == ref.algebra_closure(gens, n)


@pytest.mark.parametrize("strings", BENCH_MODULES)
def test_bench_closures_match_the_reference(strings):
    m = y.build_tensor_module(strings)
    gens = m.t_coefficients()
    assert y.algebra_closure(gens, m.dim) == ref.algebra_closure(gens, m.dim)
