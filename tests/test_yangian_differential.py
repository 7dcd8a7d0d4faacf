"""The Y(2) operators against their direct forms in yangian_reference: T(u)
folded from the coproduct against T(u) summed over every label chain, the
one Sigma_ab(u) against the untwisted and the W(delta)-twisted forms
written out separately, S_{n,-n}(u) read off Sigma_{n,-n}(u) against its
displayed formula, and the brute-force verdicts on the generators of each."""

from hypothesis import given, settings, strategies as st

import yangian_reference as ref
from gtbases import yangian as y

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
