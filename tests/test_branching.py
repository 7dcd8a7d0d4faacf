from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import branching_reference as reference
from gtbases import branching, patterns
from gtbases.patterns import DominanceError


def d(*xs):
    return tuple(2 * x for x in xs)


class TestWeylDim:
    @pytest.mark.parametrize("series,lam,dim", [
        ("A", d(0, 0), 1), ("B", d(0, 0), 1), ("C", d(0, 0), 1), ("D", d(0, 0), 1),
        ("A", d(2, 1, 0), 8),
        ("A", d(1, 0, 0, 0), 4),
        ("B", d(1, 0), 5),        # o_5 vector
        ("B", (1, 1), 4),         # o_5 spinor
        ("C", d(1, 0), 4),        # sp_4 vector
        ("C", d(1, 1), 5),
        ("D", d(1, 0), 4),        # o_4 vector
        ("D", (1, 1), 2), ("D", (1, -1), 2),
        ("B", d(1, 1), 10),       # o_5 adjoint
        ("C", d(2, 0), 10),       # sp_4 adjoint
    ])
    def test_values(self, series, lam, dim):
        assert branching.weyl_dim(series, lam) == dim

    def test_s3_conversion(self):
        assert branching.weyl_dim_s3("C", d(0, -1)) == 4
        assert branching.weyl_dim_s3("B", (-1, -1)) == 4
        assert branching.weyl_dim_s3("D", d(0, -1)) == 4

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from("BCD"), st.integers(1, 3), st.data())
    def test_to_dominant_bridges_s3(self, series, n, data):
        """to_dominant is an involution, and on s3 weights of every series
        with n <= 3 the Weyl dimension of its image is weyl_dim_s3 and the
        number of s3 patterns."""
        odd = series == "B" and data.draw(st.booleans(), label="half-integer")
        lam = sorted(data.draw(st.lists(st.integers(-3, 0 if series != "D" else 1),
                                        min_size=n, max_size=n), label="lam"), reverse=True)
        lam = tuple(2 * x - odd for x in lam)
        try:
            patterns.check_dominant(series + "3", lam)
        except patterns.DominanceError:
            assume(False)
        dominant = branching.to_dominant(lam)
        assert branching.to_dominant(dominant) == lam
        dim = branching.weyl_dim(series, dominant)
        assert branching.weyl_dim_s3(series, lam) == dim
        assert len(patterns.enumerate_patterns(series + "3", lam)) == dim

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            branching.weyl_dim("A", d(0, 1))
        with pytest.raises(ValueError):
            branching.weyl_dim("C", (1, 1))

    @settings(max_examples=600, deadline=None)
    @given(st.sampled_from("ABCDE"), st.data())
    def test_int_oracle_matches_the_fraction_form(self, series, data):
        """weyl_dim, on doubled ints with one exact division, against the
        Fraction form it replaced, on random doubled weights of ranks 0-4,
        most of them dominant: the same dimension or the same ValueError."""
        n = data.draw(st.integers(0, 4), label="rank")
        if data.draw(st.booleans(), label="dominant-shaped"):
            lam = sorted(data.draw(st.lists(st.integers(-4, 6), min_size=n, max_size=n)),
                         reverse=True)
            odd = data.draw(st.booleans(), label="half-integer")
            lam = [2 * x + odd for x in lam]
        else:
            lam = data.draw(st.lists(st.integers(-6, 8), min_size=n, max_size=n))
        outcomes = []
        for oracle in (branching.weyl_dim, reference.weyl_dim):
            try:
                outcomes.append(oracle(series, tuple(lam)))
            except ValueError as exc:
                outcomes.append(("ValueError", str(exc)))
        assert outcomes[0] == outcomes[1]
        assert type(outcomes[0]) is type(outcomes[1])


class TestBranchA:
    def test_trivial(self):
        assert branching.branch_A(d(0, 0)) == [d(0)]

    def test_210(self):
        mus = branching.branch_A(d(2, 1, 0))
        assert mus == [d(2, 1), d(2, 0), d(1, 1), d(1, 0)]
        assert sum(branching.weyl_dim("A", mu) for mu in mus) == 8

    def test_10(self):
        assert branching.branch_A(d(1, 0)) == [d(1), d(0)]


class TestBranchBCD:
    def test_trivial_parent(self):
        for series in "BCD":
            lam = d(0, 0)
            kids = branching.branch_children_BCD(series, lam)
            assert [(mu, spec.multiplicity) for mu, spec in kids] == [(d(0), 1)]

    def test_C_vector_sum(self):
        lam = d(0, -1)
        kids = branching.branch_children_BCD("C", lam)
        total = sum(spec.multiplicity * branching.weyl_dim_s3("C", mu)
                    for mu, spec in kids)
        assert total == 4

    @pytest.mark.parametrize("series,lam", [
        ("C", d(0, -1)), ("C", d(-1, -1)), ("C", d(0, -1, -2)),
        ("B", (-1, -1)), ("B", d(-1, -1)), ("B", d(0, -1)),
        ("D", d(0, -1)), ("D", d(1, -1)), ("D", d(0, 0, -1)),
    ])
    def test_dimension_sums(self, series, lam):
        kids = branching.branch_children_BCD(series, lam)
        total = 0
        for mu, spec in kids:
            if len(mu) == 0:
                child = 1
            else:
                child = branching.weyl_dim_s3(series, mu)
            total += spec.multiplicity * child
        assert total == branching.weyl_dim_s3(series, lam)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-4, 0), min_size=1, max_size=3))
    def test_C_multiplicity_product_formula(self, parts):
        """c(mu) = prod_i ((alpha_i - beta_i)/2 + 1) in doubled units, with
        alpha_1 = 0, alpha_i = min(lam_{i-1}, mu_{i-1}) for i >= 2,
        beta_i = max(lam_i, mu_i) for i < n and beta_n = lam_n."""
        lam = d(*sorted(parts, reverse=True))
        for mu, spec in branching.branch_children_BCD("C", lam):
            alphas = [0] + [min(a, b) for a, b in zip(lam, mu)]
            betas = [max(a, b) for a, b in zip(lam, mu)] + [lam[-1]]
            want = 1
            for a, b in zip(alphas, betas):
                want *= (a - b) // 2 + 1
            assert spec.multiplicity == want

    def test_D_rank_one_is_trivial_restriction(self):
        spec = branching.branch_BCD("D", d(-2), ())
        assert spec.multiplicity == 1 and spec.data == ((),)

    def test_B_sigma_encoding(self):
        # integer case: nu'_1 > 0 gets re-encoded as sigma = 1
        lam = d(-1, -1)
        kids = dict(branching.branch_children_BCD("B", lam))
        spec = kids[d(-1)]
        assert all(t[0] in (0, 1) for t in spec.data)
        assert any(t[0] == 1 for t in spec.data)
        for t in spec.data:
            assert all(x <= 0 for x in t[1:])


@st.composite
def _bcd_weights(draw):
    """(series, lam): a dominant B/C/D weight, non-positive convention, n <= 3."""
    series = draw(st.sampled_from("BCD"))
    n = draw(st.integers(1, 3))
    odd = series != "C" and draw(st.booleans())
    lam = sorted(draw(st.lists(st.integers(-3, 1), min_size=n, max_size=n)), reverse=True)
    lam = tuple(2 * x - odd for x in lam)
    try:
        patterns.check_dominant(series + "3", lam)
    except DominanceError:
        assume(False)
    return series, lam


class TestAgainstReference:
    """The branching rules read off the pattern plans against the
    hand-written recursions they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 4), st.booleans(), st.data())
    def test_branch_A(self, n, odd, data):
        lam = sorted(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
                     reverse=True)
        lam = tuple(2 * x - odd for x in lam)
        assert branching.branch_A(lam) == reference.branch_A(lam)

    @settings(max_examples=200, deadline=None)
    @given(_bcd_weights(), st.data())
    def test_branch_bcd(self, weight, data):
        """Children, multiplicities and data tuples in the same order; and
        branch_BCD on a child weight and on a weight of lam's parity that
        may not be one.  (The reference also lists tuples for some mu of
        the other parity, which are not children.)"""
        series, lam = weight
        kids = branching.branch_children_BCD(series, lam)
        assert kids == reference.branch_children_BCD(series, lam)
        for mu, spec in kids:
            assert branching.branch_BCD(series, lam, mu) == spec
        parts = data.draw(st.lists(st.integers(-4, 2), min_size=len(lam) - 1,
                                   max_size=len(lam) - 1), label="mu")
        mu = tuple(2 * x - lam[0] % 2 for x in parts)
        assert branching.branch_BCD(series, lam, mu) == reference.branch_BCD(series, lam, mu)


def test_branch_functions_reject_non_dominant_weights():
    with pytest.raises(DominanceError):
        branching.branch_children_BCD("B", (0, -1))     # entries of mixed parity
    with pytest.raises(DominanceError):
        branching.branch_children_BCD("C", d(1, 0))
    with pytest.raises(DominanceError):
        branching.branch_BCD("D", d(1, 1), d(0))
    with pytest.raises(DominanceError):
        branching.branch_A(d(0, 1))
    with pytest.raises(ValueError):
        branching.branch_BCD("C", d(0, -1), d(0, 0))    # mu needs n - 1 entries


class _Refuse(dict):
    """Stands in for pattern code: any call or lookup fails the test."""

    def __getitem__(self, key):
        raise AssertionError("pattern code was used")

    __call__ = __getitem__


def test_oracles_use_no_pattern_code(monkeypatch):
    monkeypatch.setattr(patterns, "enumerate_patterns", _Refuse())
    assert branching.branch_A(d(2, 1, 0)) == [d(2, 1), d(2, 0), d(1, 1), d(1, 0)]
    assert [(mu, spec.multiplicity) for mu, spec in
            branching.branch_children_BCD("C", d(0, -1))] == [(d(0), 2), (d(-1), 1)]
    monkeypatch.setattr(patterns, "_PLANS", _Refuse())
    assert branching.weyl_dim("C", d(1, 0)) == 4
    assert branching.weyl_dim_s3("B", (-1, -1)) == 4
    assert branching.schur_exponents((2, 1), 2) == {(2, 1): 1, (1, 2): 1}
    with pytest.raises(AssertionError):     # the branching rules are the plans'
        branching.branch_A(d(2, 1, 0))


class TestSchur:
    def test_single_box(self):
        assert branching.schur((1,), [Fraction(2), Fraction(3)]) == 5

    def test_dimension_specialization(self):
        assert branching.schur((2, 1, 0), [1, 1, 1]) == 8

    def test_stability(self):
        # s_lam(x, 1) = sum over interlacing mu of s_mu(x)
        lam = (2, 1, 0)
        pts = [(Fraction(2), Fraction(3)), (Fraction(1, 2), Fraction(-3)),
               (Fraction(5), Fraction(7, 3))]
        for x in pts:
            lhs = branching.schur(lam, list(x) + [Fraction(1)])
            rhs = 0
            for mu in branching.branch_A(d(*lam)):
                rhs += branching.schur(tuple(v // 2 for v in mu), list(x))
            assert lhs == rhs
