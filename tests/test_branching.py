from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from gtbases import branching, patterns


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

    def test_C_multiplicity_product_formula(self):
        # c(mu) = prod (alpha_i - beta_i + 1) with the minimax string parameters
        lam_plain = (0, -1)
        lam = d(*lam_plain)
        for mu, spec in branching.branch_children_BCD("C", lam):
            mu_plain = tuple(Fraction(x, 2) for x in mu)
            lamf = [Fraction(x, 2) for x in lam]
            alphas = [Fraction(-1, 2)]
            betas = [max(lamf[0], mu_plain[0]) - Fraction(1, 2)]
            alphas.append(min(lamf[0], mu_plain[0]) - 2 + Fraction(1, 2))
            betas.append(lamf[1] - 2 + Fraction(1, 2))  # mu_n = -infinity
            want = 1
            for a, b in zip(alphas, betas):
                want *= a - b + 1
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
