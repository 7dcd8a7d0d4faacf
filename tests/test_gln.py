import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gtbases import branching, cli, gln
from exact_reference import oppoly_apply_to, vec_is_zero
from gtbases.exact import SparseMat, commutator, vec_unit
from gtbases.patterns import GTPatternA
import gln_reference


def d(*xs):
    return tuple(2 * x for x in xs)


@pytest.fixture(scope="module")
def rep210():
    return gln.build_irrep(3, d(2, 1, 0))


class TestBuild:
    def test_trivial_gl2(self):
        rep = gln.build_irrep(2, d(0, 0))
        assert rep.dim == 1
        assert rep.gen(1, 2).is_zero() and rep.gen(2, 1).is_zero()

    def test_vector_gl2(self):
        rep = gln.build_irrep(2, d(1, 0))
        lo = GTPatternA((d(1, 0), d(0)))
        hi = GTPatternA((d(1, 0), d(1)))
        assert rep.gen(1, 2).get(rep.index[hi], rep.index[lo]) == 1
        assert rep.gen(2, 1).get(rep.index[lo], rep.index[hi]) == 1
        # cross-check against the defining two-dimensional representation
        for (i, j) in [(1, 2), (2, 1), (1, 1), (2, 2)]:
            got = rep.gen(i, j)
            want = SparseMat(2, 2, {(i - 1, j - 1): 1})
            assert got == want

    def test_dim_and_sl2_relation(self, rep210):
        assert rep210.dim == 8
        h = commutator(rep210.gen(1, 2), rep210.gen(2, 1))
        assert h == rep210.gen(1, 1) - rep210.gen(2, 2)

    def test_half_integer_weights_supported(self):
        rep = gln.build_irrep(2, (1, -1))
        assert rep.dim == 2
        assert gln.commutation_check(rep)

    def test_rejects_non_dominant(self):
        with pytest.raises(Exception):
            gln.build_irrep(2, d(0, 1))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(-2, 3), st.integers(0, 3), st.booleans())
    def test_random_gl2_structure(self, lo, gap, half):
        lam2 = 2 * lo + (1 if half else 0)
        lam = (lam2 + 2 * gap, lam2)
        rep = gln.build_irrep(2, lam)
        assert rep.dim == gap + 1 == branching.weyl_dim("A", lam)
        assert gln.commutation_check(rep)
        assert gln.adjointness_check(rep)
        assert gln.capelli_scalar_check(rep)


class TestStructure:
    @pytest.mark.parametrize("n,lam", [
        (2, d(1, 0)), (2, d(2, 1)), (3, d(2, 1, 0)), (3, d(1, 0, 0)),
        (4, d(1, 0, 0, 0)), (4, d(3, 1, 0, 0)),
    ])
    def test_commutation_and_oracle(self, n, lam):
        rep = gln.build_irrep(n, lam)
        assert rep.dim == branching.weyl_dim("A", lam)
        assert gln.commutation_check(rep)

    def test_adjointness(self, rep210):
        assert gln.adjointness_check(rep210)

    def test_highest_vector(self, rep210):
        assert gln.highest_vector_check(rep210)

    def test_gen_independent_of_intermediate(self, rep210):
        e13 = commutator(rep210.gen(1, 2), rep210.gen(2, 3))
        assert rep210.gen(1, 3) == e13
        assert vec_is_zero(rep210.gen(1, 3).apply(vec_unit(8, 0)))

    def test_lplus_matches_nullspace(self, rep210):
        cols = {idx for _, idx in gln.l_plus_indices(rep210)}
        null = gln_reference.l_plus_nullspace(rep210)
        assert len(null) == len(cols)
        for v in null:
            assert all(x == 0 for t, x in enumerate(v) if t not in cols)


class TestNorms:
    def test_vector_rep(self):
        rep = gln.build_irrep(2, d(1, 0))
        assert rep.normsq == [Fraction(1), Fraction(1)]

    def test_20(self):
        rep = gln.build_irrep(2, d(2, 0))
        mid = GTPatternA((d(2, 0), d(1)))
        assert rep.normsq[rep.index[mid]] == 2

    def test_highest_is_one(self, rep210):
        assert rep210.normsq[0] == 1

    def test_adjointness_restatement(self, rep210):
        dmat = SparseMat.diag(rep210.normsq)
        e = rep210.gen(1, 2)
        f = rep210.gen(2, 1)
        assert dmat @ e == f.transpose() @ dmat


class TestLoweringOperators:
    def test_printed_examples(self, rep210):
        rep = rep210
        h1, h2 = rep.h_matrix(1), rep.h_matrix(2)
        assert gln.lowering_operator(rep, 1, "raising") == rep.gen(1, 3)
        assert gln.lowering_operator(rep, 2, "raising") == \
            rep.gen(2, 3) @ (h2 - h1) + rep.gen(2, 1) @ rep.gen(1, 3)
        assert gln.lowering_operator(rep, 2, "lowering") == rep.gen(3, 2)
        assert gln.lowering_operator(rep, 1, "lowering") == \
            rep.gen(3, 1) @ (h1 - h2) + rep.gen(2, 1) @ rep.gen(3, 2)

    def test_basis_via_lowering_exact(self):
        for n, lam in [(2, d(1, 0)), (2, d(3, 1)), (3, d(2, 1, 0)), (3, d(2, 2, 0))]:
            rep = gln.build_irrep(n, lam)
            vecs = gln.basis_via_lowering(rep)
            assert vecs == [vec_unit(rep.dim, t) for t in range(rep.dim)]

    def test_z_shifts_weight(self, rep210):
        z = gln.lowering_operator(rep210, 1, "lowering")
        plus = gln.l_plus_indices(rep210)
        lut = dict(plus)
        for mu, idx in plus:
            img = z.apply(vec_unit(rep210.dim, idx))
            down = (mu[0] - 2,) + mu[1:]
            if down in lut:
                assert set(t for t, x in enumerate(img) if x) <= {lut[down]}
            else:
                assert vec_is_zero(img)


class TestAximu:
    def test_boundary_zero(self):
        rep = gln.build_irrep(2, d(2, 0))
        assert gln_reference.lemma_aximu_check(rep, d(2), 1) == 0

    def test_hand_value(self):
        rep = gln.build_irrep(2, d(2, 0))
        # mu = (1): -(m_1 - l_1)(m_1 - l_2) = -(1-2)(1+1) = 2
        assert gln_reference.lemma_aximu_check(rep, d(1), 1) == 2

    def test_gl3(self, rep210):
        got = gln_reference.lemma_aximu_check(rep210, d(1, 1), 1)
        # -(m_1 - l_1)(m_1 - l_2)(m_1 - l_3), m_1 = 1, l = (2, 0, -2)
        assert got == Fraction(3)


class TestCapelli:
    def test_m1(self, rep210):
        c1 = gln.capelli_det(rep210, 1)
        assert c1.coeff(0) == rep210.gen(1, 1)
        assert c1.coeff(1) == SparseMat.identity(8)

    @pytest.mark.parametrize("n,lam", [(2, d(1, 0)), (3, d(2, 1, 0)), (3, d(1, 1, 0))])
    def test_scalar(self, n, lam):
        assert gln.capelli_scalar_check(gln.build_irrep(n, lam))

    @pytest.mark.parametrize("n,lam", [(2, d(1, 0)), (2, d(2, 0)), (3, d(2, 1, 0))])
    def test_interpolation(self, n, lam):
        assert gln.capelli_interpolation_check(gln.build_irrep(n, lam))

    def test_z_relations(self, rep210):
        assert gln.zrelation_checks(rep210)

    def test_centrality(self, rep210):
        c = gln.capelli_det(rep210)
        for coeff in c.coeffs:
            for i in range(1, 4):
                for j in range(1, 4):
                    assert commutator(coeff, rep210.gen(i, j)).is_zero()


class TestQuantumMinors:
    def test_tau13(self, rep210):
        p = gln.tau_poly(rep210, 1, "raising")
        assert p == gln.quantum_minor(rep210, (1,), (3,))
        assert p.coeffs == [rep210.gen(1, 3)]

    def test_tau31_printed(self, rep210):
        # E_21 E_32 - E_31 (u + E_22 - 1)
        rep = rep210
        p = gln.tau_poly(rep, 1, "lowering")
        ident = SparseMat.identity(8)
        want0 = rep.gen(2, 1) @ rep.gen(3, 2) - rep.gen(3, 1) @ (rep.gen(2, 2) - ident)
        assert p.coeff(0) == want0
        assert p.coeff(1) == -rep.gen(3, 1)

    def test_tau23_printed(self, rep210):
        rep = rep210
        p = gln.tau_poly(rep, 2, "raising")
        want0 = rep.gen(2, 1) @ rep.gen(1, 3) - rep.gen(2, 3) @ rep.gen(1, 1)
        assert p.coeff(0) == want0
        assert p.coeff(1) == -rep.gen(2, 3)

    def test_antisymmetry(self, rep210):
        a = gln.quantum_minor(rep210, (1, 2), (1, 3))
        b = gln.quantum_minor(rep210, (2, 1), (1, 3))
        assert a == -b
        c = gln.quantum_minor(rep210, (1, 2), (3, 1))
        assert a == -c

    @pytest.mark.parametrize("i", [1, 2])
    def test_tau_equals_z(self, rep210, i):
        assert gln.tau_equals_z_check(rep210, i)

    def test_tau_equals_z_gl2(self):
        for lam in [d(1, 0), d(2, 0), d(3, 1)]:
            assert gln.tau_equals_z_check(gln.build_irrep(2, lam), 1)


class TestDrinfeld:
    def test_a1_eigenvalue(self):
        rep = gln.build_irrep(2, d(1, 0))
        poly = gln.drinfeld_poly(rep, 1, "A")
        for t, p in enumerate(rep.basis):
            vec = vec_unit(rep.dim, t)
            got = oppoly_apply_to(poly, vec)
            lam11 = Fraction(p.row(1)[0], 2)
            assert got[0] == tuple(lam11 * x for x in vec)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_all_displays(self, rep210, m):
        assert gln.drinfeld_checks(rep210, m)

    def test_c1_is_e21(self, rep210):
        poly = gln.drinfeld_poly(rep210, 1, "C")
        assert poly.coeffs == [rep210.gen(2, 1)]

    @pytest.mark.parametrize("m", [1, 2])
    def test_leading_coefficients(self, rep210, m):
        # B_m and C_m have degree m-1 with top coefficients E_{m,m+1} and
        # E_{m+1,m}
        b = gln.drinfeld_poly(rep210, m, "B")
        c = gln.drinfeld_poly(rep210, m, "C")
        assert b.degree() == m - 1 and c.degree() == m - 1
        assert b.coeff(m - 1) == rep210.gen(m, m + 1)
        assert c.coeff(m - 1) == rep210.gen(m + 1, m)

    def test_action_matrix(self, rep210):
        m = gln.drinfeld_poly(rep210, 1, "C").eval_at(Fraction(-2))
        assert m == rep210.gen(2, 1)


class TestKappa:
    def test_trivial_and_small(self):
        rep = gln.build_irrep(2, d(1, 0))
        vecs = gln.kappa_basis(rep)
        assert vecs[0] == vec_unit(2, 0)
        assert len(vecs) == 2

    def test_top_pattern_is_untouched(self, rep210):
        # empty product: kappa of the top pattern is the highest vector
        assert gln.kappa_basis(rep210)[0] == vec_unit(8, 0)

    def test_gl3(self, rep210):
        vecs = gln.kappa_basis(rep210)
        assert len(vecs) == 8
        for t, v in enumerate(vecs):
            nz = [x for x in v if x]
            assert len(nz) == 1  # proportional to the basis vector


class TestGTSubalgebra:
    def test_rank_one(self):
        p = GTPatternA((d(5),))
        assert gln.gt_eigenvalues(p) == [[Fraction(5)]]

    def test_top_pattern_values(self, rep210):
        top = rep210.basis[0]
        evs = gln.gt_eigenvalues(top)
        assert evs[2] == [Fraction(0), Fraction(-4), Fraction(0)]

    def test_separation(self, rep210):
        seen = {tuple(tuple(r) for r in gln.gt_eigenvalues(p)) for p in rep210.basis}
        assert len(seen) == rep210.dim


class TestCharacteristicIdentity:
    @pytest.mark.parametrize("n,lam", [
        (2, d(1, 0)), (3, d(2, 1, 0)), (2, d(0, 0)), (3, d(0, 0, 0)),
    ])
    def test_identity(self, n, lam):
        assert gln.characteristic_identity_check(gln.build_irrep(n, lam))


class TestExport:
    def test_schema_fields(self, rep210):
        data = gln.export_json(rep210)
        assert data["algebra"] == "gl" and data["dim"] == 8
        assert set(data["generators"]) == {
            "E_1_1", "E_2_2", "E_3_3", "E_1_2", "E_2_1", "E_2_3", "E_3_2"}
        assert data["normsq"][0] == "1/1"
        for name, m in data["generators"].items():
            i, j = map(int, name.split("_")[1:])
            assert type(m) is SparseMat and m == rep210.gen(i, j)
        fh = io.StringIO()
        cli.write_export(data, fh)
        written = json.loads(fh.getvalue())
        assert set(written["generators"]) == set(data["generators"])
        for name, ent in written["generators"].items():
            assert ent and ent == sorted(ent, key=lambda e: (e[0], e[1]))
            assert {(r, c): Fraction(v) for r, c, v in ent} == data["generators"][name].entries
