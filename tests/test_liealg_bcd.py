from fractions import Fraction
from itertools import product

import pytest

from gtbases import branching, patterns
from gtbases.exact import (SparseMat, commutator, rank, solve_in_span,
                           op_poly_eval_left, vec_add, vec_is_zero, vec_scale,
                           vec_unit, vec_zero)
from gtbases.liealg_bcd import (DeskScaleError, OrthogonalChain, apply_z,
                                apply_z_interp, build_bcd_irrep,
                                fnn_action_check, gt_basis_bcd, gt_basis_checks,
                                lowering_zia, multiplicity_basis,
                                orth_basis_checks, orth_gt_basis, v_plus_basis,
                                v_plus_mu, z_interp_poly, zab_operators)
from gtbases.liealg_bcd.signed_realization import (_apply_zab_point,
                                                    apply_znizin, apply_pf)


def d(*xs):
    return tuple(2 * x for x in xs)


@pytest.fixture(scope="module")
def sp4_vec():
    return build_bcd_irrep("C", d(0, -1))


@pytest.fixture(scope="module")
def sp4_5():
    return build_bcd_irrep("C", d(-1, -1))


@pytest.fixture(scope="module")
def o5_spin():
    return build_bcd_irrep("B", (-1, -1))


@pytest.fixture(scope="module")
def o4_vec():
    return build_bcd_irrep("D", d(0, -1))


class TestConstruction:
    def test_trivial_modules(self):
        for series in "BCD":
            rep = build_bcd_irrep(series, d(0, 0))
            assert rep.dim == 1

    def test_dims(self, sp4_vec, sp4_5, o5_spin, o4_vec):
        assert sp4_vec.dim == 4
        assert sp4_5.dim == 5
        assert o5_spin.dim == 4
        assert o4_vec.dim == 4

    @pytest.mark.parametrize("series,lam", [
        ("C", d(0, -1)), ("C", d(-1, -1)), ("C", d(0, -2)),
        ("B", (-1, -1)), ("B", d(0, -1)), ("D", d(0, -1)), ("D", d(1, -1)),
    ])
    def test_dim_matches_oracle(self, series, lam):
        rep = build_bcd_irrep(series, lam)
        assert rep.dim == branching.weyl_dim_s3(series, lam)

    def test_commutation_relations(self, sp4_vec, o5_spin):
        for rep in (sp4_vec, o5_spin):
            alg = rep.algebra
            pairs = [(i, j) for i in alg.indices for j in alg.indices]
            for (i, j), (k, l) in product(pairs, repeat=2):
                want = rep.module.realize(commutator(alg.fdef(i, j), alg.fdef(k, l)))
                assert commutator(rep.F(i, j), rep.F(k, l)) == want

    def test_contravariance(self, sp4_5):
        g = sp4_5.module.gram_matrix()
        alg = sp4_5.algebra
        for i in alg.indices:
            for j in alg.indices:
                assert g @ sp4_5.F(i, j) == sp4_5.F(j, i).transpose() @ g

    def test_highest_vector(self, sp4_vec):
        xi = sp4_vec.highest_vector
        alg = sp4_vec.algebra
        for i in alg.indices:
            for j in alg.indices:
                if i < j:
                    assert vec_is_zero(sp4_vec.F(i, j).apply(xi))
        for c in range(1, alg.n + 1):
            assert sp4_vec.F(c, c).apply(xi) == \
                vec_scale(Fraction(sp4_vec.lam[c - 1], 2), xi)

    def test_desk_scale_caps(self):
        with pytest.raises(DeskScaleError):
            build_bcd_irrep("C", d(0, 0, 0, 0))
        with pytest.raises(DeskScaleError):
            build_bcd_irrep("C", d(-6, -6), max_dim=20)

    def test_rejects_bad_weight(self):
        with pytest.raises(Exception):
            build_bcd_irrep("C", d(1, 0))


class TestVPlus:
    def test_counts_match_branching(self, sp4_vec, sp4_5, o5_spin, o4_vec):
        for rep in (sp4_vec, sp4_5, o5_spin, o4_vec):
            series = rep.algebra.series
            total = 0
            for mu, spec in branching.branch_children_BCD(series, rep.lam):
                assert len(v_plus_mu(rep, mu)) == spec.multiplicity
                total += spec.multiplicity
            assert total == len(v_plus_basis(rep))

    def test_vectors_are_highest(self, sp4_5):
        alg = sp4_5.algebra
        n = alg.n
        for _, v in v_plus_basis(sp4_5):
            for i in alg.indices:
                for j in alg.indices:
                    if i < j and abs(i) < n and abs(j) < n:
                        assert vec_is_zero(sp4_5.F(i, j).apply(v))


class TestZOperators:
    def test_shift_into_vplus(self, sp4_5):
        # z_{1,-2} xi lands in V^+ at mu + delta_1 and is nonzero
        img = apply_z(sp4_5, 1, -2, sp4_5.highest_vector)
        assert not vec_is_zero(img)
        members = v_plus_mu(sp4_5, (0,))
        coords = solve_in_span([v for _, v in members], img)
        assert coords is not None

    def test_boundary_vanishing(self, sp4_vec):
        # V^+_{(1)} = 0 forces z_{1,-2} xi = 0 for lam = (0,-1)
        assert vec_is_zero(apply_z(sp4_vec, 1, -2, sp4_vec.highest_vector))

    def test_pf_single_term(self, sp4_vec):
        # i = -n+1 admits no descending chains, so pF_{ia} = F_{ia} on
        # every vector (the s = 0 term alone)
        for t in range(sp4_vec.dim):
            v = vec_unit(sp4_vec.dim, t)
            got = apply_pf(sp4_vec, -1, -2, v)
            assert got == sp4_vec.F(-1, -2).apply(v)

    def test_commutativity_on_vplus(self, sp4_5):
        for _, v in v_plus_basis(sp4_5):
            a = apply_z(sp4_5, 1, -2, apply_z(sp4_5, 1, 2, v))
            b = apply_z(sp4_5, 1, 2, apply_z(sp4_5, 1, -2, v))
            assert a == b

    @pytest.mark.parametrize("series,lam,pairs", [
        ("C", d(0, 0, -1), [(1, 2), (2, 1), (1, -2), (-1, 2)]),
        ("B", (-1, -1), [(1, 0), (0, 1), (0, -1)]),
        ("D", d(0, -1, -1), [(1, 2), (2, -1)]),
    ])
    def test_quadratic_relation(self, series, lam, pairs):
        # z_ia z_jb + z_ja z_ib (f_i - f_j - 1) = z_ib z_ja (f_i - f_j)
        # on V(lam)^+ for i + j != 0 (Cartan factors act first)
        rep = build_bcd_irrep(series, lam)
        n = rep.algebra.n
        fvals = {i: [rep.algebra.f_values(w)[i] for w in rep.module.weights]
                 for i in range(-n + 1, n) if i != 0 or series == "B"}
        for i, j in pairs:
            assert i + j != 0
            for a in (n, -n):
                for b in (n, -n):
                    for _, v in v_plus_basis(rep):
                        diff = [x - y for x, y in zip(fvals[i], fvals[j])]
                        lhs = apply_z(rep, i, a, apply_z(rep, j, b, v))
                        t2 = tuple((dd - 1) * x if x else x for dd, x in zip(diff, v))
                        lhs = tuple(p + q for p, q in zip(
                            lhs, apply_z(rep, j, a, apply_z(rep, i, b, t2))))
                        t3 = tuple(dd * x if x else x for dd, x in zip(diff, v))
                        rhs = apply_z(rep, i, b, apply_z(rep, j, a, t3))
                        assert lhs == rhs

    def test_weight_shift_property(self, sp4_5):
        # z_{ia} moves V^+_mu into V^+_{mu+delta_i}; verified through the
        # Cartan eigenvalues and the annihilation conditions of the image
        alg = sp4_5.algebra
        n = alg.n
        for wdbl, v in v_plus_basis(sp4_5):
            for a in (n, -n):
                img = apply_z(sp4_5, 1, a, v)
                if vec_is_zero(img):
                    continue
                for i in alg.indices:
                    for j in alg.indices:
                        if i < j and abs(i) < n and abs(j) < n:
                            assert vec_is_zero(sp4_5.F(i, j).apply(img))
                got = sp4_5.F(1, 1).apply(img)
                assert got == vec_scale(Fraction(wdbl[0], 2) + 1, img)

    def test_matrix_form(self, sp4_5):
        m = lowering_zia(sp4_5, 1, -2)
        basis = [v for _, v in v_plus_basis(sp4_5)]
        for c, v in enumerate(basis):
            img = apply_z(sp4_5, 1, -2, v)
            lin = vec_zero(sp4_5.dim)
            for r, coeff in enumerate(m.col_vector(c)):
                if coeff:
                    lin = vec_add(lin, vec_scale(coeff, basis[r]))
            assert lin == img


class TestInterpolation:
    @pytest.mark.parametrize("fixture", ["sp4_vec", "sp4_5", "o5_spin"])
    def test_z_interp_at_nodes(self, fixture, request):
        rep = request.getfixturevalue(fixture)
        for wdbl, v in v_plus_basis(rep):
            for i in range(1, rep.algebra.n + 1):
                gi = Fraction(wdbl[i - 1], 2) + rep.algebra.rho(i) + Fraction(1, 2)
                assert apply_z_interp(rep, gi, v) == apply_znizin(rep, i, v)

    def test_poly_eval_left_at_nodes(self, sp4_vec):
        rep = sp4_vec
        p = z_interp_poly(rep)
        basis = v_plus_basis(rep)
        cols = [v for _, v in basis]
        for i in (1, 2):
            gdiag = SparseMat.diag([Fraction(w[i - 1], 2) + rep.algebra.rho(i)
                                    + Fraction(1, 2) for w, _ in basis])
            m = op_poly_eval_left(p, gdiag)
            for c, (_, v) in enumerate(basis):
                lin = vec_zero(rep.dim)
                for r, coeff in enumerate(m.col_vector(c)):
                    if coeff:
                        lin = vec_add(lin, vec_scale(coeff, cols[r]))
                assert lin == apply_znizin(rep, i, v)

    def test_d_case_degree(self):
        rep = build_bcd_irrep("D", d(0, -1))
        # one interpolation node for n = 2: constant in u
        assert z_interp_poly(rep).degree() == 0

    def test_even_in_u(self, sp4_vec):
        p = z_interp_poly(sp4_vec)
        assert all(c.is_zero() for j, c in enumerate(p.coeffs) if j % 2 == 1)

    def test_leading_coefficient_is_fnminus(self, sp4_vec, sp4_5):
        for rep in (sp4_vec, sp4_5):
            p = z_interp_poly(rep)
            lead = p.coeff(2 * (rep.algebra.n - 1))
            basis = v_plus_basis(rep)
            cols = [v for _, v in basis]
            f = rep.F(rep.algebra.n, -rep.algebra.n)
            for c, (_, v) in enumerate(basis):
                lin = vec_zero(rep.dim)
                for r, coeff in enumerate(lead.col_vector(c)):
                    if coeff:
                        lin = vec_add(lin, vec_scale(coeff, cols[r]))
                assert lin == f.apply(v)


class TestMultiplicityBasis:
    def test_count_and_independence(self, sp4_vec):
        tups, vecs = multiplicity_basis(sp4_vec, (0,))
        assert len(vecs) == 2
        assert rank(SparseMat.from_columns(vecs, sp4_vec.dim)) == 2

    def test_empty_for_invalid_mu(self, sp4_vec):
        tups, vecs = multiplicity_basis(sp4_vec, (2,))
        assert vecs == []

    def test_trivial_branch(self):
        rep = build_bcd_irrep("C", d(0, 0))
        tups, vecs = multiplicity_basis(rep, (0,))
        assert len(vecs) == 1 and vecs[0] == rep.highest_vector

    def test_vectors_live_in_vplus_mu(self, sp4_5):
        for mu, spec in branching.branch_children_BCD("C", sp4_5.lam):
            tups, vecs = multiplicity_basis(sp4_5, mu)
            members = [v for _, v in v_plus_mu(sp4_5, mu)]
            for v in vecs:
                assert solve_in_span(members, v) is not None


class TestGTBasis:
    @pytest.mark.parametrize("series,lam", [
        ("C", d(0, -1)), ("C", d(-1, -1)), ("B", (-1, -1)), ("B", d(-1, -1)),
        ("D", d(0, -1)), ("D", d(-1, -1)), ("D", d(1, -1)),
    ])
    def test_full_suite(self, series, lam):
        rep = build_bcd_irrep(series, lam)
        assert gt_basis_checks(rep)
        pats, vecs = gt_basis_bcd(rep)
        assert len(pats) == branching.weyl_dim_s3(series, lam)

    @pytest.mark.parametrize("series,lam", [
        ("C", d(0, 0, -1)), ("D", d(0, -1, -1)), ("B", (-1, -1, -1)),
    ])
    def test_rank_three(self, series, lam):
        rep = build_bcd_irrep(series, lam)
        assert rep.dim == branching.weyl_dim_s3(series, lam)
        assert gt_basis_checks(rep)

    def test_trivial(self):
        rep = build_bcd_irrep("B", d(0, 0))
        pats, vecs = gt_basis_bcd(rep)
        assert vecs == [rep.highest_vector]


class TestDiagonalActionFormulas:
    def test_fnn_all_children(self, sp4_vec, sp4_5):
        for rep in (sp4_vec, sp4_5):
            for mu, _ in branching.branch_children_BCD("C", rep.lam):
                assert fnn_action_check(rep, mu)

    def test_sp2_pure_shift(self):
        rep = build_bcd_irrep("C", (-4,))
        tups, vecs = multiplicity_basis(rep, ())
        idx = {t: i for i, t in enumerate(tups)}
        f = rep.F(1, -1)
        for t, v in zip(tups, vecs):
            up = (t[0] + 2,)
            want = vecs[idx[up]] if up in idx else vec_zero(rep.dim)
            assert f.apply(v) == want

    def test_fnn_b_series(self, o5_spin):
        for mu, _ in branching.branch_children_BCD("B", o5_spin.lam):
            assert fnn_action_check(o5_spin, mu)


class TestZab:
    def test_trivial_module_offdiagonal_vanish(self):
        rep = build_bcd_irrep("C", d(0, 0))
        tups, vecs, zab = zab_operators(rep, (0,))
        assert len(vecs) == 1
        assert zab[(2, -2)].is_zero() and zab[(-2, 2)].is_zero()

    @pytest.mark.xfail(strict=True, raises=ZeroDivisionError,
                       reason="known defect: _apply_zab_point meets a vanishing "
                              "Cartan denominator on integer-weight B modules")
    def test_integer_weight_b_module(self):
        zab_operators(build_bcd_irrep("B", (-2, -2)), (0,))

    def test_interpolated_polys_reproduce_values(self, sp4_vec):
        tups, vecs, zab = zab_operators(sp4_vec, (0,))
        for (a, b), poly in zab.items():
            for u0 in (Fraction(-3), Fraction(7, 3)):
                m = poly.eval_at(u0)
                for c, v in enumerate(vecs):
                    img = _apply_zab_point(sp4_vec, a, b, u0, v)
                    assert tuple(m.col_vector(c)) == solve_in_span(vecs, img)

    def test_znminusn_matches_interp(self, sp4_vec):
        n = 2
        tups, vecs, zab = zab_operators(sp4_vec, (0,))
        for u0 in (Fraction(1, 2), Fraction(7, 3)):
            m = zab[(n, -n)].eval_at(u0)
            for c, v in enumerate(vecs):
                lin = vec_zero(sp4_vec.dim)
                for r, coeff in enumerate(m.col_vector(c)):
                    if coeff:
                        lin = vec_add(lin, vec_scale(coeff, vecs[r]))
                assert lin == apply_z_interp(sp4_vec, u0, v)

    def test_yangian_highest_weight_match(self, sp4_vec):
        # V^+_mu is the predicted tensor module: the Y-highest vector is
        # annihilated by Z_{-n,n}(u) and has the product eigenvalue under
        # (u + 1/2) Z_{nn}(u)
        from gtbases.exact import spoly_from_roots, spoly_mul
        lam, mu = d(0, -1), (0,)
        tups, vecs, zab = zab_operators(sp4_vec, mu)
        alphas = [Fraction(-1, 2), min(Fraction(lam[0], 2), Fraction(mu[0], 2))
                  - 2 + Fraction(1, 2)]
        betas = [max(Fraction(lam[0], 2), Fraction(mu[0], 2)) - Fraction(1, 2),
                 Fraction(lam[1], 2) - Fraction(3, 2)]
        dim_pred = 1
        for a, b in zip(alphas, betas):
            dim_pred *= a - b + 1
        assert len(vecs) == dim_pred
        killed = [t for t in range(len(vecs))
                  if all(c.col_vector(t) == (Fraction(0),) * len(vecs)
                         for c in zab[(-2, 2)].coeffs)]
        assert len(killed) == 1
        hw = killed[0]
        unit = vec_unit(len(vecs), hw)
        lhs = zab[(2, 2)].mul_scalar_poly([Fraction(1, 2), Fraction(1)])
        want = spoly_mul(spoly_from_roots(betas),
                         spoly_from_roots([-a for a in alphas]))
        got = lhs.apply_to(unit)
        for j in range(max(len(got), len(want))):
            g = got[j] if j < len(got) else (Fraction(0),) * len(vecs)
            w = want[j] if j < len(want) else Fraction(0)
            assert g == tuple(w * x for x in unit)

    @pytest.mark.parametrize("series,lam", [
        ("B", (-1, -1)), ("C", d(0, -1)), ("D", d(0, -1)),
    ])
    def test_twisted_symmetry_on_vplus(self, series, lam):
        # theta_ab s_{-b,-a}(-u) = s_ab(u) +- (s_ab(u) - s_ab(-u)) / (2u)
        # for the twisted-Yangian images with the series prefactors
        # (-u^-2n, (u+1/2) u^-2n, -2 u^-2n+2), at three sample points
        rep = build_bcd_irrep(series, lam)
        n = rep.algebra.n

        def pref(u0):
            if series == "B":
                return -u0 ** (-2 * n)
            if series == "C":
                return (u0 + Fraction(1, 2)) * u0 ** (-2 * n)
            return -2 * u0 ** (-2 * n + 2)

        def theta(a, b):
            if series == "C":
                return Fraction((1 if a > 0 else -1) * (1 if b > 0 else -1))
            return Fraction(1)

        pm = Fraction(-1) if series == "C" else Fraction(1)
        for mu, _ in branching.branch_children_BCD(series, lam):
            tups, vecs, zab = zab_operators(rep, mu)
            if not vecs:
                continue

            def s_at(a, b, u0):
                return zab[(a, b)].eval_at(u0).scale(pref(u0))

            for u0 in (Fraction(1), Fraction(2), Fraction(5, 3)):
                for a in (-n, n):
                    for b in (-n, n):
                        lhs = s_at(-b, -a, -u0).scale(theta(a, b) * 2 * u0)
                        rhs = s_at(a, b, u0).scale(2 * u0) + \
                            (s_at(a, b, u0) - s_at(a, b, -u0)).scale(pm)
                        assert lhs == rhs


def _realize_one_shot(module, real_mat):
    """HWModule.realize by the reference path: the span pairs and one
    solve_in_span of the flattened realization matrices per call."""
    n = len(module.realization.labels)

    def flat(m):
        return tuple(m.get(r, c) for r in range(n) for c in range(n))

    pairs = module._algebra_span()[0]
    coeffs = solve_in_span([flat(rm) for rm, _ in pairs], flat(real_mat))
    out = SparseMat.zero(module.dim, module.dim)
    for c, (_, mm) in zip(coeffs, pairs):
        if c:
            out = out + mm.scale(c)
    return out


class TestRealize:
    @pytest.mark.parametrize("series,lam", [
        ("C", d(-1, -1)), ("C", d(0, 0, -1)), ("B", (-1, -1)), ("B", d(0, 0, -1)),
    ])
    def test_signed_generators_match_one_shot_solve(self, series, lam):
        rep = build_bcd_irrep(series, lam)
        alg = rep.algebra
        for i in alg.indices:
            for j in alg.indices:
                assert rep.F(i, j) == _realize_one_shot(rep.module, alg.fdef(i, j))
        with pytest.raises(ValueError, match="not in the realized algebra span"):
            rep.module.realize(SparseMat.identity(len(alg.indices)))

    def test_chain_generators_match_one_shot_solve(self):
        ch = OrthogonalChain(5, d(1, 0))
        for i in range(1, 6):
            for j in range(1, 6):
                rm = ch._fdef(i, j)
                assert ch.module.F(i, j) == _realize_one_shot(ch.module, rm)
        with pytest.raises(ValueError, match="not in the realized algebra span"):
            ch.module.realize(SparseMat.identity(5))


class TestOrthogonalChain:
    def test_o3(self):
        ch = OrthogonalChain(3, d(1))
        assert ch.dim == 3
        pats, vecs = orth_gt_basis(ch)
        assert len(vecs) == 3
        assert orth_basis_checks(ch)

    def test_o3_trivial(self):
        ch = OrthogonalChain(3, d(0))
        pats, vecs = orth_gt_basis(ch)
        assert len(vecs) == 1 and not vec_is_zero(vecs[0])

    @pytest.mark.parametrize("N,lam,series", [
        (3, (1,), "B"), (4, d(1, 0), "D"), (4, (1, 1), "D"), (4, (1, -1), "D"),
        (5, d(1, 0), "B"), (5, (1, 1), "B"), (5, d(1, 1), "B"),
    ])
    def test_counts_and_orthogonality(self, N, lam, series):
        ch = OrthogonalChain(N, lam)
        fam = "B4" if N % 2 else "D4"
        assert ch.dim == branching.weyl_dim(series, lam)
        assert ch.dim == len(patterns.enumerate_patterns(fam, lam))
        assert orth_basis_checks(ch)

    def test_desk_cap(self):
        with pytest.raises(DeskScaleError):
            OrthogonalChain(9, d(1, 0, 0, 0))
