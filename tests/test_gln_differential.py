"""The gl_n operator identities against their direct forms in gln_reference:
the Laplace quantum minor against both s! expansions, the integer norm
formula against the Fraction one, and the per-point, per-coefficient and
streaming checks against the per-vector checks, on intact modules and on
corrupted copies of them."""

import math
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

import gln_reference as ref
from gtbases import branching, cli, gln
from exact_reference import spoly_from_roots
from gtbases.exact import OpPoly, SparseMat, vec_unit
from gtbases.patterns import enumerate_patterns


def d(*xs):
    return tuple(2 * x for x in xs)


def _subset_pairs(n):
    for s in range(1, n + 1):
        for rows in combinations(range(1, n + 1), s):
            for cols in combinations(range(1, n + 1), s):
                yield rows, cols


class TestLaplaceMinor:
    @pytest.mark.parametrize("n,lam", [(3, d(2, 1, 0)), (3, (3, 1, -1)), (4, d(3, 2, 1, 0))])
    def test_equals_both_expansions(self, n, lam):
        rep = gln.build_irrep(n, lam)
        for rows, cols in _subset_pairs(n):
            for order in (rows, rows[::-1]):
                first, second = ref.quantum_minor_expansions(rep, order, cols)
                assert gln.quantum_minor(rep, order, cols) == first == second, (order, cols)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_weights(self, data):
        n = data.draw(st.sampled_from([3, 4]), label="n")
        gaps = data.draw(st.lists(st.integers(0, 2 if n == 3 else 1),
                                  min_size=n - 1, max_size=n - 1), label="gaps")
        low = data.draw(st.integers(-4, 4), label="doubled lowest entry")
        lam = [low]
        for g in reversed(gaps):
            lam.insert(0, lam[0] + 2 * g)
        assume(branching.weyl_dim("A", tuple(lam)) <= 20)
        rep = gln.build_irrep(n, tuple(lam))
        s = data.draw(st.integers(1, n), label="size")
        rows = data.draw(st.permutations(range(1, n + 1)), label="rows")[:s]
        cols = data.draw(st.permutations(range(1, n + 1)), label="cols")[:s]
        first, second = ref.quantum_minor_expansions(rep, rows, cols)
        assert gln.quantum_minor(rep, rows, cols) == first == second

    @pytest.mark.parametrize("lam", [d(3, 2, 1, 0), d(1, 0, -1, -2)])
    def test_verify_minors_match_the_two_step_expansion(self, lam):
        """Every quantum minor that `gt verify gl` builds (the Capelli
        determinant, A_m, B_m, C_m and the tau polynomials with their
        sub-minors), on the weight 3,2,1,0 and its shift by -2, equals the
        expansion that formed each product M_a,j @ E on its own and then
        summed each power of u."""
        rep = gln.build_irrep(4, lam)
        for name, check in cli._gl_verify_checks(rep):
            assert check(), name
        assert len(rep._minors) == 24
        memo = {}
        for (rows, cols), poly in rep._minors.items():
            assert poly == ref.expand_last_column(rep, rows, cols, memo), (rows, cols)

    def test_minors_form_no_sparse_sum_or_scale(self, monkeypatch):
        """quantum_minor sums every power of u in one kernel call: it forms
        no SparseMat sum and no scale."""
        rep = gln.build_irrep(4, d(3, 2, 1, 0))
        want = {which: [gln.drinfeld_poly(rep, m, which) for m in range(1, 4)] for which in "ABC"}
        rep._minors.clear()

        def refuse(*args):
            raise AssertionError("a SparseMat sum or scale was formed")
        for name in ("__add__", "__sub__", "scale"):
            monkeypatch.setattr(SparseMat, name, refuse)
        assert {which: [gln.drinfeld_poly(rep, m, which) for m in range(1, 4)]
                for which in "ABC"} == want
        assert gln.capelli_det(rep).degree() == 4

    def test_rejects_empty_and_ragged(self):
        rep = gln.build_irrep(2, d(1, 0))
        for rows, cols in [((), ()), ((1, 2), (1,))]:
            with pytest.raises(ValueError):
                gln.quantum_minor(rep, rows, cols)


# name -> (new check, reference check)
CHECKS = {
    "commutation": (gln.commutation_check, ref.commutation_check),
    "adjointness": (gln.adjointness_check, ref.adjointness_check),
    "capelli-scalar": (gln.capelli_scalar_check, ref.capelli_scalar_check),
    "characteristic-identity": (gln.characteristic_identity_check,
                                ref.characteristic_identity_check),
}
for _m in (1, 2, 3):
    CHECKS["drinfeld-%d" % _m] = (
        lambda rep, m=_m: gln.drinfeld_checks(rep, m),
        lambda rep, m=_m: ref.drinfeld_checks(rep, m))


def _verdict(check):
    """The verdict of a check that signals failure by AssertionError."""
    try:
        return check()
    except AssertionError:
        return False


def _cli_check(name):
    return lambda rep: _verdict(dict(cli._gl_verify_checks(rep))[name])


CHECKS.update({
    "capelli-interpolation": (gln.capelli_interpolation_check,
                              ref.capelli_interpolation_check),
    "z-relations": (gln.zrelation_checks, ref.zrelation_checks),
    "tau-equals-z": (
        lambda rep: all(gln.tau_equals_z_check(rep, i) for i in range(1, rep.n)),
        lambda rep: all(ref.tau_equals_z_check(rep, i) for i in range(1, rep.n))),
    "kappa-basis": (_cli_check("kappa-basis"),
                    lambda rep: _verdict(lambda: len(ref.kappa_basis(rep)) == rep.dim)),
    "lowering-basis": (_cli_check("lowering-basis"), lambda rep: all(
        v == vec_unit(rep.dim, t) for t, v in enumerate(ref.basis_via_lowering(rep)))),
})

INTACT = [(2, d(1, 0)), (3, d(2, 1, 0)), (3, d(1, 1, 0)), (3, (3, 1, -1)), (3, d(2, 2, 2))]


def _copy(rep, gens=None, normsq=None):
    near = {(i, j): rep.gen(i, j) for i in range(1, rep.n + 1)
            for j in range(1, rep.n + 1) if abs(i - j) <= 1}
    near.update(gens or {})
    return gln.GlnIrrep(rep.n, rep.lam, rep.basis, near,
                        rep.normsq if normsq is None else normsq)


def corrupted_copies(n, lam):
    """Copies of L(lam), each with one change: an entry of E_{k,k+1} or
    E_{k+1,k} doubled, a diagonal entry 1 put into one of them (where the
    module has none), an entry of E_kk shifted by 1, or a normsq doubled."""
    rep = gln.build_irrep(n, lam)
    out = []
    for key in [(k, k + 1) for k in range(1, n)] + [(k + 1, k) for k in range(1, n)]:
        m = rep.gen(*key)
        for pos, v in sorted(m.entries.items()):
            ent = dict(m.entries)
            ent[pos] = 2 * v
            out.append(("E_%d%d %s x2" % (key + (pos,)),
                        _copy(rep, {key: SparseMat(rep.dim, rep.dim, ent)})))
        for t in range(rep.dim):
            bump = SparseMat(rep.dim, rep.dim, {(t, t): 1})
            out.append(("E_%d%d (%d,%d) = 1" % (key + (t, t)), _copy(rep, {key: m + bump})))
    for k in range(1, n + 1):
        for t in range(rep.dim):
            bump = SparseMat(rep.dim, rep.dim, {(t, t): 1})
            out.append(("E_%d%d (%d,%d) +1" % (k, k, t, t),
                        _copy(rep, {(k, k): rep.gen(k, k) + bump})))
    for t in range(rep.dim):
        normsq = list(rep.normsq)
        normsq[t] *= 2
        out.append(("normsq[%d] x2" % t, _copy(rep, normsq=normsq)))
    return out


class TestVerdicts:
    @pytest.mark.parametrize("n,lam", INTACT)
    def test_intact_modules_pass_both(self, n, lam):
        rep = gln.build_irrep(n, lam)
        for name, (new, old) in CHECKS.items():
            if name.startswith("drinfeld-") and int(name[-1]) > n:
                continue
            assert new(rep) is True and old(rep) is True, name

    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_corrupted_copies_get_the_reference_verdict(self, name):
        new, old = CHECKS[name]
        verdicts = []
        for n, lam in [(3, d(2, 1, 0)), (3, (3, 1, -1))]:
            for label, rep in corrupted_copies(n, lam):
                want = old(rep)
                assert new(rep) == want, (n, lam, label)
                verdicts.append(want)
        assert False in verdicts and True in verdicts

    def test_commutation_forms_no_bracket(self):
        """The check reads only the Chevalley generators on a built module:
        it leaves no E_ij with |i - j| > 1 in the cache."""
        rep = gln.build_irrep(4, d(3, 2, 1, 0))
        cached = set(rep._gen)
        assert gln.commutation_check(rep)
        assert set(rep._gen) == cached
        assert all(abs(i - j) <= 1 for i, j in cached)

    def test_common_off_diagonal_cartan_fails(self):
        """One off-diagonal entry added to every E_kk leaves each
        E_ss - E_s+1,s+1 and each diagonal weight as they were; the check
        that the E_kk are diagonal sees it."""
        rep = gln.build_irrep(3, d(2, 1, 0))
        bump = SparseMat(rep.dim, rep.dim, {(0, 1): 1})
        corrupted = _copy(rep, {(k, k): rep.gen(k, k) + bump for k in (1, 2, 3)})
        assert gln.commutation_check(corrupted) is ref.commutation_check(corrupted) is False

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_commutation_on_random_corruptions(self, data):
        """The Chevalley-Serre check against the all-pairs reference on a
        copy of a small module with one entry changed in a Chevalley, a
        Cartan or a cached E_ij with |i - j| > 1.  Both fail: a changed E_kk
        breaks [E_k,k+1, E_k+1,k] = E_kk - E_k+1,k+1 (or the one at k - 1),
        a changed E_ij its defining bracket, and given h_s and f_s, e_s is
        the only matrix with [h_s, e_s] = 2 e_s and [e_s, f_s] = h_s (and
        so for f_s)."""
        n = data.draw(st.integers(2, 4), label="n")
        lam = [data.draw(st.integers(-2, 2), label="doubled lowest entry")]
        for _ in range(n - 1):
            lam.insert(0, lam[0] + 2 * data.draw(st.integers(0, 2 if n < 4 else 1), label="gap"))
        assume(branching.weyl_dim("A", tuple(lam)) <= 20)
        rep = gln.build_irrep(n, tuple(lam))
        kinds = ["chevalley", "cartan"] + (["cached"] if n > 2 else [])
        kind = data.draw(st.sampled_from(kinds), label="kind")
        if kind == "chevalley":
            k = data.draw(st.integers(1, n - 1), label="k")
            key = data.draw(st.sampled_from([(k, k + 1), (k + 1, k)]), label="key")
        elif kind == "cartan":
            k = data.draw(st.integers(1, n), label="k")
            key = (k, k)
        else:
            key = data.draw(st.sampled_from([(i, j) for i in range(1, n + 1)
                                             for j in range(1, n + 1) if abs(i - j) > 1]),
                            label="key")
        r = data.draw(st.integers(0, rep.dim - 1), label="row")
        c = data.draw(st.integers(0, rep.dim - 1), label="col")
        bump = data.draw(st.sampled_from([1, -1, Fraction(1, 2), 3]), label="bump")
        corrupted = _copy(rep, {key: rep.gen(*key) + SparseMat(rep.dim, rep.dim, {(r, c): bump})})
        assert gln.commutation_check(corrupted) is ref.commutation_check(corrupted) is False

    @pytest.mark.parametrize("eigen,want", [((1, 0), False), ((1, 1), False), ((0, 0), True)])
    def test_zero_summand_rule(self, monkeypatch, eigen, want):
        # lam = (0, 0) has alpha = (1, 0): E = diag(eigen) satisfies every
        # projector identity, and only the summand rule sees eigenvalue 1
        rep = SimpleNamespace(n=2, dim=1, lam=(0, 0))
        big = SparseMat.diag(eigen)
        monkeypatch.setattr(gln, "_big_e", lambda r: big)
        monkeypatch.setattr(ref, "_big_e", lambda r: big)
        assert gln.characteristic_identity_check(rep) is want
        assert ref.characteristic_identity_check(rep) is want

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_characteristic_identity_on_random_e(self, data):
        """The one product of the unkilled factors gets the full reference
        verdict (product, idempotents, sums, killed summands) on E = Q J Q^-1,
        with J a Jordan matrix whose eigenvalues are drawn from the alpha_r,
        killed ones included, and from stray values, and Q an integer
        unimodular matrix; and on E with random small integer entries."""
        n = data.draw(st.integers(1, 3), label="n")
        dim = data.draw(st.integers(1, 2), label="dim")
        lam = [data.draw(st.integers(-2, 2), label="doubled lowest entry")]
        for _ in range(n - 1):
            lam.insert(0, lam[0] + 2 * data.draw(st.integers(0, 1), label="gap"))
        nd = n * dim
        alphas = [Fraction(lam[r - 1], 2) + n - r for r in range(1, n + 1)]
        if data.draw(st.booleans(), label="random entries"):
            big = SparseMat(nd, nd, {(i, j): data.draw(st.integers(-2, 2))
                                     for i in range(nd) for j in range(nd)})
        else:
            ent = {}
            i = 0
            while i < nd:
                ev = data.draw(st.sampled_from(alphas + [Fraction(-3, 2), Fraction(7)]),
                               label="eigenvalue")
                size = data.draw(st.integers(1, min(2, nd - i)), label="Jordan block size")
                for j in range(i, i + size):
                    ent[(j, j)] = ev
                    if j > i:
                        ent[(j - 1, j)] = 1
                i += size
            big = SparseMat(nd, nd, ent)
            ident = SparseMat.identity(nd)
            for _ in range(data.draw(st.integers(0, 4), label="conjugations")):
                a = data.draw(st.integers(0, nd - 1), label="row")
                b = data.draw(st.integers(0, nd - 1), label="column")
                if a != b:
                    step = SparseMat(nd, nd, {(a, b): data.draw(st.integers(-2, 2))})
                    big = (ident + step) @ big @ (ident - step)
        rep = SimpleNamespace(n=n, dim=dim, lam=tuple(lam))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gln, "_big_e", lambda r: big)
            mp.setattr(ref, "_big_e", lambda r: big)
            want = ref.characteristic_identity_check(rep)
            assert gln.characteristic_identity_check(rep) is want


def _lowering_words(rep):
    """Per pattern, the z_{ik} (i, k) in the order they act."""
    return [tuple((i, k) for k in range(rep.n, 1, -1) for i in range(k - 1, 0, -1)
                  for _ in range((p.entry(k, i) - p.entry(k - 1, i)) // 2))
            for p in rep.basis]


def _kappa_words(rep):
    """Per pattern, the C_m(arg) (m, arg) in the order they act."""
    out = []
    for p in rep.basis:
        word = []
        for k in range(rep.n - 1, 0, -1):
            for m in range(k, rep.n):
                arg = -(Fraction(rep.lam[k - 1], 2) - k + 1)
                while arg <= -(Fraction(p.entry(m, k), 2) - k + 1) - 1:
                    word.append((m, arg))
                    arg += 1
        out.append(tuple(word))
    return out


@pytest.mark.parametrize("name,words", [("basis_via_lowering", _lowering_words),
                                        ("kappa_basis", _kappa_words)])
@pytest.mark.parametrize("n,lam", INTACT + [(4, d(3, 2, 1, 0)), (4, d(2, 2, 0, 0))])
def test_one_apply_per_distinct_prefix(monkeypatch, n, lam, name, words):
    """The word walk gives the per-pattern vectors with one SparseMat.apply
    per distinct nonempty word prefix."""
    rep = gln.build_irrep(n, lam)
    want = getattr(ref, name)(rep)
    calls = []
    real = SparseMat.apply

    def spy(self, vec):
        calls.append(1)
        return real(self, vec)
    monkeypatch.setattr(SparseMat, "apply", spy)
    assert getattr(gln, name)(rep) == want
    assert len(calls) == len({w[:j] for w in words(rep) for j in range(1, len(w) + 1)})


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-2, 3), min_size=1, max_size=4), st.integers(0, 1))
def test_norms_match_fraction_formula(parts, odd):
    """The int-product norms equal the Fraction factorial quotients, type
    included, on integer and half-integer (odd doubled) weights."""
    lam = tuple(sorted((2 * x + odd for x in parts), reverse=True))
    basis = enumerate_patterns("A", lam)
    got = gln.norms_of_patterns(basis)
    assert got == ref.norms_of_patterns(basis)
    assert all(type(v) is Fraction for v in got)


@pytest.mark.parametrize("n,lam", INTACT + [(4, d(3, 2, 1, 0)), (4, d(2, 2, 0, 0))])
def test_lowering_operator_matches_diagonal_products(n, lam):
    """Every z_{mi} and z_{im}, with its Cartan factor formed as one
    diagonal, equals the product of the factors h_i - h_j as matrices, and
    the sum formed one chain at a time."""
    rep = gln.build_irrep(n, lam)
    for m in range(2, n + 1):
        for i in range(1, m):
            for kind in ("lowering", "raising"):
                z = gln.lowering_operator(rep, i, kind, m=m)
                assert z == ref.lowering_operator_by_products(rep, i, kind, m)
                assert z == ref.lowering_operator_by_chain_adds(rep, i, kind, m)


def _small_irrep(data):
    """A built gl_n module, n = 1..3, of dimension at most 15."""
    n = data.draw(st.integers(1, 3), label="n")
    lam = [data.draw(st.integers(-3, 3), label="doubled lowest entry")]
    for _ in range(n - 1):
        lam.insert(0, lam[0] + 2 * data.draw(st.integers(0, 2), label="gap"))
    assume(branching.weyl_dim("A", tuple(lam)) <= 15)
    return gln.build_irrep(n, tuple(lam))


_BUMPS = st.sampled_from([1, -1, Fraction(1, 2), Fraction(-2, 3), 5])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_adjointness_on_random_corruptions(data):
    """The numerator form of the adjointness check against the product form
    N E_ij = E_ji^T N on a copy of a small module with up to two changes:
    an entry of any E_ij bumped (a cached |i - j| > 1 one included), a
    norm scaled, or a norm set to zero."""
    rep = _small_irrep(data)
    n, dim = rep.n, rep.dim
    gens, normsq = {}, list(rep.normsq)
    for _ in range(data.draw(st.integers(0, 2), label="changes")):
        kind = data.draw(st.sampled_from(["entry", "scale norm", "zero norm"]), label="kind")
        t = data.draw(st.integers(0, dim - 1), label="index")
        if kind == "entry":
            key = (data.draw(st.integers(1, n), label="i"), data.draw(st.integers(1, n), label="j"))
            c = data.draw(st.integers(0, dim - 1), label="col")
            bump = SparseMat(dim, dim, {(t, c): data.draw(_BUMPS, label="bump")})
            gens[key] = gens.get(key, rep.gen(*key)) + bump
        elif kind == "scale norm":
            normsq[t] *= data.draw(st.sampled_from([2, Fraction(1, 3), -1]), label="factor")
        else:
            normsq[t] = Fraction(0)
    corrupted = _copy(rep, normsq=normsq)
    corrupted._gen.update(gens)
    assert gln.adjointness_check(corrupted) is ref.adjointness_check(corrupted)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_acts_diagonally_on_random_polynomials(data):
    """The numerator form of the scalar-action test against the comparison
    with diagonal matrices, on the Capelli determinant of a small module
    with up to two entries of its coefficients changed, off the diagonal
    or on it, and on scalar polynomials of several lengths."""
    rep = _small_irrep(data)
    dim = rep.dim
    poly = gln.capelli_det(rep)
    coeffs = list(poly.coeffs)
    for _ in range(data.draw(st.integers(0, 2), label="changes")):
        j = data.draw(st.integers(0, len(coeffs)), label="coefficient")
        r = data.draw(st.integers(0, dim - 1), label="row")
        c = r if data.draw(st.booleans(), label="diagonal") else \
            data.draw(st.integers(0, dim - 1), label="col")
        bump = SparseMat(dim, dim, {(r, c): data.draw(_BUMPS, label="bump")})
        if j == len(coeffs):
            coeffs.append(bump)
        else:
            coeffs[j] = coeffs[j] + bump
    changed = OpPoly(dim, dim, coeffs)
    lam_l = [Fraction(rep.lam[i], 2) - i for i in range(rep.n)]
    want = spoly_from_roots(lam_l)
    scalars = [data.draw(st.sampled_from([want, want[:-1], want + [Fraction(1)]]),
                         label="scalar polynomial") for _ in range(dim)]
    assert gln._acts_diagonally(changed, [_int_poly(w) for w in scalars]) \
        is ref.acts_diagonally(changed, scalars)
    assert gln._acts_diagonally(poly, [_int_poly(want)] * dim) is True


def _int_poly(p):
    """The Fraction coefficient list p as (int numerators, one denominator),
    the form of exact.spoly."""
    den = math.lcm(*(x.denominator for x in p))
    return [x.numerator * (den // x.denominator) for x in p], den
