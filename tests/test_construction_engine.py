"""Cross-checks of the generic highest-weight construction engine against
independently built modules."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gtbases import branching, cli, gln
from gtbases.exact import SparseMat, commutator
from gtbases.liealg_bcd import OrthogonalChain, Realization, build_bcd_irrep, build_module
from gtbases.liealg_bcd import construction
from gtbases.liealg_bcd.construction import _gram_basis
from gtbases.liealg_bcd.signed_realization import ClassicalAlgebra
from gtbases.patterns import weight
import bcd_reference
from rref_reference import _greedy_psd_pivots, rref_solve_in_span


def d(*xs):
    return tuple(2 * x for x in xs)


def gl_realization(n):
    def fdef(i, j):
        return SparseMat(n, n, {(i - 1, j - 1): Fraction(1)})
    simples = [(i, i + 1) for i in range(1, n)]
    return Realization(list(range(1, n + 1)), fdef, list(range(1, n + 1)), simples)


class TestEngineAgainstGlFormulas:
    @pytest.mark.parametrize("n,lam", [(2, d(2, 0)), (3, d(2, 1, 0)), (3, d(2, 0, -1))])
    def test_same_module(self, n, lam):
        # the Verma-quotient engine and the explicit pattern formulas must
        # produce the same abstract module: equal dimension, equal weight
        # multiplicities, identical commutator structure
        eng = build_module(gl_realization(n), [Fraction(x, 2) for x in lam])
        rep = gln.build_irrep(n, lam)
        assert eng.dim == rep.dim
        eng_weights = sorted(eng.weights)
        gt_weights = sorted(tuple(Fraction(x, 2) for x in weight(p)) for p in rep.basis)
        assert eng_weights == gt_weights
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    for l in range(1, n + 1):
                        got = commutator(eng.F(i, j), eng.F(k, l))
                        want = SparseMat.zero(eng.dim, eng.dim)
                        if j == k:
                            want = want + eng.F(i, l)
                        if l == i:
                            want = want - eng.F(k, j)
                        assert got == want

    def test_gram_positive_definite(self):
        eng = build_module(gl_realization(2), [Fraction(2), Fraction(0)])
        g = eng.gram_matrix()
        # diagonal blocks per weight; all 1x1 here, so just positivity
        for t in range(eng.dim):
            assert g.get(t, t) > 0

    @pytest.mark.parametrize("n,lam", [(2, d(2, 0)), (2, d(3, 1)), (3, d(2, 1, 0))])
    def test_norm_formula_against_contravariant_form(self, n, lam):
        # independent route to the squared norms: build the module as a
        # Verma quotient (which carries the exact contravariant form), run
        # the same lowering-operator words there, and take inner products;
        # the factorial product formula must reproduce them
        eng = build_module(gl_realization(n), [Fraction(x, 2) for x in lam])
        rep = gln.build_irrep(n, lam)
        assert eng.dim == rep.dim

        class _Adapter:
            def __init__(self, mod):
                self.n = n
                self.dim = mod.dim
                self._mod = mod
                self._lowering = {}

            def gen(self, i, j):
                return self._mod.F(i, j)

            def h_matrix(self, i):
                return self._mod.F(i, i) + SparseMat.identity(self.dim).scale(1 - i)

        adapter = _Adapter(eng)
        hw = tuple(Fraction(1) if t == 0 else Fraction(0) for t in range(eng.dim))
        for t, p in enumerate(rep.basis):
            v = hw
            for k in range(n, 1, -1):
                for i in range(k - 1, 0, -1):
                    e = (p.entry(k, i) - p.entry(k - 1, i)) // 2
                    if e:
                        z = gln.lowering_operator(adapter, i, "lowering", m=k)
                        for _ in range(e):
                            v = z.apply(v)
            assert eng.inner(v, v) == rep.normsq[t]


class TestConventionsAgree:
    @pytest.mark.parametrize("N,lam4,lam3", [
        (3, d(1), d(-1)), (5, d(1, 0), d(0, -1)), (5, (1, 1), (-1, -1)),
        (4, d(1, 0), d(0, -1)),
    ])
    def test_weight_multisets_match(self, N, lam4, lam3):
        series = "B" if N % 2 else "D"
        ch = OrthogonalChain(N, lam4)
        rep = build_bcd_irrep(series, lam3)
        assert ch.dim == rep.dim
        w4 = sorted(ch.module.weights)
        w3 = sorted(tuple(-x for x in reversed(w)) for w in rep.module.weights)
        assert w4 == w3
        assert ch.dim == branching.weyl_dim(series, lam4)


def greedy_then_solve(gram):
    """The parent construction of a Gram block: dense greedy pivots, then
    the expansion of every column over the chosen principal sub-block,
    all in Fractions."""
    gram = [[Fraction(v) for v in row] for row in gram]
    chosen = _greedy_psd_pivots(gram)
    sub_cols = [tuple(gram[a][c] for a in chosen) for c in chosen]
    return chosen, [rref_solve_in_span(sub_cols, tuple(gram[a][b] for a in chosen))
                    for b in range(len(gram))]


def fraction_expansions(expansions):
    """The (den, ints) expansions of _gram_basis as tuples of Fractions."""
    return [tuple(Fraction(v, den) for v in x) for den, x in expansions]


def gram_of(rows, m):
    """A^T A, as int rows, for the integer matrix A with the given rows of
    length m."""
    return [[sum(r[a] * r[b] for r in rows) for b in range(m)] for a in range(m)]


def draw_rows(data, m, k, entry):
    """k rows of length m with entries drawn from entry: random, zero,
    repeated and dependent rows, then zero and repeated columns (which
    give zero and repeated Gram columns)."""
    rows = []
    for _ in range(k):
        kind = data.draw(st.sampled_from(["random", "zero", "repeat", "dependent"]))
        if kind == "zero" or (kind != "random" and not rows):
            rows.append([0] * m)
        elif kind == "repeat":
            rows.append(list(data.draw(st.sampled_from(rows))))
        elif kind == "dependent":
            row = [0] * m
            for r in rows:
                c = data.draw(st.integers(-2, 2))
                row = [x + c * y for x, y in zip(row, r)]
            rows.append(row)
        else:
            rows.append([data.draw(entry) for _ in range(m)])
    for c in range(m):
        kind = data.draw(st.sampled_from(["keep", "zero", "copy"]))
        for r in rows:
            if kind == "zero":
                r[c] = 0
            elif kind == "copy" and c:
                r[c] = r[c - 1]
    return rows


def gram_outcome(gram_basis, gram, expansions_of):
    """(chosen, expansions_of(expansions)) of gram_basis(gram), or the
    message of the ArithmeticError it raised."""
    try:
        chosen, expansions = gram_basis(gram)
    except ArithmeticError as exc:
        return str(exc)
    return chosen, expansions_of(expansions)


class TestGramBasis:
    """_gram_basis (fraction-free Gauss-Jordan on int rows, diagonal-pivot
    PSD rule) against greedy Schur-complement pivoting followed by a dense
    solve, and against the Fraction SpanSolver form it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 5), st.data())
    def test_psd_matches_greedy_then_solve(self, m, k, data):
        gram = gram_of(draw_rows(data, m, k, st.integers(-2, 2)), m)
        chosen, expansions = _gram_basis(gram)
        want_chosen, want_exp = greedy_then_solve(gram)
        assert chosen == want_chosen
        assert fraction_expansions(expansions) == want_exp

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_refusal_matches_greedy(self, m, data):
        kind = data.draw(st.sampled_from(["random", "perturbed"]))
        if kind == "random":
            upper = {(a, b): data.draw(st.integers(-3, 3)) for a in range(m) for b in range(a, m)}
        else:
            # a PSD matrix with one symmetric pair of entries moved: often
            # still PSD, often indefinite only past the first pivots
            rows = [[data.draw(st.integers(-2, 2)) for _ in range(m)]
                    for _ in range(data.draw(st.integers(0, m)))]
            gram = gram_of(rows, m)
            upper = {(a, b): int(gram[a][b]) for a in range(m) for b in range(a, m)}
            a = data.draw(st.integers(0, m - 1))
            b = data.draw(st.integers(a, m - 1))
            upper[(a, b)] += data.draw(st.integers(-2, 2))
        gram = [[upper[min(a, b), max(a, b)] for b in range(m)] for a in range(m)]
        try:
            want = greedy_then_solve(gram)
        except ArithmeticError:
            with pytest.raises(ArithmeticError, match="not positive semidefinite"):
                _gram_basis(gram)
        else:
            chosen, expansions = _gram_basis(gram)
            assert (chosen, fraction_expansions(expansions)) == want

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6), st.booleans(), st.data())
    def test_matches_fraction_span_solver(self, m, k, perturb, data):
        """Gram matrices of int rows with entries up to 10^9, with zero,
        repeated and dependent columns, and the same with one symmetric
        pair of entries moved: _gram_basis and the Fraction SpanSolver form
        both raise, or agree on the chosen set and the expansions."""
        big = st.integers(-10 ** 9, 10 ** 9)
        gram = gram_of(draw_rows(data, m, k, st.one_of(st.integers(-2, 2), big)), m)
        if perturb and m:
            a = data.draw(st.integers(0, m - 1))
            b = data.draw(st.integers(a, m - 1))
            d = data.draw(st.one_of(st.integers(-2, 2), big))
            gram[a][b] += d
            if a != b:
                gram[b][a] += d
        got = gram_outcome(_gram_basis, gram, fraction_expansions)
        want = gram_outcome(bcd_reference._gram_basis, gram,
                            lambda xs: [tuple(x) for x in xs])
        assert got == want


class TestRefusesNonDominant:
    @pytest.mark.parametrize("n,lam", [(2, (0, 1)), (3, (0, 0, 2))])
    def test_form_not_positive_semidefinite(self, n, lam):
        with pytest.raises(ArithmeticError, match="not positive semidefinite"):
            build_module(gl_realization(n), [Fraction(x) for x in lam])


def module_dump(mod):
    """Canonical text of a built module: weights, blocks (offsets, sizes and
    Gram rows, in dict order, with their types) and the e/f entries as
    sorted (row, col, num/den)."""
    lines = [repr(mod.weights)]
    lines += [repr((w, blk)) for w, blk in mod.blocks.items()]
    for name, mats in (("e", mod._e), ("f", mod._f)):
        for s, m in enumerate(mats):
            lines.append("%s%d %s" % (name, s, " ".join(
                "%d,%d,%d/%d" % (r, c, v.numerator, v.denominator)
                for (r, c), v in sorted(m.entries.items()))))
    return "\n".join(lines)


# sha256 of module_dump, recorded before build_module moved to the integer
# SpanSolver and half Gram blocks; weights doubled for build_bcd_irrep and
# OrthogonalChain
PINNED_MODULES = {
    "C -2,-2,-6": (lambda: build_bcd_irrep("C", (-2, -2, -6)).module,
                   "61aaf2f1f4ff9c500345c6d5ec959554eadf0669b7c96441a281e82665722c9d"),
    "C 0,0,-2": (lambda: build_bcd_irrep("C", (0, 0, -2)).module,
                 "99446bf325a38d02554fef0d0fede61f351f5679d97a02b571f4c32aa875f7fb"),
    "B -1,-3,-3": (lambda: build_bcd_irrep("B", (-1, -3, -3)).module,
                   "43dc1fbfda7b92c011e9107da85f55b9fd54e9eeeba1a52a72c3dbf4ac49e98b"),
    "B 0,-2,-2": (lambda: build_bcd_irrep("B", (0, -2, -2)).module,
                  "331c5c6282d2c457b2b96f499961889671b17ae10a857207ac4e9f9c602be66d"),
    "D 0,-2,-2": (lambda: build_bcd_irrep("D", (0, -2, -2)).module,
                  "e252e676393ac51a0525d58c403bc9450edfa1d0c0723e46b086bd0f8d2f15d7"),
    "D -1,-1,-3": (lambda: build_bcd_irrep("D", (-1, -1, -3)).module,
                   "6d8b8819a5d38fffab877e29b7dc272115d7b8ddf313c67542521d873fe4083c"),
    "o7 4,2,0": (lambda: OrthogonalChain(7, (4, 2, 0)).module,
                 "c3c737f5acb6b5bcf9d864277714ed385f99705cd03243c6de3560544151166f"),
    "o6 2,2,0": (lambda: OrthogonalChain(6, (2, 2, 0)).module,
                 "3b35f1043afae0b61538a124e6a268eb9ed73a9ff3152547940dc296c46329d6"),
    "gl3 4,0,-2": (lambda: build_module(gl_realization(3), [Fraction(x) for x in (4, 0, -2)]),
                   "df127f288a142f607ad55e6fbb9489ddc298a20076c12ae9be44ce2f39bd5d99"),
}


@pytest.fixture(scope="module", params=sorted(PINNED_MODULES))
def pinned(request):
    build, digest = PINNED_MODULES[request.param]
    return build(), digest


class TestBuildModulePins:
    def test_dump_matches_pin(self, pinned):
        mod, digest = pinned
        assert hashlib.sha256(module_dump(mod).encode()).hexdigest() == digest

    def test_form_is_contravariant(self, pinned):
        """The stored form is symmetric and f_s is the adjoint of e_s under
        it: gram @ F_s == E_s^T @ gram for every simple s."""
        mod, _ = pinned
        gram = mod.gram_matrix()
        assert gram == gram.transpose()
        for e, f in zip(mod._e, mod._f):
            assert gram @ f == e.transpose() @ gram


class TestIntGramBlocks:
    """The module keeps its Gram blocks as int rows; ``blocks``, with
    Fraction rows, is made only when it is read."""

    def test_blocks_match_fraction_reference(self, pinned):
        mod, _ = pinned
        _, want, _, _ = bcd_reference.build_parts(mod.realization, mod.lam)
        assert list(mod.blocks.items()) == list(want.items())
        assert all(type(v) is Fraction for _, _, g in mod.blocks.values() for row in g for v in row)

    def test_build_gram_and_export_leave_blocks_unbuilt(self, monkeypatch, tmp_path, capsys):
        def never(self):
            raise AssertionError("HWModule.blocks was read")
        mod = build_bcd_irrep("C", (0, 0, -2)).module
        mod.gram_matrix()
        assert "blocks" not in vars(mod)
        monkeypatch.setattr(construction.HWModule, "blocks", property(never))
        for args in (["sp", "0,0,-1"], ["so7", "1,0,0", "--convention", "s4"]):
            assert cli.run(["export", *args, "--json", str(tmp_path / "out.json")]) == 0
        capsys.readouterr()


def build_outcome(build, real, lam, max_dim):
    """The module dump, e/f matrices and Gram matrix of build(real, lam,
    max_dim), or the type and message of what it raised."""
    try:
        mod = build(real, lam, max_dim)
    except Exception as exc:
        return type(exc), str(exc)
    return module_dump(mod), mod._e, mod._f, mod.gram_matrix()


class TestBuildModuleAgainstFractionReference:
    """build_module on int numerators against the Fraction build_module it
    replaced (bcd_reference)."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from("BCDA"), st.integers(1, 3), st.data())
    def test_same_module_or_refusal(self, series, n, data):
        # doubled entries; B and D may be half-integers (odd), C may not
        odd = series in "BD" and data.draw(st.booleans())
        lam = [2 * data.draw(st.integers(-3, 1)) + odd for _ in range(n)]
        if data.draw(st.booleans()):
            # dominant: decreasing, then shifted down until the first
            # condition of the family holds
            lam.sort(reverse=True)
            while series != "A" and (lam[0] > 0 if series != "D" or n == 1
                                     else lam[0] + lam[1] > 0):
                lam = [x - 2 for x in lam]
        real = gl_realization(n) if series == "A" else ClassicalAlgebra(series, n).realization()
        lam = [Fraction(x, 2) for x in lam]
        max_dim = data.draw(st.sampled_from([600, 1, 5, 20, 60]))
        got = build_outcome(build_module, real, lam, max_dim)
        want = build_outcome(bcd_reference.build_module, real, lam, max_dim)
        assert got == want

    @pytest.mark.parametrize("name", sorted(PINNED_MODULES))
    def test_gram_blocks_reach_gram_basis_as_ints(self, monkeypatch, name):
        seen = []

        def spy(gram):
            seen.append(gram)
            return _gram_basis(gram)
        monkeypatch.setattr(construction, "_gram_basis", spy)
        PINNED_MODULES[name][0]()
        assert seen and all(type(v) is int for gram in seen for row in gram for v in row)


# (series, or N for the s4 chain o_N, doubled weight): B/C/D of rank 1 to
# 3 with sp_2, o_2, o_4 and half-integer B among them, and N = 2..7
CLOSURE_CASES = [
    ("C", (-2,)), ("C", (0, -2)), ("C", (-2, -2)), ("C", (0, 0, -2)), ("C", (-2, -2, -4)),
    ("B", (-1,)), ("B", (-1, -1)), ("B", (0, -2)), ("B", (-1, -1, -1)), ("B", (-2, -2, -2)),
    ("D", (0,)), ("D", (-2,)), ("D", (0, -2)), ("D", (-2, -2)), ("D", (0, 0, -2)),
    ("D", (-2, -2, -4)),
    (2, (2,)), (3, (2,)), (4, (2, 2)), (5, (3, 1)), (6, (4, 2, 0)), (7, (4, 2, 0)),
]


class TestAlgebraSpan:
    @pytest.mark.parametrize("family,lam", CLOSURE_CASES)
    def test_root_closure_matches_all_pairs(self, monkeypatch, family, lam):
        """A basis of g; one nonzero realization bracket of root vectors and
        one module bracket per non-simple root; and every F(i, j) equal to
        its realization over the all-pairs closure."""
        if family in ("B", "C", "D"):
            mod = build_bcd_irrep(family, lam).module
        else:
            mod = OrthogonalChain(family, lam).module
        real = mod.realization
        N, r = len(real.labels), len(real.simples)
        brackets = {"module": 0, "realization": 0}

        def counting(a, b):
            out = commutator(a, b)
            if a.nrows == mod.dim:
                brackets["module"] += 1
            # root_of brackets a diagonal Cartan element
            if a.nrows == N and any(i != j for i, j in a.num) and not out.is_zero():
                brackets["realization"] += 1
            return out
        monkeypatch.setattr(construction, "commutator", counting)
        pairs, _ = mod._algebra_span()
        monkeypatch.undo()
        dim_g = N * (N + 1) // 2 if family == "C" else N * (N - 1) // 2
        assert len(pairs) == dim_g
        if mod.dim != N:        # else the two sides cannot be told apart
            assert brackets == dict.fromkeys(brackets, dim_g - real.rank - 2 * r)
        span = bcd_reference.algebra_span_all_pairs(mod)
        for i in real.labels:
            for j in real.labels:
                assert mod.F(i, j) == bcd_reference.realize_over(span, mod, real.fdef(i, j))

    # sp -1,-1,-3; so7 2,1,0 --convention s4; so6 -1,-1,-2; so7 -1/2,-1/2,-3/2
    @pytest.mark.parametrize("family,lam", [("C", (-2, -2, -6)), (7, (4, 2, 0)),
                                            ("D", (-2, -2, -4)), ("B", (-1, -1, -3))])
    def test_generators_match_the_reference_span(self, family, lam):
        """Every F(i, j), formed with the one-pass brackets and one-term
        combinations, equals its realization over the all-pairs closure
        bracketed as a @ b - b @ a."""
        if family in ("B", "C", "D"):
            mod = build_bcd_irrep(family, lam).module
        else:
            mod = OrthogonalChain(family, lam).module
        real = mod.realization
        span = bcd_reference.algebra_span_all_pairs(mod)
        for i in real.labels:
            for j in real.labels:
                assert mod.F(i, j) == bcd_reference.realize_over(span, mod, real.fdef(i, j))
