import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import exact_reference as ref
from gtbases.exact import (OpPoly, SpanSolver, SparseMat, apply_words, chain_sum,
                           column_apply, column_fractions, columns_matrix, commutator,
                           factorial, kron, nullspace, rank, rref, solve_in_span, spoly,
                           sum_products)
from rref_reference import rref_nullspace, rref_rank, rref_solve_in_span


def F(x, y=1):
    return Fraction(x, y)


class TestFactorial:
    def test_zero(self):
        assert factorial(0) == 1

    def test_four(self):
        assert factorial(4) == 24

    def test_accepts_integral_fraction(self):
        assert factorial(Fraction(6, 2)) == 6

    @pytest.mark.parametrize("bad", [-1, Fraction(1, 2), Fraction(-3)])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            factorial(bad)


class TestSparseMat:
    def test_no_stored_zeros(self):
        m = SparseMat(2, 2, {(0, 0): 0, (0, 1): 3})
        assert (0, 0) not in m.entries and m.get(0, 1) == 3

    def test_matmul_identity(self):
        m = SparseMat.from_rows([[1, 2], [3, 4]])
        assert SparseMat.identity(2) @ m == m

    def test_add_cancel(self):
        m = SparseMat.from_rows([[1, 2], [3, 4]])
        assert (m + (-m)).is_zero()

    def test_transpose_apply(self):
        m = SparseMat.from_rows([[0, 1], [2, 0]])
        assert m.transpose().to_rows() == [[0, 2], [1, 0]]
        assert m.apply((F(1), F(1))) == (F(1), F(2))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            SparseMat(1, 1, {(0, 1): 1})


class TestNullspace:
    def test_identity_empty(self):
        assert nullspace(SparseMat.identity(2)) == []

    def test_rank_one(self):
        m = SparseMat.from_rows([[1, 1], [2, 2]])
        basis = nullspace(m)
        assert len(basis) == 1
        v = basis[0]
        # (1, -1) up to scale
        assert v[0] * (-1) == v[1]

    def test_zero_map(self):
        m = SparseMat.zero(1, 2)
        assert len(nullspace(m)) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 4), st.data())
    def test_kernel_and_rank_nullity(self, nr, nc, data):
        rows = [[F(data.draw(st.integers(-4, 4))) for _ in range(nc)]
                for _ in range(nr)]
        m = SparseMat.from_rows(rows)
        basis = nullspace(m)
        for v in basis:
            assert all(x == 0 for x in m.apply(v))
        assert rank(m) + len(basis) == nc

    def test_empty_shapes(self):
        assert nullspace(SparseMat.zero(0, 2)) == [(F(1), F(0)), (F(0), F(1))]
        assert nullspace(SparseMat.zero(2, 0)) == []
        assert rank(SparseMat.zero(0, 2)) == rank(SparseMat.zero(2, 0)) == 0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 5), st.data())
    def test_matches_rref_reference(self, nr, nc, data):
        """nullspace and rank equal their rref readings element for
        element, on random, zero and dependent columns and on 0 x k and
        k x 0 matrices."""
        rat = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
        cols = []
        for _ in range(nc):
            kind = data.draw(st.sampled_from(["random", "zero", "dependent"]))
            col = (F(0),) * nr
            if kind == "random":
                col = tuple(data.draw(rat) for _ in range(nr))
            elif kind == "dependent":
                for v in cols:
                    c = data.draw(rat)
                    col = tuple(a + c * b for a, b in zip(col, v))
            cols.append(col)
        m = SparseMat(nr, nc, {(r, c): v for c, col in enumerate(cols)
                               for r, v in enumerate(col)})
        assert nullspace(m) == rref_nullspace(m)
        assert rank(m) == rref_rank(m)


class TestSolvers:
    def test_solve_in_span(self):
        cols = [(F(1), F(0)), (F(1), F(1))]
        assert solve_in_span(cols, (F(3), F(2))) == (F(1), F(2))
        assert solve_in_span([(F(1), F(0))], (F(0), F(1))) is None

    def test_rref_pivots(self):
        rows = [[F(0), F(1)], [F(1), F(0)]]
        assert rref(rows) == [0, 1]

    def test_span_solver_examples(self):
        cols = [(F(0), F(0), F(0)), (F(1), F(2), F(0)), (F(2), F(4), F(0)),
                (F(0), F(1), F(0))]
        solver = SpanSolver(cols, 3)
        assert solver.solve((F(3), F(5), F(0))) == (F(0), F(3), F(0), F(-1))
        assert solver.solve((F(0), F(0), F(1))) is None
        assert solver.spans((F(1), F(1), F(0)))
        assert not solver.spans((F(1), F(1), F(1)))
        assert SpanSolver([], 2).solve((F(0), F(0))) == ()
        assert SpanSolver([], 2).solve((F(0), F(1))) is None
        with pytest.raises(ValueError):
            solver.solve((F(1), F(2)))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 5), st.data())
    def test_span_solver_matches_solve_in_span(self, n, k, data):
        """SpanSolver agrees with the rref reference on random columns,
        zero and dependent ones included, and on targets in and out of
        the span."""
        rat = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))

        def rand_vec():
            return tuple(data.draw(rat) for _ in range(n))

        def combination(vecs):
            out = (F(0),) * n
            for v in vecs:
                c = data.draw(rat)
                out = tuple(a + c * b for a, b in zip(out, v))
            return out

        cols = []
        for _ in range(k):
            kind = data.draw(st.sampled_from(["random", "zero", "dependent"]))
            if kind == "zero":
                cols.append((F(0),) * n)
            elif kind == "dependent":
                cols.append(combination(cols))
            else:
                cols.append(rand_vec())
        solver = SpanSolver([], n)
        for j, col in enumerate(cols):
            independent = solver.add(col)
            assert independent == (rref_solve_in_span(cols[:j], col) is None)
        for target in (combination(cols), rand_vec()):
            want = rref_solve_in_span(cols, target)
            assert solve_in_span(cols, target) == want
            assert solver.solve(target) == want
            assert SpanSolver(cols, n).solve(target) == want
            assert solver.spans(target) == (want is not None)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 7), st.data())
    def test_span_solver_matches_fraction_reference(self, n, k, data):
        """The integer SpanSolver against the Fraction one it replaced:
        columns of ints, of mixed small and large denominators, zero and
        dependent columns, negative pivots; every add, ncols,
        spans and solve agree, and _add_or_solve returns what the
        reference's add and solve give."""
        big = st.integers(1, 10 ** 12)
        entry = st.one_of(
            st.integers(-9, 9),
            st.builds(Fraction, st.integers(-6, 6), st.sampled_from(DENS)),
            st.builds(Fraction, st.integers(-10 ** 15, 10 ** 15), big))

        def rand_vec():
            return tuple(data.draw(entry) for _ in range(n))

        def combination(vecs):
            out = (0,) * n
            for v in vecs:
                c = data.draw(entry)
                out = tuple(a + c * b for a, b in zip(out, v))
            return out

        cols = []
        for _ in range(k):
            kind = data.draw(st.sampled_from(["random", "zero", "dependent", "negated"]))
            if kind == "zero":
                cols.append((0,) * n)
            elif kind == "dependent":
                cols.append(combination(cols))
            elif kind == "negated" and cols:
                cols.append(tuple(-x for x in data.draw(st.sampled_from(cols))))
            else:
                cols.append(rand_vec())
        solver, twin, want = SpanSolver([], n), SpanSolver([], n), ref.SpanSolver([], n)
        for j, col in enumerate(cols):
            independent = want.add(col)
            assert solver.add(col) == independent
            expansion = twin._add_or_solve(col)
            if independent:
                assert expansion is None
            else:
                assert expansion == want.solve(col)[:j]
            assert solver.ncols == twin.ncols == want.ncols
        for target in (combination(cols), rand_vec(), (0,) * n):
            expected = want.solve(target)
            assert solver.solve(target) == twin.solve(target) == expected
            assert solver.spans(target) == (expected is not None)
            if expected is not None:
                assert all(type(c) is Fraction for c in solver.solve(target))


def _variable(n):
    """The polynomial u * Id of size n."""
    return OpPoly(n, n, [SparseMat.zero(n, n), SparseMat.identity(n)])


class TestOpPoly:
    def test_eval_left_identity_coefficient(self):
        h = SparseMat.diag([2, 3])
        p = _variable(2)
        assert p.eval_left(h) == h

    def test_constant(self):
        a = SparseMat.from_rows([[0, 1], [1, 0]])
        p = OpPoly.constant(a)
        assert p.eval_left(SparseMat.diag([5, 7])) == a

    def test_left_of_powers(self):
        # p = A u + B evaluated at diag(d) is A diag(d) + B
        a = SparseMat.from_rows([[0, 1], [2, 0]])
        b = SparseMat.from_rows([[1, 1], [0, 1]])
        h = SparseMat.diag([2, 3])
        p = OpPoly(2, 2, [b, a])
        assert p.eval_left(h) == a @ h + b

    def test_matches_scalar_eval_on_scalar_coeffs(self):
        ident = SparseMat.identity(2)
        p = OpPoly(2, 2, [ident.scale(3), ident.scale(-1), ident.scale(2)])
        h = SparseMat.diag([F(1, 2), F(5)])
        got = p.eval_left(h)
        for t, u0 in enumerate([F(1, 2), F(5)]):
            assert got.get(t, t) == 3 - u0 + 2 * u0 ** 2

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_linearity(self, data):
        def rand_poly():
            return OpPoly(2, 2, [
                SparseMat.from_rows([[data.draw(st.integers(-3, 3)) for _ in range(2)]
                                     for _ in range(2)]) for _ in range(3)])
        p, q = rand_poly(), rand_poly()
        h = SparseMat.from_rows([[1, 1], [0, 2]])
        assert (p + q).eval_left(h) == p.eval_left(h) + q.eval_left(h)

    def test_product_and_shift(self):
        a = SparseMat.from_rows([[0, 1], [0, 0]])
        p = OpPoly(2, 2, [a, SparseMat.identity(2)])  # a + u
        q = p @ p
        assert q.degree() == 2
        # substitute u -> u + 1, then back
        assert p.shift_u(1).shift_u(-1) == p

    def test_divide_by_u(self):
        p = _variable(2)
        assert ref.divide_by_u(p) == OpPoly.constant(SparseMat.identity(2))
        with pytest.raises(ArithmeticError):
            ref.divide_by_u(OpPoly.constant(SparseMat.identity(2)))

    def test_divide_linear(self):
        ident = SparseMat.identity(2)
        p = OpPoly(2, 2, [ident.scale(3), ident.scale(7), ident.scale(2)])
        q = p.divide_linear(2, 1)  # p = (2u+1)(u+3)
        assert q == OpPoly(2, 2, [ident.scale(3), ident])
        with pytest.raises(ArithmeticError):
            OpPoly(2, 2, [ident]).divide_linear(1, -1)


# -- the integer-numerator core against the dict-of-Fraction reference ------

def in_lowest_terms(m):
    """The stored form: no zero numerator, den > 0, gcd(den, num) == 1."""
    return (m.den > 0 and all(m.num.values())
            and math.gcd(m.den, *m.num.values()) == 1 and (m.num or m.den == 1))


def same(m, ref):
    """m and the reference matrix hold the same entries, as Fractions."""
    assert in_lowest_terms(m)
    assert (m.nrows, m.ncols) == (ref.nrows, ref.ncols)
    ent = dict(m.entries.items())
    assert ent == ref.entries and all(type(v) is Fraction for v in ent.values())
    assert len(m.entries) == m.nnz() == len(ref.entries)
    for r in range(m.nrows):
        for c in range(m.ncols):
            assert m.get(r, c) == ref.get(r, c) and type(m.get(r, c)) is Fraction
    return True


def same_poly(p, ref):
    assert (p.nrows, p.ncols, p.degree()) == (ref.nrows, ref.ncols, ref.degree())
    return all(same(a, b) for a, b in zip(p.coeffs, ref.coeffs))


# denominators with common factors (2, 4, 6, 12) and coprime ones (5, 7)
DENS = [1, 2, 3, 4, 5, 6, 7, 12]
RAT = st.builds(Fraction, st.integers(-6, 6), st.sampled_from(DENS))


@st.composite
def mat_pair(draw, nrows, ncols, density=0.6):
    """A SparseMat and its reference twin.  The entries either share one
    denominator or each draw their own; zeros are passed in too."""
    shared = draw(st.booleans())
    den = draw(st.sampled_from(DENS))
    ent = {}
    for r in range(nrows):
        for c in range(ncols):
            if draw(st.floats(0, 1)) < density:
                ent[(r, c)] = (Fraction(draw(st.integers(-6, 6)), den) if shared
                               else draw(RAT))
    return SparseMat(nrows, ncols, ent), ref.SparseMat(nrows, ncols, ent)


SHAPE = st.integers(0, 4)


class TestIntegerCoreMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(SHAPE, SHAPE, SHAPE, st.data())
    def test_products_sums_and_scaling(self, n, k, m, data):
        a, ra = data.draw(mat_pair(n, k))
        b, rb = data.draw(mat_pair(n, k))
        c, rc = data.draw(mat_pair(k, m))
        assert same(a, ra) and same(b, rb) and same(c, rc)
        assert same(a @ c, ra @ rc)
        assert same(a + b, ra + rb)
        assert same(a - b, ra - rb)
        assert same(-a, -ra)
        for s in (0, -1, Fraction(-3, 4), Fraction(5, 6), data.draw(RAT)):
            assert same(a.scale(s), ra.scale(s)) and same(s * a, s * ra)
        assert same(a.transpose(), ra.transpose())
        assert same(kron(a, c), ref.kron(ra, rc))
        x = tuple(data.draw(RAT) for _ in range(k))
        assert a.apply(x) == ra.apply(x)
        assert all(type(v) is Fraction for v in a.apply(x))
        assert a.to_rows() == ra.to_rows()
        assert (a == b) == (ra == rb)

    @settings(max_examples=100, deadline=None)
    @given(SHAPE, st.integers(1, 4), st.data())
    def test_combinations_of_vectors(self, n, k, data):
        """A combination of vectors as from_columns(...).apply, as the
        library forms it, against the dense sum of scaled vectors."""
        vecs = [tuple(data.draw(RAT) for _ in range(n)) for _ in range(k)]
        coeffs = [data.draw(RAT) for _ in range(k)]
        want = ref.vec_zero(n)
        for c, v in zip(coeffs, vecs):
            want = ref.vec_add(want, ref.vec_scale(c, v))
        assert SparseMat.from_columns(vecs, n).apply(coeffs) == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_cancellation_to_zero(self, n, k, data):
        a, ra = data.draw(mat_pair(n, k))
        x, rx = data.draw(mat_pair(k, 1, density=1))
        assert same(a - a, ra - ra) and (a - a).is_zero() and (a - a).den == 1
        assert same(a + (-a), ra + (-ra))
        # d = [x | x] and e = (1, -1)^T: every entry of a @ d @ e is a sum
        # of terms that cancel
        e, re = SparseMat.from_rows([[1], [-1]]), ref.SparseMat.from_rows([[1], [-1]])
        d = SparseMat.from_columns([x.col_vector(0)] * 2)
        rd = ref.SparseMat.from_columns([rx.col_vector(0)] * 2)
        assert same(a @ d @ e, ra @ rd @ re) and (a @ d @ e).is_zero()
        assert same(a @ (d @ e), ra @ (rd @ re))

    @settings(max_examples=100, deadline=None)
    @given(SHAPE, SHAPE, st.data())
    def test_equal_matrices_by_different_paths(self, n, k, data):
        """Equality is exact whatever denominators the paths carry on the
        way (a.scale(s) has a larger one than a; from_num gets an unreduced
        one)."""
        a, ra = data.draw(mat_pair(n, k))
        b, _ = data.draw(mat_pair(n, k))
        s = data.draw(RAT.filter(bool))
        t = data.draw(RAT.filter(bool))
        paths = [a, a.scale(s).scale(1 / s), (a + b) - b, a.scale(s * t) + a.scale(1 - s * t),
                 SparseMat.from_num(n, k, {key: 35 * v for key, v in a.num.items()}, 35 * a.den),
                 a.transpose().transpose()]
        for p in paths:
            assert p == a and same(p, ra)
        # an unreduced input with a different denominator is reduced on entry
        assert SparseMat.from_num(1, 1, {(0, 0): 6}, 4).den == 2
        if a.num:
            assert a.scale(2) != a and not (ra.scale(2) == ra)
            assert SparseMat.from_num(n, k, dict(a.num), a.den + 1) != a

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_oppoly(self, n, data):
        def poly_pair(deg):
            pairs = [data.draw(mat_pair(n, n)) for _ in range(deg + 1)]
            return (OpPoly(n, n, [p for p, _ in pairs]),
                    ref.OpPoly(n, n, [r for _, r in pairs]))
        p, rp = poly_pair(data.draw(st.integers(0, 2)))
        q, rq = poly_pair(data.draw(st.integers(0, 2)))
        h, rh = data.draw(mat_pair(n, n))
        s = data.draw(RAT)
        assert same_poly(p @ q, rp @ rq)
        assert same(p.eval_left(h), rp.eval_left(rh))
        assert same(p.eval_at(s), rp.eval_at(s))
        assert same_poly(p.shift_u(s), rp.shift_u(s))
        # q (a u + s) divides by a u + s; a nonzero constant q does not
        a = data.draw(RAT.filter(bool))
        lin, rlin = (OpPoly.from_scalar_poly([s, a], n),
                     ref.OpPoly.from_scalar_poly([s, a], n))
        assert same_poly((q @ lin).divide_linear(a, s), (rq @ rlin).divide_linear(a, s))
        if not q.is_zero() and q.degree() == 0:
            for m in (q, rq):
                with pytest.raises(ArithmeticError):
                    m.divide_linear(a, s)

    def test_entries_is_a_read_only_fraction_view(self):
        m = SparseMat(2, 2, {(0, 1): Fraction(2, 4), (1, 0): 3})
        assert m.num == {(0, 1): 1, (1, 0): 6} and m.den == 2
        assert dict(m.entries) == {(0, 1): Fraction(1, 2), (1, 0): Fraction(3)}
        assert (0, 1) in m.entries and (0, 0) not in m.entries and len(m.entries) == 2
        with pytest.raises(TypeError):
            m.entries[(0, 0)] = 1
        with pytest.raises(AttributeError):
            m.entries = {}

    def test_combination(self):
        a = SparseMat(2, 2, {(0, 0): Fraction(1, 2), (1, 1): 1})
        b = SparseMat(2, 2, {(0, 0): Fraction(1, 3), (0, 1): 2})
        got = SparseMat.combination(2, 2, [(Fraction(2, 3), a), (0, b), (-1, b)])
        assert got == a.scale(Fraction(2, 3)) - b and in_lowest_terms(got)
        assert SparseMat.combination(2, 2, []) == SparseMat.zero(2, 2)
        with pytest.raises(ValueError):
            SparseMat.combination(2, 3, [(1, a)])

    @pytest.mark.parametrize("c", [1, -1, Fraction(2, 3)])
    def test_one_term_combination_is_a_scale(self, c):
        a = SparseMat(2, 2, {(0, 0): Fraction(1, 2), (0, 1): 3, (1, 1): Fraction(-4, 9)})
        b = SparseMat(2, 2, {(0, 1): Fraction(1, 5), (1, 0): 2})
        one = SparseMat.combination(2, 2, [(c, a)])
        assert one == a.scale(c) and in_lowest_terms(one)
        assert one == SparseMat.combination(2, 2, [(c, a), (1, b), (-1, b)])
        # a zero coefficient drops out before the count of terms
        assert SparseMat.combination(2, 2, [(0, b), (c, a), (Fraction(0), b)]) == one

    @settings(max_examples=150, deadline=None)
    @given(SHAPE, st.data())
    def test_commutator(self, n, data):
        """The one-pass commutator against a @ b - b @ a, on operands with
        distinct denominators, zero operands and a is b."""
        a, _ = data.draw(mat_pair(n, n))
        b, _ = data.draw(mat_pair(n, n))
        b = b.scale(data.draw(RAT.filter(bool)))
        zero = SparseMat.zero(n, n)
        for x, y in ((a, b), (b, a), (a, a), (a, zero), (zero, b), (zero, zero)):
            got = commutator(x, y)
            assert got == ref.commutator(x, y) and in_lowest_terms(got)
        assert commutator(a, a).is_zero() and commutator(a, b) == -commutator(b, a)

    @pytest.mark.parametrize("shapes", [((2, 3), (3, 2)), ((2, 2), (3, 3)), ((2, 2), (2, 3)),
                                        ((3, 2), (2, 2))])
    def test_commutator_needs_square_operands_of_one_size(self, shapes):
        (p, q), (r, s) = shapes
        a = SparseMat(p, q, {(0, 0): 1, (1, 1): 2})
        b = SparseMat(r, s, {(0, 1): 3, (1, 0): 1})
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError):
                commutator(x, y)
            with pytest.raises(ValueError):
                ref.commutator(x, y)

    def test_commutator_forms_no_product_or_difference(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("commutator made a SparseMat product or sum")
        for name in ("__matmul__", "__sub__", "__add__", "__neg__"):
            monkeypatch.setattr(SparseMat, name, refuse)
        a = SparseMat(2, 2, {(0, 1): Fraction(1, 2), (1, 1): 3})
        b = SparseMat(2, 2, {(1, 0): Fraction(2, 3)})
        assert commutator(a, b) == SparseMat(2, 2, {(0, 0): Fraction(1, 3), (1, 0): 2,
                                                    (1, 1): Fraction(-1, 3)})

    @settings(max_examples=150, deadline=None)
    @given(SHAPE, SHAPE, st.data())
    def test_from_rows_and_columns(self, n, k, data):
        """from_rows and from_columns against their Fraction-path forms and
        the dict-of-Fraction reference: int, Fraction and zero entries,
        empty lists and an explicit nrows."""
        entry = st.one_of(RAT, st.integers(-3, 3), st.sampled_from([0, Fraction(0)]))
        rows = [[data.draw(entry) for _ in range(k)] for _ in range(n)]
        got = SparseMat.from_rows(rows)
        assert got == ref.from_rows(rows) and same(got, ref.SparseMat.from_rows(rows))
        cols = [[data.draw(entry) for _ in range(n)] for _ in range(k)]
        for nrows in (None, n, n + data.draw(st.integers(1, 2))):
            got = SparseMat.from_columns(cols, nrows)
            assert got == ref.from_columns(cols, nrows)
            assert same(got, ref.SparseMat.from_columns(cols, nrows))

    def test_from_columns_rows_out_of_range(self):
        cols = [[1, Fraction(1, 2), 0, Fraction(0)]]
        assert SparseMat.from_columns(cols, 2) == ref.from_columns(cols, 2)
        assert SparseMat.from_columns([], 3) == SparseMat.zero(3, 0) == ref.from_columns([], 3)
        for build in (SparseMat.from_columns, ref.from_columns):
            with pytest.raises(IndexError):
                build([[0, 0, Fraction(1, 3)]], 2)
        for build in (SparseMat.from_rows, ref.from_rows):
            with pytest.raises(ValueError):
                build([[1, 2], [3]])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(RAT, st.integers(-3, 3)), max_size=5))
    def test_diag(self, values):
        """diag in lowest terms, zeros dropped, against the reference."""
        assert same(SparseMat.diag(values), ref.SparseMat.diag(values))

    def test_diag_makes_each_fraction_once(self, monkeypatch):
        import gtbases.exact as exact
        made = []

        def spy(*args):
            made.append(args)
            return Fraction(*args)
        monkeypatch.setattr(exact, "Fraction", spy)
        values = [Fraction(1, 2), 0, 3, Fraction(-5, 6)]
        m = SparseMat.diag(values)
        assert len(made) == len(values)
        assert (m.num, m.den) == ({(0, 0): 3, (2, 2): 18, (3, 3): -5}, 6)

    @settings(max_examples=100, deadline=None)
    @given(SHAPE, SHAPE, st.data())
    def test_entry_strings_format_each_fraction(self, n, k, data):
        a, _ = data.draw(mat_pair(n, k))
        a = a.scale(data.draw(RAT))
        assert ref.entry_strings(a) == [[r, c, "%d/%d" % (v.numerator, v.denominator)]
                                        for (r, c), v in sorted(a.entries.items())]


# coefficients: ints and Fractions of distinct denominators, zero included
COEF = st.one_of(st.integers(-3, 3), RAT)


@st.composite
def product_terms(draw, n, m):
    """Up to 5 terms (c, a, b) of an n x m sum_products: products a @ b
    through inner sizes 0..3, b = None terms, and, on square shapes, a @ a.
    Operands may be zero (density 0)."""
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        c = draw(COEF)
        kind = draw(st.sampled_from(["product", "plain", "square"]))
        density = draw(st.sampled_from([0, 0.3, 0.7]))
        if kind == "plain" or kind == "square" and n != m:
            terms.append((c, draw(mat_pair(n, m, density))[0], None))
        elif kind == "square":
            a = draw(mat_pair(n, n, density))[0]
            terms.append((c, a, a))
        else:
            k = draw(st.integers(0, 3))
            terms.append((c, draw(mat_pair(n, k, density))[0], draw(mat_pair(k, m, density))[0]))
    return terms


class TestSumProducts:
    """exact.sum_products and OpPoly.sum_products against their readings in
    the dict-of-Fraction classes, and the shape check on every term."""

    @settings(max_examples=200, deadline=None)
    @given(SHAPE, SHAPE, st.data())
    def test_matches_reference(self, n, m, data):
        terms = data.draw(product_terms(n, m))
        got = sum_products(n, m, terms)
        assert got == ref.sum_products(n, m, terms) and in_lowest_terms(got)
        assert same(got, ref.to_ref(got))
        # the one-term forms against the bodies they replaced
        for c, a, b in terms:
            if b is not None:
                assert a @ b == ref.matmul(a, b)
        plain = [(c, a) for c, a, b in terms if b is None]
        assert SparseMat.combination(n, m, plain) == ref.combination(n, m, plain)

    def test_empty_and_zero_terms(self):
        a = SparseMat(2, 3, {(0, 1): Fraction(1, 2), (1, 2): 3})
        b = SparseMat(3, 2, {(1, 0): Fraction(2, 3)})
        zero = SparseMat.zero(2, 2)
        assert sum_products(2, 2, []) == zero and sum_products(0, 0, []).den == 1
        for terms in ([(0, a, b)], [(Fraction(0), a, b)], [(1, SparseMat.zero(2, 3), b)],
                      [(1, a, SparseMat.zero(3, 2))], [(0, zero, None)],
                      [(1, a, b), (-1, a, b)]):
            got = sum_products(2, 2, terms)
            assert got == zero and got.den == 1
        assert sum_products(2, 2, [(2, a, b), (Fraction(1, 3), zero, None)]) == (a @ b).scale(2)

    @pytest.mark.parametrize("c", [1, 0, Fraction(0), Fraction(1, 2)])
    @pytest.mark.parametrize("density", [0, 1])
    def test_every_term_shape_is_checked(self, c, density):
        """A mismatched term raises ValueError whether or not its
        coefficient or operands are zero: inner size, outer rows, outer
        columns, and a b = None term of the wrong shape."""
        def mat(r, k):
            return SparseMat(r, k, {(0, 0): 1} if density else {})
        good = (1, mat(2, 3), mat(3, 2))
        for bad in ((c, mat(2, 3), mat(2, 2)),      # inner: 3 != 2
                    (c, mat(3, 2), mat(2, 2)),      # outer rows
                    (c, mat(2, 2), mat(2, 3)),      # outer columns
                    (c, mat(2, 3), None), (c, mat(3, 2), None)):
            for terms in ([bad], [good, bad], [bad, good]):
                with pytest.raises(ValueError):
                    sum_products(2, 2, terms)

    def test_zero_terms_of_the_wrong_shape_raise(self):
        """Terms with a zero coefficient or a zero operand once skipped the
        shape check: combination returned a 2 x 2 matrix here, and the sum
        of two zero polynomials of different sizes a 2 x 2 zero."""
        i2, i3 = SparseMat.identity(2), SparseMat.identity(3)
        with pytest.raises(ValueError):
            SparseMat.combination(2, 2, [(1, i2), (0, i3)])
        with pytest.raises(ValueError):
            SparseMat.combination(2, 2, [(1, i2), (1, SparseMat.zero(3, 3))])
        with pytest.raises(ValueError):
            OpPoly(2, 2, []) + OpPoly(3, 3, [])
        with pytest.raises(ValueError):
            OpPoly(2, 2, []) - OpPoly(3, 3, [])
        with pytest.raises(ValueError):
            OpPoly(2, 3, []) @ OpPoly(2, 2, [])
        with pytest.raises(ValueError):
            OpPoly.sum_products(2, 2, [((0,), OpPoly.constant(i3), None)])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_oppoly_matches_reference(self, n, m, data):
        def poly(r, k):
            return OpPoly(r, k, [data.draw(mat_pair(r, k, data.draw(st.sampled_from([0, 0.5]))))[0]
                                 for _ in range(data.draw(st.integers(0, 2)))])
        terms = []
        for _ in range(data.draw(st.integers(0, 4))):
            c = data.draw(st.lists(COEF, max_size=3))
            if data.draw(st.booleans()):
                terms.append((c, poly(n, m), None))
            else:
                k = data.draw(st.integers(1, 3))
                terms.append((c, poly(n, k), poly(k, m)))
        got = OpPoly.sum_products(n, m, terms)
        assert got == ref.oppoly_sum_products(n, m, terms)
        assert all(in_lowest_terms(x) for x in got.coeffs)
        assert not got.coeffs or not got.coeffs[-1].is_zero()

    def test_oppoly_forms_no_sparse_sum_or_scale(self, monkeypatch):
        """OpPoly products and evaluations sum into the kernel directly."""
        def refuse(*args):
            raise AssertionError("a SparseMat sum or scale was formed")
        p = OpPoly(2, 2, [SparseMat(2, 2, {(0, 1): Fraction(1, 2)}), SparseMat.identity(2),
                          SparseMat(2, 2, {(1, 0): 3})])
        want = (p @ p, p.eval_at(Fraction(2, 3)))
        for name in ("__add__", "__sub__", "scale"):
            monkeypatch.setattr(SparseMat, name, refuse)
        assert (p @ p, p.eval_at(Fraction(2, 3))) == want


class TestApplyWords:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.sampled_from("abcd"), max_size=5), max_size=12))
    def test_trie_walk(self, words):
        """Each word's vector, one operator call per distinct letter and one
        application per distinct nonempty prefix."""
        made, applied = [], []

        def operator(letter):
            made.append(letter)

            def act(v):
                applied.append(v + (letter,))
                return v + (letter,)
            return act
        assert apply_words((), words, operator) == [tuple(w) for w in words]
        assert sorted(made) == sorted({x for w in words for x in w})
        assert sorted(applied) == sorted({tuple(w[:j]) for w in words
                                          for j in range(1, len(w) + 1)})

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.lists(st.sampled_from("abc"), max_size=4), max_size=6),
                    max_size=3))
    def test_shared_root(self, batches):
        """Walks that share a root apply each distinct prefix of all their
        words once, and each returns its own words' vectors."""
        applied = []

        def operator(letter):
            def act(v):
                applied.append(v + (letter,))
                return v + (letter,)
            return act
        root = {}
        for words in batches:
            assert apply_words((), words, operator, root) == [tuple(w) for w in words]
        assert sorted(applied) == sorted({tuple(w[:j]) for words in batches for w in words
                                          for j in range(1, len(w) + 1)})


class TestChainSum:
    """exact.chain_sum on hand-made 3 x 3 matrices, indices 1, 2, ..., start
    0 and end 9."""

    A = SparseMat.from_rows([[1, 2, 0], [0, 1, -1], [3, 0, 1]])
    B = SparseMat.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])

    def test_no_indices(self):
        """gen(start, end) @ diag(prod over pool of diff / den)."""
        diff = {1: [2, 4, 6], 2: [1, -1, 3]}
        got = chain_sum(3, 0, [], 9, lambda p, q: self.A, [1, 2], diff, 2)
        assert got == (self.A @ SparseMat.diag([F(2, 4), F(-4, 4), F(18, 4)]), frozenset())

    def test_zero_monomial_marks_no_column(self):
        """The chain (1,) has the denominator diff[1], 0 at column 0, but
        its monomial gen(0, 1) @ gen(1, 9) is zero."""
        gens = {(0, 9): self.A, (0, 1): self.B, (1, 9): self.B @ self.B}
        got = chain_sum(3, 0, [1], 9, lambda p, q: gens[(p, q)], [], {1: [0, 2, 2]}, 2)
        assert self.B @ self.B @ self.B == SparseMat.zero(3, 3)
        assert got == (self.A, frozenset())

    def test_vanishing_denominator_is_reported(self):
        """The chain (1,) has the factor diff[2] / diff[1] and a nonzero
        monomial: column 0, where only the denominator vanishes, is
        reported, column 2, where the numerator vanishes too, is not, and
        the chain's term is left out at both."""
        gens = {(0, 9): self.A, (0, 1): self.B, (1, 9): self.A}
        diff = {1: [0, 2, 0], 2: [3, 3, 0]}
        table, bad = chain_sum(3, 0, [1], 9, lambda p, q: gens[(p, q)], [2], diff, 2)
        assert bad == {0}
        assert table == (self.A @ SparseMat.diag([F(3, 2), F(3, 2), 0])
                         + self.B @ self.A @ SparseMat.diag([0, F(3, 2), 0]))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_formula(self, data):
        """Every subsequence's term, with Fraction factors, against the
        kernel, on random int matrices and factors with zeros."""
        mat = st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                       min_size=3, max_size=3)
        ints = st.sampled_from([0, 1, -1, 2])
        indices = [1, 2, 3]
        gens = {(p, q): SparseMat.from_rows(data.draw(mat))
                for p in [0] + indices for q in indices + [9] if p < q or q == 9}
        pool = data.draw(st.lists(st.sampled_from(indices), unique=True))
        diff = {j: data.draw(st.lists(ints, min_size=3, max_size=3)) for j in indices}
        table, bad = chain_sum(3, 0, indices, 9, lambda p, q: gens[(p, q)], pool, diff, 3)
        want, want_bad = SparseMat.zero(3, 3), set()
        for s in range(len(indices) + 1):
            for c in combinations(indices, s):
                mono = gens[(0, 9)] if not c else gens[(c[-1], 9)]
                for p, q in reversed(list(zip((0,) + c, c))):
                    mono = gens[(p, q)] @ mono
                if mono.is_zero():
                    continue
                factor = []
                for col in range(3):
                    up = math.prod(F(diff[j][col], 3) for j in pool if j not in c)
                    down = math.prod(F(diff[t][col], 3) for t in c if t not in pool)
                    if not down and up:
                        want_bad.add(col)
                    factor.append(up / down if down else 0)
                want = want + mono @ SparseMat.diag(factor)
        assert (table, bad) == (want, want_bad)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_shared_suffixes_match_the_per_chain_form(self, data):
        """Calls from every start that share one memo, in a random order,
        against exact_reference.chain_sum, which multiplies each chain out
        from its start; each path's product is formed once, as
        gen(start, c_1) @ (the product of its suffix path)."""
        mat = st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                       min_size=3, max_size=3)
        ints = st.sampled_from([0, 1, -1, 2])
        nodes = [4, 3, 2, 1]
        gens = {(p, q): SparseMat.from_rows(data.draw(mat))
                for p in nodes for q in nodes + [0] if q < p}
        diff = {j: data.draw(st.lists(ints, min_size=3, max_size=3)) for j in nodes}
        made = []

        def gen(p, q):
            made.append((p, q))
            return gens[(p, q)]
        memo = {}
        for start in data.draw(st.permutations(nodes)):
            indices = [j for j in nodes if j < start]
            pool = data.draw(st.lists(st.sampled_from(indices), unique=True)) if indices else []
            got = chain_sum(3, start, indices, 0, gen, pool, diff, 2, memo)
            assert got == ref.chain_sum(3, start, indices, 0, lambda p, q: gens[(p, q)],
                                        pool, diff, 2)
        # one factor per path, and the paths are the chains of every start
        assert len(made) == len(memo) == sum(2 ** len(range(1, j)) for j in nodes)


# -- the int scalar polynomials and the int-column tables -------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=6))
def test_spoly_matches_the_fraction_product(doubled):
    """exact.spoly, int numerators over 2 ** len(doubled), against the
    Fraction product of the (u + r / 2) that it replaced,
    exact_reference.spoly_from_roots."""
    nums = spoly(doubled)
    assert all(type(x) is int for x in nums)
    assert [Fraction(x, 2 ** len(doubled)) for x in nums] == \
        ref.spoly_from_roots([Fraction(r, 2) for r in doubled])


_VALUES = st.fractions(-4, 4, max_denominator=6)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_column_apply_matches_sparse_apply(data):
    """The column-indexed apply of an int column against the reference
    SparseMat.apply of its tuple of Fractions, with raise columns:
    ZeroDivisionError exactly when the vector is nonzero on one of them,
    and the image in lowest terms."""
    nrows = data.draw(st.integers(1, 5), label="rows")
    ncols = data.draw(st.integers(1, 5), label="cols")
    m = SparseMat(nrows, ncols, data.draw(st.dictionaries(
        st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)), _VALUES,
        max_size=8), label="entries"))
    vec = tuple(data.draw(st.lists(_VALUES, min_size=ncols, max_size=ncols), label="vector"))
    bad = frozenset(data.draw(st.lists(st.integers(0, ncols - 1), max_size=2), label="bad"))
    col = ref.int_column(vec)
    assert column_fractions(col, ncols) == vec
    if any(vec[c] for c in bad):
        with pytest.raises(ZeroDivisionError):
            column_apply(m, bad)(col)
        return
    num, d = column_apply(m, bad)(col)
    assert math.gcd(d, *num.values()) == 1 and all(num.values())
    assert column_fractions((num, d), nrows) == ref.to_ref(m).apply(vec) == m.apply(vec)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(_VALUES, min_size=3, max_size=3), max_size=4))
def test_columns_matrix_matches_from_columns(vecs):
    cols = [ref.int_column(v) for v in vecs]
    assert all(math.gcd(d, *num.values()) == 1 for num, d in cols)
    assert columns_matrix(cols, 3) == SparseMat.from_columns(vecs, 3)
    assert [column_fractions(c, 3) for c in cols] == [tuple(v) for v in vecs]

