from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gtbases.exact import (OpPoly, SpanSolver, SparseMat, factorial,
                           nullspace, op_poly_eval_left, rank, rref,
                           solve_in_span)
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


class TestOpPoly:
    def test_eval_left_identity_coefficient(self):
        h = SparseMat.diag([2, 3])
        p = OpPoly.variable(2)
        assert op_poly_eval_left(p, h) == h

    def test_constant(self):
        a = SparseMat.from_rows([[0, 1], [1, 0]])
        p = OpPoly.constant(a)
        assert op_poly_eval_left(p, SparseMat.diag([5, 7])) == a

    def test_left_of_powers(self):
        # p = A u + B evaluated at diag(d) is A diag(d) + B
        a = SparseMat.from_rows([[0, 1], [2, 0]])
        b = SparseMat.from_rows([[1, 1], [0, 1]])
        h = SparseMat.diag([2, 3])
        p = OpPoly(2, 2, [b, a])
        assert op_poly_eval_left(p, h) == a @ h + b

    def test_matches_scalar_eval_on_scalar_coeffs(self):
        ident = SparseMat.identity(2)
        p = OpPoly(2, 2, [ident.scale(3), ident.scale(-1), ident.scale(2)])
        h = SparseMat.diag([F(1, 2), F(5)])
        got = op_poly_eval_left(p, h)
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
        assert op_poly_eval_left(p + q, h) == op_poly_eval_left(p, h) + op_poly_eval_left(q, h)

    def test_product_and_shift(self):
        a = SparseMat.from_rows([[0, 1], [0, 0]])
        p = OpPoly(2, 2, [a, SparseMat.identity(2)])  # a + u
        q = p @ p
        assert q.degree() == 2
        # substitute u -> u + 1, then back
        assert p.shift_u(1).shift_u(-1) == p

    def test_divide_by_u(self):
        p = OpPoly.variable(2)
        assert p.divide_by_u() == OpPoly.constant(SparseMat.identity(2))
        with pytest.raises(ArithmeticError):
            OpPoly.constant(SparseMat.identity(2)).divide_by_u()

    def test_divide_linear(self):
        ident = SparseMat.identity(2)
        p = OpPoly(2, 2, [ident.scale(3), ident.scale(7), ident.scale(2)])
        q = p.divide_linear(2, 1)  # p = (2u+1)(u+3)
        assert q == OpPoly(2, 2, [ident.scale(3), ident])
        with pytest.raises(ArithmeticError):
            OpPoly(2, 2, [ident]).divide_linear(1, -1)
