"""Dense rref-based forms of the elimination routines of ``gtbases.exact``.

The library computes ``rank``, ``nullspace`` and ``solve_in_span`` with
``SpanSolver``; these are the direct readings of one ``rref`` that the
differential tests compare them against.  ``_greedy_psd_pivots`` is dense
Schur-complement pivoting on a Gram block, the reference for the one-pass
``_gram_basis`` of ``build_module``.
"""

from fractions import Fraction

from gtbases.exact import rref


def rref_solve_in_span(basis_cols, target):
    """Coefficients of target over the columns (dependent ones get 0), or
    None if target is not in their span."""
    n = len(target)
    ncols = len(basis_cols)
    rows = [[basis_cols[j][i] for j in range(ncols)] + [target[i]] for i in range(n)]
    pivots = rref(rows)
    if ncols in pivots:
        return None
    coeffs = [Fraction(0)] * ncols
    for prow, pcol in enumerate(pivots):
        coeffs[pcol] = rows[prow][ncols]
    return tuple(coeffs)


def rref_nullspace(m):
    """One kernel vector per free column of the RREF, entry 1 there."""
    rows = m.to_rows()
    if not rows:
        return [tuple(Fraction(int(i == j)) for i in range(m.ncols)) for j in range(m.ncols)]
    pivots = rref(rows)
    basis = []
    for free in range(m.ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * m.ncols
        v[free] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            v[pcol] = -rows[prow][free]
        basis.append(tuple(v))
    return basis


def rref_rank(m):
    rows = m.to_rows()
    return len(rref(rows)) if rows else 0


def _greedy_psd_pivots(gram):
    """Indices of a maximal principal positive-definite block.

    The form is positive semidefinite on a real weight space, so greedy
    Cholesky pivoting (Schur complement diagonal > 0) finds the rank; once
    every remaining diagonal vanishes the whole remaining block must vanish.
    """
    m = len(gram)
    work = [row[:] for row in gram]
    chosen = []
    active = list(range(m))
    while True:
        pick = None
        for idx in active:
            if work[idx][idx] > 0:
                pick = idx
                break
            if work[idx][idx] < 0:
                raise ArithmeticError("contravariant form is not positive semidefinite")
        if pick is None:
            for a in active:
                for b in active:
                    if work[a][b] != 0:
                        raise ArithmeticError("contravariant form is not positive semidefinite")
            break
        chosen.append(pick)
        active.remove(pick)
        d = work[pick][pick]
        col = {a: work[a][pick] for a in active}
        for a in active:
            if col[a]:
                fa = col[a] / d
                for b in active:
                    work[a][b] -= fa * work[pick][b]
    return chosen
