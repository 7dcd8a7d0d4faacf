"""Branching rules, Schur polynomials and the Weyl dimension oracle.

The branching rules are read off the top level of the pattern plans in
``patterns``.  The dimension oracle is written directly from root-system
data and serves as ground truth for every dimension claim in the package;
to keep them independent checks, the Weyl and Schur oracles use no pattern
code.

Weight conventions: series "A" takes any doubled dominant weight; "B", "C",
"D" take doubled weights in the standard positive convention
(lam_1 >= ... >= lam_{n-1} >= |lam_n|, plus the series integrality rule).
The branch_* functions for B/C/D work in the non-positive convention used by
the corresponding constructions; use ``to_dominant`` to bridge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def to_dominant(lam):
    """Non-positive-convention weight -> standard dominant weight (doubled)."""
    return tuple(-x for x in reversed(tuple(lam)))


_RHO_SHIFT = {"B": 1, "C": 0, "D": 2}     # 2 rho_i = 2 (n - i) - shift, i from 0


def _check_dominant_std(series, lam):
    """lam (doubled) as a list; ValueError unless it is dominant for the
    series."""
    lam = list(lam)
    n = len(lam)
    for a, b in zip(lam, lam[1:]):
        if a < b or (a - b) % 2:
            raise ValueError("weight is not dominant")
    if series == "A":
        return lam
    if series == "B":
        if n and lam[-1] < 0:
            raise ValueError("B weight needs lam_n >= 0")
    elif series == "C":
        if n and (lam[-1] < 0 or lam[-1] % 2):
            raise ValueError("C weight needs nonnegative integer lam_n")
    elif series == "D":
        if n >= 2 and lam[-2] + lam[-1] < 0:
            raise ValueError("D weight needs lam_{n-1} + lam_n >= 0")
    else:
        raise ValueError("unknown series %r" % (series,))
    return lam


def weyl_dim(series, lam) -> int:
    """dim of the irreducible with highest weight lam (doubled, standard
    dominant convention): the product of <lam + rho, alpha> / <rho, alpha>
    over the positive roots, on doubled ints."""
    lam = _check_dominant_std(series, lam)
    n = len(lam)
    rho = [n - 1 - 2 * i if series == "A" else 2 * (n - i) - _RHO_SHIFT[series]
           for i in range(n)]
    top = [x + r for x, r in zip(lam, rho)]
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= top[i] - top[j]
            den *= rho[i] - rho[j]
            if series != "A":
                num *= top[i] + top[j]
                den *= rho[i] + rho[j]
        if series in ("B", "C"):    # e_i, or 2 e_i: the same ratio
            num *= top[i]
            den *= rho[i]
    d, r = divmod(num, den)
    assert r == 0 and d > 0
    return d


def weyl_dim_s3(series, lam) -> int:
    """Dimension for a weight given in the non-positive convention."""
    return weyl_dim(series, to_dominant(lam))


# ---------------------------------------------------------------------------
# branching
# ---------------------------------------------------------------------------

def branch_A(lam):
    """Children of a gl_n weight: all mu interlacing lam, multiplicity one.

    Output in descending lexicographic order; weights doubled.
    """
    from . import patterns
    return [mu for mu, _ in patterns.top_levels("A", lam)]


@dataclass(frozen=True)
class BranchSpec:
    """Restriction data for one (parent, child) pair of B/C/D weights.

    data holds the admissible tuples (doubled): (sigma, nu_1..nu_n) for B,
    (nu_1..nu_n) for C, (nu_1..nu_{n-1}) for D, i.e. the rows (sigma_n,),
    lambda'_n of the B3 and C3 patterns and lambda'_{n-1} of D3.  C and D
    tuples come in descending lexicographic order; B tuples descending by
    (nu'_1, nu_2, ..., nu_n), where nu'_1 = nu_1 if sigma = 0 and -nu_1 if
    sigma = 1.  The multiplicity c(mu) is len(data).
    """

    series: str
    parent: tuple
    child: tuple
    data: tuple

    @property
    def multiplicity(self):
        return len(self.data)


def _children(series, lam):
    """{mu: admissible tuples} over the children mu of lam, in BranchSpec order."""
    from . import patterns
    kids = {}
    for mu, rows in patterns.top_levels(series + "3", lam):
        kids.setdefault(mu, []).append(sum(rows, ()))
    if series == "B":   # the plan lists sigma = 1 first
        for data in kids.values():
            data.sort(key=lambda t: (-t[1] if t[0] else t[1], *t[2:]), reverse=True)
    return kids


def branch_BCD(series, lam, mu) -> BranchSpec:
    """Admissible nu-tuples for the restriction, non-positive convention;
    no tuples when mu is not a child of lam.

    B: (n+1)-tuples (sigma, nu_1, ..., nu_n) with the sign re-encoding of
    the first entry; C: n-tuples; D: (n-1)-tuples.  All entries doubled.
    """
    lam = tuple(lam)
    mu = tuple(mu)
    if len(mu) != len(lam) - 1:
        raise ValueError("%s child weight needs n-1 entries" % series)
    return BranchSpec(series, lam, mu, tuple(_children(series, lam).get(mu, ())))


def branch_children_BCD(series, lam):
    """All (mu, BranchSpec) with positive multiplicity, non-positive
    convention, in descending lexicographic order of mu."""
    lam = tuple(lam)
    kids = _children(series, lam)
    return [(mu, BranchSpec(series, lam, mu, tuple(kids[mu])))
            for mu in sorted(kids, reverse=True)]


# ---------------------------------------------------------------------------
# Schur polynomials via semistandard tableaux
# ---------------------------------------------------------------------------

def _ssyt(shape, n):
    """Semistandard tableaux of the given shape with entries 1..n."""
    shape = [s for s in shape if s > 0]
    if not shape:
        yield ()
        return
    rows = [[0] * s for s in shape]
    cells = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]

    def rec(idx):
        if idx == len(cells):
            yield tuple(tuple(r) for r in rows)
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, rows[r][c - 1])
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, n + 1):
            rows[r][c] = v
            yield from rec(idx + 1)

    yield from rec(0)


def schur_exponents(lam, n):
    """Multiset of monomial exponent vectors of s_lam(x_1..x_n).

    lam is a plain (undoubled) partition; returns a dict exponent -> count.
    """
    lam = tuple(lam)
    if any(a < b for a, b in zip(lam, lam[1:])) or any(x < 0 for x in lam):
        raise ValueError("not a partition")
    out = {}
    for t in _ssyt(lam, n):
        expo = [0] * n
        for row in t:
            for x in row:
                expo[x - 1] += 1
        key = tuple(expo)
        out[key] = out.get(key, 0) + 1
    return out


def schur(lam, xs) -> Fraction:
    """s_lam evaluated at the point xs, by direct tableau summation."""
    n = len(xs)
    xs = [Fraction(x) for x in xs]
    total = Fraction(0)
    for expo, count in schur_exponents(lam, n).items():
        term = Fraction(count)
        for x, e in zip(xs, expo):
            term *= x ** e
        total += term
    return total
