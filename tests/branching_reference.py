"""The branching rules and the Weyl oracle of ``gtbases.branching``,
written out by hand.

``branching.branch_A``, ``branch_BCD`` and ``branch_children_BCD`` read the
children of a weight off the top level of the pattern plans in
``gtbases.patterns``.  The functions below are the forms they replaced,
which restate the interlacing inequalities of gl_n, o_N and sp_2n as
recursions over bounds.  ``branching.weyl_dim`` forms the root products on
doubled ints with one exact division; ``weyl_dim`` below is the form it
replaced, over the root vectors and rho in ``Fraction``s.  The
differential tests compare the two.
"""

from fractions import Fraction

from gtbases.branching import BranchSpec


def branch_A(lam):
    """Children of a gl_n weight: all mu interlacing lam, multiplicity one.

    Output in descending lexicographic order; weights doubled.
    """
    lam = tuple(lam)
    n = len(lam)
    out = []
    mu = [0] * (n - 1)

    def rec(i):
        if i == n - 1:
            out.append(tuple(mu))
            return
        for v in range(lam[i], lam[i + 1] - 1, -2):
            mu[i] = v
            rec(i + 1)

    if n >= 1:
        rec(0)
    return out


def _desc(hi, lo):
    return range(hi, lo - 1, -2)


def branch_BCD(series, lam, mu) -> BranchSpec:
    """Admissible nu-tuples for the restriction, non-positive convention.

    B: (n+1)-tuples (sigma, nu_1, ..., nu_n) with the sign re-encoding of
    the first entry; C: n-tuples; D: (n-1)-tuples.  All entries doubled.
    """
    lam = tuple(lam)
    mu = tuple(mu)
    n = len(lam)
    data = []

    if series == "B":
        if len(mu) != n - 1:
            raise ValueError("B child weight needs n-1 entries")
        # nu'_1 with -lam_1 >= nu'_1 >= lam_1 and -mu_1 >= nu'_1 >= mu_1,
        # then integer/half-integer together with lam
        hi1 = min(-lam[0], -mu[0]) if n > 1 else -lam[0]
        lo1 = max(lam[0], mu[0]) if n > 1 else lam[0]
        nu = [0] * n
        for nu1p in _desc(hi1, lo1):
            sigma, nu[0] = (0, nu1p) if nu1p <= 0 else (1, -nu1p)

            def rec(i):
                # nu_i for i >= 2: lam_{i-1} >= nu_i >= lam_i, mu_{i-1} >= nu_i >= mu_i
                if i > n:
                    data.append((sigma, *nu))
                    return
                hi = min(lam[i - 2], mu[i - 2])
                lo = lam[i - 1] if i == n else max(lam[i - 1], mu[i - 1])
                for v in _desc(hi, lo):
                    nu[i - 1] = v
                    rec(i + 1)

            rec(2)
        return BranchSpec("B", lam, mu, tuple(data))

    if series == "C":
        if len(mu) != n - 1:
            raise ValueError("C child weight needs n-1 entries")
        nu = [0] * n

        def rec(i):
            if i > n:
                data.append(tuple(nu))
                return
            if i == 1:
                hi = 0
                lo = max(lam[0], mu[0]) if n > 1 else lam[0]
            else:
                hi = min(lam[i - 2], mu[i - 2])
                lo = lam[i - 1] if i == n else max(lam[i - 1], mu[i - 1])
            for v in _desc(hi, lo):
                nu[i - 1] = v
                rec(i + 1)

        rec(1)
        return BranchSpec("C", lam, mu, tuple(data))

    if series == "D":
        if len(mu) != n - 1:
            raise ValueError("D child weight needs n-1 entries")
        if n == 1:
            # the rank-one orthogonal algebra is abelian; the restriction
            # to the trivial subalgebra is the single empty tuple
            return BranchSpec("D", lam, mu, ((),))
        nu = [0] * (n - 1)

        def rec(i):
            if i > n - 1:
                data.append(tuple(nu))
                return
            if i == 1:
                hi = min(-abs(lam[0]), -abs(mu[0]))
                lo = max(lam[1], mu[1]) if n > 2 else lam[1]
            else:
                hi = min(lam[i - 1], mu[i - 1])
                lo = lam[i] if i == n - 1 else max(lam[i], mu[i])
            for v in _desc(hi, lo):
                nu[i - 1] = v
                rec(i + 1)

        rec(1)
        return BranchSpec("D", lam, mu, tuple(data))

    raise ValueError("unknown series %r" % (series,))


def _cap_same_parity(cap, parity_of):
    """Largest doubled value <= cap with the parity of parity_of."""
    return cap if (cap - parity_of) % 2 == 0 else cap - 1


def branch_children_BCD(series, lam):
    """All (mu, BranchSpec) with positive multiplicity, non-positive convention.

    Candidate child weights are scanned over crude per-entry bounds and
    filtered by the exact admissible-tuple count; output is in descending
    lexicographic order of mu.
    """
    lam = tuple(lam)
    n = len(lam)
    if n == 1:
        return [((), branch_BCD(series, lam, ()))]
    out = []
    mu = [0] * (n - 1)

    def rec(i):
        if i == n - 1:
            spec = branch_BCD(series, lam, tuple(mu))
            if spec.multiplicity:
                out.append((tuple(mu), spec))
            return
        if series == "D" and i == 0:
            hi, lo = -lam[1], lam[1]
        elif series == "D":
            hi, lo = -abs(lam[0]), lam[i + 1]
        else:
            hi, lo = _cap_same_parity(0, lam[0]), lam[i + 1]
        for v in range(hi, lo - 1, -2):
            mu[i] = v
            rec(i + 1)

    rec(0)
    return out


# -- the Fraction Weyl oracle -------------------------------------------------

def _positive_roots(series, n):
    """Positive roots as coefficient vectors over the epsilon basis."""
    roots = []
    if series == "A":
        for i in range(n):
            for j in range(i + 1, n):
                r = [0] * n
                r[i], r[j] = 1, -1
                roots.append(tuple(r))
        return roots
    for i in range(n):
        for j in range(i + 1, n):
            r = [0] * n
            r[i], r[j] = 1, -1
            roots.append(tuple(r))
            r = [0] * n
            r[i], r[j] = 1, 1
            roots.append(tuple(r))
    if series == "B":
        for i in range(n):
            r = [0] * n
            r[i] = 1
            roots.append(tuple(r))
    elif series == "C":
        for i in range(n):
            r = [0] * n
            r[i] = 2
            roots.append(tuple(r))
    elif series != "D":
        raise ValueError("unknown series %r" % (series,))
    return roots


def _rho(series, n):
    if series == "A":
        # any vector with rho_i - rho_{i+1} = 1 works; fix a symmetric choice
        return [Fraction(n - 1, 2) - i for i in range(n)]
    if series == "B":
        return [Fraction(2 * (n - i) + 1, 2) for i in range(1, n + 1)]
    if series == "C":
        return [Fraction(n - i + 1) for i in range(1, n + 1)]
    if series == "D":
        return [Fraction(n - i) for i in range(1, n + 1)]
    raise ValueError("unknown series %r" % (series,))


def _check_dominant_std(series, lam):
    lam = [Fraction(x, 2) for x in lam]
    n = len(lam)
    for i in range(n - 1):
        d = lam[i] - lam[i + 1]
        if d < 0 or d.denominator != 1:
            raise ValueError("weight is not dominant")
    if series == "A":
        return lam
    if series == "B":
        if n and lam[-1] < 0:
            raise ValueError("B weight needs lam_n >= 0")
    elif series == "C":
        if n and (lam[-1] < 0 or lam[-1].denominator != 1):
            raise ValueError("C weight needs nonnegative integer lam_n")
    elif series == "D":
        if n >= 2 and lam[-2] + lam[-1] < 0:
            raise ValueError("D weight needs lam_{n-1} + lam_n >= 0")
    else:
        raise ValueError("unknown series %r" % (series,))
    return lam


def weyl_dim(series, lam) -> int:
    """dim of the irreducible with highest weight lam (doubled, standard
    dominant convention), by the product over positive roots, on
    ``Fraction``s."""
    lam = _check_dominant_std(series, lam)
    n = len(lam)
    rho = _rho(series, n)
    num = Fraction(1)
    den = Fraction(1)
    for alpha in _positive_roots(series, n):
        num *= sum((lam[i] + rho[i]) * alpha[i] for i in range(n))
        den *= sum(rho[i] * alpha[i] for i in range(n))
    d = num / den
    assert d.denominator == 1 and d > 0
    return int(d)
