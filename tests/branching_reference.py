"""The branching rules of ``gtbases.branching``, written out by hand.

``branching.branch_A``, ``branch_BCD`` and ``branch_children_BCD`` read the
children of a weight off the top level of the pattern plans in
``gtbases.patterns``.  The functions below are the forms they replaced,
which restate the interlacing inequalities of gl_n, o_N and sp_2n as
recursions over bounds.  The differential tests compare the two.
"""

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
