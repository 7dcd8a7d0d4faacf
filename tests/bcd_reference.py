"""Direct forms of o_N/sp_2n computations that the library does faster.

``cli.bcd_commutation_check`` compares the brackets of the realized
generators only over a basis of the algebra (one generator of each pair
{F_ij, F_{-j,-i}}, the zero ones skipped) and checks each other generator
against its partner.  ``commutation_all_pairs`` is the loop it replaced,
over every ordered pair of generators.

``gt_basis_bcd``, ``multiplicity_basis`` and ``orth_gt_basis`` walk the
lowering words of all patterns as one trie (``exact.apply_words``), and
``orth_basis_checks`` sums the form only over pairs of vectors that meet a
common weight block, with no rank test.  The functions below apply every
pattern's word from the highest vector, and check the rank and every pair.
The differential tests compare the two forms.
"""

from fractions import Fraction

from gtbases import branching, patterns
from gtbases.exact import SparseMat, commutator, rank
from gtbases.liealg_bcd import orthogonal_chain
from gtbases.liealg_bcd.signed_realization import (_SERIES_FAMILY, _halves, apply_z,
                                                    apply_z_ai, apply_z_interp)


def commutation_all_pairs(rep):
    # both sides change sign when the two pairs swap (realize is
    # linear), so only the ordered pairs (i, j) <= (k, l) are compared
    alg = rep.algebra
    pairs = [(i, j) for i in alg.indices for j in alg.indices]
    realized = {}       # each distinct bracket is realized once
    for a, (i, j) in enumerate(pairs):
        for (k, l) in pairs[a:]:
            rm = commutator(alg.fdef(i, j), alg.fdef(k, l))
            key = tuple(sorted(rm.entries.items()))
            if key not in realized:
                realized[key] = rep.module.realize(rm)
            if commutator(rep.F(i, j), rep.F(k, l)) != realized[key]:
                return False
    return True


def level_word(rep, v, k, top, prime, below, sigma=0):
    """Apply the level-k factor of a GT basis vector to v (the rows as in
    signed_realization._level_word)."""
    alg = rep.algebra
    if alg.series == "D":
        stop = _halves(prime[-1]) + alg.rho(k - 1) + Fraction(1, 2) - 2
        prime = (max(top[0], below[0]),) + tuple(prime)
    else:
        stop = _halves(prime[-1]) + alg.rho(k) + Fraction(1, 2) - 1
    arg = _halves(top[-1]) + alg.rho(k) + Fraction(1, 2)
    while arg <= stop:
        v = apply_z_interp(rep, arg, v, rank_k=k)
        arg += 1
    for i in range(k - 1, 0, -1):
        for _ in range((prime[i - 1] - top[i - 1]) // 2):
            v = apply_z(rep, i, -k, v, rank_k=k)
        for _ in range((prime[i - 1] - below[i - 1]) // 2):
            v = apply_z_ai(rep, k, i, v, rank_k=k)
    if sigma:
        v = apply_z_ai(rep, k, 0, v, rank_k=k)
    return v


def multiplicity_basis(rep, mu):
    """(tuples, vectors) of V(lam)^+_mu, one top-level word per tuple."""
    alg = rep.algebra
    spec = branching.branch_BCD(alg.series, rep.lam, tuple(mu))
    vecs = []
    for tup in spec.data:
        sigma, nu = (tup[0], tup[1:]) if alg.series == "B" else (0, tup)
        vecs.append(level_word(rep, rep.highest_vector, alg.n, rep.lam, nu, tuple(mu), sigma))
    return list(spec.data), vecs


def gt_basis_bcd(rep):
    """(patterns, vectors), each pattern's word applied from the highest
    vector."""
    alg = rep.algebra
    n = alg.n
    pats = patterns.enumerate_patterns(_SERIES_FAMILY[alg.series], rep.lam)
    out = []
    for p in pats:
        v = rep.highest_vector
        if alg.series == "D":
            for k in range(n, 1, -1):
                v = level_word(rep, v, k, p.lam[k - 1], p.lamp[k - 2], p.lam[k - 2])
        else:
            for k in range(n, 0, -1):
                sigma = p.sigma[k - 1] if alg.series == "B" else 0
                v = level_word(rep, v, k, p.lam[k - 1], p.lamp[k - 1], p.lam[k - 2], sigma)
        out.append(v)
    return pats, out


def orth_gt_basis(chain):
    """(patterns, vectors) of the orthogonal chain, each pattern's s'/s
    product applied from the highest vector."""
    pats = patterns.enumerate_patterns(chain.family, chain.lam)
    n = chain.n
    out = []
    for p in pats:
        v = tuple(Fraction(1) if t == 0 else Fraction(0) for t in range(chain.dim))
        if chain.family == "B4":
            for k in range(n, 1, -1):
                for i in range(k, 0, -1):
                    e = (p.lam[k - 1][i - 1] - p.lamp[k - 1][i - 1]) // 2
                    for _ in range(e):
                        v = chain.s_prime(k, i, v)
                for i in range(k - 1, 0, -1):
                    e = (p.lamp[k - 1][i - 1] - p.lam[k - 2][i - 1]) // 2
                    for _ in range(e):
                        v = chain.s_plain(k, i, v)
            e = (p.lam[0][0] - p.lamp[0][0]) // 2
            for _ in range(e):
                v = chain.s_prime(1, 1, v)
        else:
            for k in range(n - 1, 0, -1):
                for i in range(k, 0, -1):
                    e = (p.lam[k][i - 1] - p.lamp[k - 1][i - 1]) // 2
                    for _ in range(e):
                        v = chain.s_plain(k + 1, i, v)
                for i in range(k, 0, -1):
                    e = (p.lamp[k - 1][i - 1] - p.lam[k - 1][i - 1]) // 2
                    for _ in range(e):
                        v = chain.s_prime(k, i, v)
        out.append(v)
    return pats, out


def orth_basis_checks(chain):
    """Count, rank, and the form on every pair; the vectors come from the
    library's orthogonal_chain.orth_gt_basis (looked up at call time, so a
    test can substitute them)."""
    pats, vecs = orthogonal_chain.orth_gt_basis(chain)
    if len(vecs) != chain.dim:
        return False
    if rank(SparseMat.from_columns(vecs, chain.dim)) != chain.dim:
        return False
    for a in range(len(vecs)):
        for b in range(a, len(vecs)):
            val = chain.module.inner(vecs[a], vecs[b])
            if a == b:
                if val <= 0:
                    return False
            elif val != 0:
                return False
    return True
