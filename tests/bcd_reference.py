"""The all-pairs form of the o_N/sp_2n commutation check of ``gt verify``.

``cli.bcd_commutation_check`` compares the brackets of the realized
generators only over a basis of the algebra (one generator of each pair
{F_ij, F_{-j,-i}}, the zero ones skipped) and checks each other generator
against its partner.  This is the loop it replaced, over every ordered
pair of generators, which the differential tests compare it against.
"""

from gtbases.exact import commutator


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
