"""The family inequalities of ``gtbases.patterns``, written out by hand.

``patterns.validate`` judges a pattern by walking its family's enumeration
plan: the top row must be dominant and every later row must be among the
candidates of its plan step.  ``validate`` below is the form it replaced,
which restates each family's interlacing and parity rules directly.  The
differential tests compare the two.
"""

from gtbases.patterns import (GTPatternA, PatternB3, PatternB4, PatternC3,
                              PatternD3, PatternD4, _uniform_parity)


def _chain_ok(seq):
    return all(a >= b for a, b in zip(seq, seq[1:]))


def _interleave(a, b):
    """a_1 b_1 a_2 b_2 ... for len(a) = len(b) or len(b)+1."""
    out = []
    for i in range(len(a)):
        out.append(a[i])
        if i < len(b):
            out.append(b[i])
    return out


def validate(p) -> bool:
    """True iff the family-specific inequalities and parity rules hold.

    Malformed shapes raise PatternShapeError at construction time, so this
    only judges the inequality content.
    """
    if isinstance(p, GTPatternA):
        flat = p.flatten()
        if not _uniform_parity(flat):
            return False
        for k in range(p.n, 1, -1):
            upper = p.row(k)
            lower = p.row(k - 1)
            for i in range(k - 1):
                if not (upper[i] >= lower[i] >= upper[i + 1]):
                    return False
        return True

    if isinstance(p, PatternB3):
        flat = [x for row in p.lam for x in row] + [x for row in p.lamp for x in row]
        if not _uniform_parity(flat):
            return False
        if any(x > 0 for x in flat):
            return False
        integer_case = flat[0] % 2 == 0 if flat else True
        for k in range(1, p.n + 1):
            lamk = p.lam[k - 1]
            lampk = p.lamp[k - 1]
            if not _chain_ok(_interleave(lampk, lamk)):
                return False
            if k >= 2:
                if not _chain_ok(_interleave(lampk, p.lam[k - 2])):
                    return False
            if integer_case and p.sigma[k - 1] == 1 and lampk[0] > -2:
                return False
        return True

    if isinstance(p, PatternC3):
        flat = [x for row in p.lam for x in row] + [x for row in p.lamp for x in row]
        if any(x % 2 != 0 or x > 0 for x in flat):
            return False
        for k in range(1, p.n + 1):
            if not _chain_ok([0] + _interleave(p.lamp[k - 1], p.lam[k - 1])):
                return False
            if k >= 2:
                if not _chain_ok([0] + _interleave(p.lamp[k - 1], p.lam[k - 2])):
                    return False
        return True

    if isinstance(p, PatternD3):
        flat = [x for row in p.lam for x in row] + [x for row in p.lamp for x in row]
        if not _uniform_parity(flat):
            return False
        # primed entries are non-positive; first unprimed entries may have
        # either sign (they sit inside absolute values below)
        if any(x > 0 for row in p.lamp for x in row):
            return False
        for k in range(2, p.n + 1):
            lamk = p.lam[k - 1]
            lamk1 = p.lam[k - 2]
            lampk = p.lamp[k - 2]
            if not _chain_ok([-abs(lamk[0])] + _interleave(lampk, lamk[1:])):
                return False
            if not _chain_ok([-abs(lamk1[0])] + _interleave(lampk, lamk1[1:])):
                return False
        return True

    if isinstance(p, PatternB4):
        flat = [x for row in p.lam for x in row] + [x for row in p.lamp for x in row]
        if not _uniform_parity(flat):
            return False
        for k in range(1, p.n + 1):
            lamk = p.lam[k - 1]
            lampk = p.lamp[k - 1]
            if not _chain_ok(_interleave(lamk, lampk[:-1]) + [abs(lampk[-1])]):
                return False
            if k >= 2:
                chain = _interleave(lampk[:-1], p.lam[k - 2]) + [abs(lampk[-1])]
                if not _chain_ok(chain):
                    return False
        return True

    if isinstance(p, PatternD4):
        flat = [x for row in p.lam for x in row] + [x for row in p.lamp for x in row]
        if not _uniform_parity(flat):
            return False
        for k in range(2, p.n + 1):
            lamk = p.lam[k - 1]
            lampk = p.lamp[k - 2]
            chain = _interleave(lamk[:-1], lampk[:-1]) + [lampk[-1], abs(lamk[-1])]
            if not _chain_ok(chain):
                return False
        for k in range(1, p.n):
            lamk = p.lam[k - 1]
            lampk = p.lamp[k - 1]
            chain = _interleave(lampk, lamk[:-1]) + [abs(lamk[-1])]
            if not _chain_ok(chain):
                return False
        return True

    raise TypeError("not a pattern: %r" % (p,))
