"""Gelfand-Tsetlin-type pattern families, their enumeration and validation.

Six families are supported, identified by a short tag:

  "A"   triangular arrays for gl_n,
  "B3" / "C3" / "D3"  interleaved double arrays for o_{2n+1} / sp_{2n} / o_{2n}
        in the non-positive weight convention (index set -n..n),
  "B4" / "D4"  double arrays for o_{2n+1} / o_{2n} in the positive weight
        convention (index set 1..N).

All entries are stored as DOUBLED integers so that half-integer weights stay
in pure integer arithmetic; parity uniformity is a checked invariant.  A
doubled value 3 means the entry 3/2.

Each family's interlacing and parity rules are stated once, in its plan
(_plan_A ... _plan_D4): the steps that give the candidates for each row
from the rows above it.  pattern_fields walks the plan through every
candidate, enumerate_patterns builds a pattern from each walk and
count_patterns counts the walks; validate walks it along
the rows of one array; top_levels walks its first level only, and the
branching module reads the branching rules of gl_n, o_N and sp_2n from
there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

FAMILIES = ("A", "B3", "C3", "D3", "B4", "D4")


class PatternShapeError(ValueError):
    """Structurally malformed array (wrong row count or row lengths)."""


class DominanceError(ValueError):
    """Top weight violates the dominance conditions of its family."""


def _check_rows(rows, lengths, what):
    if len(rows) != len(lengths):
        raise PatternShapeError("%s: expected %d rows, got %d" % (what, len(lengths), len(rows)))
    for row, ln in zip(rows, lengths):
        if len(row) != ln:
            raise PatternShapeError("%s: bad row length %d (want %d)" % (what, len(row), ln))
        for x in row:
            if not isinstance(x, int):
                raise PatternShapeError("%s: entries must be doubled integers" % what)


@dataclass(frozen=True)
class GTPatternA:
    """Triangular array; rows[0] is the top row (length n), rows[-1] length 1."""

    rows: tuple

    def __post_init__(self):
        n = len(self.rows)
        _check_rows(self.rows, list(range(n, 0, -1)), "A pattern")

    @property
    def n(self):
        return len(self.rows)

    def row(self, k):
        """Row with k entries (k = 1..n)."""
        return self.rows[self.n - k]

    def entry(self, k, i):
        """lambda_{ki} (doubled), 1-based i."""
        return self.rows[self.n - k][i - 1]

    def flatten(self):
        return tuple(x for row in self.rows for x in row)


@dataclass(frozen=True)
class PatternB3:
    """Signed-convention B array: sigma flags, unprimed and primed rows, k = 1..n."""

    sigma: tuple   # sigma[k-1] in {0, 1}
    lam: tuple     # lam[k-1] = unprimed row with k entries
    lamp: tuple    # lamp[k-1] = primed row with k entries

    def __post_init__(self):
        n = len(self.lam)
        if len(self.sigma) != n:
            raise PatternShapeError("B3: need %d sigma flags" % n)
        for s in self.sigma:
            if s not in (0, 1):
                raise PatternShapeError("B3: sigma flags must be 0 or 1")
        _check_rows(self.lam, list(range(1, n + 1)), "B3 unprimed")
        _check_rows(self.lamp, list(range(1, n + 1)), "B3 primed")

    @property
    def n(self):
        return len(self.lam)

    def flatten(self):
        out = []
        for k in range(self.n, 0, -1):
            out.append(self.sigma[k - 1])
            out.extend(self.lam[k - 1])
            out.extend(self.lamp[k - 1])
        return tuple(out)


@dataclass(frozen=True)
class _PairPattern:
    """Array of a two-row family: lam[k-1] is the unprimed row with k
    entries, lamp[k-1] the primed row with k entries (k = 1..n, or
    k = 1..n-1 in the D families)."""

    lam: tuple
    lamp: tuple
    _missing_primed = 0     # 1 in the D families, which have n - 1 primed rows

    def __post_init__(self):
        n = len(self.lam)
        family = family_of(self)
        _check_rows(self.lam, range(1, n + 1), family + " unprimed")
        _check_rows(self.lamp, range(1, n + 1 - self._missing_primed), family + " primed")

    @property
    def n(self):
        return len(self.lam)

    def flatten(self):
        return tuple(x for row in _choice_rows(self) for x in row)


class PatternC3(_PairPattern):
    pass


class PatternD3(_PairPattern):
    _missing_primed = 1

    def derived_prime0(self, k):
        """lambda'_{k-1,0} = max(lambda_{k1}, lambda_{k-1,1}); computed, never stored."""
        return max(self.lam[k - 1][0], self.lam[k - 2][0])


class PatternB4(_PairPattern):
    """Positive-convention B array, primed row below row k."""


class PatternD4(_PairPattern):
    _missing_primed = 1


def _choice_rows(p):
    """The rows of p in the order its family's plan chooses them, top row
    first: the rows of A top down; lambda_k, (sigma_k,), lambda'_k for
    k = n..1 in B3; lambda_n, lambda'_n (D: lambda'_{n-1}), lambda_{n-1},
    ... in the two-row families."""
    if isinstance(p, GTPatternA):
        return list(p.rows)
    if isinstance(p, PatternB3):
        return [row for k in range(p.n, 0, -1)
                for row in (p.lam[k - 1], (p.sigma[k - 1],), p.lamp[k - 1])]
    lamp = p.lamp[::-1]
    return [row for i, top in enumerate(p.lam[::-1]) for row in (top, *lamp[i:i + 1])]


# ---------------------------------------------------------------------------
# dominance of highest weights
# ---------------------------------------------------------------------------

def _uniform_parity(values):
    return all((v - values[0]) % 2 == 0 for v in values)


def check_dominant(family, lam):
    """Raise DominanceError unless lam (doubled) is a valid top weight."""
    lam = tuple(lam)
    if not _uniform_parity(lam):
        raise DominanceError("weight entries must all be integers or all half-integers")
    for a, b in zip(lam, lam[1:]):
        if a < b or (a - b) % 2 != 0:
            raise DominanceError("consecutive differences must be nonnegative integers")
    if family == "A":
        pass
    elif family == "B3":
        if lam and lam[0] > 0:
            raise DominanceError("B3 weights must satisfy -2*lambda_1 >= 0")
    elif family == "C3":
        if lam and (lam[0] > 0 or lam[0] % 2 != 0):
            raise DominanceError("C3 weights must be non-positive integers")
    elif family == "D3":
        if len(lam) >= 2 and lam[0] + lam[1] > 0:
            raise DominanceError("D3 weights must satisfy -lambda_1-lambda_2 >= 0")
    elif family == "B4":
        if lam and lam[-1] < 0:
            raise DominanceError("B4 weights must satisfy 2*lambda_n >= 0")
    elif family == "D4":
        if len(lam) >= 2 and lam[-2] + lam[-1] < 0:
            raise DominanceError("D4 weights must satisfy lambda_{n-1}+lambda_n >= 0")
    else:
        raise ValueError("unknown family %r" % (family,))
    return lam


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _choose(bounds):
    """Candidate rows, largest first: entry i runs from hi down to lo in
    doubled steps, for each (hi, lo) in bounds."""
    return product(*(range(hi, lo - 1, -2) for hi, lo in bounds))


def _interlace(row):
    """Rows x with row[i] >= x_i >= row[i+1]."""
    return _choose(zip(row, row[1:]))


# Steps shared by several families; each takes the rows chosen so far.

def _below(rows):
    """Rows interlacing the last row chosen."""
    return _interlace(rows[-1])


def _signed_tail(rows):
    """Rows x interlacing the last row r, plus a last entry r[-1] >= x >= -r[-1]."""
    r = rows[-1]
    return _choose([*zip(r, r[1:]), (r[-1], -r[-1])])


def _abs_tail(rows):
    """Rows interlacing the last row with its last entry taken by modulus."""
    r = rows[-1]
    return _interlace(r[:-1] + (abs(r[-1]),))


def _unchecked(cls, fields):
    """cls(*fields) without the row checks of __post_init__, which a plan's
    rows pass by construction.  Fields are set as the dataclass __init__
    sets them; writing to __dict__ instead would make each instance's
    attribute dict larger."""
    p = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, fields):
        object.__setattr__(p, name, value)
    return p


def _pair_fields(rows):
    """(lam, lamp) from rows chosen as lambda_n, primed, lambda_{n-1}, primed, ..."""
    return rows[0::2][::-1], rows[1::2][::-1]


# A plan is (steps, fields): steps[i] maps the rows chosen so far (top row
# first) to the candidates for the next one; fields maps a tuple of chosen
# rows to the values of the pattern's dataclass fields, in field order.

def _plan_A(lam):
    return [_below] * (len(lam) - 1), lambda rows: (rows,)


def _plan_B3(lam):
    # level k: sigma_k; lambda'_k as for C3, its first entry capped (doubled)
    # by -1 for half-integer weights, and for integer ones by 0, or by -2
    # when sigma_k = 1; then lambda_{k-1} interlacing lambda'_k
    def primed(rows):
        cap = -2 * rows[-1][0] if rows[0][0] % 2 == 0 else -1
        return _interlace((cap,) + rows[-2])

    def fields(rows):
        return tuple(s for (s,) in rows[1::3][::-1]), rows[0::3][::-1], rows[2::3][::-1]

    steps = [lambda rows: ((1,), (0,)), primed, _below]
    return (steps * len(lam))[:-1], fields


def _plan_C3(lam):
    # 0 >= lambda'_k1 >= lambda_k1 >= lambda'_k2 >= ... >= lambda_kk, then
    # lambda_{k-1} interlacing lambda'_k
    steps = [lambda rows: _interlace((0,) + rows[-1]), _below]
    return (steps * len(lam))[:-1], _pair_fields


def _plan_D3(lam):
    # -|lambda_k1| >= p_1 >= lambda_k2 >= p_2 >= ... >= p_{k-1} >= lambda_kk;
    # then lambda_{k-1}: -|r_1| >= p_1 (r_1 in [p_1, -p_1]), p_{i-1} >= r_i >= p_i
    def primed(rows):
        top = rows[-1]
        return _interlace((-abs(top[0]),) + top[1:])

    def unprimed(rows):
        p = rows[-1]
        return _choose([(-p[0], p[0]), *zip(p, p[1:])])

    return [primed, unprimed] * (len(lam) - 1), _pair_fields


def _plan_B4(lam):
    # lambda'_k: lambda_ki >= p_i >= lambda_k,i+1, lambda_kk >= |p_k|; then
    # lambda_{k-1}: p_i >= r_i >= p_{i+1}, p_{k-1} >= r_{k-1} >= |p_k|
    return ([_signed_tail, _abs_tail] * len(lam))[:-1], _pair_fields


def _plan_D4(lam):
    # lambda'_{k-1}: lambda_ki >= p_i >= lambda_k,i+1, lambda_k,k-1 >= p_{k-1}
    # >= |lambda_kk|; then lambda_{k-1}: p_i >= r_i >= p_{i+1}, |r_{k-1}| <= p_{k-1}
    return [_abs_tail, _signed_tail] * (len(lam) - 1), _pair_fields


_PLANS = {"A": _plan_A, "B3": _plan_B3, "C3": _plan_C3,
          "D3": _plan_D3, "B4": _plan_B4, "D4": _plan_D4}


def enumerate_patterns(family, lam):
    """All valid patterns with top row lam.

    Each family's plan lists its choice steps, top level first; a step maps
    the rows chosen so far to the candidates for the next row, largest
    first.  The plan is the one statement of the family's rules: a pattern
    is valid exactly when the plan lists it (validate checks one array
    against the same steps).  The output is in descending lexicographic
    order of the rows in the order they are chosen (_choice_rows).  For A,
    C3, D3, B4 and D4 that is the order of flatten(); for B3 the rows of
    level k are chosen as sigma_k, lambda'_k, lambda_{k-1}, so sigma_k comes
    after lambda_k and not before it as in flatten().

    The position in this list is the canonical basis index everywhere else.
    """
    walks = pattern_fields(family, lam)
    cls = PATTERN_TYPES[family]
    return [_unchecked(cls, fields) for fields in walks]


def pattern_fields(family, lam):
    """An iterator over the dataclass field values of each pattern with top
    row lam, in the order of enumerate_patterns, without making the
    patterns: one tuple per pattern, in field order.  The weight is
    checked, and the walks made, on the call."""
    lam = check_dominant(family, tuple(lam))
    steps, fields = _PLANS[family](lam)
    # n = 0: one pattern, the empty array, with no rows chosen
    return map(fields, _walk(steps, lam) if lam else [()])


def count_patterns(family, lam):
    """len(enumerate_patterns(family, lam)) without making the patterns:
    the number of walks through the plan, 1 for n = 0 (the empty array)."""
    lam = check_dominant(family, tuple(lam))
    steps, _ = _PLANS[family](lam)
    return len(_walk(steps, lam))


def _walk(steps, top):
    """Every way to choose a candidate for each step in turn below the top
    row, as tuples of rows (top first), in descending lexicographic order:
    each level extends the walks so far by their step's candidates."""
    walks = [(top,)]
    for step in steps:
        walks = [rows + (row,) for rows in walks for row in step(rows)]
    return walks


# plan steps per level: A chooses lambda_{k-1}; B3 sigma_k, lambda'_k,
# lambda_{k-1}; C3 lambda'_k, lambda_{k-1}; D3 lambda'_{k-1}, lambda_{k-1}
_LEVEL_STEPS = {"A": 1, "B3": 3, "C3": 2, "D3": 2}


def top_levels(family, lam):
    """(mu, rows) for the top level of each pattern with top row lam (A, B3,
    C3 or D3), in enumeration order: mu is the row lambda_{n-1}, or () when
    n = 1, and rows the rows the plan chooses between lam and mu.  [] when
    n = 0."""
    lam = check_dominant(family, tuple(lam))
    if not lam:
        return []
    steps, _ = _PLANS[family](lam)
    return [(rows[-1], rows[1:-1]) if len(lam) > 1 else ((), rows[1:])
            for rows in _walk(steps[:_LEVEL_STEPS[family]], lam)]


def validate(p) -> bool:
    """True iff p is a pattern of its family: its top row is dominant and
    every later row, taken in the order the plan chooses them, is among the
    candidates of its plan step.  These are exactly the patterns that
    enumerate_patterns lists for p's top row.

    Malformed shapes raise PatternShapeError at construction time, so this
    only judges the entries.
    """
    family = _FAMILY_OF_TYPE.get(type(p))
    if family is None:
        raise TypeError("not a pattern: %r" % (p,))
    rows = [tuple(row) for row in _choice_rows(p)]
    if not rows:
        return True     # n = 0: the empty array
    try:
        check_dominant(family, rows[0])
    except DominanceError:
        return False
    steps, _ = _PLANS[family](rows[0])
    for i, step in enumerate(steps):
        if rows[i + 1] not in step(rows[:i + 1]):
            return False
    return True


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def weight(p):
    """Doubled weight vector (eigenvalues of the diagonal Cartan generators).

    A type: the k-th entry is (sum of row k) - (sum of row k-1).
    B3/C3/D3: the analogue computed from the interleaved rows; each level
    contributes 2*sum(primed) - sum(unprimed_k) - sum(unprimed_{k-1}), plus
    the sigma flag in the B case and with the derived nu_0 entry in D.
    """
    if isinstance(p, GTPatternA):
        out = []
        prev = 0
        for k in range(1, p.n + 1):
            s = sum(p.row(k))
            out.append(s - prev)
            prev = s
        return tuple(out)

    if isinstance(p, PatternB3):
        out = []
        for k in range(1, p.n + 1):
            s = 2 * sum(p.lamp[k - 1]) - sum(p.lam[k - 1])
            if k >= 2:
                s -= sum(p.lam[k - 2])
            out.append(s + 2 * p.sigma[k - 1])
        return tuple(out)

    if isinstance(p, PatternC3):
        out = []
        for k in range(1, p.n + 1):
            s = 2 * sum(p.lamp[k - 1]) - sum(p.lam[k - 1])
            if k >= 2:
                s -= sum(p.lam[k - 2])
            out.append(s)
        return tuple(out)

    if isinstance(p, PatternD3):
        out = [p.lam[0][0]]
        for k in range(2, p.n + 1):
            nu0 = p.derived_prime0(k)
            s = 2 * (nu0 + sum(p.lamp[k - 2])) - sum(p.lam[k - 1]) - sum(p.lam[k - 2])
            out.append(s)
        return tuple(out)

    raise TypeError("weight is defined for A/B3/C3/D3 patterns, got %r" % (p,))


# ---------------------------------------------------------------------------
# tableau bijection (A type, partition case)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemistandardTableau:
    """Rows of a semistandard tableau, entries in 1..n (plain integers)."""

    rows: tuple

    def __post_init__(self):
        for row in self.rows:
            if any(not isinstance(x, int) or x < 1 for x in row):
                raise ValueError("tableau entries must be positive integers")
        for row in self.rows:
            if any(a > b for a, b in zip(row, row[1:])):
                raise ValueError("rows must weakly increase")
        for r in range(1, len(self.rows)):
            upper, lower = self.rows[r - 1], self.rows[r]
            if len(lower) > len(upper):
                raise ValueError("shape must be a partition")
            if any(upper[c] >= lower[c] for c in range(len(lower))):
                raise ValueError("columns must strictly increase")


def pattern_to_tableau(p: GTPatternA) -> SemistandardTableau:
    """Fill the boxes of row-k/row-(k-1) skew strips with the entry k."""
    if any(x < 0 for x in p.flatten()):
        raise ValueError("tableau bijection needs nonnegative (partition) entries")
    if any(x % 2 != 0 for x in p.flatten()):
        raise ValueError("tableau bijection needs integer entries")
    n = p.n
    shapes = [tuple(x // 2 for x in p.row(k)) for k in range(1, n + 1)]
    nrows = max((i for i, v in enumerate(shapes[-1]) if v > 0), default=-1) + 1
    rows = [[] for _ in range(nrows)]
    prev = (0,) * n
    for k in range(1, n + 1):
        cur = shapes[k - 1]
        for r in range(nrows):
            have = prev[r] if r < len(prev) else 0
            want = cur[r] if r < len(cur) else 0
            rows[r].extend([k] * (want - have))
        prev = cur
    return SemistandardTableau(tuple(tuple(r) for r in rows))


def tableau_to_pattern(t: SemistandardTableau, n=None) -> GTPatternA:
    """The pattern whose row k is the shape of the entries <= k of t; n
    defaults to the largest entry, and a smaller n raises ValueError."""
    largest = max((x for row in t.rows for x in row), default=0)
    if n is None:
        n = max(largest, 1)
    if largest > n:
        raise ValueError("tableau entry %d exceeds n = %d" % (largest, n))
    rows = []
    for k in range(n, 0, -1):
        shape = []
        for row in t.rows:
            cnt = sum(1 for x in row if x <= k)
            shape.append(cnt)
        shape = shape + [0] * k
        rows.append(tuple(2 * c for c in shape[:k]))
    return GTPatternA(tuple(rows))


# ---------------------------------------------------------------------------
# JSON serialization and weight-convention bridges
# ---------------------------------------------------------------------------

_FAMILY_OF_TYPE = {
    GTPatternA: "A", PatternB3: "B3", PatternC3: "C3",
    PatternD3: "D3", PatternB4: "B4", PatternD4: "D4",
}
PATTERN_TYPES = {family: cls for cls, family in _FAMILY_OF_TYPE.items()}
# to_json's key for each dataclass field of a pattern type
JSON_KEY = {"rows": "rows", "lam": "rows", "lamp": "primed", "sigma": "sigma"}


def json_texts(family, fields, first, sep, close, field):
    """The JSON text of the to_json dict of each of the field tuples of the
    family: first and sep before the first and each later item, close
    after the last, field(x) the text of a field value x."""
    keys = sorted(enumerate(JSON_KEY[f] for f in PATTERN_TYPES[family].__dataclass_fields__),
                  key=lambda x: x[1])
    line = '{%s"family": "%s"%s%s' % (first, family, "".join(
        '%s"%s": %%s' % (sep, key) for _, key in keys), close)
    return (line % tuple([field(f[i]) for i, _ in keys]) for f in fields)


class PatternFields(list):
    """The field tuples of patterns of one family (see pattern_fields),
    which cli.write_export writes as their to_json dicts."""

    def __init__(self, family, fields):
        super().__init__(fields)
        self.family = family


def family_of(p):
    return _FAMILY_OF_TYPE[type(p)]


def to_json(p):
    """JSON-ready dict: family tag plus nested arrays of doubled integers."""
    d = {"family": family_of(p)}
    for name in p.__dataclass_fields__:
        x = getattr(p, name)
        d[JSON_KEY[name]] = list(x) if name == "sigma" else [list(r) for r in x]
    return d


def from_json(d):
    cls = PATTERN_TYPES[d["family"]]
    return cls(*(tuple(d["sigma"]) if name == "sigma" else
                 tuple(map(tuple, d[JSON_KEY[name]])) for name in cls.__dataclass_fields__))

