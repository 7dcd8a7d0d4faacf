import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

import patterns_reference as reference
from gtbases import branching
from gtbases.patterns import (FAMILIES, DominanceError, GTPatternA, PatternB3,
                              PatternB4, PatternC3, PatternD3, PatternD4,
                              PatternShapeError, SemistandardTableau, count_patterns,
                              enumerate_patterns, from_json, pattern_to_tableau,
                              tableau_to_pattern, to_json, validate, weight)


def d(*xs):
    """Double a plain weight."""
    return tuple(2 * x for x in xs)


class TestValidateA:
    def test_good(self):
        p = GTPatternA((d(2, 1, 0), d(2, 0), d(1)))
        assert validate(p)

    def test_row_monotonicity_violation(self):
        p = GTPatternA((d(2, 1, 0), d(0, 2), d(1)))
        assert not validate(p)

    def test_malformed_shape(self):
        with pytest.raises(PatternShapeError):
            GTPatternA((d(2, 1, 0), d(2)))

    def test_b3_sigma_rule(self):
        # integer weights, sigma = 1 forces lam'_k1 <= -1
        p = PatternB3((1,), (d(0),), (d(0),))
        assert not validate(p)
        p = PatternB3((0,), (d(0),), (d(0),))
        assert validate(p)


COUNTS = [
    ("A", d(0, 0, 0), 1),
    ("A", d(2, 1, 0), 8),
    ("C3", d(0, -1), 4),
    ("B4", d(1), 3),
    ("B3", (-1, -1), 4),
    ("D3", d(0, -1), 4),
    ("D4", d(1, 0), 4),
    ("B4", d(1, 0), 5),
]


@pytest.mark.parametrize("family,lam,count", COUNTS)
def test_enumeration_counts(family, lam, count):
    assert len(enumerate_patterns(family, lam)) == count


SERIES_OF = {"B3": "B", "C3": "C", "D3": "D"}


@pytest.mark.parametrize("family,lam", [
    ("A", d(3, 1, 0)), ("A", d(2, 2, 1)), ("A", (1, -1)),
    ("B3", d(-1, -1)), ("B3", (-3, -5)), ("B3", d(-1, -2, -2)),
    ("C3", d(-1, -1)), ("C3", d(0, -2)), ("C3", d(-1, -2, -3)),
    ("D3", d(1, -1)), ("D3", (-1, -3)), ("D3", d(0, -1, -1)),
    ("B4", d(2, 1)), ("B4", (3, 1)), ("B4", d(1, 1, 0)),
    ("D4", d(2, 1)), ("D4", d(1, -1)), ("D4", (3, 1, 1)),
])
def test_count_equals_weyl_oracle(family, lam):
    n = len(lam)
    cnt = len(enumerate_patterns(family, lam))
    if family == "A":
        assert cnt == branching.weyl_dim("A", lam)
    elif family in SERIES_OF:
        assert cnt == branching.weyl_dim_s3(SERIES_OF[family], lam)
    else:
        assert cnt == branching.weyl_dim(family[0], lam)


def _choice_key(p):
    """Entries in the order enumeration chooses them, top level first.

    This is flatten() for every family but B3, where sigma_k is chosen
    after lambda_k and before lambda'_k.
    """
    if isinstance(p, PatternB3):
        return tuple(x for k in range(p.n, 0, -1)
                     for x in (*p.lam[k - 1], p.sigma[k - 1], *p.lamp[k - 1]))
    return p.flatten()


def test_enumeration_is_sorted_descending():
    for family, lam, _ in COUNTS + [("B3", (-1, -3, -5), 512)]:
        keys = [_choice_key(p) for p in enumerate_patterns(family, lam)]
        assert keys == sorted(keys, reverse=True)
        assert len(set(keys)) == len(keys)


# (family, doubled top row, count, sha256 of repr([p.flatten() for p in
# enumerate_patterns(family, lam)])), recorded from the per-family
# recursions that the single enumeration driver replaced.  The list position
# is the canonical basis index of build_irrep, gt_basis_bcd, orth_gt_basis,
# the gt-export/1 files and `gt patterns`, so it must never move.
CANONICAL_ORDER = [
    ("A", (4,), 1, "644529242992d924f97b1c5d3fe495d7d43e117a2cdd2be529a13dcdba650160"),
    ("A", (1, -1), 2, "fae2d50735b4987185c0ed34c3245ee667be87af34025e50ed940a6ebdced2bc"),
    ("A", (6, 4, 2, 0), 64, "0be58575d29ea3634a5f8399ae96178478181d1abda2b94b9ca7ebd63d7ab73f"),
    ("A", (8, 4, 2, 0, 0), 700, "ef83f4f06d0dab15b174f9fc3bad5903381329ded5e4e3334c56f9a273628c87"),
    ("B3", (-1,), 2, "dc1480b582cf35f804a26ffc2445f991bf52612192d0bd393d9c81704b689e91"),
    ("B3", (-2, -2), 10, "3b6634ceed69b84e074c366868c2cd0ac782b311c04f31c4fedf3e6f8ccc88fd"),
    ("B3", (-1, -3, -5), 512, "145e230c8b055f1ded1346ea63e43f50fc578ac479a6206fb48f40b4847b4cd4"),
    ("B3", (-2, -6, -6), 2079, "c4081d4edeee493ff8041c138d9ad370da2b8526a44ad84ffb06c63bd1755509"),
    ("C3", (-4,), 3, "bb42edc10604563fc692c4905d130c3093fa0eb185a42a3aa7221d213c77a796"),
    ("C3", (0, -2), 4, "4c7c9088a8d2b3c699c10a35d008e86afe2ad720694a3ba4fb4a8470e683b0b0"),
    ("C3", (-2, -2, -4), 70, "4e0ff1633de412a4139dd046d6c8d617a6bbf1fff72e71f9433c890774ac15e2"),
    ("C3", (-2, -4, -6), 512, "682a051fa10111caae72eb3c9415bab43b34bc69c84451ba349dc22ca3b0c4bd"),
    ("D3", (-3,), 1, "08a89697767dfa4a11d5bb5c231d9d6733193352b7f2505ad9c4cfffadaec5f8"),
    ("D3", (-2, -4), 8, "c005787f82659e456a4f0b03f2411fc0b9f6002be7b37f4947c96e291e573fae"),
    ("D3", (1, -1, -3), 20, "e5e3f31f825a0c32e27eae63459eb7684643ac98423448a6fa49be6a276f8110"),
    ("D3", (2, -2, -4), 45, "289e56cc6a4d27a82afb2b8b114253c3cc85f8060ef425e8e0c1019b28604e9d"),
    ("B4", (2,), 3, "487b6e303a112358987f7d3dc0b32df86b4595546bd1a02289aa9a417b9b725d"),
    ("B4", (4, 2), 35, "481a4b1a25698bd3fb4ad7052e1b96e3bd2122a8bdd9fe15e4f34aadd88c953d"),
    ("B4", (3, 1, 1), 48, "4b3cb6e14d126cb231f9e0bf63098dfa5ca7bde20f12af62e41e08089f6682b4"),
    ("B4", (6, 4, 2), 1617, "dfe332baa196163f76533c9a0081317541e3a1d0a01f7e9c1a47ed8524b6d8cb"),
    ("D4", (2,), 1, "8dde432d11c82e14565157bed26ac5e716927570aadc359f91610d98f7682b17"),
    ("D4", (3, 1, 1), 20, "1b4d24757b6d872e7b7df28f010181482c66867887075803cd9a7ef07af874aa"),
    ("D4", (4, 2, -2), 45, "a408b19eb1ef76048af558cb6a5f91abbd629b5a6de08de0f998b807807a12b0"),
    ("D4", (5, 3, 1, 1), 840, "53c683010b65009e1bdbb91e4f69cf5fc67bffcad43f6826e2cca86fab0bbbab"),
]


@pytest.mark.parametrize("family,lam,count,digest", CANONICAL_ORDER)
def test_canonical_order_is_pinned(family, lam, count, digest):
    flats = [p.flatten() for p in enumerate_patterns(family, lam)]
    assert len(flats) == count
    assert hashlib.sha256(repr(flats).encode()).hexdigest() == digest


def test_dominance_rejected():
    with pytest.raises(DominanceError):
        enumerate_patterns("A", d(0, 1))
    with pytest.raises(DominanceError):
        enumerate_patterns("C3", d(1, 0))
    with pytest.raises(DominanceError):
        enumerate_patterns("C3", (-1, -1))  # half-integers illegal for C
    with pytest.raises(DominanceError):
        enumerate_patterns("B4", d(1, -1))
    with pytest.raises(DominanceError):
        enumerate_patterns("A", (2, 1))  # mixed parity


@pytest.mark.parametrize("family,empty", [
    ("A", GTPatternA(())), ("B3", PatternB3((), (), ())), ("C3", PatternC3((), ())),
    ("D3", PatternD3((), ())), ("B4", PatternB4((), ())), ("D4", PatternD4((), ())),
])
def test_empty_top_row_gives_the_empty_array(family, empty):
    """n = 0: the one array is the empty one, which validate accepts, and
    the count is the Weyl dimension 1."""
    assert enumerate_patterns(family, ()) == [empty]
    assert validate(empty)
    assert branching.weyl_dim(family[0], ()) == 1


def _moved(rows, k, i, step):
    """rows with entry i of row k moved by step."""
    return tuple(tuple(x + step * (r == k and c == i) for c, x in enumerate(row))
                 for r, row in enumerate(rows))


def _perturbations(p):
    """All arrays obtained by moving one entry by one unit, or one entry of
    the top row by half a unit (which breaks the parity of that row), and
    (B3) by flipping one sigma flag."""
    names = ("rows",) if isinstance(p, GTPatternA) else ("lam", "lamp")
    top = ("rows", 0) if isinstance(p, GTPatternA) else ("lam", p.n - 1)
    for name in names:
        rows = getattr(p, name)
        for k, row in enumerate(rows):
            for i in range(len(row)):
                for step in ((2, -2, 1, -1) if (name, k) == top else (2, -2)):
                    yield dataclasses.replace(p, **{name: _moved(rows, k, i, step)})
    if isinstance(p, PatternB3):
        for k in range(p.n):
            yield dataclasses.replace(p, sigma=tuple(s ^ (j == k) for j, s in enumerate(p.sigma)))


def _top(p):
    return p.rows[0] if isinstance(p, GTPatternA) else p.lam[-1]


# COUNTS plus integer B3 weights, where the sigma flags are constrained
PERTURBED = [(family, lam) for family, lam, _ in COUNTS] + [
    ("B3", d(0, -1)), ("B3", d(-1, -2)), ("B3", d(0, 0, -1))]


def test_validity_matches_enumeration_at_distance_one():
    # a one-unit perturbation is valid exactly when it appears in the
    # enumerated list for its own top row, and never when that row is not
    # dominant
    listed = {}

    def enumerated(family, top):
        if (family, top) not in listed:
            try:
                listed[(family, top)] = set(enumerate_patterns(family, top))
            except DominanceError:
                listed[(family, top)] = set()
        return listed[(family, top)]

    verdicts = set()
    for family, lam in PERTURBED:
        for p in enumerate_patterns(family, lam):
            for q in _perturbations(p):
                want = q in enumerated(family, _top(q))
                assert validate(q) == want == reference.validate(q), q
                verdicts.add((_top(q) == lam, want))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_weight_examples():
    p = GTPatternA((d(1, 0), d(1)))
    assert weight(p) == d(1, 0)
    p0 = GTPatternA((d(0, 0, 0), d(0, 0), d(0)))
    assert weight(p0) == d(0, 0, 0)
    total = [0, 0, 0]
    for p in enumerate_patterns("A", d(2, 1, 0)):
        for k, w in enumerate(weight(p)):
            total[k] += w
    assert tuple(total) == d(8, 8, 8)


def test_weight_multiset_matches_schur():
    for lam_plain in [(2, 1, 0), (1, 1, 0), (3, 0, 0)]:
        lam = d(*lam_plain)
        expo = branching.schur_exponents(lam_plain, 3)
        got = {}
        for p in enumerate_patterns("A", lam):
            key = tuple(x // 2 for x in weight(p))
            got[key] = got.get(key, 0) + 1
        assert got == expo


class TestTableauBijection:
    def test_single_box(self):
        p = GTPatternA((d(1),))
        t = pattern_to_tableau(p)
        assert t.rows == ((1,),)

    def test_top_pattern(self):
        p = GTPatternA((d(2, 1, 0), d(2, 1), d(2)))
        t = pattern_to_tableau(p)
        assert t.rows == ((1, 1), (2,))

    def test_round_trip_exhaustive(self):
        for p in enumerate_patterns("A", d(2, 1, 0)):
            t = pattern_to_tableau(p)
            assert tableau_to_pattern(t, 3) == p

    def test_round_trip_for_every_n_from_the_largest_entry(self):
        # n below the largest entry raises instead of dropping boxes
        with pytest.raises(ValueError):
            tableau_to_pattern(SemistandardTableau(((1, 3),)), 2)
        for lam in (d(2, 1, 0), d(3, 1, 1, 0)):
            for p in enumerate_patterns("A", lam):
                t = pattern_to_tableau(p)
                largest = max((x for row in t.rows for x in row), default=0)
                for n in range(max(largest, 1), 6):
                    assert pattern_to_tableau(tableau_to_pattern(t, n)) == t
                for n in range(largest):
                    with pytest.raises(ValueError):
                        tableau_to_pattern(t, n)

    def test_rejects_negative(self):
        p = GTPatternA((d(1, -1), d(0)))
        with pytest.raises(ValueError):
            pattern_to_tableau(p)

    def test_semistandard_rules(self):
        with pytest.raises(ValueError):
            SemistandardTableau(((1, 1), (1,)))
        with pytest.raises(ValueError):
            SemistandardTableau(((2, 1),))


def test_json_round_trip():
    for family, lam, _ in COUNTS:
        for p in enumerate_patterns(family, lam):
            assert from_json(to_json(p)) == p


# the sign condition of each family's top weight (doubled), and the step
# that moves a weight towards it without changing parity or differences
DOMINANT_SHIFT = {
    "A": (lambda lam: True, 0),
    "B3": (lambda lam: lam[0] <= 0, -2),
    "C3": (lambda lam: lam[0] <= 0, -2),
    "D3": (lambda lam: len(lam) < 2 or lam[0] + lam[1] <= 0, -2),
    "B4": (lambda lam: lam[-1] >= 0, 2),
    "D4": (lambda lam: len(lam) < 2 or lam[-2] + lam[-1] >= 0, 2),
}


def _dominant(family, parts, odd):
    """A dominant doubled weight of family made from the plain parts, with
    odd doubled entries when odd is set and the family allows them."""
    if family == "C3":
        odd = 0
    lam = tuple(sorted((2 * x + odd for x in parts), reverse=True))
    holds, step = DOMINANT_SHIFT[family]
    while not holds(lam):
        lam = tuple(x + step for x in lam)
    return lam


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(DOMINANT_SHIFT)),
       st.lists(st.integers(-2, 1), min_size=1, max_size=3), st.integers(0, 1))
def test_enumerated_patterns_all_valid(family, parts, odd):
    """Every enumerated pattern passes validate, for small dominant weights
    of every family, half-integer ones (odd doubled entries) included
    except for C3, whose weights are integers.  enumerate_patterns builds
    them without the row checks; each also passes the public constructor
    (dataclasses.replace runs it) and equals its rebuilt copy."""
    for p in enumerate_patterns(family, _dominant(family, parts, odd)):
        assert validate(p)
        copy = dataclasses.replace(p)
        assert copy == p and hash(copy) == hash(p)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FAMILIES), st.lists(st.integers(-2, 1), max_size=3), st.integers(0, 1))
def test_count_patterns_is_the_enumeration_length(family, parts, odd):
    """count_patterns counts the patterns enumerate_patterns lists, for
    small dominant weights of every family with n = 0..3."""
    lam = _dominant(family, parts, odd) if parts else ()
    assert count_patterns(family, lam) == len(enumerate_patterns(family, lam))


@pytest.mark.parametrize("family", FAMILIES)
def test_count_patterns_edges(family):
    """n = 0 has one pattern, the empty array, and a weight that is not
    dominant raises as it does for enumerate_patterns."""
    assert count_patterns(family, ()) == 1 == len(enumerate_patterns(family, ()))
    with pytest.raises(DominanceError):
        count_patterns(family, (1, 2))


_CLASSES = {"A": GTPatternA, "B3": PatternB3, "C3": PatternC3,
            "D3": PatternD3, "B4": PatternB4, "D4": PatternD4}


@st.composite
def _random_arrays(draw):
    """An array of any family, n <= 3, with doubled entries of both signs,
    all of one parity but for about one entry in ten, which is off by 1."""
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(1, 3))
    odd = draw(st.integers(0, 1))
    entry = st.builds(lambda x, off: 2 * x + odd + (off == 0),
                      st.integers(-3, 2), st.integers(0, 9))

    def rows(lengths):
        return tuple(tuple(draw(entry) for _ in range(k)) for k in lengths)

    if family == "A":
        return GTPatternA(rows(range(n, 0, -1)))
    lam = rows(range(1, n + 1))
    lamp = rows(range(1, n + 1 - (family[0] == "D")))
    if family == "B3":
        return PatternB3(tuple(draw(st.integers(0, 1)) for _ in range(n)), lam, lamp)
    return _CLASSES[family](lam, lamp)


@st.composite
def _moved_patterns(draw):
    """An enumerated pattern of a small dominant weight with up to three
    entries moved by -3..3 (doubled; odd moves break the parity) and, in
    B3, the sigma flags drawn afresh."""
    family = draw(st.sampled_from(FAMILIES))
    lam = _dominant(family, draw(st.lists(st.integers(-2, 1), min_size=1, max_size=3)),
                    draw(st.integers(0, 1)))
    p = draw(st.sampled_from(enumerate_patterns(family, lam)))
    names = ["rows"] if family == "A" else ["lam", "lamp"]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        name = draw(st.sampled_from(names))
        rows = getattr(p, name)
        if not rows:
            continue
        k = draw(st.integers(0, len(rows) - 1))
        i = draw(st.integers(0, len(rows[k]) - 1))
        p = dataclasses.replace(p, **{name: _moved(rows, k, i, draw(st.integers(-3, 3)))})
    if family == "B3":
        p = dataclasses.replace(p, sigma=tuple(draw(st.integers(0, 1)) for _ in range(p.n)))
    return p


@settings(max_examples=600, deadline=None)
@given(_random_arrays() | _moved_patterns())
def test_validate_matches_reference(p):
    """The plan walk of validate gives the verdict of the inequalities
    written out by hand (tests/patterns_reference.py)."""
    assert validate(p) == reference.validate(p)
