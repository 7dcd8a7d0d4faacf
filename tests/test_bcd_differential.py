"""The o_N/sp_2n GT bases, their checks and the z operators against their
direct forms in bcd_reference: the words walked as one trie against every
pattern's word applied from the highest vector, the orthogonal-basis,
gt-basis and fnn-action checks on the basis as one matrix against the rank
test plus every pair, a dense weight scan and per-vector actions, on the
bases themselves, on perturbed copies of them and on corrupted generators,
and the chain sums formed once per module by exact.chain_sum against the
chain sums summed per vector and against those formed chain by chain, and
the tables of Z_ab(u0) and of the "Z" letter against the display and
interpolation forms applied per vector."""

import functools
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

import bcd_reference as ref
from gtbases import branching, cli
from exact_reference import vec_zero
from exact_reference import int_column
from gtbases.exact import SparseMat, column_fractions, columns_matrix, nullspace, vec_unit
from gtbases.liealg_bcd import (OrthogonalChain, build_bcd_irrep, gt_basis_bcd,
                                multiplicity_basis, orth_basis_checks, orth_gt_basis,
                                orthogonal_chain, signed_realization)
from test_liealg_bcd import BASIS_PINS, ORTH_BASIS_PINS


@pytest.mark.parametrize("series,lam", [
    ("B", (-1, -3)), ("B", (-1, -1, -1)), ("B", (-2, -2, -2)), ("B", (0, 0, -2)),
    ("C", (-2, -4)), ("C", (0, -2, -4)), ("C", (-2, -2, -2)),
    ("D", (2, -2)), ("D", (2, -2, -4)), ("D", (0, -2, -2)), ("D", (-2, -2, -4)),
])
def test_signed_bases_match_per_pattern_words(series, lam):
    rep = build_bcd_irrep(series, lam)
    assert gt_basis_bcd(rep) == ref.gt_basis_bcd(rep)
    for mu, _ in branching.branch_children_BCD(series, lam):
        assert multiplicity_basis(rep, mu) == ref.multiplicity_basis(rep, mu)


CHAINS = [(3, (2,)), (4, (2, 2)), (4, (4, -2)), (5, (2, 2)), (5, (3, 1)),
          (6, (2, 2, 2)), (6, (2, 2, -2)), (6, (4, 2, 0)), (7, (1, 1, 1)), (7, (2, 2, 2))]


@pytest.mark.parametrize("N,lam", CHAINS)
def test_orth_basis_matches_per_pattern_words(N, lam):
    chain = OrthogonalChain(N, lam)
    assert orth_gt_basis(chain) == ref.orth_gt_basis(chain)


@pytest.mark.parametrize("series,lam", [(s, lam) for s, lam, _, _, _ in BASIS_PINS])
def test_signed_b_from_int_columns_is_from_columns_of_the_vectors(monkeypatch, series, lam):
    """B read off the walk's int columns, as gt_basis_checks reads it, is
    from_columns of the vectors gt_basis_bcd returns; the same for the B
    whose rank multiplicity_basis checks and fnn_action_check reads, on
    every child."""
    rep = build_bcd_irrep(series, lam)
    pats, cols = signed_realization._gt_walk(rep)
    assert columns_matrix(cols, rep.dim) == SparseMat.from_columns(gt_basis_bcd(rep)[1], rep.dim)
    read = []
    monkeypatch.setattr(signed_realization, "columns_matrix",
                        lambda *a: read.append(columns_matrix(*a)) or read[-1])
    for mu, _ in branching.branch_children_BCD(series, lam):
        vecs = multiplicity_basis(rep, mu)[1]
        assert read.pop() == SparseMat.from_columns(vecs, rep.dim) and not read


@pytest.mark.parametrize("N,lam", [(N, lam) for N, lam, _, _ in ORTH_BASIS_PINS])
def test_orth_b_from_int_columns_is_from_columns_of_the_vectors(N, lam):
    """B read off the walk's int columns, as orth_basis_checks reads it, is
    from_columns of the vectors orth_gt_basis returns."""
    chain = OrthogonalChain(N, lam)
    pats, cols = orthogonal_chain._orth_walk(chain)
    assert columns_matrix(cols, chain.dim) == \
        SparseMat.from_columns(orth_gt_basis(chain)[1], chain.dim)


# Each perturbation replaces vector a of a basis; weights holds the weight
# (or the coordinate a check reads) of each basis index of the module.

def _zeroed(vecs, a, weights):
    return vecs[:a] + [tuple(0 * x for x in vecs[a])] + vecs[a + 1:]


def _negated(vecs, a, weights):
    return vecs[:a] + [tuple(-x for x in vecs[a])] + vecs[a + 1:]


def _sum_of_two(vecs, a, weights):
    b, c = (a + 1) % len(vecs), (a + 2) % len(vecs)
    return vecs[:a] + [tuple(x + y for x, y in zip(vecs[b], vecs[c]))] + vecs[a + 1:]


def _moved(vecs, a, weights):
    """Vector a with an entry 1 added at the first basis index whose weight
    differs from its own: moved partly onto another weight block.  A basis
    keeps its rank, since the vectors are weight vectors."""
    w = weights[next(t for t, x in enumerate(vecs[a]) if x)]
    t = weights.index(next(u for u in weights if u != w))
    return vecs[:a] + [tuple(x + (s == t) for s, x in enumerate(vecs[a]))] + vecs[a + 1:]


PERTURBATIONS = [None, _zeroed, _negated, _sum_of_two, _moved]


def _substitute(monkeypatch, module, walk, pats, vecs):
    """Make module's walk return (pats, the int columns of vecs): the
    library's check reads the walk, and its public basis function, which
    the reference check reads, converts the walk's columns."""
    monkeypatch.setattr(module, walk, lambda rep: (pats, [int_column(v) for v in vecs]))


def _perturbed(vecs, weights, perturb):
    """The basis itself, or its copies with perturb applied at each
    position."""
    if perturb is None:
        return [vecs]
    return [perturb(list(vecs), a, weights) for a in range(len(vecs))]


@pytest.mark.parametrize("perturb", PERTURBATIONS)
@pytest.mark.parametrize("N,lam", [(3, (2,)), (4, (4, -2)), (5, (2, 2)), (6, (2, 2, 2)),
                                   (7, (1, 1, 1))])
def test_orth_verdicts_match_rank_and_all_pairs(monkeypatch, N, lam, perturb):
    """Equal verdicts on the basis and on copies with one vector zeroed,
    negated, replaced by the sum of two others (of the same or of
    different weights), or moved onto another weight block, at every
    position."""
    chain = OrthogonalChain(N, lam)
    pats, vecs = orth_gt_basis(chain)
    for got in _perturbed(vecs, chain.module.weights, perturb):
        _substitute(monkeypatch, orthogonal_chain, "_orth_walk", pats, got)
        want = ref.orth_basis_checks(chain)
        assert orth_basis_checks(chain) is want
        assert want is (perturb in (None, _negated))


# integer, half-integer and spinor B, then C and D (a spinor D last)
SIGNED_MODULES = [("B", (-2, -4)), ("B", (-1, -3)), ("B", (-1, -1, -1)), ("C", (-2, -4)),
                  ("C", (0, -2, -2)), ("D", (0, -2, -2)), ("D", (1, -1, -3))]


@pytest.mark.parametrize("perturb", PERTURBATIONS)
@pytest.mark.parametrize("series,lam", SIGNED_MODULES)
def test_gt_basis_verdicts_match_rank_and_dense_weights(monkeypatch, series, lam, perturb):
    """gt_basis_checks, which reads B's stored entries, against the rank
    and a dense weight scan of every vector, on the basis and on copies
    with one vector perturbed at every position."""
    rep = build_bcd_irrep(series, lam)
    pats, vecs = gt_basis_bcd(rep)
    weights = [rep.weight_doubled(t) for t in range(rep.dim)]
    for got in _perturbed(vecs, weights, perturb):
        _substitute(monkeypatch, signed_realization, "_gt_walk", pats, got)
        want = ref.gt_basis_checks(rep)
        assert signed_realization.gt_basis_checks(rep) is want
        assert want is (perturb in (None, _negated))


def _multiplicity(rep, tuples, vecs):
    """The (tuples, int columns, B) that _multiplicity returns for the basis
    vecs, which multiplicity_basis converts back to vecs."""
    return tuples, [int_column(v) for v in vecs], SparseMat.from_columns(vecs, rep.dim)


def _mult_bases(monkeypatch, rep):
    """The children mu of rep with their multiplicity bases, built before
    the library's _multiplicity, which fnn_action_check and
    multiplicity_basis read, is patched to return them."""
    out = [(mu, multiplicity_basis(rep, mu))
           for mu, _ in branching.branch_children_BCD(rep.algebra.series, rep.lam)]
    bases = {mu: _multiplicity(rep, *basis) for mu, basis in out}
    monkeypatch.setattr(signed_realization, "_multiplicity", lambda r, mu: bases[tuple(mu)])
    return out


@pytest.mark.parametrize("perturb", PERTURBATIONS)
@pytest.mark.parametrize("series,lam", SIGNED_MODULES)
def test_fnn_verdicts_match_per_vector_actions(monkeypatch, series, lam, perturb):
    """fnn_action_check, two matrix products, against F_nn and F_{n,-n}
    applied vector by vector, on every child's multiplicity basis and on
    copies with one vector perturbed at every position.  F_nn alone (B and
    D) is blind to zeroing and negating; moving a vector onto another
    eigenvalue of F_nn always fails."""
    rep = build_bcd_irrep(series, lam)
    n = rep.algebra.n
    fnn = [rep.weight_doubled(t)[n - 1] for t in range(rep.dim)]
    for mu, (tuples, vecs) in _mult_bases(monkeypatch, rep):
        for got in _perturbed(vecs, fnn, perturb):
            monkeypatch.setattr(signed_realization, "_multiplicity",
                                lambda r, m: _multiplicity(rep, tuples, got))
            want = ref.fnn_action_check(rep, mu)
            assert signed_realization.fnn_action_check(rep, mu) is want
            if perturb is None or series != "C" and perturb in (_zeroed, _negated):
                assert want
            if perturb is _moved:
                assert not want


@pytest.mark.parametrize("series,lam", SIGNED_MODULES)
def test_fnn_verdicts_match_on_corrupted_generators(monkeypatch, series, lam):
    """Equal verdicts when one entry of F_nn (or, for C, of F_{n,-n}) is
    corrupted, at every entry on or next to the support of the basis."""
    rep = build_bcd_irrep(series, lam)
    n = rep.algebra.n
    bases = _mult_bases(monkeypatch, rep)
    real = rep.F
    support = sorted({t for _, (_, vecs) in bases for v in vecs for t, x in enumerate(v) if x})
    for key in [(n, n)] + [(n, -n)] * (series == "C"):
        good = real(*key)
        for r, c in {(r, c) for c in support for r in (c, (c + 1) % rep.dim)}:
            bad = good + SparseMat(rep.dim, rep.dim, {(r, c): 1})
            monkeypatch.setattr(rep, "F", lambda i, j: bad if (i, j) == key else real(i, j))
            got = [signed_realization.fnn_action_check(rep, mu) for mu, _ in bases]
            assert got == [ref.fnn_action_check(rep, mu) for mu, _ in bases]
            assert not all(got)


def test_orth_short_basis_fails(monkeypatch):
    chain = OrthogonalChain(5, (2, 2))
    pats, vecs = orth_gt_basis(chain)
    _substitute(monkeypatch, orthogonal_chain, "_orth_walk", pats, vecs[1:])
    assert orth_basis_checks(chain) is ref.orth_basis_checks(chain) is False


def _spy_walk(monkeypatch):
    """The (letter, vector, image) of every table application of the
    orth_gt_basis walks that follow, the vectors as int columns, and the
    letters whose table the walks fetched, in order."""
    applied, fetched = [], []
    walk = orthogonal_chain.apply_words

    def walk_spy(start, words, operator):
        def spied(letter):
            fetched.append(letter)
            table = operator(letter)

            def apply(v):
                out = table(v)
                applied.append((letter, v, out))
                return out
            return apply
        return walk(start, words, spied)
    monkeypatch.setattr(orthogonal_chain, "apply_words", walk_spy)
    return applied, fetched


def test_orth_basis_makes_one_lowering_per_vector(monkeypatch):
    """o_7 (4,2,0): every pattern's word extends another pattern's word by
    one factor, so the walk makes dim - 1 table applications (the
    per-pattern loop makes 315), and builds one table per distinct
    letter."""
    applied, fetched = _spy_walk(monkeypatch)
    chain = OrthogonalChain(7, (4, 2, 0))
    pats, vecs = orth_gt_basis(chain)
    assert len(vecs) == chain.dim == 105
    assert len(applied) == chain.dim - 1
    letters = {letter for letter, _, _ in applied}
    assert sorted(fetched) == sorted(letters) == sorted(chain._low)


ORTH_MODULES = sorted(set(CHAINS) | {(N, lam) for N, lam, _, _ in ORTH_BASIS_PINS})


@pytest.mark.parametrize("N,lam", ORTH_MODULES)
def test_orth_tables_match_per_vector_projector_chains(monkeypatch, N, lam):
    """On every (letter, vector) the walk applies, the table's image equals
    that of the letter's printed chain of extremal-projector factors run on
    the vector.  Only walk vectors are drawn: on an arbitrary vector the
    partial chain is not the projection."""
    applied, _ = _spy_walk(monkeypatch)
    chain = OrthogonalChain(N, lam)
    orth_gt_basis(chain)
    old = ref.PerVectorChain(chain)
    lowering = {"s'": old.s_prime, "s": old.s_plain}
    for (kind, k, i), vec, got in applied:
        got, vec = (column_fractions(v, chain.dim) for v in (got, vec))
        assert got == lowering[kind](k, i, vec)
    assert len(applied) == chain.dim - 1


def _kernel(mats, dim):
    """A basis of the joint kernel of the dim x dim matrices, with no
    grouping by weight."""
    stacked = SparseMat(len(mats) * dim, dim, {(t * dim + r, c): v for t, m in enumerate(mats)
                                              for (r, c), v in m.entries.items()})
    return nullspace(stacked)


@pytest.mark.parametrize("N,lam", ORTH_MODULES)
def test_orth_projectors_are_extremal(N, lam):
    """At every level L below the top the projector P is idempotent, each
    raising F_ab (a < b) of o_L kills its image, it kills the image of each
    lowering F_ba, and it fixes the joint kernel of the raising operators,
    found on the whole module."""
    chain = OrthogonalChain(N, lam)
    for L in range(2, N):
        p = chain.projector(L)
        assert p @ p == p
        pairs = [(a, b) for a in range(1, L + 1) for b in range(a + 1, L + 1)]
        for a, b in pairs:
            assert (chain.f_level(L, a, b) @ p).is_zero()
            assert (p @ chain.f_level(L, b, a)).is_zero()
        for v in _kernel([chain.f_level(L, a, b) for a, b in pairs], chain.dim):
            assert p.apply(v) == v


def test_verify_applies_each_word_prefix_once(monkeypatch, capsys):
    """In gt verify sp -1,-2,-2 the gt-basis and fnn-action checks walk
    their lowering words on one trie per module: each distinct prefix of
    all the words is applied once."""
    prefixes, applied, walks = set(), [], []
    walk, letter = signed_realization.apply_words, signed_realization._letter

    def walk_spy(start, words, *rest):
        words = [tuple(w) for w in words]
        walks.append(len(words))
        prefixes.update(w[:j] for w in words for j in range(1, len(w) + 1))
        return walk(start, words, *rest)

    def letter_spy(rep, x):
        act = letter(rep, x)

        def counted(v):
            applied.append(x)
            return act(v)
        return counted
    monkeypatch.setattr(signed_realization, "apply_words", walk_spy)
    monkeypatch.setattr(signed_realization, "_letter", letter_spy)
    assert cli.run(["verify", "sp", "-1,-2,-2"]) == 0
    assert "gt-basis: PASS" in capsys.readouterr().out
    assert len(walks) > 1 and len(applied) == len(prefixes)


# the library's tables applied to tuples of Fractions, under the names of
# the per-vector forms in bcd_reference
LIBRARY = SimpleNamespace(
    apply_pf=ref.table_pf, apply_z=signed_realization.apply_z,
    apply_z_nminus=signed_realization.apply_z_nminus,
    apply_z_interp=signed_realization.apply_z_interp, _apply_zab_point=ref.table_zab_point)

# modules where some chain sum meets a vanishing Cartan denominator
RAISING = [("D", (0, -2)), ("D", (2, -2, -2)), ("B", (-2, -2)), ("C", (-2, -4))]
_rep = functools.cache(build_bcd_irrep)


def _chain_calls(rep):
    """(name, i, a, k) of apply_pf and apply_z at every level k, every index
    i <= k of the level-k index set and a = +-k, and of apply_z_nminus."""
    alg = rep.algebra
    out = []
    for k in range(1, alg.n + 1):
        out.append(("apply_z_nminus", k, -k, k))
        for i in range(-k + 1, k + 1):
            if i or alg.series == "B":
                out += [(name, i, a, k) for name in ("apply_pf", "apply_z") for a in (k, -k)]
    return out


def _outcome(lib, rep, call, vec):
    """The vector and its entry types that call gives on vec through the
    module lib, or the message of the ZeroDivisionError it raises."""
    name, i, a, k = call
    try:
        if name == "apply_z_nminus":
            got = lib.apply_z_nminus(rep, vec, rank_k=k)
        else:
            got = getattr(lib, name)(rep, i, a, vec, rank_k=k)
    except ZeroDivisionError as exc:
        return "raises: %s" % exc
    return got, [type(x) for x in got]


@functools.cache
def _by_columns(series, lam, i, a, k, pool):
    return ref.chain_sum_by_columns(_rep(series, lam), i, a, k, pool)


def _by_columns_outcome(rep, call, vec):
    """_outcome through the library with each chain sum formed by
    bcd_reference.chain_sum_by_columns, once per module and key."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signed_realization, "_chain_sum",
                   lambda rep, *key: _by_columns(rep.algebra.series, rep.lam, *key))
        return _outcome(LIBRARY, rep, call, vec)


@pytest.mark.parametrize("series,lam", RAISING)
def test_chain_sums_match_per_vector_sums(series, lam):
    """Equal values, or equal raises, on every unit vector and the zero
    vector, for every chain sum of the module, also with each chain sum
    formed chain by chain."""
    rep = _rep(series, lam)
    vecs = [vec_unit(rep.dim, t) for t in range(rep.dim)] + [vec_zero(rep.dim)]
    raised = 0
    for call in _chain_calls(rep):
        for vec in vecs:
            want = _outcome(ref, rep, call, vec)
            assert _outcome(LIBRARY, rep, call, vec) == want
            assert _by_columns_outcome(rep, call, vec) == want
            raised += isinstance(want, str)
    assert raised


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_chain_sums_match_per_vector_sums_on_dense_vectors(data):
    series, lam = data.draw(st.sampled_from(RAISING), label="module")
    rep = _rep(series, lam)
    call = data.draw(st.sampled_from(_chain_calls(rep)), label="(name, i, a, k)")
    vec = tuple(data.draw(st.lists(st.fractions(-3, 3, max_denominator=6),
                                   min_size=rep.dim, max_size=rep.dim), label="vector"))
    want = _outcome(ref, rep, call, vec)
    assert _outcome(LIBRARY, rep, call, vec) == want
    assert _by_columns_outcome(rep, call, vec) == want


def test_verify_builds_each_chain_monomial_once(monkeypatch, capsys):
    """gt verify sp -1,-2,-2 forms each chain sum once per module, so each
    of its 23 distinct chain monomials is built once (summing the chains per
    vector built 214).  exact.chain_sum forms one monomial per subsequence
    of its indices, so the spy records those."""
    calls = []
    real = signed_realization.chain_sum

    def spy(dim, i, indices, a, *rest):
        calls.extend((i, a, chain) for s in range(len(indices) + 1)
                     for chain in combinations(indices, s))
        return real(dim, i, indices, a, *rest)
    monkeypatch.setattr(signed_realization, "chain_sum", spy)
    assert cli.run(["verify", "sp", "-1,-2,-2"]) == 0
    assert "gt-basis: PASS" in capsys.readouterr().out
    assert len(calls) == len(set(calls)) == 23


# integer-weight B modules (display denominators that vanish), modules with
# colliding interpolation nodes, and D modules with and without the pole of
# Z_ab(u) at u = -1/2
ZAB_MODULES = [("B", (0, -2)), ("B", (0, 0, -2)), ("B", (-2, -2)), ("B", (-1, -3)),
               ("C", (-2, -4)), ("D", (-2, -4)), ("D", (0, -2, -2))]
POINTS = [Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2),
          Fraction(-2), Fraction(7, 3)]


def _z_calls(rep):
    """(a, b, k) of Z_ab(u0) at every (a, b) at k = n, and of the "Z" letter
    Z_{k,-k}(u0) (a = "Z") at every level k."""
    n = rep.algebra.n
    return [(a, b, n) for a in (-n, n) for b in (-n, n)] + [("Z", -k, k) for k in range(1, n + 1)]


def _z_outcome(lib, rep, call, u0, vec):
    """The vector call gives at u0 on vec through the module lib, or
    "raises" if it raises ZeroDivisionError."""
    a, b, k = call
    try:
        if a == "Z":
            return lib.apply_z_interp(rep, u0, vec, rank_k=k)
        return lib._apply_zab_point(rep, a, b, u0, vec, rank_k=k)
    except ZeroDivisionError:
        return "raises"


@pytest.mark.parametrize("series,lam", ZAB_MODULES)
def test_z_tables_match_per_vector_forms(series, lam):
    """Equal values, or a ZeroDivisionError from both, of Z_ab(u0) and the
    "Z" letter, on every unit vector at every point."""
    rep = _rep(series, lam)
    outcomes = set()
    for call in _z_calls(rep):
        for u0 in POINTS:
            for t in range(rep.dim):
                vec = vec_unit(rep.dim, t)
                want = _z_outcome(ref, rep, call, u0, vec)
                assert _z_outcome(LIBRARY, rep, call, u0, vec) == want
                outcomes.add(want == "raises")
    assert outcomes == {True, False}


def test_z_products_raise_where_the_inner_image_meets_a_raise_column():
    """On D (-2,-4,-4) some z_ai z_ib product meets a raise column of z_ai
    only through the image of z_ib, under a nonzero display coefficient:
    Z_ab(1) at k = 3 raises on exactly the unit vectors where the per-vector
    display form raises."""
    rep = _rep("D", (-2, -4, -4))
    raised = 0
    for a in (-3, 3):
        for b in (-3, 3):
            for t in range(rep.dim):
                vec = vec_unit(rep.dim, t)
                want = _z_outcome(ref, rep, (a, b, 3), 1, vec)
                assert _z_outcome(LIBRARY, rep, (a, b, 3), 1, vec) == want
                raised += want == "raises"
    assert raised


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_z_tables_match_per_vector_forms_on_weight_vectors(data):
    """As above on random nonzero vectors of one weight.  (On the zero
    vector the per-vector display form raises at the D pole u0 = -1/2, and
    a table, which raises only on the columns a vector meets, does not.)"""
    series, lam = data.draw(st.sampled_from(ZAB_MODULES), label="module")
    rep = _rep(series, lam)
    call = data.draw(st.sampled_from(_z_calls(rep)), label="(a, b, k)")
    u0 = data.draw(st.sampled_from(POINTS), label="u0")
    off, size = data.draw(st.sampled_from(sorted(rep.module.weight_slices().values())),
                          label="weight block")
    block = data.draw(st.lists(st.fractions(-3, 3, max_denominator=6),
                               min_size=size, max_size=size), label="entries")
    assume(any(block))
    vec = (Fraction(0),) * off + tuple(block) + (Fraction(0),) * (rep.dim - off - size)
    assert _z_outcome(LIBRARY, rep, call, u0, vec) == \
        _z_outcome(ref, rep, call, u0, vec)


# -- the realization layer: fdef, root_of and realize by root ------------------

# B/C/D ranks 1-3 and the s4 chains N = 2..7 (weights doubled)
REALIZE_MODULES = [("B", (-1,)), ("B", (-1, -1)), ("B", (-1, -1, -1)),
                   ("C", (-2,)), ("C", (0, -2)), ("C", (0, 0, -2)),
                   ("D", (-2,)), ("D", (0, -2)), ("D", (0, 0, -2)),
                   (2, (2,)), (3, (2,)), (4, (2, 2)), (5, (2, 0)), (6, (2, 0, 0)),
                   (7, (2, 0, 0))]


@functools.cache
def _realize_module(family, lam):
    """(module, the reference's all-pairs span over flattened matrices),
    the span built from the module's Cartan and simple matrices alone."""
    if family in ("B", "C", "D"):
        mod = build_bcd_irrep(family, lam).module
    else:
        mod = OrthogonalChain(family, lam).module
    return mod, ref.algebra_span_all_pairs(mod)


def _fraction_fdef(family, lam, i, j):
    """fdef(i, j) in the Fraction form it replaced."""
    if family in ("B", "C", "D"):
        return ref.fdef_fraction(signed_realization.ClassicalAlgebra(family, len(lam)), i, j)
    return ref.chain_fdef_fraction(SimpleNamespace(N=family), i, j)


@pytest.mark.parametrize("family,lam", REALIZE_MODULES)
def test_fdef_is_one_int_matrix_per_pair(family, lam):
    """fdef(i, j) is made once per (i, j), as int numerators, and equals
    the Fraction form it replaced; root_of reads the same roots as the
    commutators; every generator is realized as +-1 times a span pair's
    module matrix; and cartan_matrix is diag of the weights."""
    mod = _realize_module(family, lam)[0]
    real = mod.realization
    spans = [mm for _, mm in mod._algebra_span()[0]]
    for i in real.labels:
        for j in real.labels:
            m = real.fdef(i, j)
            assert m is real.fdef(i, j) and m.den == 1
            assert m == _fraction_fdef(family, lam, i, j)
            if m.nnz() and i != j:
                assert real.root_of(m) == ref.root_of(real, m)
            if m.nnz():
                got = mod.realize(m)
                assert any(got is mm or got == -mm for mm in spans)
    for t, c in enumerate(real.cartan):
        assert mod.cartan_matrix(c) == SparseMat.diag([w[t] for w in mod.weights])


def _combination(data, labels):
    """Random (rational coefficient, i, j) terms of a combination of the
    fdef(i, j)."""
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    label = st.sampled_from(labels)
    return data.draw(st.lists(st.tuples(coeff, label, label), max_size=6))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(REALIZE_MODULES), st.data())
def test_realize_by_root_matches_the_flattened_solver(case, data):
    """realize, which reads each coefficient at its pair's own entry, against
    the flattened SpanSolver solve it replaced, on random rational
    combinations of the generators; both equal the same combination of the
    realized generators."""
    mod, span = _realize_module(*case)
    real = mod.realization
    n = len(real.labels)
    terms = _combination(data, real.labels)
    x = SparseMat.combination(n, n, [(c, real.fdef(i, j)) for c, i, j in terms])
    got = mod.realize(x)
    assert got == ref.realize_over(span, mod, x)
    assert got == SparseMat.combination(mod.dim, mod.dim, [(c, mod.F(i, j)) for c, i, j in terms])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(REALIZE_MODULES), st.data())
def test_realize_refuses_what_the_flattened_solver_refuses(case, data):
    """On random N x N matrices (most outside the span, some inside it),
    realize and the flattened solve both raise the same ValueError or
    agree."""
    mod, span = _realize_module(*case)
    real = mod.realization
    n = len(real.labels)
    x = SparseMat.combination(n, n, [(c, real.fdef(i, j)) for c, i, j in _combination(
        data, real.labels)])
    entries = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.integers(-2, 2)), max_size=3))
    x = x + SparseMat(n, n, {(r, c): v for r, c, v in entries})
    outcomes = []
    for f in (mod.realize, lambda m: ref.realize_over(span, mod, m)):
        try:
            outcomes.append(f(x))
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    if isinstance(outcomes[0], str):
        assert outcomes[0] == "element is not in the realized algebra span"


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(REALIZE_MODULES), st.data())
def test_root_of_refuses_two_units_of_different_weights(case, data):
    """root_of, read off the diagonal of the Cartan, raises the commutator
    form's ValueError on E_pq + c E_rs when the two units have different
    weights, and agrees with it otherwise."""
    mod = _realize_module(*case)[0]
    real = mod.realization
    n = len(real.labels)
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    a, b = data.draw(cell), data.draw(cell)
    c = data.draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
    m = SparseMat(n, n, {a: 1}) + SparseMat(n, n, {b: c})
    outcomes = []
    for f in (real.root_of, lambda x: ref.root_of(real, x)):
        try:
            outcomes.append(f(m))
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    unit = [real.root_of(SparseMat(n, n, {k: 1})) for k in (a, b)]
    if unit[0] != unit[1] and not m.is_zero() and m.nnz() == 2:
        assert outcomes[0] == "not a weight vector for the Cartan"


def test_realize_refuses_a_span_without_own_entries():
    """_algebra_span raises ValueError when a basis element has no entry
    of its own: here the Cartan E_11 - E_22, E_22 - E_33 of sl_3 in a
    realization that also puts E_22 in the Cartan."""
    from gtbases.liealg_bcd import Realization, build_module

    def fdef(i, j):
        return SparseMat(3, 3, {(i - 1, j - 1): 1})
    mod = build_module(Realization([1, 2, 3], fdef, [1, 2, 3], [(1, 2), (2, 3)]), (1, 0, 0))
    real = mod.realization
    real.fdef = lambda i, j: (fdef(i, j) - fdef(i % 3 + 1, j % 3 + 1) if i == j else fdef(i, j))
    with pytest.raises(ValueError, match="no entry of its own"):
        mod._algebra_span()


@pytest.mark.parametrize("series,lam", [("C", (-2, -4)), ("B", (-1, -3)), ("D", (-2, -4))])
def test_zab_tables_are_made_once_per_module(monkeypatch, series, lam):
    """zab_operators over every child sums the coefficient tables of each
    display form once per module: a second pass sums none, and gives the
    same operators."""
    rep = build_bcd_irrep(series, lam)
    kids = [mu for mu, _ in branching.branch_children_BCD(series, lam)]
    calls = []
    column_sum = signed_realization._column_sum
    monkeypatch.setattr(signed_realization, "_column_sum",
                        lambda *args: calls.append(1) or column_sum(*args))
    first = [signed_realization.zab_operators(rep, mu) for mu in kids]
    made = len(calls)
    assert made and [signed_realization.zab_operators(rep, mu) for mu in kids] == first
    assert len(calls) == made
