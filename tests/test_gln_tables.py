"""The per-irrep tables of ``gtbases.gln``: the shift-neighbour table, the
integer matrix elements of ``build_irrep`` and the quantum-minor memo,
against plain readings and against sha256 pins of the module outputs."""

import hashlib
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import gln_reference as ref
from gtbases import branching, cli, gln
from gtbases.exact import SparseMat
from gtbases.patterns import validate


def canonical_dump(rep):
    """Every generator E_ij (derived ones included), the squared norms, and
    each coefficient of A_m, B_m, C_m, the Capelli determinant and both tau
    polynomials, as sorted (row, col, num/den) lines."""
    n = rep.n
    lines = ["gl_%d %s dim %d" % (n, rep.lam, rep.dim)]

    def mat(label, m):
        lines.append(label)
        lines.extend("%d %d %d/%d" % (r, c, v.numerator, v.denominator)
                     for (r, c), v in sorted(m.entries.items()))

    def poly(label, p):
        for j, c in enumerate(p.coeffs):
            mat("%s u^%d" % (label, j), c)

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            mat("E_%d_%d" % (i, j), rep.gen(i, j))
    lines.append("normsq " + " ".join("%d/%d" % (v.numerator, v.denominator)
                                      for v in rep.normsq))
    for m in range(1, n + 1):
        for which in "ABC" if m < n else "A":
            poly("%s_%d" % (which, m), gln.drinfeld_poly(rep, m, which))
    poly("capelli", gln.capelli_det(rep))
    for i in range(1, n):
        for kind in ("lowering", "raising"):
            poly("tau %d %s" % (i, kind), gln.tau_poly(rep, i, kind))
    return "\n".join(lines) + "\n"


# sha256 of canonical_dump, recorded before the tables were introduced
# (doubled weights; the odd ones are half-integer)
DUMP_SHA256 = {
    (3,):
        "df753e8e3465a847fe5986d63c9bb636ad75d9314a8520232e8c7bcbcd9fae29",
    (2, 0):
        "0f4d62c71fcae16e28c29c58f5efc8f2c304ff7435ef60f0b53df13ed528c86e",
    (4, 0, -2):
        "b6ca9a09fe2829c8bc50d231b57c9e91b693c086a924a9fa3efcff6c9f200796",
    (3, 1, -1):
        "903ccfa6cdb831d65ae7c4e40d2942f4862b76cb32a1e1c9043baed3f05d2f47",
    (6, 4, 2, 0):
        "57a55f7f5d99321719c4bfae71c692e921820ea8477a1e67f2631368539775bd",
    (6, 6, 0, 0):
        "9f2000c4bcfe515c51e0ec96aa94188d3b474ba701eddee1b73ccbb66aaf68c2",
    (2, 0, -2, -4):
        "9fc81276d8a3598e9bb2daf5c4de461a0ac25882405697ac800c406bdd223e48",
}


@pytest.mark.parametrize("lam", sorted(DUMP_SHA256))
def test_outputs_match_the_pins(lam):
    rep = gln.build_irrep(len(lam), lam)
    assert hashlib.sha256(canonical_dump(rep).encode()).hexdigest() == DUMP_SHA256[lam]


@st.composite
def dominant_weights(draw, max_dim=60):
    """A doubled dominant gl_n weight, n <= 4, of either parity."""
    n = draw(st.integers(1, 4), label="n")
    odd = draw(st.integers(0, 1), label="odd")
    low = draw(st.integers(-3, 3), label="lowest entry")
    gaps = draw(st.lists(st.integers(0, 3), min_size=n - 1, max_size=n - 1), label="gaps")
    lam = [2 * low + odd]
    for g in gaps:
        lam.insert(0, lam[0] + 2 * g)
    lam = tuple(lam)
    assume(branching.weyl_dim("A", lam) <= max_dim)
    return lam


class TestShiftTable:
    @settings(max_examples=60, deadline=None)
    @given(dominant_weights())
    def test_table_matches_shift_and_validate(self, lam):
        rep = gln.build_irrep(len(lam), lam)
        n = rep.n
        table = rep.shift_table
        assert sorted(table) == sorted((k, i, e) for k in range(1, n)
                                       for i in range(1, k + 1) for e in (1, -1))
        for (k, i, e), column in table.items():
            assert len(column) == rep.dim
            for t, p in enumerate(rep.basis):
                q = ref.shift(p, k, i, 2 * e)
                assert column[t] == (rep.index[q] if validate(q) else None), (k, i, e, t)

    @settings(max_examples=60, deadline=None)
    @given(dominant_weights())
    def test_integer_generators_match_the_fraction_formulas(self, lam):
        rep = gln.build_irrep(len(lam), lam)
        want = ref.near_diagonal_generators(rep.n, rep.basis)
        for key, m in want.items():
            assert rep.gen(*key) == m, key

    def test_generators_make_no_fraction_per_entry(self, monkeypatch):
        """E_{k,k+-1} come from int numerators over one lcm: the only
        Fractions build_irrep makes are the squared norms, one per pattern,
        and no matrix goes through the Fraction constructor path."""
        made = []

        def spy(*args):
            made.append(args)
            return Fraction(*args)

        def refuse(*args, **kwargs):
            raise AssertionError("a generator went through SparseMat.__init__")
        monkeypatch.setattr(gln, "Fraction", spy)
        monkeypatch.setattr(SparseMat, "__init__", refuse)
        rep = gln.build_irrep(4, (6, 4, 2, 0))
        monkeypatch.undo()
        assert len(made) == rep.dim == 64
        want = ref.near_diagonal_generators(rep.n, rep.basis)
        assert all(rep.gen(*key) == m for key, m in want.items())

    def test_built_on_a_copy(self):
        # a module assembled from its parts builds the same table lazily
        rep = gln.build_irrep(3, (3, 1, -1))
        copy = gln.GlnIrrep(rep.n, rep.lam, rep.basis, {}, rep.normsq)
        assert copy.shift_table == rep.shift_table


def _minor_keys(n, rng, count):
    """count random (rows, cols) pairs of ordered index tuples, some of them
    not ascending."""
    keys = []
    for _ in range(count):
        s = rng.randint(1, n)
        keys.append((tuple(rng.sample(range(1, n + 1), s)),
                     tuple(rng.sample(range(1, n + 1), s))))
    return keys


class TestMinorMemo:
    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([(3, (4, 2, 0)), (3, (3, 1, -1)), (4, (2, 0, 0, 0)),
                            (4, (3, 1, 1, 1))]),
           st.randoms(use_true_random=False))
    def test_random_order_equals_fresh_and_reference(self, case, rng):
        n, lam = case
        rep = gln.build_irrep(n, lam)
        keys = _minor_keys(n, rng, 8)
        got = [gln.quantum_minor(rep, rows, cols) for rows, cols in keys]
        for (rows, cols), poly in zip(keys, got):
            fresh = gln.quantum_minor(gln.build_irrep(n, lam), rows, cols)
            first, second = ref.quantum_minor_expansions(rep, rows, cols)
            assert poly == fresh == first == second, (rows, cols)

    def test_verify_expands_each_minor_once(self, monkeypatch):
        rep = gln.build_irrep(4, (6, 4, 2, 0))
        expanded = Counter()
        real = gln._expand_last_column

        def spy(rep_, rows, cols):
            expanded[(rows, cols)] += 1
            return real(rep_, rows, cols)
        monkeypatch.setattr(gln, "_expand_last_column", spy)
        for name, thunk in cli._gl_verify_checks(rep):
            assert thunk(), name
        assert expanded and set(expanded.values()) == {1}
        assert set(expanded) == set(rep._minors)
        # A_4, B_3, C_3 and both tau_1 polynomials are among them
        for key in [((1, 2, 3, 4), (1, 2, 3, 4)), ((1, 2, 3), (1, 2, 4)),
                    ((1, 2, 4), (1, 2, 3)), ((2, 3, 4), (1, 2, 3)), ((1,), (4,))]:
            assert key in expanded


class TestGTSeparation:
    @pytest.mark.parametrize("n,lam", [(1, (3,)), (3, (3, 1, -1)), (4, (6, 4, 2, 0)),
                                       (4, (6, 6, 0, 0))])
    def test_values_and_verdict_match_the_reference(self, n, lam):
        rep = gln.build_irrep(n, lam)
        evs = [ref.gt_eigenvalues(p) for p in rep.basis]
        assert [gln.gt_eigenvalues(p) for p in rep.basis] == evs
        assert gln.gt_separation_check(rep) is (
            len({tuple(tuple(r) for r in ev) for ev in evs}) == rep.dim)

    def test_repeated_pattern_is_not_separated(self):
        rep = gln.build_irrep(2, (2, 0))
        twice = gln.GlnIrrep(2, rep.lam, rep.basis + rep.basis[:1], {}, rep.normsq)
        assert rep.dim == 2 and twice.dim == 3
        assert gln.gt_separation_check(rep) and not gln.gt_separation_check(twice)
