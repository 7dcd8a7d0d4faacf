import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import bcd_reference
import cli_reference
import exact_reference
from gtbases import branching, cli, gln, patterns, yangian
from gtbases.exact import SparseMat, commutator
from gtbases.liealg_bcd import build_bcd_irrep, orthogonal_chain, signed_realization


def _never(*args, **kwargs):
    raise AssertionError("called before the cap was checked")


def run_capture(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsing:
    def test_weights(self):
        assert cli.parse_weight("2,1,0") == (4, 2, 0)
        assert cli.parse_weight("-1/2,-1/2") == (-1, -1)
        assert cli.parse_weight("3/2") == (3,)
        with pytest.raises(cli.CliError):
            cli.parse_weight("1,,2")
        with pytest.raises(cli.CliError):
            cli.parse_weight("1/3")

    def test_format_round_trip(self):
        for text in ["2,1,0", "-1/2,-1/2", "0,-1"]:
            assert cli.format_weight(cli.parse_weight(text)) == text

    def test_algebra_tokens(self):
        assert cli.parse_algebra("gl", 3, "s3") == ("gl", 3)
        assert cli.parse_algebra("sp4", 2, "s3") == ("sp", 2)
        assert cli.parse_algebra("so5", 2, "s3") == ("so", 5)
        with pytest.raises(cli.CliError):
            cli.parse_algebra("so", 2, "s3")
        with pytest.raises(cli.CliError):
            cli.parse_algebra("so5", 3, "s3")


# The command-line grammar, drawn as token groups: positionals (algebra
# tokens and weights, negative and p/2 entries included), options with good
# and bad values, and flags.  Unknown options are never prefixes of real
# ones: argparse's abbreviations are left out of the draw.
_WEIGHTS = st.lists(st.integers(-4, 4).map(str) | st.integers(-4, 3).map(lambda p: "%d/2" % (2 * p + 1)),
                    min_size=1, max_size=4).map(",".join)
_POSITIONALS = st.sampled_from(["gl", "sp", "so5", "so7", "gl3", "zz", "", "-"]) | _WEIGHTS
_GOOD = {
    "--max-dim": st.sampled_from(["5", "600", "-5", "0"]),
    "--series": st.sampled_from(["gl", "so", "sp"]),
    "--json": st.sampled_from(["out.json", "a b.json", "-", ""]),
    "--convention": st.sampled_from(["s3", "s4"]),
    "--strings": st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1,
                          max_size=3).map(lambda pairs: ";".join("%d,%d" % p for p in pairs)),
    "--foo": st.nothing(),
}
_BAD = {"--max-dim": ["x", "1.5", "-1.5", ""], "--series": ["zz", "GL"], "--json": ["-o.json"],
        "--convention": ["s5", "S4", ""], "--strings": ["x"], "--foo": ["1", "x"]}
_FLAGS = st.sampled_from([["-h"], ["--help"], ["-x"], ["--verbose"], ["--help=x"]])
_VERBS = ["build", "verify", "dims", "branch", "patterns", "export", "yangian-demo"]
_FIELDS = ("verb", "algebra", "weight", "json", "convention", "series", "max_dim",
           "strings", "cmd")


@st.composite
def _option(draw, names, good):
    """--opt value or --opt=value; unless good, also a bad value or a bare
    --opt, whose value, if any, is the next token."""
    name = draw(st.sampled_from(names))
    if good:
        value = draw(_GOOD[name])
        return draw(st.sampled_from([[name, value], [name + "=" + value]]))
    value = draw(_GOOD[name] | st.sampled_from(_BAD[name]))
    return draw(st.sampled_from([[name, value], [name + "=" + value], [name]]))


@st.composite
def _argv(draw):
    """Half the draws are well formed: global options, a verb, and the
    verb's positionals and options in any order.  The others mix in bad
    values, bare options, unknown verbs and options, global options after
    the verb, missing and extra positionals, and -h."""
    good = draw(st.booleans())
    head = draw(st.lists(_option(["--max-dim", "--series"] + (not good) * ["--json", "--foo"],
                                 good), max_size=2))
    verb = draw(st.sampled_from(_VERBS if good else _VERBS + ["zz", None]))
    wanted = 0 if verb == "yangian-demo" else 2
    if good:
        npos = wanted
        names = ["--strings"] if verb == "yangian-demo" else ["--json", "--convention"]
    else:
        npos = draw(st.sampled_from([wanted] * 4 + [0, 1, 2, 3]))
        names = sorted(_GOOD)
    groups = [[draw(_POSITIONALS)] for _ in range(npos)]
    groups += draw(st.lists(_option(names, good), max_size=3))
    if not good and draw(st.integers(0, 2)) == 0:
        groups.append(draw(_FLAGS))
    groups = draw(st.permutations(groups))
    return ([t for g in head for t in g] + ([verb] if verb else [])
            + [t for g in groups for t in g])


def _for_reference(argv):
    """argv with a --strings value that starts with "-" and holds ";" joined
    to it by "=".  argparse reads such a token as an option, as neither its
    negative-number rule nor the weight shim covers it; gt reads it as the
    value (test_strings_value_may_start_with_a_minus)."""
    out = []
    for token in argv:
        if out and out[-1] == "--strings" and token[:1] == "-" and ";" in token:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _unshim(value):
    """A reference value without the space the weight shim put before it."""
    if isinstance(value, str) and value[:1] == " " and cli_reference._WEIGHTLIKE.match(value[1:]):
        return value[1:]
    return value


def _reference(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli_reference.parse(argv)


def _parse(argv):
    try:
        return cli.parse_args(cli.make_parser(), argv)
    except cli.CliError as exc:
        return exc.code


def _assert_parses_as_reference(argv):
    ref, new = _reference(_for_reference(argv)), _parse(argv)
    if isinstance(ref, int):
        assert new == ref, argv
    else:
        assert not isinstance(new, int), argv
        for name in _FIELDS:
            assert getattr(new, name, None) == _unshim(getattr(ref, name, None)), (argv, name)


class TestParser:
    """cli.parse_args against the argparse parser it replaced
    (tests/cli_reference.py)."""

    @settings(max_examples=500, deadline=None)
    @given(_argv())
    def test_same_parse_or_exit_code_as_argparse(self, argv):
        _assert_parses_as_reference(argv)

    @pytest.mark.parametrize("argv", [
        ["dims", "gl", "2,1,0"], ["dims", "so5", "-1/2,-1/2"],
        ["dims", "so5", "1,0", "--convention", "s4"], ["branch", "sp", "0,-1"],
        ["patterns", "gl", "2,1,0"], ["build", "sp", "0,-1", "--json", "out.json"],
        ["verify", "so5", "1,0", "--convention", "s4"], ["yangian-demo", "--strings", "1,0;3,2"],
        ["yangian-demo"], ["--max-dim", "5", "build", "gl", "2,1,0"],
        ["--series", "sp", "dims", "--convention=s4", "sp", "-1,-1,-3"],
        ["--max-dim=-5", "dims", "gl", "-1,-3"], ["dims", "gl", "--", "-1,-3"],
        ["dims", "--", "gl", "1,0"], ["dims", "gl", "1,0", "--"], ["dims", "gl", "-.5"],
        [], ["-h"], ["dims", "-h"], ["yangian-demo", "--help"], ["zz", "-h"],
        ["--foo", "-h"], ["dims", "gl", "1,0", "extra", "-h"], ["dims", "--help=x", "-h"],
        ["dims", "gl"], ["dims", "gl", "1,0", "--max-dim", "5"], ["--max-dim", "x", "-h"],
        ["dims", "gl", "1,0", "--json"], ["dims", "gl", "1,0", "--json", "-o"],
        ["--json=a b", "dims", "gl", "1,0", "-h"], ["dims", "gl", "1,0", "--json=a b", "-h"],
        ["dims", "gl", "1,0", "--json", "-a b"], ["dims", "--help=a b", "gl", "1,0"],
    ])
    def test_examples(self, argv):
        _assert_parses_as_reference(argv)

    @pytest.mark.parametrize("argv", [
        ["dims", "so5", "1,0", "--conv", "s4"], ["dims", "so5", "1,0", "--conv=s4"],
        ["--max", "5", "dims", "gl", "1,0"], ["--ser", "gl", "dims", "gl", "1,0"],
        ["export", "gl", "1,0", "--js", "out.json"], ["yangian-demo", "--str", "1,0"],
        ["dims", "--he"],
    ])
    def test_abbreviations_are_rejected(self, capsys, argv):
        """argparse took a unique prefix of an option for the option; gt
        takes only the exact name."""
        ref = _reference(argv)
        assert ref == 0 or not isinstance(ref, int)
        assert run_capture(capsys, argv)[:2] == (2, "")

    def test_strings_value_may_start_with_a_minus(self):
        argv = ["yangian-demo", "--strings", "-1,0;3,2"]
        assert _reference(argv) == 2
        assert _parse(argv).strings == "-1,0;3,2"

    @pytest.mark.parametrize("argv,usage", [
        (["-h"], "usage: gt [-h]"), (["--help"], "usage: gt [-h]"),
        (["dims", "gl", "-h"], "usage: gt dims [-h]"),
        (["yangian-demo", "--help"], "usage: gt yangian-demo [-h]"),
    ])
    def test_help_goes_to_stdout(self, capsys, argv, usage):
        code, out, err = run_capture(capsys, argv)
        assert code == 0 and out.startswith(usage + " ") and err == ""

    @pytest.mark.parametrize("argv,usage", [
        ([], "usage: gt [-h]"), (["zz"], "usage: gt [-h]"),
        (["--max-dim", "x", "dims", "gl", "1,0"], "usage: gt [-h]"),
        (["dims", "gl"], "usage: gt dims [-h]"),
        (["dims", "gl", "1,0", "--convention", "s5"], "usage: gt dims [-h]"),
        (["yangian-demo", "extra"], "usage: gt yangian-demo [-h]"),
    ])
    def test_usage_errors_go_to_stderr(self, capsys, argv, usage):
        code, out, err = run_capture(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith(usage + " ") and "\ngt: error: " in err


class TestDims:
    @pytest.mark.parametrize("argv,want", [
        (["dims", "gl", "2,1,0"], "8"),
        (["dims", "gl", "0,0,0"], "1"),
        (["dims", "sp", "0,-1"], "4"),
        (["dims", "so5", "-1/2,-1/2"], "4"),
        (["dims", "so5", "1,0", "--convention", "s4"], "5"),
        (["dims", "so4", "0,-1"], "4"),
    ])
    def test_values(self, capsys, argv, want):
        code, out, _ = run_capture(capsys, argv)
        assert code == 0 and out.strip() == want

    def test_deterministic_output(self, capsys):
        a = run_capture(capsys, ["patterns", "gl", "2,1,0"])
        b = run_capture(capsys, ["patterns", "gl", "2,1,0"])
        assert a == b


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, _, err = run_capture(capsys, ["dims", "zz", "1,0"])
        assert code == 2 and "unknown algebra" in err

    def test_non_dominant_is_2(self, capsys):
        code, _, _ = run_capture(capsys, ["dims", "gl", "0,1"])
        assert code == 2

    @pytest.mark.parametrize("algebra,weight,want", [
        ("sp3", "-1", "sp3: the matrix size of sp must be even and at least 2"),
        ("so1", "0", "so1: the matrix size of so must be at least 2"),
        ("gl0", "1", "gl0: the matrix size of gl must be at least 1"),
    ])
    def test_size_without_rank_is_2(self, capsys, algebra, weight, want):
        code, out, err = run_capture(capsys, ["dims", algebra, weight])
        assert code == 2 and out == ""
        assert want in err and "weight entries" not in err

    def test_usage_error_is_2(self, capsys):
        assert cli.run(["dims"]) == 2

    def test_desk_scale_refusal_is_3(self, capsys):
        code, _, err = run_capture(capsys, ["build", "sp", "0,0,0,0"])
        assert code == 3 and "cap" in err

    def test_gl_honours_max_dim(self, capsys):
        code, out, err = run_capture(capsys, ["--max-dim", "5", "build", "gl", "2,1,0"])
        assert code == 3 and out == ""
        assert "dimension 8" in err and "cap 5" in err
        code, out, _ = run_capture(capsys, ["--max-dim", "8", "build", "gl", "2,1,0"])
        assert code == 0 and "dim: 8" in out

    @pytest.mark.parametrize("verb", ["build", "verify", "export"])
    @pytest.mark.parametrize("weight", ["1,0,0,0,0", "0,1,0,0,0", "2,1,0,0,0,0"])
    def test_gl_rank_cap_is_4(self, capsys, tmp_path, monkeypatch, verb, weight):
        # refused before any pattern is enumerated, non-dominant weights too
        monkeypatch.setattr(cli.patterns, "enumerate_patterns", _never)
        monkeypatch.setattr(cli.gln, "build_irrep", _never)
        argv = [verb, "gl", weight]
        if verb == "export":
            argv += ["--json", str(tmp_path / "out.json")]
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (3, "")
        assert "rank %d exceeds the cap 4" % len(weight.split(",")) in err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("argv,dim", [
        (["verify", "sp", "-4,-6,-8"], 130416),
        (["verify", "so7", "4,3,2", "--convention", "s4"], 9009),
        (["build", "so7", "-1,-2,-3"], 1617),
        (["--max-dim", "13", "build", "sp", "0,-1,-1"], 14),
        (["--max-dim", "5", "build", "so6", "1,0,0", "--convention", "s4"], 6)])
    def test_bcd_dimension_cap_before_construction(self, capsys, monkeypatch, argv, dim):
        monkeypatch.setattr(signed_realization, "build_module", _never)
        monkeypatch.setattr(orthogonal_chain, "build_module", _never)
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (3, "")
        cap = int(argv[1]) if argv[0] == "--max-dim" else 600
        assert "module of dimension %d exceeds the cap %d" % (dim, cap) in err

    @pytest.mark.parametrize("argv", [
        ["--max-dim", "14", "build", "sp", "0,-1,-1"],
        ["--max-dim", "6", "build", "so6", "1,0,0", "--convention", "s4"]])
    def test_bcd_at_the_cap_builds(self, capsys, argv):
        code, out, _ = run_capture(capsys, argv)
        assert code == 0 and "dim: %s" % argv[1] in out

    def test_verify_all_pass_exit_0(self, capsys):
        code, out, _ = run_capture(capsys, ["verify", "gl", "1,0"])
        assert code == 0
        assert "FAIL" not in out and "PASS" in out

    def test_broken_kappa_walk_reads_fail(self, capsys, monkeypatch):
        """With C_1(u) scaled by 0 the kappa vectors of the patterns below
        the top vanish: kappa-basis reads FAIL, the checks after it still
        run, and the exit code is 1."""
        build = gln.build_irrep

        def broken(n, lam):
            rep = build(n, lam)
            rep._minors[((2,), (1,))] = gln.drinfeld_poly(rep, 1, "C").scale(0)
            return rep
        monkeypatch.setattr(gln, "build_irrep", broken)
        code, out, err = run_capture(capsys, ["verify", "gl", "2,1,0"])
        lines = out.splitlines()
        assert [x.split(":")[0] for x in lines] == [
            name for name, _ in cli._gl_verify_checks(gln.build_irrep(3, (4, 2, 0)))]
        assert lines[-5:] == ["tau-equals-z: FAIL", "drinfeld-actions: FAIL",
                              "kappa-basis: FAIL", "gt-separation: PASS",
                              "characteristic-identity: PASS"]
        assert code == 1 and err == ""


class TestBranchVerb:
    def test_gl(self, capsys):
        code, out, _ = run_capture(capsys, ["branch", "gl", "2,1,0"])
        assert code == 0
        assert out.splitlines() == ["2,1  1", "2,0  1", "1,1  1", "1,0  1"]

    def test_sp(self, capsys):
        code, out, _ = run_capture(capsys, ["branch", "sp", "0,-1"])
        assert code == 0
        assert out.splitlines() == ["0  2", "-1  1"]


class TestExportRoundTrip:
    def test_gl(self, tmp_path, capsys):
        path = tmp_path / "gl.json"
        code, _, _ = run_capture(capsys, ["export", "gl", "2,1,0", "--json", str(path)])
        assert code == 0
        data, mats = cli.load_export(str(path))
        assert data["dim"] == 8
        from gtbases import gln
        rep = gln.build_irrep(3, (4, 2, 0))
        for (i, j) in [(1, 2), (2, 3), (2, 1), (3, 2), (1, 1), (2, 2), (3, 3)]:
            assert mats["E_%d_%d" % (i, j)] == rep.gen(i, j)

    def test_sp(self, tmp_path, capsys):
        path = tmp_path / "sp.json"
        code, _, _ = run_capture(capsys, ["export", "sp", "0,-1", "--json", str(path)])
        assert code == 0
        data, mats = cli.load_export(str(path))
        assert data["algebra"] == "sp" and data["dim"] == 4
        # reconstructed matrices satisfy the right sl2 bracket
        h = commutator(mats["F_1_2"], mats["F_2_1"])
        assert h == mats["F_1_1"] - mats["F_2_2"]

    def test_byte_identical_exports(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run_capture(capsys, ["export", "gl", "2,0", "--json", str(p1)])
        run_capture(capsys, ["export", "gl", "2,0", "--json", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_json_is_2(self, capsys):
        code, _, _ = run_capture(capsys, ["export", "gl", "1,0"])
        assert code == 2


class TestYangianDemo:
    def test_default(self, capsys):
        code, out, _ = run_capture(capsys, ["yangian-demo"])
        assert code == 0 and "FAIL" not in out

    def test_custom_strings(self, capsys):
        code, out, _ = run_capture(capsys, ["yangian-demo", "--strings", "1/2,-1/2;5/2,3/2"])
        assert code == 0 and "dim: 4" in out

    def test_bad_strings(self, capsys):
        code, _, _ = run_capture(capsys, ["yangian-demo", "--strings", "0,1"])
        assert code == 3

    @pytest.mark.parametrize("check,line", [
        ("rtt_check", "rtt-relation: FAIL"),
        ("quantum_det_scalar_check", "quantum-determinant-scalar: FAIL"),
        ("eta_action_checks", "gt-basis-actions: FAIL")])
    def test_a_failed_check_exits_1(self, capsys, monkeypatch, check, line):
        """Exit 1, after every check line, when a check reads FAIL."""
        monkeypatch.setattr(yangian, check, lambda *args: False)
        code, out, _ = run_capture(capsys, ["yangian-demo", "--strings", "1,0;3,2"])
        assert code == 1 and line in out.splitlines()
        assert [x.split(":")[0] for x in out.splitlines()][-3:] == [
            "rtt-relation", "quantum-determinant-scalar", "gt-basis-actions"]

    def test_trivial_factor_skips_the_eta_walk(self, capsys):
        """On L(0,0) x L(1,0) the strings are disjoint and the module is
        irreducible, but the trivial factor makes T(u) = u T'(u) and the
        eta walk's one point is u = 0, so eta_basis refuses it: there is no
        gt-basis-actions line, every other line is as before, and the exit
        is 0."""
        code, out, err = run_capture(capsys, ["yangian-demo", "--strings", "0,0;1,0"])
        assert out.splitlines() == ["factors: (0,0); (1,0)", "dim: 2", "irreducible(Y2): True",
                                    "irreducible(Y-): True", "rtt-relation: PASS",
                                    "quantum-determinant-scalar: PASS"]
        assert code == 0 and err == ""

    @pytest.mark.parametrize("strings", ["1,0;3,2", "1,0;3,2;5,4", "0,-1;2,1;4,3", "1,0;1,-1"])
    def test_passing_modules_exit_0(self, capsys, strings):
        """The bench demo (1,0;3,2;5,4 and its shift by -1) among them."""
        code, out, _ = run_capture(capsys, ["yangian-demo", "--strings", strings])
        assert code == 0 and "FAIL" not in out


GRID_WEIGHTS = {"gl": ["1,0"], "sp": ["0,-1", "1,0"], "so4": ["0,-1", "1,0"],
                "so5": ["-1/2,-1/2", "1,0"]}


class TestVerbGrid:
    @pytest.mark.parametrize("convention", ["s3", "s4"])
    @pytest.mark.parametrize("algebra", sorted(GRID_WEIGHTS))
    @pytest.mark.parametrize("verb", ["build", "verify", "export", "dims", "patterns", "branch"])
    def test_ends_in_an_exit_code(self, tmp_path, capsys, verb, algebra, convention):
        for weight in GRID_WEIGHTS[algebra]:
            argv = [verb, algebra, weight, "--convention", convention]
            if verb == "export":
                argv += ["--json", str(tmp_path / "out.json")]
            assert run_capture(capsys, argv)[0] in (0, 1, 2, 3), argv

    def test_verify_sp_s4_runs_the_s3_checks(self, capsys):
        s3 = run_capture(capsys, ["verify", "sp", "0,-1"])
        s4 = run_capture(capsys, ["verify", "sp", "0,-1", "--convention", "s4"])
        assert s4 == s3 and s3[0] == 0 and "fnn-action: PASS" in s3[1]


class TestBranchValidatesWeight:
    @pytest.mark.parametrize("argv", [
        ["branch", "sp", "1,0"], ["branch", "so5", "1,0"], ["branch", "so4", "1,0"],
        ["branch", "gl", "0,1"]])
    def test_non_dominant_is_2(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 2 and out == ""
        dims = run_capture(capsys, ["dims"] + argv[1:])
        assert dims[0] == 2 and err == dims[2]


def test_dims_sp_s4_follows_the_s3_rule(capsys):
    s3 = run_capture(capsys, ["dims", "sp", "0,-1"])
    s4 = run_capture(capsys, ["dims", "sp", "0,-1", "--convention", "s4"])
    assert s4 == s3 == (0, "4\n", "")


# sha256 of the gt-export/1 bytes and of the verify report, recorded before
# SparseMat moved to integer numerators; any change breaks the contract.
EXPORT_SHA256 = {
    ("gl", "3,1,0"): "8d26f37044f098fee216ec93fdfc10724b6879a12da7e0b563b2bc9fa20e8a3c",
    ("sp", "-1,-2"): "2ea5e17d4e3091e2cebd15f0d2b1f1267f68ef920e5f97d83cfea089033d66f1",
    ("so5", "1,0", "--convention", "s4"):
        "8f76d2582d32479b9dcd43c8cec848ea355231b3d1b33dbc3743fd5f4fc8eef7",
    # recorded while json.dump still wrote the exports
    ("so7", "-1/2,-1/2,-3/2"): "24af67fc5c2403b1dd9af3c501bbb02ba71e1d10c5abba0d855df2d5088bdcb2",
    ("so6", "0,0,-1"): "f97d846c0c5b59c859c1264b70a391012e27aafc0c56b8774b6f88407b0d9b36",
    ("sp", "-1,-1,-3"): "7f011ad325ae8cc4d05c5d55e5bb0c5998c5a57d16286c3e4b43f89336d85b7b",
}
VERIFY_GL_3210_SHA256 = "3fdfd89a8358659495671ea12fce4b52fac4a357be3781d2e063150a7e11bea2"
# recorded while the BCD commutation check compared all pairs of generators
VERIFY_SP_001_SHA256 = "cad3fadfab590cc1168f0dd089fce80b0dd6760ade58fa3886039abf909cbe4b"
# the reports of weights with repeated entries, whose characteristic identity
# drops the killed factors; recorded before that check became one product.
# An all-PASS report lists the same check names, so the digests coincide.
VERIFY_GL_REPEATED_SHA256 = {
    "3,1,0,0": "3fdfd89a8358659495671ea12fce4b52fac4a357be3781d2e063150a7e11bea2",
    "2,2,0,0": "3fdfd89a8358659495671ea12fce4b52fac4a357be3781d2e063150a7e11bea2",
}
# the o_N/sp_2n reports of cases that run the orthogonal-basis, gt-basis and
# fnn-action checks, recorded while those checks looped over dense vectors
VERIFY_BCD_SHA256 = {
    ("so7", "2,1,0", "--convention", "s4"):
        "e02659772465732818844b46a45d4ddd21ce89d7ac13ab15f8bf59f9f185596e",
    ("sp", "-1,-2,-2"): "cad3fadfab590cc1168f0dd089fce80b0dd6760ade58fa3886039abf909cbe4b",
    ("so7", "-1/2,-3/2,-3/2"): "4eb546a25838e8df7a330e463fcadb2e5e7c2d5ab7e5ef522e6001707e2565e2",
    ("so6", "-1,-1,-2"): "4eb546a25838e8df7a330e463fcadb2e5e7c2d5ab7e5ef522e6001707e2565e2",
}

# sha256 of the stdout of `gt patterns`, one JSON object a line, recorded
# while each line was encoded by its own json.dumps call; the last five
# while it was encoded by one JSONEncoder from the pattern objects
PATTERNS_SHA256 = {
    ("so7", "-1,-3,-3"): "3d4d3cd644f615cf23572d22834fe73ca7a804db74d3749a5e44adf5f56ff2d2",
    ("sp", "-1,-1,-3"): "9f6093968fe00c49b4bedc9acc9887d5347fb0d72880be61da701d1ae1efb301",
    ("gl", "4,3,1,0"): "33d32e5ca960b7749023e3a4ab49fda0d7fe17f90dd6ea63f8a6e6fea6592e2c",
    ("so6", "0,-2,-2"): "d965fd2bfe95fcc932e28d8fe5794552981eb87263ca7ccc7c2379959fc3d66d",
    ("so7", "-1/2,-3/2,-5/2"): "8685ed97000c2283cfdd7973fc8c30e0c4bc25724fc75c959ba9b7836997d72f",
    ("so9", "2,1,1,0", "--convention", "s4"):
        "88ff2dba9bf19c1997523bd3c10c90ff16f16f58c7e0605b192f75df18f6e622",
    ("so8", "2,1,1,-1", "--convention", "s4"):
        "14353d425008e33ea089ae25629386a40c0a769cc8e1069fccf3419596a5e713",
}


class TestContractPins:
    @pytest.mark.parametrize("args", sorted(EXPORT_SHA256))
    def test_export_bytes(self, tmp_path, capsys, args):
        path = tmp_path / "out.json"
        assert run_capture(capsys, ["export", *args, "--json", str(path)])[0] == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPORT_SHA256[args]

    def test_verify_report(self, capsys):
        code, out, _ = run_capture(capsys, ["verify", "gl", "3,2,1,0"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_GL_3210_SHA256

    def test_verify_report_sp(self, capsys):
        code, out, _ = run_capture(capsys, ["verify", "sp", "0,0,-1"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SP_001_SHA256

    @pytest.mark.parametrize("args", sorted(VERIFY_BCD_SHA256))
    def test_verify_report_bcd(self, capsys, args):
        code, out, _ = run_capture(capsys, ["verify", *args])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_BCD_SHA256[args]

    @pytest.mark.parametrize("args", sorted(PATTERNS_SHA256))
    def test_patterns_stdout(self, capsys, args):
        code, out, _ = run_capture(capsys, ["patterns", *args])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PATTERNS_SHA256[args]

    @pytest.mark.parametrize("weight", sorted(VERIFY_GL_REPEATED_SHA256))
    def test_verify_report_repeated_weights(self, capsys, weight):
        code, out, _ = run_capture(capsys, ["verify", "gl", weight])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_GL_REPEATED_SHA256[weight]


def _gt_args(family, lam):
    """The algebra, weight and options that name family's patterns of top
    row lam (doubled, n >= 1) on gt's command line."""
    n = len(lam)
    algebra = {"A": "gl", "C3": "sp"}.get(family, "so%d" % (2 * n + (family[0] == "B")))
    return [algebra, cli.format_weight(lam)] + (["--convention", "s4"] if family[1:] == "4" else [])


@st.composite
def _family_weights(draw):
    """(family, lam): a dominant doubled weight lam of family, n = 1..3,
    half-integer (odd doubled entries) for about half of the families
    other than C3."""
    family = draw(st.sampled_from(patterns.FAMILIES))
    odd = 0 if family == "C3" else draw(st.integers(0, 1))
    lam = sorted((2 * x + odd for x in draw(st.lists(st.integers(-1, 1), min_size=1,
                                                     max_size=3))), reverse=True)
    # an even shift keeps the parity: the s3 families need entries <= 0, B4
    # and D4 entries >= 0
    if family in ("B3", "C3", "D3") and lam[0] > 0:
        lam = [x - lam[0] - lam[0] % 2 for x in lam]
    if family in ("B4", "D4") and lam[-1] < 0:
        lam = [x - lam[-1] + lam[-1] % 2 for x in lam]
    return family, tuple(lam)


def _stdout(call, *args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert call(*args) == 0
    return buf.getvalue()


class TestPatternText:
    """`gt patterns` writes its lines from the plan walk's rows, and
    write_export memoizes the text of each list of ints; both write what
    the json encoders write for patterns.to_json."""

    @settings(max_examples=120, deadline=None)
    @given(_family_weights())
    def test_lines_and_export_text_are_the_json_encodings(self, family_lam):
        family, lam = family_lam
        argv = ["patterns"] + _gt_args(family, lam)
        out = _stdout(cli.run, argv)
        pats = [patterns.to_json(p) for p in patterns.enumerate_patterns(family, lam)]
        encode = json.JSONEncoder(sort_keys=True).encode
        assert out == "".join(encode(d) + "\n" for d in pats)
        assert out == _stdout(cli_reference.cmd_patterns, cli.parse_args(cli.make_parser(), argv))
        payload = {"patterns": pats, "lambda": list(lam)}
        assert _write_export(payload) == _json_dump(payload)
        fields = patterns.PatternFields(family, list(patterns.pattern_fields(family, lam)))
        for tree, want in [({"patterns": fields, "lambda": list(lam)}, payload),
                           ([[fields]], [[pats]]), ({"a": {"b": fields}}, {"a": {"b": pats}})]:
            assert _write_export(tree) == _json_dump(want)

    @pytest.mark.parametrize("family,lam", [
        ("A", (4, 2, 0)), ("B3", (-1, -3)), ("C3", (0, -2, -2)), ("D3", (0, -2, -2)),
        ("B4", (4, 2)), ("D4", (2, 2, -2))])
    def test_no_pattern_object_is_made(self, monkeypatch, family, lam):
        argv = ["patterns"] + _gt_args(family, lam)
        want = _stdout(cli_reference.cmd_patterns, cli.parse_args(cli.make_parser(), argv))
        monkeypatch.setattr(patterns, "enumerate_patterns", _never)
        monkeypatch.setattr(patterns, "_unchecked", _never)
        for cls in (patterns.GTPatternA, patterns.PatternB3, patterns._PairPattern):
            monkeypatch.setattr(cls, "__post_init__", _never)
        assert _stdout(cli.run, argv) == want
        with pytest.raises(AssertionError):
            patterns.enumerate_patterns(family, lam)

    @pytest.mark.parametrize("argv", [
        ["sp", "-1,-1,-3"], ["so7", "2,1,0", "--convention", "s4"], ["so6", "0,-1,-1"],
        ["so5", "-1/2,-3/2"], ["so2", "-1"], ["so4", "1,-1", "--convention", "s4"]])
    def test_export_makes_no_pattern_object(self, monkeypatch, tmp_path, argv):
        """The patterns field of an o/sp export is written from the plan
        walk's rows, with the bytes of json.dump of the to_json dicts."""
        args = cli.parse_args(cli.make_parser(), ["export"] + argv)
        lam = cli.parse_weight(args.weight)
        kind, data = cli.parse_algebra(args.algebra, len(lam), args.convention, args.series)
        fam = cli._family(kind, data, args.convention)
        want = [patterns.to_json(p) for p in patterns.enumerate_patterns(fam, lam)]
        monkeypatch.setattr(patterns, "enumerate_patterns", _never)
        monkeypatch.setattr(patterns, "_unchecked", _never)
        for cls in (patterns.GTPatternA, patterns.PatternB3, patterns._PairPattern):
            monkeypatch.setattr(cls, "__post_init__", _never)
        path = tmp_path / "out.json"
        assert _stdout(cli.run, ["export"] + argv + ["--json", str(path)])
        text = path.read_text()
        assert json.loads(text)["patterns"] == want
        monkeypatch.undo()
        tree = json.loads(text)
        assert text == _json_dump(tree)


class TestRankOneD:
    """o_2 (D, n = 1) has no simple root: its s3 module is one-dimensional,
    with F_11 acting by lambda_1."""

    @pytest.mark.parametrize("weight", ["0", "-1"])
    def test_verify(self, capsys, weight):
        code, out, err = run_capture(capsys, ["verify", "so2", weight])
        assert (code, err) == (0, "")
        assert out.splitlines() == ["dimension-oracle: PASS", "commutation: PASS",
                                    "gt-basis: PASS", "branching-consistency: PASS"]

    @pytest.mark.parametrize("weight", ["0", "-1"])
    def test_export(self, tmp_path, capsys, weight):
        path = tmp_path / "so2.json"
        code, out, err = run_capture(capsys, ["export", "so2", weight, "--json", str(path)])
        assert (code, err) == (0, "") and "dim: 1" in out
        data, mats = cli.load_export(str(path))
        assert (data["algebra"], data["dim"]) == ("so", 1)
        lam = int(weight)
        want = {} if lam == 0 else {"F_1_1": SparseMat(1, 1, {(0, 0): lam}),
                                    "F_-1_-1": SparseMat(1, 1, {(0, 0): -lam})}
        assert mats == want


# JSON trees of the types gt-export/1 is made of.  The strings include
# quotes, backslashes, control and non-ASCII characters (a non-ASCII digit
# among them) and "p/q" look-alikes; the ints go past 2**64.
_INTS = st.one_of(st.integers(-300, 300), st.integers(2 ** 64, 2 ** 70),
                  st.integers(-2 ** 70, -2 ** 64))
_RATIONALS = st.from_regex(r"-?[0-9]{1,4}/[0-9]{1,4}", fullmatch=True)
_STRINGS = st.one_of(
    st.text(max_size=8), _RATIONALS,
    st.sampled_from(["1/2x", "x1/2", "1/2\n", "-/2", "1//2", "+1/2", "1/-2", '"1/2"',
                     "\\", "\x00\x1f\x7f", "\u00e9/1", "\u0663/4", "\U0001f600"]))
_SCALARS = st.one_of(_INTS, st.booleans(), st.none(), _STRINGS)
_ENTRIES = st.lists(st.tuples(_INTS, _INTS, _RATIONALS).map(list), max_size=4)
_TREES = st.recursive(
    st.one_of(_SCALARS, _ENTRIES),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        # entry lists mixed with other lists and with non-entry triples
        st.lists(st.one_of(_ENTRIES, kids, st.lists(_SCALARS, min_size=3, max_size=3)),
                 max_size=4),
        st.dictionaries(st.text(max_size=5), kids, max_size=4)),
    max_leaves=24)


# SparseMats as num / den: the zero matrix, den == 1, negative and big
# numerators and denominators
_MATS = st.builds(
    lambda shape, num, den: SparseMat.from_num(
        *shape, {k: v for k, v in num.items() if v and k[0] < shape[0] and k[1] < shape[1]},
        den),
    st.tuples(st.integers(1, 4), st.integers(1, 4)),
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), _INTS, max_size=6),
    st.one_of(st.just(1), st.integers(1, 12), st.integers(2 ** 64, 2 ** 66)))
_MAT_TREES = st.recursive(
    st.one_of(_SCALARS, _MATS),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.dictionaries(st.text(max_size=5), kids, max_size=4)),
    max_leaves=12)


def _entry_lists(tree):
    """tree with each SparseMat replaced by its entry_strings list."""
    if type(tree) is SparseMat:
        return exact_reference.entry_strings(tree)
    if type(tree) is dict:
        return {k: _entry_lists(v) for k, v in tree.items()}
    if type(tree) is list:
        return [_entry_lists(x) for x in tree]
    return tree


def _json_dump(tree):
    fh = io.StringIO()
    json.dump(tree, fh, sort_keys=True, indent=1)
    return fh.getvalue()


def _write_export(tree):
    fh = io.StringIO()
    cli.write_export(tree, fh)
    return fh.getvalue()


class TestWriteExport:
    @given(_TREES)
    def test_same_bytes_as_json_dump(self, tree):
        assert _write_export(tree) == _json_dump(tree)

    @given(st.dictionaries(st.text(max_size=5), _TREES, max_size=4),
           st.dictionaries(st.text(max_size=5), _ENTRIES, max_size=4))
    def test_export_shaped_payloads(self, top, gens):
        payload = dict(top, generators=gens)
        assert _write_export(payload) == _json_dump(payload)

    @settings(max_examples=150, deadline=None)
    @given(_MAT_TREES)
    def test_matrices_as_their_entry_lists(self, tree):
        assert _write_export(tree) == _json_dump(_entry_lists(tree))

    @settings(max_examples=150, deadline=None)
    @given(_MATS, st.lists(st.one_of(st.text(max_size=3), st.none()), max_size=3))
    def test_a_matrix_at_each_depth(self, mat, path):
        """A matrix wrapped in 0 to 3 dicts (a str key) or lists (None)."""
        tree = mat
        for key in reversed(path):
            tree = [tree] if key is None else {key: tree}
        assert _write_export(tree) == _json_dump(_entry_lists(tree))

    @pytest.mark.parametrize("mat", [
        SparseMat.zero(2, 3), SparseMat.identity(2), SparseMat(1, 2, {(0, 1): -7}),
        SparseMat(2, 2, {(1, 0): Fraction(-3, 4), (0, 1): Fraction(2 ** 70, 3)}),
        SparseMat.from_num(3, 1, {(2, 0): -2 ** 66, (0, 0): 6}, 2 ** 65)])
    def test_matrix_leaves(self, mat):
        tree = {"generators": {"F": mat, "G": [mat]}, "gram": mat}
        assert _write_export(tree) == _json_dump(_entry_lists(tree))

    @pytest.mark.parametrize("tree", [{}, [], {"a": {}}, {"a": []}, {"a": {"b": []}},
                                      [[]], [[0, 1, "1/2"], []]])
    def test_empty_containers(self, tree):
        assert _write_export(tree) == _json_dump(tree)

    @pytest.mark.parametrize("tree", [
        1.5, {"a": 0.5}, {"g": {"F": [[0, 0, 0.5]]}}, {"g": {"F": [[0, 1, 2.0]]}},
        [0, 1, 2.0], (0, 1), {"a": (0, 1)}, {"a": {1, 2}}, Fraction(1, 2),
        {"a": [Fraction(1, 2)]}, {1: "x"}, {"a": {None: 0}}, {"a": (SparseMat.identity(1),)},
        {"a": [SparseMat.identity(1).entries]}])
    def test_other_types_raise(self, tree):
        with pytest.raises(TypeError):
            cli.write_export(tree, io.StringIO())


# s3 modules of every series with n <= 3: sp_2, half-integer B, o_2 and o_4
COMMUTATION_CASES = [
    ("C", (-2,)), ("C", (0, -2)), ("C", (-2, -2)), ("C", (0, 0, -2)),
    ("B", (-1,)), ("B", (-2,)), ("B", (-1, -1)), ("B", (0, -2)), ("B", (-1, -1, -1)),
    ("D", (0,)), ("D", (-2,)), ("D", (0, -2)), ("D", (-2, -2)), ("D", (0, 0, -2)),
]


def _partner_split(rep):
    """(a basis generator, a generator checked against its partner)."""
    alg = rep.algebra
    first = alg.indices[0]
    return (first, first), (-first, -first)


def _corrupt(rep, key):
    alg = rep.algebra
    for i in alg.indices:
        for j in alg.indices:
            rep.F(i, j)
    # a projector onto the highest vector does not commute with the lowerings
    bump = SparseMat(rep.dim, rep.dim, {(0, 0): 1})
    rep.module._fmat[key] = rep.module._fmat[key] + bump


class TestBcdCommutation:
    @pytest.mark.parametrize("series,lam", COMMUTATION_CASES)
    def test_same_verdict_as_all_pairs(self, series, lam):
        rep = build_bcd_irrep(series, lam)
        assert cli.bcd_commutation_check(rep) is True
        assert bcd_reference.commutation_all_pairs(rep) is True

    @pytest.mark.parametrize("series,lam", [c for c in COMMUTATION_CASES if len(c[1]) > 1])
    @pytest.mark.parametrize("which", [0, 1])
    def test_corrupted_generator_fails_both(self, series, lam, which):
        rep = build_bcd_irrep(series, lam)
        _corrupt(rep, _partner_split(rep)[which])
        assert cli.bcd_commutation_check(rep) is False
        assert bcd_reference.commutation_all_pairs(rep) is False

    @pytest.mark.parametrize("key", [(2, -2), (-2, 2), (-1, 1)])
    def test_corrupted_self_partner_fails(self, key):
        """In C each F_{i,-i} and F_{-i,i} is its own partner, so the
        partner check cannot see a change in its cache; the comparison
        with a fresh realize does."""
        rep = build_bcd_irrep("C", (0, -2))
        rep.module._fmat[key] = rep.F(*key) + SparseMat(rep.dim, rep.dim, {(0, 0): 1})
        assert cli.bcd_commutation_check(rep) is bcd_reference.commutation_all_pairs(rep) is False

    def test_realizes_each_generator_once(self, monkeypatch):
        """On a fresh module the check realizes the Cartan and Chevalley
        generators, each once, when rep.F first reads it, and nothing
        else: no other generator and no bracket."""
        rep = build_bcd_irrep("C", (0, 0, -2))
        alg, real = rep.algebra, rep.module.realization
        calls = []
        realize = rep.module.realize

        def spy(m):
            calls.append(m)
            return realize(m)
        monkeypatch.setattr(rep.module, "realize", spy)
        assert cli.bcd_commutation_check(rep)
        want = ([alg.fdef(c, c) for c in real.cartan]
                + [alg.fdef(i, j) for i, j in real.simples]
                + [alg.fdef(j, i) for i, j in real.simples])
        assert len(want) == 9 and len(calls) == 9
        assert all(sum(m == w for m in calls) == 1 for w in want)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_corruptions(self, data):
        """Against the all-pairs reference on a small module with one entry
        changed: in a simple e_s or f_s of the module itself, before
        anything is realized (so every realized generator is built from
        it), or in a cached Cartan or non-Chevalley generator.  Both fail:
        given h_s and f_s, e_s is the only matrix with [h_s, e_s] = 2 e_s
        and [e_s, f_s] = h_s (and so for f_s), and a changed cached
        generator commutes with all the others only in dimension 1."""
        series = data.draw(st.sampled_from("BCD"), label="series")
        n = data.draw(st.integers(1, 3), label="n")
        lam = sorted(data.draw(st.lists(st.integers(-2, 0), min_size=n, max_size=n),
                               label="lam"), reverse=True)
        half = series == "B" and data.draw(st.booleans(), label="half-integer")
        lam = tuple(2 * x - half for x in lam)
        assume(series != "D" or n > 1)          # o_2 is abelian
        assume(1 < branching.weyl_dim_s3(series, lam) <= 20)
        rep = build_bcd_irrep(series, lam)
        alg, module = rep.algebra, rep.module
        r = data.draw(st.integers(0, rep.dim - 1), label="row")
        c = data.draw(st.integers(0, rep.dim - 1), label="col")
        bump = SparseMat(rep.dim, rep.dim, {(r, c): data.draw(
            st.sampled_from([1, -1, Fraction(1, 2)]), label="bump")})
        kind = data.draw(st.sampled_from(["chevalley", "cartan", "cached"]), label="kind")
        if kind == "chevalley":
            s = data.draw(st.integers(0, len(alg.simple_pairs()) - 1), label="simple")
            mats = data.draw(st.sampled_from([module._e, module._f]), label="e or f")
            mats[s] = mats[s] + bump
        else:
            if kind == "cartan":
                key = (data.draw(st.integers(1, n), label="c"),) * 2
            else:
                chevalley = {(i, i) for i in range(1, n + 1)}
                chevalley |= {p for i, j in alg.simple_pairs() for p in ((i, j), (j, i))}
                key = data.draw(st.sampled_from([(i, j) for i in alg.indices for j in alg.indices
                                                 if (i, j) not in chevalley]), label="key")
            module._fmat[key] = rep.F(*key) + bump
        assert cli.bcd_commutation_check(rep) is bcd_reference.commutation_all_pairs(rep) is False


def test_run_imports_no_argparse():
    """A gt call leaves argparse, gettext and locale unimported.  The check
    runs in a fresh interpreter, because pytest imports argparse itself."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = ("import sys; from gtbases import cli; rc = cli.run(['dims', 'gl', '2,1,0']); "
            "print(rc, [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout == "8\n0 []\n", proc.stderr


def test_runs_from_a_fresh_checkout():
    """`python -m gtbases.cli` with only PYTHONPATH=src: catches import-time
    breakage that the in-process tests, sharing one interpreter, can hide."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "gtbases.cli", "dims", "gl", "2,1,0"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout == "8\n"
