"""Command line front end.

    gt [--max-dim N] [--series gl|so|sp] VERB ...
    gt build|verify|dims|branch|patterns|export ALGEBRA WEIGHT
        [--json PATH] [--convention s3|s4]
    gt yangian-demo [--strings S]

The global options go before the verb and the verb's options anywhere
after it, as "--opt value" or "--opt=value", by their exact names.  The
algebra argument is "gl", "sp" or "soN" (orthogonal algebras carry their
matrix size, e.g. so5); weights are comma lists with half-integers written
as p/2, and a negative weight such as -1,-3 is a plain token.  -h or
--help prints the usage.  One table (make_parser) states the grammar and
one loop over argv (parse_args) reads it.  Exit codes: 0 success, 2
usage/parse errors, 3 refusals (size caps or theorem hypotheses), 1 failed
verification.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import branching, gln, patterns, yangian
from .exact import SparseMat, chevalley_serre_check, commutator
from .liealg_bcd import (DeskScaleError, OrthogonalChain, build_bcd_irrep,
                         fnn_action_check, gt_basis_checks, orth_basis_checks)
from .liealg_bcd.construction import refuse_beyond_caps

SCHEMA = "gt-export/1"
GL_MAX_RANK = 4     # the desk-scale rank cap of gl_n; o_N and sp_2n: construction.MAX_RANK


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def parse_weight(text):
    """Comma list of integers or halves ("p/2") into doubled integers."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise CliError("empty weight entry in %r" % text, 2)
        try:
            f = Fraction(tok)
        except (ValueError, ZeroDivisionError):
            raise CliError("cannot parse weight entry %r" % tok, 2)
        d = f * 2
        if d.denominator != 1:
            raise CliError("weight entries must be integers or halves: %r" % tok, 2)
        out.append(int(d))
    return tuple(out)


def format_weight(doubled):
    return ",".join(str(d // 2) if d % 2 == 0 else "%d/2" % d for d in doubled)


def parse_algebra(token, nentries, convention, series=None):
    """Returns (kind, data): ("gl", n) | ("sp", n) | ("so", N).

    A --series hint, when given, must agree with the positional token.
    """
    token = token.lower()
    if series and not token.startswith(series):
        raise CliError("--series %s contradicts algebra %r" % (series, token), 2)
    kind, size = token[:2], token[2:]
    if kind not in ("gl", "sp", "so") or size and not size.isdigit():
        raise CliError("unknown algebra %r" % token, 2)
    if not size:
        if kind == "so":
            raise CliError("orthogonal algebras need an explicit size, e.g. so5", 2)
        return (kind, nentries)
    # the least matrix size, whether it must be even, and the rank
    size = int(size)
    least, even, rank = (1, False, size) if kind == "gl" else (2, kind == "sp", size // 2)
    if size < least or even and size % 2:
        raise CliError("%s%d: the matrix size of %s must be %sat least %d"
                       % (kind, size, kind, "even and " * even, least), 2)
    if rank != nentries:
        raise CliError("%s%d needs %d weight entries" % (kind, size, rank), 2)
    return (kind, size if kind == "so" else rank)


def _target(args):
    """(lam, kind, data) of the weight and algebra arguments."""
    lam = parse_weight(args.weight)
    return (lam, *parse_algebra(args.algebra, len(lam), args.convention, args.series))


def _series_of(kind, size):
    return "C" if kind == "sp" else "B" if size % 2 else "D"


def _family(kind, size, convention):
    if kind == "gl":
        return "A"
    return _series_of(kind, size) + ("4" if kind == "so" and convention == "s4" else "3")


def _dimension(kind, data, lam, convention):
    fam = _family(kind, data, convention)     # its series, then its convention
    cnt = patterns.count_patterns(fam, lam)
    oracle = (branching.weyl_dim_s3 if fam[1:] == "3" else branching.weyl_dim)(fam[0], lam)
    if cnt != oracle:
        raise AssertionError("pattern count %d != Weyl dimension %d" % (cnt, oracle))
    return cnt


def cmd_dims(args):
    lam, kind, data = _target(args)
    print(_dimension(kind, data, lam, args.convention))
    return 0


def cmd_patterns(args):
    lam, kind, data = _target(args)
    fam = _family(kind, data, args.convention)
    # each line is json.JSONEncoder(sort_keys=True).encode(patterns.to_json(p));
    # text is that of a row of ints, or of an int of sigma
    text = _Memo(lambda x: repr(list(x)) if type(x) is tuple else repr(x)).__getitem__
    sys.stdout.writelines(patterns.json_texts(fam, patterns.pattern_fields(fam, lam), "", ", ",
                                              "}\n", lambda x: "[%s]" % ", ".join(map(text, x))))
    return 0


class _Memo(dict):
    """{key: make(key)}, each value made on the first lookup of its key."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def cmd_branch(args):
    lam, kind, data = _target(args)
    if kind != "gl" and args.convention == "s4":
        raise CliError("branch tables are emitted in the s3 convention", 2)
    patterns.check_dominant(_family(kind, data, args.convention), lam)
    if kind == "gl":
        for mu in branching.branch_A(lam):
            print("%s  1" % format_weight(mu))
        return 0
    series = _series_of(kind, data)
    for mu, spec in branching.branch_children_BCD(series, lam):
        print("%s  %d" % (format_weight(mu), spec.multiplicity))
    return 0


def _build(kind, data, lam, convention, max_dim):
    if kind == "gl":
        refuse_beyond_caps("gl_%d" % len(lam), len(lam), GL_MAX_RANK,
                           lambda: branching.weyl_dim("A", patterns.check_dominant("A", lam)),
                           max_dim)
        return gln.build_irrep(len(lam), lam)
    if kind == "sp":
        return build_bcd_irrep("C", lam, max_dim=max_dim)
    if convention == "s4":
        return OrthogonalChain(data, lam, max_dim=max_dim)
    return build_bcd_irrep(_series_of(kind, data), lam, max_dim=max_dim)


def export_dict(kind, data, lam, convention, rep):
    if kind == "gl":
        out = gln.export_json(rep)
    else:
        labels = rep.module.realization.labels
        gens = {}
        for i in labels:
            for j in labels:
                m = rep.module.F(i, j)
                if not m.is_zero():
                    gens["F_%d_%d" % (i, j)] = m
        fam = _family(kind, data, convention)
        out = {
            "algebra": "sp" if kind == "sp" else "so", "n": len(lam),
            "lambda": list(lam), "dim": rep.dim,
            "convention": "s4" if isinstance(rep, OrthogonalChain) else "s3",
            "patterns": patterns.PatternFields(fam, patterns.pattern_fields(fam, lam)),
            "generators": gens,
            "gram": rep.module.gram_matrix(),
        }
    out["schema"] = SCHEMA
    return out


_quote = json.encoder.encode_basestring_ascii
_SCALARS = {True: "true", False: "false", None: "null"}


def write_export(payload, fh):
    """Write payload to fh as the same bytes as json.dump(payload, fh,
    sort_keys=True, indent=1), with each ``SparseMat`` in it written as its
    [row, col, "p/q"] entries in position order, in lowest terms.

    Only dicts with str keys, lists, ints, bools, None, strs,
    ``SparseMat``s and ``patterns.PatternFields`` are accepted; anything
    else, floats included, raises TypeError.  The dicts down to depth 1
    are written item by item, so the document is never held whole; each
    value below them is formatted as one string, a ``SparseMat`` straight
    from its numerators; the texts that repeat are made once per call
    (_texts).
    """
    _write(payload, fh, 0, _Memo(_texts))


def _write(value, fh, depth, texts):
    if depth < 2 and type(value) is dict and value:
        ind = "\n" + " " * (depth + 1)
        fh.write("{")
        for t, key in enumerate(_sorted_keys(value)):
            fh.write(("," if t else "") + ind + _quote(key) + ": ")
            _write(value[key], fh, depth + 1, texts)
        fh.write("\n" + " " * depth + "}")
    else:
        fh.write(_encode(value, depth, texts))


def _encode(value, depth, texts):
    """value as write_export writes it, with its first line at the given
    depth; texts[depth] holds the texts made so far there (see _texts)."""
    t = type(value)
    if t is str:
        return _quote(value)
    if t is int:
        return int.__repr__(value)
    if t is bool or value is None:
        return _SCALARS[value]
    if t is SparseMat:
        num = value.num
        if not num:
            return "[]"
        _, rows, cols, fractions = texts[depth]
        text = fractions(value.den)
        return _block([rows[k[0]] + cols[k[1]] + text[num[k]] for k in sorted(num)],
                      depth, "[]")
    if t is patterns.PatternFields:
        return _pattern_list(value, depth, texts)
    if t is not dict and t is not list:
        raise TypeError("%s is not a gt-export/1 value" % t.__name__)
    if not value:
        return "{}" if t is dict else "[]"
    if t is dict:
        return _block([_quote(k) + ": " + _encode(value[k], depth + 1, texts)
                       for k in _sorted_keys(value)], depth, "{}")
    if all(type(x) is int for x in value):
        return texts[depth][0][tuple(value)]
    return _block([_encode(x, depth + 1, texts) for x in value], depth, "[]")


def _pattern_list(value, depth, texts):
    """A patterns.PatternFields as the list of the to_json dicts of its
    patterns, each filled in from the texts of its rows at their depth."""
    ind = "\n" + " " * (depth + 2)
    rows, ints = texts[depth + 3][0], texts[depth + 2][0]
    items = list(patterns.json_texts(
        value.family, value, ind, "," + ind, "\n" + " " * (depth + 1) + "}", lambda x: (
            "[]" if not x else ints[x] if type(x[0]) is int else
            _block([rows[r] for r in x], depth + 2, "[]"))))
    return _block(items, depth, "[]") if items else "[]"


def _sorted_keys(dct):
    for key in dct:
        if type(key) is not str:
            raise TypeError("keys must be str, not %s" % type(key).__name__)
    return sorted(dct)


def _block(items, depth, brackets):
    """The texts in the nonempty list items one per line between brackets
    ("[]" or "{}"), as json.dump with indent=1 writes a container whose
    first line is at depth.  The brackets are joined onto the first and the
    last item in place, so that no second copy of the body is made."""
    ind = "\n" + " " * (depth + 1)
    items[0] = brackets[0] + ind + items[0]
    items[-1] += "\n" + " " * depth + brackets[1]
    return ("," + ind).join(items)


def _texts(depth):
    """The texts of a value whose first line is at depth, each made on its
    first use: {ints: the text of a list of ints}, the pieces of a matrix
    entry [r, c, "p/q"] {r: the text up to the comma after r} and {c: c,
    its comma and the line break after it}, and for a denominator a new
    {numerator: the fraction in lowest terms as a JSON string and the
    entry's close}, one per matrix, so that one matrix's values are not
    held while writing the next."""
    inner = "\n" + " " * (depth + 2)
    close = "\n" + " " * (depth + 1) + "]"

    def fractions(den):
        def text(v):
            g = math.gcd(v, den)
            return '"%d/%d"%s' % (v // g, den // g, close)
        return _Memo(text)

    return (_Memo(lambda ints: _block(list(map(int.__repr__, ints)), depth, "[]")),
            _Memo(lambda r: "[%s%d,%s" % (inner, r, inner)),
            _Memo(lambda c: "%d,%s" % (c, inner)), fractions)


def load_export(path):
    """Re-parse an exported JSON file into exact matrices."""
    with open(path) as fh:
        data = json.load(fh)
    if data.get("schema") != SCHEMA:
        raise ValueError("unknown schema %r" % data.get("schema"))
    dim = data["dim"]
    mats = {}
    for name, ent in data["generators"].items():
        mats[name] = _mat_from_entries(ent, dim)
    return data, mats


def _mat_from_entries(ent, dim):
    return SparseMat(dim, dim, {(r, c): Fraction(v) for r, c, v in ent})


def cmd_build(args):
    if args.verb == "export" and not args.json:
        raise CliError("export needs --json PATH", 2)
    lam, kind, data = _target(args)
    rep = _build(kind, data, lam, args.convention, args.max_dim)
    dim = rep.dim
    print("algebra: %s" % args.algebra)
    print("lambda: %s" % format_weight(lam))
    print("dim: %d" % dim)
    if args.json:
        payload = export_dict(kind, data, lam, args.convention, rep)
        with open(args.json, "w") as fh:
            write_export(payload, fh)
        print("written: %s" % args.json)
    return 0


def _gl_verify_checks(rep):
    yield "commutation", lambda: gln.commutation_check(rep)
    yield "adjointness", lambda: gln.adjointness_check(rep)
    yield "highest-vector", lambda: gln.highest_vector_check(rep)
    yield "dimension-oracle", lambda: rep.dim == branching.weyl_dim("A", rep.lam)
    # each int column is the coordinate vector of its pattern
    yield "lowering-basis", lambda: all(
        c == ({t: 1}, 1) for t, c in enumerate(gln.basis_via_lowering(rep, columns=True)))
    yield "capelli-scalar", lambda: gln.capelli_scalar_check(rep)
    yield "capelli-interpolation", lambda: gln.capelli_interpolation_check(rep)
    yield "z-relations", lambda: gln.zrelation_checks(rep)
    yield "tau-equals-z", lambda: all(
        gln.tau_equals_z_check(rep, i) for i in range(1, rep.n))
    yield "drinfeld-actions", lambda: all(
        gln.drinfeld_checks(rep, m) for m in range(1, rep.n + 1))
    yield "kappa-basis", lambda: all(
        list(num) == [t] for t, (num, _) in enumerate(gln.kappa_basis(rep, columns=True)))
    yield "gt-separation", lambda: gln.gt_separation_check(rep)
    yield "characteristic-identity", lambda: gln.characteristic_identity_check(rep)


def bcd_commutation_check(rep):
    """[F_ij, F_kl] = realize([F_ij, F_kl]) for all signed index pairs.

    Every cached generator must equal a fresh realize(fdef(i, j)), and the
    Cartan F_cc, e_s = F_ij and f_s = F_ji (simple (i, j)), read through
    rep.F, must pass ``exact.chevalley_serre_check``.  realize is linear
    and sums module matrices that are brackets of the Cartan and simple
    ones along the realization's brackets.  By Serre's theorem these
    extend to a representation rho exactly when the Chevalley-Serre
    relations hold; then realize = rho.  Conversely the all-pairs
    relations give them when the F_cc are diagonal, as ``build_module``
    makes them.  So the verdict is the all-pairs one on built modules, and
    at least as strict on a corrupted cache.  F_{-j,-i} = -theta_ij F_ij
    holds of fdef, so of fresh realizes.
    """
    alg = rep.algebra
    real = rep.module.realization
    if not rep.module.cache_agrees():
        return False
    roots, coroots = [], []
    for i, j in real.simples:
        roots.append(real.root_of(alg.fdef(i, j)))
        h = commutator(alg.fdef(i, j), alg.fdef(j, i))
        coroots.append(tuple(h.get(real.pos[c], real.pos[c]) for c in real.cartan))
    return chevalley_serre_check([rep.F(c, c) for c in real.cartan],
                                 [rep.F(i, j) for i, j in real.simples],
                                 [rep.F(j, i) for i, j in real.simples], roots, coroots)


def _bcd_verify_checks(rep):
    from .liealg_bcd import v_plus_mu
    series = rep.algebra.series
    yield "dimension-oracle", lambda: rep.dim == branching.weyl_dim_s3(series, rep.lam)

    yield "commutation", lambda: bcd_commutation_check(rep)
    yield "gt-basis", lambda: gt_basis_checks(rep)

    def branching_consistency():
        total = 0
        for mu, spec in branching.branch_children_BCD(series, rep.lam):
            if len(v_plus_mu(rep, mu)) != spec.multiplicity:
                return False
            if rep.algebra.n == 1:
                dim_child = 1
            else:
                dim_child = branching.weyl_dim_s3(series, mu)
            total += spec.multiplicity * dim_child
        return total == rep.dim
    yield "branching-consistency", branching_consistency
    if series == "C":
        def fnn_all():
            for mu, _ in branching.branch_children_BCD(series, rep.lam):
                if not fnn_action_check(rep, mu):
                    return False
            return True
        yield "fnn-action", fnn_all


def _orth_verify_checks(chain):
    series = "B" if chain.N % 2 else "D"
    yield "dimension-oracle", lambda: chain.dim == branching.weyl_dim(series, chain.lam)
    yield "orthogonal-basis", lambda: orth_basis_checks(chain)


def cmd_verify(args):
    lam, kind, data = _target(args)
    rep = _build(kind, data, lam, args.convention, args.max_dim)
    if kind == "gl":
        checks = _gl_verify_checks(rep)
    elif isinstance(rep, OrthogonalChain):
        # sp has no s4 chain: _build returns its s3 module, as for export
        checks = _orth_verify_checks(rep)
    else:
        checks = _bcd_verify_checks(rep)
    return _report(checks)


def _report(checks):
    """Print a PASS/FAIL line per (name, thunk) check; 1 if any failed."""
    failed = 0
    for name, thunk in checks:
        ok = bool(thunk())
        print("%s: %s" % (name, "PASS" if ok else "FAIL"))
        failed += not ok
    return 1 if failed else 0


def cmd_yangian_demo(args):
    pairs_in = []
    for part in args.strings.split(";"):
        pair = parse_weight(part)
        if len(pair) != 2:
            raise CliError("each string is an alpha,beta pair", 2)
        pairs_in.append(pair)
    try:
        module = yangian.build_tensor_module(pairs_in)
    except ValueError as exc:
        raise CliError(str(exc), 3)
    print("factors: %s" % "; ".join(
        "(%s)" % format_weight((f.alpha2, f.beta2)) for f in module.factors))
    print("dim: %d" % module.dim)
    print("irreducible(Y2): %s" % yangian.irreducible_Y2(module.factors))
    print("irreducible(Y-): %s" % yangian.irreducible_Yminus(module.factors))
    # rtt_check takes each point as a Fraction
    pairs = [(1, 2), (Fraction(1, 2), 3), (5, Fraction(-7, 3)), (2, 9),
             (Fraction(11, 7), Fraction(3, 5))]
    checks = [("rtt-relation", lambda: yangian.rtt_check(module, pairs)),
              ("quantum-determinant-scalar", lambda: yangian.quantum_det_scalar_check(module))]
    if (yangian.irreducible_Y2(module.factors) and yangian._pairwise_disjoint(module.factors)
            and all(f.alpha2 != f.beta2 for f in module.factors)):
        checks.append(("gt-basis-actions", lambda: yangian.eta_action_checks(module)))
    return _report(checks)


# gt's grammar.  An option maps to (default, kind, help): kind is int
# for an integer, the tuple of accepted values, or the metavar of a free
# string.  A verb maps to (command, positionals, options), each positional
# a (name, help) pair.
_GLOBAL_OPTIONS = {
    "--max-dim": (600, int, "desk-scale dimension cap"),
    "--series": (None, ("gl", "so", "sp"), "optional series hint; the positional algebra wins"),
}
_ALGEBRA_ARGS = (("algebra", "gl | sp | spN | soN"),
                 ("weight", "comma list, half-integers as p/2"))
_ALGEBRA_OPTIONS = {
    "--json": (None, "PATH", "write a JSON export to this path"),
    "--convention": ("s3", ("s3", "s4"), "orthogonal/symplectic weight convention"),
}


def make_parser():
    """gt's grammar as parse_args reads it: (the options before the verb,
    {verb: (command, positionals, options)})."""
    verbs = {verb: (cmd, _ALGEBRA_ARGS, _ALGEBRA_OPTIONS)
             for verb, cmd in [("build", cmd_build), ("verify", cmd_verify),
                               ("dims", cmd_dims), ("branch", cmd_branch),
                               ("patterns", cmd_patterns), ("export", cmd_build)]}
    verbs["yangian-demo"] = (cmd_yangian_demo, (), {
        "--strings": ("1,0;3,2", "S", "semicolon list of alpha,beta pairs")})
    return _GLOBAL_OPTIONS, verbs


_HELP = ("-h", "--help")


def _is_option(token):
    """-x and --xx are options; "-", the tokens that start with "-" and a
    digit or ".", such as the weight -1,-3, and those holding a space are
    values."""
    return (len(token) > 1 and token[0] == "-" and token[1] not in "0123456789."
            and " " not in token)


def parse_args(parser, argv):
    """The namespace argv gives under parser (from make_parser): verb, cmd,
    the verb's positionals and every option, with the defaults filled in.

    The grammar is the module docstring's; a token is read as an option
    when its name before any "=" is one, or else when _is_option says so,
    and after a "--" token every token is a positional.  Raises CliError with code 0 and the help text
    on -h/--help, and with code 2 and the usage on a usage error.  A
    missing or bad option value and an unknown verb stop the parse where
    they stand; unknown options and missing or extra positionals are
    reported at the end, so an -h after them still gives the help.
    """
    options, verbs = parser
    verb = None
    values = {"verb": None, "cmd": None}
    values.update((_dest(name), spec[0]) for name, spec in options.items())
    wanted = ["verb"]
    extras = []
    positionals_only = False
    tokens = iter(argv)
    for token in tokens:
        name, eq, value = token.partition("=")
        if token == "--" and not positionals_only:
            positionals_only = True
        elif positionals_only or not (name in options or name in _HELP or _is_option(token)):
            if not wanted:
                extras.append(token)
                continue
            values[wanted.pop(0)] = token
            if verb is None:
                if token not in verbs:
                    raise _usage_error(parser, None, "invalid verb %r (choose from %s)"
                                       % (token, ", ".join(verbs)))
                verb = token
                values["cmd"], positionals, options = verbs[verb]
                wanted = [name for name, _ in positionals]
                values.update((_dest(name), spec[0]) for name, spec in options.items())
        else:
            if name in _HELP:
                if eq:
                    raise _usage_error(parser, verb, "%s takes no value" % name)
                raise CliError(_usage(parser, verb, full=True), 0)
            if name not in options:
                extras.append(token)
                continue
            if not eq:
                value = next(tokens, None)
                if value is None or _is_option(value):
                    raise _usage_error(parser, verb, "%s needs a value" % name)
            kind = options[name][1]
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise _usage_error(parser, verb, "%s: invalid int value %r" % (name, value))
            elif type(kind) is tuple and value not in kind:
                raise _usage_error(parser, verb, "%s: invalid choice %r (choose from %s)"
                                   % (name, value, ", ".join(kind)))
            values[_dest(name)] = value
    if wanted:
        raise _usage_error(parser, verb, "missing %s" % ", ".join(wanted))
    if extras:
        raise _usage_error(parser, verb, "unrecognized arguments: %s" % " ".join(extras))
    return SimpleNamespace(**values)


def _dest(option):
    return option[2:].replace("-", "_")


def _usage(parser, verb, full=False):
    """The usage line of gt, or of one of its verbs; if full, the help: a
    line more for each positional and option."""
    options, verbs = parser
    if verb is None:
        head = "gt"
        positionals = [("VERB ...", "%s (gt VERB -h for its arguments)"
                        % " | ".join(verbs))]
    else:
        head = "gt " + verb
        _, positionals, options = verbs[verb]
    words = ["usage:", head, "[-h]"]
    rows = list(positionals)
    for name, (default, kind, text) in options.items():
        if kind is int:
            kind = "N"
        elif type(kind) is tuple:
            kind = "{%s}" % ",".join(kind)
        words.append("[%s %s]" % (name, kind))
        rows.append(("%s %s" % (name, kind),
                     text if default is None else "%s (default %s)" % (text, default)))
    line = " ".join(words + [name for name, _ in positionals])
    if not full:
        return line
    rows.append(("-h, --help", "show this help and exit"))
    return "\n".join([line, ""] + ["  %-21s %s" % row for row in rows])


def _usage_error(parser, verb, message):
    return CliError("%s\ngt: error: %s" % (_usage(parser, verb), message), 2)


def run(argv):
    try:
        args = parse_args(make_parser(), argv)
    except CliError as exc:     # -h (code 0) or a usage error (code 2)
        print(exc, file=sys.stderr if exc.code else sys.stdout)
        return exc.code
    try:
        return args.cmd(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except DeskScaleError as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return 3
    except (patterns.DominanceError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
