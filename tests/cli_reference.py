"""Forms of ``gtbases.cli`` that it replaced, for the differential tests
in tests/test_cli.py.

The argparse front end: ``make_parser`` and ``_WEIGHTLIKE`` are kept
verbatim, a main parser with one sub-parser per verb, and the shim that
prefixes a space to a negative weight so that argparse does not read
``-1,-3`` as an option.  ``parse`` is the parsing half of the old
``cli.run``; the tests compare ``cli.parse_args`` with it.

The output writers: ``cmd_patterns`` builds every pattern and encodes
``patterns.to_json`` of each with one ``json.JSONEncoder``, and
``write_export`` formats every value below depth 1 afresh, by the
recursive ``_encode``.  ``cli.cmd_patterns`` and ``cli.write_export`` must
write the same bytes.
"""

import argparse
import json
import math
import re

from gtbases import cli, patterns
from gtbases.cli import (_SCALARS, _family, _quote, _sorted_keys, cmd_branch, cmd_build,
                         cmd_dims, cmd_verify, cmd_yangian_demo, parse_algebra,
                         parse_weight)
from gtbases.exact import SparseMat


def make_parser():
    ap = argparse.ArgumentParser(
        prog="gt",
        description="exact Gelfand-Tsetlin constructions for classical Lie algebras")
    ap.add_argument("--max-dim", type=int, default=600,
                    help="desk-scale dimension cap (default 600)")
    ap.add_argument("--series", choices=["gl", "so", "sp"],
                    help="optional series hint; the positional algebra wins")
    sub = ap.add_subparsers(dest="verb", required=True)
    for verb, cmd in [("build", cmd_build), ("verify", cmd_verify),
                      ("dims", cmd_dims), ("branch", cmd_branch),
                      ("patterns", cli.cmd_patterns), ("export", cmd_build)]:
        p = sub.add_parser(verb)
        p.set_defaults(cmd=cmd)
        p.add_argument("algebra", help="gl | sp | spN | soN")
        p.add_argument("weight", help="comma list, half-integers as p/2")
        p.add_argument("--json", help="write a JSON export to this path")
        p.add_argument("--convention", choices=["s3", "s4"], default="s3",
                       help="orthogonal/symplectic weight convention")
    p = sub.add_parser("yangian-demo")
    p.set_defaults(cmd=cmd_yangian_demo)
    p.add_argument("--strings", default="1,0;3,2",
                   help="semicolon list of alpha,beta pairs")
    return ap


_WEIGHTLIKE = re.compile(r"^-\d+(/\d+)?(,-?\d+(/\d+)?)*$")


def parse(argv):
    """The namespace the old ``run`` handed to its command, or the exit
    code argparse ended with (0 after -h, 2 after a usage error)."""
    ap = make_parser()
    # keep argparse from reading negative weights as option flags
    argv = [(" " + t) if _WEIGHTLIKE.match(t) else t for t in argv]
    try:
        return ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2


def cmd_patterns(args):
    lam = parse_weight(args.weight)
    kind, data = parse_algebra(args.algebra, len(lam), args.convention, args.series)
    fam = _family(kind, data, args.convention)
    encode = json.JSONEncoder(sort_keys=True).encode     # json.dumps makes one per call
    for p in patterns.enumerate_patterns(fam, lam):
        print(encode(patterns.to_json(p)))
    return 0


def write_export(payload, fh):
    _write(payload, fh, 0)


def _write(value, fh, depth):
    if depth < 2 and type(value) is dict and value:
        ind = "\n" + " " * (depth + 1)
        fh.write("{")
        for t, key in enumerate(_sorted_keys(value)):
            fh.write(("," if t else "") + ind + _quote(key) + ": ")
            _write(value[key], fh, depth + 1)
        fh.write("\n" + " " * depth + "}")
    else:
        fh.write(_encode(value, depth))


def _encode(value, depth):
    """value as write_export writes it, with its first line at the given
    depth."""
    t = type(value)
    if t is str:
        return _quote(value)
    if t is int:
        return int.__repr__(value)
    if t is bool or value is None:
        return _SCALARS[value]
    if t is SparseMat:
        items = sorted(value.num.items())
    elif t is dict or t is list:
        items = value
    else:
        raise TypeError("%s is not a gt-export/1 value" % t.__name__)
    if not items:
        return "{}" if t is dict else "[]"
    close = "\n" + " " * depth
    ind = close + " "
    sep = "," + ind
    if t is SparseMat:
        den = value.den
        entry = '[{0}%d,{0}%d,{0}"%d/%d"{1}]'.format(ind + " ", ind)
        body = sep.join([entry % (r, c, v // g, den // g)
                         for (r, c), v in items for g in [math.gcd(v, den)]])
    elif t is dict:
        body = sep.join(_quote(k) + ": " + _encode(value[k], depth + 1)
                        for k in _sorted_keys(value))
    elif all(type(x) is int for x in value):
        body = sep.join(map(int.__repr__, value))
    else:
        body = sep.join([_encode(x, depth + 1) for x in value])
    return ("{" if t is dict else "[") + ind + body + close + ("}" if t is dict else "]")
