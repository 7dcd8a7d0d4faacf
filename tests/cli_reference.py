"""The argparse front end that ``gtbases.cli`` replaced.

``make_parser`` and ``_WEIGHTLIKE`` are kept verbatim: a main parser with
one sub-parser per verb, and the shim that prefixes a space to a negative
weight so that argparse does not read ``-1,-3`` as an option.  ``parse``
is the parsing half of the old ``cli.run``.  The differential tests in
tests/test_cli.py compare ``cli.parse_args`` with it.
"""

import argparse
import re

from gtbases.cli import (cmd_branch, cmd_build, cmd_dims, cmd_patterns, cmd_verify,
                         cmd_yangian_demo)


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
                      ("patterns", cmd_patterns), ("export", cmd_build)]:
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
