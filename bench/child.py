"""Run one benchmark case in this (fresh) interpreter.

    python3 bench/child.py '<case JSON>' [trace]

Imports gtbases from the checkout's src/, times the entry-point call, and
prints one JSON line with the outcome: exit code or error, seconds,
peak RSS, a hash of the captured stdout (and the lines of short outputs),
the exported file's hash, the oracle value the parent checks against,
the time of the reference computation (bench/calib.py) run just before the
call and, with `trace`, the spans of the call.  The parent judges
correctness.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import calib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SHORT_OUTPUT = 50       # lines kept verbatim for the parent's checks
# Runs of the reference computation before the timed call, about 0.5 s in
# all: the run's mean reference time is only as steady as its samples, and
# with a quarter to a third of the run spent on it, its error no longer
# outweighs that of the cases' own times.
CALIB_RUNS = 4


def _strings(case):
    from gtbases import yangian
    return [yangian.HWString(a, b) for a, b in case["strings"]]


def _entry(case, cli):
    """The call the case times: gt's exit code for a CLI case, the
    brute-force irreducibility result for a Yangian case."""
    from gtbases import yangian
    if case["kind"] == "cli":
        return lambda: cli.run(case["argv"])
    if case["kind"] == "y2":
        return lambda: yangian.brute_force_irreducible_Y2(
            yangian.build_tensor_module(_strings(case)))
    return lambda: yangian.brute_force_irreducible_twisted(
        yangian.build_tensor_module(_strings(case)), "-")


def _oracle(case, cli):
    """The independent value a case's output must equal, if it has one."""
    from gtbases import branching, yangian
    if case["kind"] == "y2":
        return yangian.irreducible_Y2(_strings(case))
    if case["kind"] == "twisted":
        return yangian.irreducible_Yminus(_strings(case))
    argv = case["argv"]
    if argv[0] != "dims":
        return None
    lam = cli.parse_weight(argv[2])
    s4 = "s4" in argv
    kind, data = cli.parse_algebra(argv[1], len(lam), "s4" if s4 else "s3")
    if kind == "gl":
        return branching.weyl_dim("A", lam)
    series = "C" if kind == "sp" else ("B" if data % 2 else "D")
    return branching.weyl_dim(series, lam) if s4 else branching.weyl_dim_s3(series, lam)


def main(argv):
    case = json.loads(argv[1])
    trace = argv[2:] == ["trace"]
    sys.path.insert(0, SRC)
    import gtbases.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print("gtbases imported from %s, not from %s" % (cli.__file__, SRC), file=sys.stderr)
        return 2
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    call = _entry(case, cli)
    c0 = time.perf_counter()
    for _ in range(CALIB_RUNS):
        checksum = calib.work()
    calib_s = (time.perf_counter() - c0) / CALIB_RUNS
    export = case.get("export") and os.path.join(ROOT, case["export"])
    if export:
        os.makedirs(os.path.dirname(export), exist_ok=True)
    out = {"id": case["id"], "error": None, "rc": None, "result": None,
           "calib_s": calib_s, "calib_checksum": str(checksum)}
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            result = tracer.run_case(call) if tracer else call()
        if case["kind"] == "cli":
            out["rc"] = result
        else:
            out["rc"], out["result"] = 0, result
    except Exception:
        out["error"] = traceback.format_exc(limit=-3)
    out["elapsed"] = time.perf_counter() - t0
    if tracer:
        out["spans"] = tracer.export(t0)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    text = buf.getvalue()
    out["stdout_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    lines = text.splitlines()
    out["stdout_lines"] = lines if len(lines) <= SHORT_OUTPUT else None
    if export and os.path.exists(export):
        with open(export, "rb") as fh:
            data = fh.read()
        os.remove(export)
        out["export_sha256"] = hashlib.sha256(data).hexdigest()
        out["export_bytes"] = len(data)
    if out["error"] is None:
        out["oracle"] = _oracle(case, cli)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
