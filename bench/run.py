"""The gtbases benchmark.

    python3 bench/run.py --workload gl-yangian --seed 1 --seconds 60 --trace 0

Runs one workload's case list through the public entry points,
`gtbases.cli.run` and the `gtbases.yangian` brute-force tests.  Load model:
a closed loop with one client; cases run one at a time, in an order fixed
by the seed, each in its own fresh interpreter (bench/child.py), because
that is what one `gt` invocation costs a user.  At most one child process
runs at a time.

With --trace 0 the list is repeated until --seconds is spent; the list
time is reported in units of a reference computation timed in the same
children (bench/calib.py), set-up time and memory as medians over the
repeats.  With --trace 1 the list
runs once untraced and once traced (bench/tracer.py) and the per-layer
metrics come from the traced pass.  Every output is checked against the
goldens in bench/goldens.json; the last line of stdout is the JSON result,
and any failed case makes the exit code 1.
"""

import argparse
import functools
import json
import os
import random
import statistics
import subprocess
import sys
import time

import calib
import tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")
GOLDENS = os.path.join(BENCH, "goldens.json")
EXPORT = os.path.join("bench", "_work", "export.json")   # relative to ROOT
CHILD_TIMEOUT = 150
SETUP_PROBES = 3        # fresh-interpreter set-up timings before each repeat
SETUP_CODE = ("import sys; sys.path.insert(0, %r); import gtbases.cli; "
              "gtbases.cli.make_parser()")

# The seed picks one shift per case group.  A gl weight shifted by
# c*(1,...,1) and Y(2) strings shifted by a common offset keep their
# dimension and irreducibility.  The shifts are limited to those whose cost
# stays within a few percent of the unshifted input: positive gl shifts and
# other string offsets grow or shrink the rationals, and with them the time,
# by up to a factor of two, which would drown the run-to-run comparison.
GL_SHIFTS = (-2, -1, 0)
STRING_SHIFTS = (-1, 0)


def _gl(weight, c):
    return ",".join(str(int(x) + c) for x in weight.split(","))


def _strings(text, k):
    return [[2 * (int(a) + k), 2 * (int(b) + k)]
            for a, b in (p.split(",") for p in text.split(";"))]


def cli_case(*argv):
    case = {"id": " ".join(argv), "kind": "cli", "argv": list(argv)}
    if argv[0] == "export":
        case["argv"] += ["--json", EXPORT]
        case["export"] = EXPORT
    return case


def yangian_case(kind, text, k):
    strings = _strings(text, k)
    label = ";".join("%d,%d" % (a // 2, b // 2) for a, b in strings)
    return {"id": "%s %s" % (kind, label), "kind": kind, "strings": strings}


def _gl_verify(c):
    return [cli_case("verify", "gl", _gl("3,2,1,0", c)),
            cli_case("verify", "gl", _gl("3,1,0,0", c)),
            cli_case("verify", "gl", _gl("2,1,0,0", c))]


def _yangian_closure(k):
    demo = ";".join("%d,%d" % (a // 2, b // 2) for a, b in _strings("1,0;3,2;5,4", k))
    return [yangian_case("y2", "2,0;4,3", k),       # irreducible: closure reaches n*n
            yangian_case("y2", "2,0;3,2", k),       # reducible: closure stays below n*n
            yangian_case("twisted", "1,0;1,-1", 0),  # a shift would move the reflections
            cli_case("yangian-demo", "--strings", demo)]


def _bcd_verify(c):
    return [cli_case("verify", "sp", "0,0,-1"),
            cli_case("verify", "so7", "1,0,0", "--convention", "s4")]


def _construct_export(c):
    gl = _gl("4,3,1,0", c)
    return [cli_case("export", "sp", "-1,-1,-3"),
            cli_case("export", "so7", "2,1,0", "--convention", "s4"),
            cli_case("export", "gl", gl),
            cli_case("patterns", "so7", "-1,-3,-3"),
            cli_case("branch", "sp", "-1,-1,-3"),
            cli_case("dims", "sp", "-1,-1,-3"),
            cli_case("dims", "so7", "2,1,0", "--convention", "s4"),
            cli_case("dims", "gl", gl),
            cli_case("dims", "so7", "-1,-3,-3")]


# Case groups: (cases for a shift, shifts, target layer).  The target layer
# is the one the group was chosen to stress; the trace check requires it to
# have the largest self-time share of the group.  It is given as (span names
# whose self time counts, predicate on (name, value) of spans whose whole
# subtree counts).
GROUPS = {
    "gl-verify": (_gl_verify, GL_SHIFTS, (
        {n for n in tracer.span_names()
         if n.startswith(("gln.", "exact.sparse_", "exact.oppoly_"))}, None)),
    "yangian-closure": (_yangian_closure, STRING_SHIFTS, ({tracer.CLOSURE}, None)),
    "bcd-verify": (_bcd_verify, (0,), ({"exact.rref", "exact.solve_in_span"}, None)),
    "construct-export": (_construct_export, GL_SHIFTS, (
        {"liealg_bcd.build_module"},
        lambda name, value: name == tracer.REALIZE and value[0] == 1)),
}

# Each workload stresses one path through the exact core and bypasses the
# other: gl-yangian the operator products (SparseMat/OpPoly, quantum minors,
# the Yangian algebra closure) with almost no rref; bcd-construct the
# elimination kernel behind HWModule.realize and build_module, with no gln
# or yangian code.
WORKLOADS = {
    "gl-yangian": ("gl-verify", "yangian-closure"),
    "bcd-construct": ("bcd-verify", "construct-export"),
}


def make_cases(workload, seed):
    """The workload's case list for a seed: a shift per group, then a shuffle."""
    rng = random.Random(seed)
    cases = []
    for group in WORKLOADS[workload]:
        build, shifts, _ = GROUPS[group]
        cases += [dict(c, group=group) for c in build(rng.choice(shifts))]
    rng.shuffle(cases)
    return cases


def all_cases(workload):
    """Every case the workload can run, over all shifts."""
    out = {}
    for group in WORKLOADS[workload]:
        build, shifts, _ = GROUPS[group]
        out.update((c["id"], dict(c, group=group)) for s in shifts for c in build(s))
    return list(out.values())


# -- running and checking --------------------------------------------------

def run_child(case, trace=False):
    cmd = [sys.executable, CHILD, json.dumps(case)] + (["trace"] if trace else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"id": case["id"], "error": "timed out after %d s" % CHILD_TIMEOUT}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"id": case["id"], "error": "child exit %d: %s" % (
            proc.returncode, proc.stderr.strip()[-2000:])}
    return json.loads(lines[-1])


@functools.lru_cache(maxsize=None)
def calib_checksum():
    return str(calib.work())


def check(case, res, goldens):
    """None if the case's output is correct, else the reason it is not."""
    if res.get("error"):
        return res["error"].strip().splitlines()[-1]
    if res["calib_checksum"] != calib_checksum():
        return "the reference computation gave %s" % res["calib_checksum"]
    if res["rc"] != 0:
        return "exit code %s" % res["rc"]
    golden = goldens.get(case["id"])
    if golden is None:
        return "no golden for %r" % case["id"]
    if case["kind"] != "cli":
        if res["result"] != res["oracle"] or res["result"] != golden["irreducible"]:
            return "brute force %s, oracle %s, golden %s" % (
                res["result"], res["oracle"], golden["irreducible"])
        return None
    verb = case["argv"][0]
    if verb == "verify":
        want = ["%s: PASS" % name for name in golden["checks"]]
        if res["stdout_lines"] != want:
            return "verify printed %r" % (res["stdout_lines"],)
        return None
    if verb == "export":
        if res.get("export_sha256") != golden["export_sha256"]:
            return "export differs from the golden"
        return None
    if res["stdout_sha256"] != golden["stdout_sha256"]:
        return "stdout differs from the golden"
    if verb == "dims" and res["stdout_lines"] != [str(res["oracle"])]:
        return "dims printed %r, Weyl oracle %s" % (res["stdout_lines"], res["oracle"])
    return None


def run_pass(cases, goldens, trace=False):
    """Run every case once; returns (results, failure reasons)."""
    results, failures = [], []
    for case in cases:
        res = run_child(case, trace)
        results.append(res)
        reason = check(case, res, goldens)
        if reason:
            failures.append("%s: %s" % (case["id"], reason))
    return results, failures


def probe_setup():
    """Seconds for a fresh interpreter to import gtbases.cli and build the
    argument parser."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE % SRC], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def timed_run(cases, goldens, seconds):
    """Repeat the list until `seconds` is spent; end-to-end metrics.

    Times are divided by the mean time of the reference computation
    (bench/calib.py) that each child runs just before its timed call, so
    that they measure the program and not the speed the shared host has at
    the moment.  Means, not medians: the host switches between a fast and
    a slow state, and a median of a few samples jumps between the two."""
    deadline = time.perf_counter() + seconds
    setup, rss, failures = [], [], []
    times = {c["id"]: [] for c in cases}
    cal = {c["id"]: [] for c in cases}
    attempted = 0
    while True:
        r0 = time.perf_counter()
        setup += [probe_setup() for _ in range(SETUP_PROBES)]
        results, failed = run_pass(cases, goldens)
        attempted += len(cases)
        failures += failed
        for case, res in zip(cases, results):
            times[case["id"]].append(res.get("elapsed", 0.0))
            cal[case["id"]].append(res.get("calib_s", 0.0))
        rss.append(max(r.get("maxrss_kb", 0) for r in results) / 1024)
        now = time.perf_counter()
        if now + (now - r0) > deadline:
            break
    print("samples " + json.dumps({"setup": setup, "cases": times, "calib": cal}))
    walls = [sum(t) for t in zip(*times.values())]
    calib_mean = statistics.fmean(x for c in cal.values() for x in c)
    slowest = max(times, key=lambda k: statistics.fmean(times[k]))
    print("%d repeats of %d cases, %d set-up probes; wall_s median %.3f s; "
          "reference computation mean %.4f s in %d children; slowest case %s, "
          "mean %.3f s (%.2f calib)" % (
              len(walls), len(cases), len(setup), statistics.median(walls), calib_mean,
              attempted, slowest, statistics.fmean(times[slowest]),
              statistics.fmean(times[slowest]) / calib_mean))
    metrics = {"wall_calib": (statistics.fmean(walls) / calib_mean, "calib"),
               "setup_s": (statistics.median(setup), "s"),
               "peak_rss_mb": (statistics.median(rss), "MB")}
    return metrics, attempted, failures


def traced_run(cases, goldens, spans_path):
    """One untraced and one traced pass; per-layer metrics."""
    plain, failures = run_pass(cases, goldens)
    traced, failed = run_pass(cases, goldens, trace=True)
    failures += failed
    case_spans = [r.get("spans", []) for r in traced]
    values = tracer.layer_metrics(case_spans)
    values["cli.export.bytes"] = sum(r.get("export_bytes", 0) for r in traced)
    values["trace.overhead_s"] = (sum(r.get("elapsed", 0.0) for r in traced)
                                  - sum(r.get("elapsed", 0.0) for r in plain))
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w") as fh:
        json.dump({c["id"]: s for c, s in zip(cases, case_spans)}, fh)
    metrics = {name: (values[name], tracer.metric_unit(name))
               for name in tracer.metric_names()}
    return metrics, 2 * len(cases), failures, case_spans


def target_shares(cases, case_spans):
    """Self-time shares per case group, with the group's target layer."""
    out = {}
    for group in dict.fromkeys(c["group"] for c in cases):
        names, subtree = GROUPS[group][2]
        spans = [s for c, s in zip(cases, case_spans) if c["group"] == group]
        out[group] = tracer.self_time_shares(spans, names, subtree)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "gtbases")):
        print("no gtbases sources under %s" % SRC, file=sys.stderr)
        return 2
    with open(GOLDENS) as fh:
        goldens = json.load(fh)
    cases = make_cases(args.workload, args.seed)
    print("%s seed %d: %s" % (args.workload, args.seed, " | ".join(c["id"] for c in cases)))
    if args.trace:
        spans_path = os.path.join(BENCH, "_work", "spans-%s-%d.json" % (args.workload, args.seed))
        metrics, attempted, failures, case_spans = traced_run(cases, goldens, spans_path)
        for group, shares in target_shares(cases, case_spans).items():
            print("%s self-time shares: %s" % (group, ", ".join(
                "%s %.3f" % kv for kv in sorted(shares.items(), key=lambda kv: -kv[1]))))
    else:
        metrics, attempted, failures = timed_run(cases, goldens, args.seconds)
    for reason in failures:
        print("FAIL " + reason, file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
