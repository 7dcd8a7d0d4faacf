"""Record bench/goldens.json from the current sources.

    python3 bench/record_goldens.py

Runs every case of every workload, over all seed shifts, once.  It refuses
to record a case that exits non-zero, prints a FAIL line, or disagrees with
its oracle (the Weyl dimension for `dims`, the string criterion for the
brute-force irreducibility tests).  The goldens are recorded once, from a
commit whose outputs are trusted; a later change that alters an output
fails the benchmark instead of re-recording.
"""

import json
import sys

import run


def golden(case, res):
    if res.get("error") or res["rc"] != 0:
        raise SystemExit("%s: %s" % (case["id"], res.get("error") or "exit %s" % res["rc"]))
    if case["kind"] != "cli":
        if res["result"] != res["oracle"]:
            raise SystemExit("%s: brute force disagrees with the oracle" % case["id"])
        return {"irreducible": res["result"]}
    verb = case["argv"][0]
    if verb == "verify":
        names = [line.split(": ")[0] for line in res["stdout_lines"]]
        if res["stdout_lines"] != ["%s: PASS" % n for n in names]:
            raise SystemExit("%s: %r" % (case["id"], res["stdout_lines"]))
        return {"checks": names}
    if verb == "export":
        return {"export_sha256": res["export_sha256"]}
    if verb == "dims" and res["stdout_lines"] != [str(res["oracle"])]:
        raise SystemExit("%s: dims disagrees with the Weyl oracle" % case["id"])
    return {"stdout_sha256": res["stdout_sha256"]}


def main():
    out = {}
    for workload in run.WORKLOADS:
        for case in run.all_cases(workload):
            out[case["id"]] = golden(case, run.run_child(case))
            print(case["id"], file=sys.stderr)
    with open(run.GOLDENS, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
