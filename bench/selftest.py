"""Self-test of the benchmark harness.

    python3 -m pytest -q bench/selftest.py

Smoke-sized case lists check that every named metric is emitted, that
counts repeat exactly, and that a wrong golden is counted as a failure.
The slower target-layer test traces each workload once and checks that
the layer the workload was chosen for has the largest self-time share.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402

with open(run.GOLDENS) as fh:
    GOLDENS = json.load(fh)
with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# One case per kind of check: gl verify, signed-realization verify, Y(2)
# brute force, and an export.
SMOKE = [run.cli_case("verify", "gl", "2,1,0"),
         run.cli_case("verify", "sp", "0,-1"),
         run.yangian_case("y2", "1,0;3,2", 0),
         run.cli_case("export", "gl", "4,3,1,0")]
SMOKE_GOLDENS = {
    "verify gl 2,1,0": GOLDENS["verify gl 3,2,1,0"],
    "verify sp 0,-1": GOLDENS["verify sp 0,0,-1"],
    "y2 1,0;3,2": {"irreducible": True},
    "export gl 4,3,1,0": GOLDENS["export gl 4,3,1,0"],
}


def test_smoke_emits_every_end_to_end_metric():
    metrics, attempted, failures = run.timed_run(SMOKE, SMOKE_GOLDENS, seconds=0)
    assert failures == []
    assert attempted == len(SMOKE)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {k: u for k, (v, u) in metrics.items()}
    assert all(v > 0 for v, _ in metrics.values())


def test_smoke_emits_every_layer_metric_and_counts_repeat(tmp_path):
    runs = []
    for i in range(2):
        metrics, attempted, failures, _ = run.traced_run(
            SMOKE, SMOKE_GOLDENS, str(tmp_path / ("spans%d.json" % i)))
        assert failures == []
        assert attempted == 2 * len(SMOKE)
        runs.append(metrics)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        [(k, u) for k, (v, u) in runs[0].items()]
    counts = [{k: v for k, (v, u) in m.items() if u == "count"} for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["exact.sparse_matmul.calls"] > 0
    assert counts[0]["yangian.algebra_closure.products"] > 0
    assert counts[0]["liealg_bcd.realize.calls"] > 0
    assert runs[0]["cli.export.bytes"] == runs[1]["cli.export.bytes"]
    assert runs[0]["cli.export.bytes"][0] > 0


def test_wrong_golden_is_counted_as_failed():
    wrong = dict(SMOKE_GOLDENS)
    wrong["verify gl 2,1,0"] = {"checks": GOLDENS["verify gl 3,2,1,0"]["checks"][:-1]}
    wrong["export gl 4,3,1,0"] = {"export_sha256": "0" * 64}
    _, failures = run.run_pass(SMOKE, wrong)
    assert len(failures) == 2
    assert failures[0].startswith("verify gl 2,1,0:")
    assert failures[1].startswith("export gl 4,3,1,0:")


def test_wrong_reference_computation_is_counted_as_failed():
    case = SMOKE[0]
    res = run.run_child(case)
    assert run.check(case, res, SMOKE_GOLDENS) is None
    res["calib_checksum"] = "0"
    assert run.check(case, res, SMOKE_GOLDENS).startswith("the reference computation")


def test_every_case_has_a_golden_and_the_seed_fixes_the_list():
    spec_workloads = [w["name"] for w in SPEC["workloads"]]
    assert sorted(spec_workloads) == sorted(run.WORKLOADS)
    for workload in run.WORKLOADS:
        assert all(c["id"] in GOLDENS for c in run.all_cases(workload))
        assert run.make_cases(workload, 7) == run.make_cases(workload, 7)


def test_metric_names_in_spec_match_the_tracer():
    assert [m["name"] for m in SPEC["per_layer"]] == tracer.metric_names()


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(run.ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "gl-yangian", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_target_layer_has_the_largest_self_time_share(workload):
    cases = run.make_cases(workload, 1)
    results, failures = run.run_pass(cases, GOLDENS, trace=True)
    assert failures == []
    shares = run.target_shares(cases, [r["spans"] for r in results])
    assert sorted(shares) == sorted(run.WORKLOADS[workload])
    for group, share in shares.items():
        assert max(share, key=share.get) == "target", (group, share)
