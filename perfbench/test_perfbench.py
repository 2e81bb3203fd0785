"""Self-checks for the benchmark: span arithmetic, tracer installation,
correctness operations on corrupted outputs, and the traced counts that must
reproduce exactly on the seed commit.

Run from the repository root: ``python3 -m pytest -q perfbench``. The traced
count checks start the real workloads and take a few minutes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent


def test_self_times_on_synthetic_tree():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 9.0, 0),
        ("c", 6.0, 6.5, 3),
        ("a", 20.0, 21.0, -1),
    ]
    assert tracer.self_times(spans) == pytest.approx({"a": 3.0 + 1.0, "b": 2.0, "c": 1.5, "d": 3.5})


def test_wrapped_calls_record_parents_and_self_time():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert [(name, parent) for name, _s, _e, parent in t.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    summary = t.summary()
    assert summary["calls"] == {"outer": 1, "inner": 2}
    total = t.spans[0][2] - t.spans[0][1]
    assert sum(summary["self_s"].values()) == pytest.approx(total)


_INSTALL_PROBE = """
import json
import cursed_auctions.cli as cli
from cursed_auctions import evaluate, mechanisms, verify
import tracer
tracer.FUNCTIONS["mechanisms"] += ("deleted_name",)
t = tracer.install(tracer.Tracer())
print(json.dumps({
    "run_batch_shared": len({id(m.run_batch) for m in (mechanisms, evaluate, verify, cli)}) == 1,
    "run_batch_wrapped": mechanisms.run_batch.__wrapped__ is not None,
    "checkers_wrapped": verify.CHECKERS["cepic"] is verify.check_cepic
        and hasattr(verify.check_cepic, "__wrapped__"),
    "absent": t.absent,
}))
"""


def test_install_rebinds_every_namespace_and_reports_absent_names():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(run.SRC), str(HERE)]))
    proc = subprocess.run(
        [sys.executable, "-c", _INSTALL_PROBE], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got == {
        "run_batch_shared": True,
        "run_batch_wrapped": True,
        "checkers_wrapped": True,
        "absent": ["mechanisms.deleted_name"],
    }


def _write_simulate_outputs(out: Path) -> dict:
    rows = [
        "s_1,s_2,winner,threshold,payment_1,payment_2,revenue,welfare",
        "0.9,0.2,0,0.2,0.3,-0.1,0.2,0.95",
        "0.1,0.6,1,0.1,-0.2,0.4,0.2,0.65",
    ]
    (out / "outcomes.csv").write_text("\r\n".join(rows) + "\r\n")
    means = {"revenue": 0.2, "welfare": 0.8, "transfers_out": 0.15, "allocation_prob": 1.0}
    summary = {"metrics": {m: {"mean": v} for m, v in means.items()}}
    (out / "summary.json").write_text(json.dumps(summary))
    return {"simulate_wide": {"outcomes_sha256": {"7": workloads.file_sha256(out / "outcomes.csv")}}}


def test_flipped_byte_in_outcomes_csv_is_a_failed_operation(tmp_path):
    reference = _write_simulate_outputs(tmp_path)
    assert workloads.check_simulate(tmp_path, reference, 7) == [
        ("outcomes_digest", True),
        ("summary_consistency", True),
    ]
    raw = bytearray((tmp_path / "outcomes.csv").read_bytes())
    raw[-6] ^= 0x01  # a digit of the last welfare value
    (tmp_path / "outcomes.csv").write_bytes(bytes(raw))
    assert workloads.check_simulate(tmp_path, reference, 7) == [
        ("outcomes_digest", False),
        ("summary_consistency", False),
    ]


def test_flipped_pass_is_a_failed_operation(tmp_path):
    reports = {
        p: {"passed": True, "max_violation": 0.0, "tolerance": 2e-9} for p in workloads.VERIFY_PROPERTIES
    }
    (tmp_path / "verify.json").write_text(json.dumps({"reports": reports}))
    assert all(ok for _op, ok in workloads.check_verify(tmp_path, {}, 0))
    reports["cepir"]["passed"] = False
    (tmp_path / "verify.json").write_text(json.dumps({"reports": reports}))
    assert [op for op, ok in workloads.check_verify(tmp_path, {}, 0) if not ok] == ["cepir_pass"]


def test_dropped_oracle_check_is_a_failed_operation(tmp_path):
    checks = [{"name": str(k), "passed": True} for k in range(workloads.ORACLE_CHECKS - 1)]
    (tmp_path / "oracle_check.json").write_text(json.dumps({"checks": checks, "all_passed": True}))
    assert workloads.check_oracle(tmp_path, {}, 0) == [("all_passed", True), ("check_count", False)]


def test_missing_outputs_fail_every_operation(tmp_path):
    reference = {"simulate_wide": {"outcomes_sha256": {}}}
    for workload in workloads.WORKLOADS.values():
        assert not any(ok for _op, ok in workload.check(tmp_path, reference, 0))


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.LAYER_METRICS)


@pytest.mark.parametrize(
    "name, expected",
    [
        (
            "oracle_grid",
            {
                "mechanisms.critical_bids.revenue_optimal.calls": 1836,
                "mechanisms.critical_bid.calls": 1458,
                "valuations.InterimCache.expected_value.calls": 117696,
            },
        ),
        ("simulate_wide", {"evaluate.executions_per_profile": 5.0}),
        ("verify_revopt", {"mechanisms.critical_bids.rows_per_unique": 5.0}),
    ],
)
def test_seed_counts_reproduce(name, expected):
    reference = run._reference()
    result, ops = run.run_workload(name, workloads.BASE_SEED, True, reference)
    metrics = tracer.layer_metrics(result["trace"], workloads.WORKLOADS[name].result_profiles, 0.0)
    assert {k: metrics[k] for k in expected} == expected
    assert result["trace"]["absent"] == []
    known = set(reference["known_failures"].get(name, []))
    assert [op for op, ok in ops if not ok and op not in known] == []
