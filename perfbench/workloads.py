"""The benchmark's four workloads: the CLI input each one generates, the work
it counts, and the checks that its outputs are correct.

Every workload drives the public CLI (``cursed_auctions.cli.main``) with a
config file the benchmark writes and a ``--seed`` derived from the benchmark's
own seed. Why each workload was chosen, and which per-layer metric should move
which end-to-end metric on it, is in README.md next to this file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The simulate digest is checked against a value recorded at the seed commit,
# so program seeds come from a fixed set of PROGRAM_SEEDS values.
BASE_SEED = 2024
PROGRAM_SEEDS = 8

UNIFORM = {"type": "uniform", "s_bar": 1.0}
WEIGHTED_SUM = {"family": "weighted_sum", "beta": 0.5}

MC_SAMPLES = 8_000
MC_SHAPES = 4  # n in {2, 5} times chi in {0.25, 1.0}
VERIFY_SAMPLES = 10_000
VERIFY_PROPERTIES = ("cepic", "epir", "cepir", "allocation_monotone")
SIMULATE_SAMPLES = 100_000
ORACLE_CHECKS = 216  # checks the oracle suite runs at the seed commit
ORACLE_PROFILES = 9 * sum(m**n for n in (2, 3) for m in (5, 11))  # 3 models x 3 chi per grid
SUMMARY_METRICS = ("revenue", "welfare", "transfers_out", "allocation_prob")


def program_seed(seed: int) -> int:
    """The ``--seed`` the program receives for benchmark seed ``seed``."""
    return BASE_SEED + seed % PROGRAM_SEEDS


def _load_json(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def check_max_zero_welfare(out: Path, reference: dict, seed: int) -> list:
    payload = _load_json(out / "max-zero-welfare.json") or {}
    rows = payload.get("rows", [])
    zero = (
        payload.get("passed") is True
        and len(rows) == MC_SHAPES
        and all(r["mean"] == 0 and r["sample_count"] == MC_SAMPLES for r in rows)
    )
    return [("zero_allocation_and_welfare", zero)]


def check_verify(out: Path, reference: dict, seed: int) -> list:
    reports = (_load_json(out / "verify.json") or {}).get("reports", {})
    ops = []
    for prop in VERIFY_PROPERTIES:
        rep = reports.get(prop)
        ok = rep is not None and rep["passed"] is True and rep["max_violation"] <= rep["tolerance"]
        ops.append((f"{prop}_pass", ok))
    return ops


def check_oracle(out: Path, reference: dict, seed: int) -> list:
    payload = _load_json(out / "oracle_check.json") or {}
    checks = payload.get("checks", [])
    return [
        ("all_passed", payload.get("all_passed") is True and all(c["passed"] for c in checks)),
        ("check_count", len(checks) == ORACLE_CHECKS),
    ]


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def csv_means(path: Path) -> dict:
    """Means of the summary metrics recomputed from ``outcomes.csv``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        pay = [k for k, h in enumerate(header) if h.startswith("payment_")]
        col = {h: k for k, h in enumerate(header)}
        revenue, welfare, transfers, sold = [], [], [], 0
        for row in reader:
            revenue.append(float(row[col["revenue"]]))
            welfare.append(float(row[col["welfare"]]))
            transfers.append(math.fsum(max(0.0, -float(row[k])) for k in pay))
            sold += row[col["winner"]] != ""
    count = len(revenue)
    return {
        "revenue": math.fsum(revenue) / count,
        "welfare": math.fsum(welfare) / count,
        "transfers_out": math.fsum(transfers) / count,
        "allocation_prob": sold / count,
    }


def summary_agrees(summary: dict, means: dict, rel: float = 1e-9) -> bool:
    for metric in SUMMARY_METRICS:
        a, b = summary["metrics"][metric]["mean"], means[metric]
        if abs(a - b) > rel * max(abs(a), abs(b), 1e-300):
            return False
    return True


def check_simulate(out: Path, reference: dict, seed: int) -> list:
    csv_path = out / "outcomes.csv"
    expected = reference["simulate_wide"]["outcomes_sha256"].get(str(seed))
    digest_ok = csv_path.is_file() and file_sha256(csv_path) == expected
    summary = _load_json(out / "summary.json")
    try:
        consistent = summary is not None and summary_agrees(summary, csv_means(csv_path))
    except (OSError, KeyError, ValueError, ZeroDivisionError, StopIteration):
        consistent = False
    return [("outcomes_digest", digest_ok), ("summary_consistency", consistent)]


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    command: tuple  # CLI arguments after the global options
    work_unit: str
    work_units: int  # work completed by one CLI run, for work_per_s
    result_profiles: int  # profiles the outputs report on
    check: Callable[[Path, dict, int], list]  # (out dir, reference, program seed) -> [(op, ok)]

    def argv(self, out: Path, seed: int) -> list:
        """Write the generated config into ``out`` and return the CLI argv."""
        out.mkdir(parents=True, exist_ok=True)
        config = out / "config.json"
        config.write_text(json.dumps(self.config, indent=2, sort_keys=True) + "\n")
        return ["--config", str(config), "--seed", str(seed), "--out", str(out), *self.command]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc_masked_max",
            config={"samples": MC_SAMPLES},
            command=("experiment", "max-zero-welfare", "--n-list", "2,5"),
            work_unit="profiles",
            work_units=MC_SHAPES * MC_SAMPLES,
            result_profiles=MC_SHAPES * MC_SAMPLES,
            check=check_max_zero_welfare,
        ),
        Workload(
            name="verify_revopt",
            config={
                "space": {"n": 3, "marginal": UNIFORM},
                "model": WEIGHTED_SUM,
                "chi": 1.0,
                "mechanism": {"rule": {"kind": "revenue_optimal"}, "payment_policy": "compensated"},
                "samples": VERIFY_SAMPLES,
            },
            command=("verify", "--properties", ",".join(VERIFY_PROPERTIES)),
            work_unit="profile*property",
            work_units=VERIFY_SAMPLES * len(VERIFY_PROPERTIES),
            result_profiles=VERIFY_SAMPLES,
            check=check_verify,
        ),
        Workload(
            name="simulate_wide",
            config={
                "space": {"n": 25, "marginal": UNIFORM},
                "model": WEIGHTED_SUM,
                "chi": 1.0,
                "mechanism": {"rule": {"kind": "gva"}, "payment_policy": "compensated"},
                "samples": SIMULATE_SAMPLES,
            },
            command=("simulate",),
            work_unit="profiles",
            work_units=SIMULATE_SAMPLES,
            result_profiles=SIMULATE_SAMPLES,
            check=check_simulate,
        ),
        Workload(
            name="oracle_grid",
            config={},
            command=("oracle-check",),
            work_unit="checks",
            work_units=ORACLE_CHECKS,
            result_profiles=ORACLE_PROFILES,
            check=check_oracle,
        ),
    )
}
