import csv
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from cursed_auctions import cli, evaluate, valuations
from cursed_auctions.cli import ConfigError, ExperimentConfig, _negative_revenue_formula, main
from cursed_auctions.mechanisms import MechanismInvariantError, Mechanism, OthersView, RevenueOptimalRule, run_batch
from cursed_auctions.oracle import GridModel
from cursed_auctions.signals import RandomStream, SignalSpace, UniformIID, sample_profiles
from cursed_auctions.valuations import MaxSignal, WeightedSum


def run_cli(*argv):
    return main(list(argv))


def _cpus(monkeypatch, count):
    """Patch the affinity mask to ``count`` CPUs (None: keep the real one), and
    return the list that counts the processes forked from here on; a fork
    inside a forked process raises."""
    if count is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    parent, fork, forked = os.getpid(), os.fork, []

    def counting():
        if os.getpid() != parent:
            raise AssertionError("a forked part forked again")
        forked.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return forked


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig()
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"chi": 0.5, "bogus": 1})

    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.chi == 0.63
        assert cfg.space["n"] == 3
        assert cfg.samples == 100_000
        assert cfg.seed == 2024

    def test_chi_validated(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"chi": 1.5})

    def test_numbers_recorded_as_parsed(self):
        """A config records the numbers its parsers read, whatever JSON type they came in."""
        loose = {
            "space": {"n": 2.0, "marginal": {"type": "grid", "points": [0, 0.5, 1]}},
            "model": {"family": "weighted_sum", "beta": 1},
            "mechanism": {"rule": {"kind": "revenue_optimal", "chi": 1}},
        }
        canonical = {
            "space": {"n": 2, "marginal": {"type": "grid", "points": [0.0, 0.5, 1.0]}},
            "model": {"family": "weighted_sum", "beta": 1.0},
            "mechanism": {"rule": {"kind": "revenue_optimal", "chi": 1.0}},
        }
        recorded = [json.dumps(ExperimentConfig.from_dict(raw).to_dict()) for raw in (loose, canonical)]
        assert recorded[0] == recorded[1]
        assert '"n": 2,' in recorded[0]


class TestSimulate:
    def test_small_run_files(self, tmp_path):
        code = run_cli(
            "--out", str(tmp_path), "--samples", "10", "--chi", "1.0", "simulate"
        )
        assert code == 0
        lines = (tmp_path / "outcomes.csv").read_text().strip().splitlines()
        assert len(lines) == 11
        winners = [row.split(",")[3] for row in lines[1:]]
        assert all(w in ("", "0", "1", "2") for w in winners)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["metrics"]["revenue"]["sample_count"] == 10

    def test_empty_run(self, tmp_path):
        code = run_cli("--out", str(tmp_path), "--samples", "0", "simulate")
        assert code == 0
        header = "s_1,s_2,s_3,winner,threshold,payment_1,payment_2,payment_3,revenue,welfare\r\n"
        assert (tmp_path / "outcomes.csv").read_bytes() == header.encode()  # the full header, no rows
        summary = json.loads((tmp_path / "summary.json").read_text())
        for metric in ("revenue", "welfare", "transfers_out", "allocation_prob"):
            report = summary["metrics"][metric]
            assert report["sample_count"] == 0
            # no samples, no measured mean: null, not 0.0
            assert [report[k] for k in ("mean", "standard_error", "ci95_low", "ci95_high")] == [None] * 4

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("--out", str(a), "--samples", "50", "simulate")
        run_cli("--out", str(b), "--samples", "50", "simulate")
        assert (a / "outcomes.csv").read_bytes() == (b / "outcomes.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_unserializable_payload_keeps_an_earlier_json_file(self, tmp_path):
        path = tmp_path / "summary.json"
        cli._write_json(path, {"schema_version": 1, "metrics": {"mean": 0.5}})
        earlier = path.read_bytes()
        assert earlier == b'{\n  "metrics": {\n    "mean": 0.5\n  },\n  "schema_version": 1\n}\n'
        with pytest.raises(TypeError):
            cli._write_json(path, {"a": 1, "b": object()})
        assert path.read_bytes() == earlier

    def test_summary_matches_outcomes_csv(self, tmp_path):
        # 4001 rows at n=500 exceed one 2,000,000/n estimator chunk
        code = run_cli("--out", str(tmp_path), "--n", "500", "--samples", "4001", "--chi", "1.0", "simulate")
        assert code == 0
        with open(tmp_path / "outcomes.csv", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        col = {h: k for k, h in enumerate(header)}
        pay = [k for k, h in enumerate(header) if h.startswith("payment_")]
        from_csv = {
            "revenue": math.fsum(float(r[col["revenue"]]) for r in rows) / len(rows),
            "welfare": math.fsum(float(r[col["welfare"]]) for r in rows) / len(rows),
            "transfers_out": math.fsum(max(0.0, -float(r[k])) for r in rows for k in pay) / len(rows),
            "allocation_prob": sum(r[col["winner"]] != "" for r in rows) / len(rows),
        }
        summary = json.loads((tmp_path / "summary.json").read_text())
        for metric, mean in from_csv.items():
            assert summary["metrics"][metric]["mean"] == pytest.approx(mean, rel=1e-9, abs=1e-300)


class TestSimulateStreaming:
    """``simulate`` runs one row span at a time, in one contiguous part of the
    spans per CPU of the affinity mask, and writes the files of the
    all-at-once path: sample_profiles, one run_batch and write_outcomes_csv."""

    SPAN = 7_000  # rows per span: 2**16 is not a multiple, so a span crosses a sub-stream boundary
    ROWS = (1 << 16) + 4_465  # the largest sample below
    METRICS = ("revenue", "welfare", "transfers_out", "allocation_prob")

    @pytest.fixture
    def calls(self, monkeypatch, tmp_path):
        """Record, from whichever process makes it, the sample row and row count
        of each run_batch call of the CLI and of each chunk the writer encodes;
        ``calls.fail_at = row`` makes the call for the span from that row raise.
        Rows are of the default seed and marginal at n = 2."""
        sample = sample_profiles(SignalSpace(2, UniformIID(1.0)), RandomStream(2024), self.ROWS)
        row_of = {x: r for r, x in enumerate(sample[:, 0].tolist())}
        assert len(row_of) == self.ROWS
        log = tmp_path / "calls.log"
        csv_text = evaluate._csv_text

        def record(kind, first, rows):
            with open(log, "a") as fh:
                fh.write(f"{kind} {row_of[first]} {rows}\n")

        def logged_run_batch(mech, profiles, ctx):
            record("run_batch", profiles[0, 0], len(profiles))
            if row_of[profiles[0, 0]] == calls.fail_at:
                raise MechanismInvariantError("more than one winner", 3, 1, 2.0)
            return run_batch(mech, profiles, ctx)

        def logged_csv_text(line, n, cells, winner):
            record("chunk", cells[0, 0], len(winner))
            return csv_text(line, n, cells, winner)

        def calls(kind):
            """The sorted (row, row count) pairs of ``kind`` calls so far."""
            lines = log.read_text().splitlines() if log.exists() else []
            return sorted(tuple(map(int, x.split()[1:])) for x in lines if x.split()[0] == kind)

        calls.fail_at = None
        monkeypatch.setattr(cli, "run_batch", logged_run_batch)
        monkeypatch.setattr(evaluate, "_csv_text", logged_csv_text)
        return calls

    def _reference(self, config: Path, out: Path) -> None:
        cfg = ExperimentConfig.from_dict(json.loads(config.read_text()))
        space, _model, ctx, mech = cfg.build()
        profiles = sample_profiles(space, RandomStream(cfg.seed), cfg.samples)
        batch = run_batch(mech, profiles, ctx)
        out.mkdir()
        evaluate.write_outcomes_csv(out / "outcomes.csv", space.n, [lambda: [(profiles, batch)]])
        metrics = {
            m: evaluate._summarize(m, evaluate._metric_from_batch(m, batch, profiles, ctx, mech), cfg.seed).to_json()
            for m in self.METRICS
        }
        summary = {"schema_version": evaluate.SCHEMA_VERSION, "config": cfg.to_dict(), "metrics": metrics}
        cli._write_json(out / "summary.json", summary)

    @pytest.mark.parametrize("cpus", [None, 1, 2, 3])
    @pytest.mark.parametrize("samples", [0, ROWS])
    def test_files_match_the_all_at_once_path(self, tmp_path, monkeypatch, calls, samples, cpus):
        monkeypatch.setattr(valuations, "_CHUNK_CELLS", 64 * (2 * 2 + 4) * self.SPAN)  # 64 floats per CSV cell
        forks = _cpus(monkeypatch, cpus)
        config = tmp_path / "config.json"
        space = {"n": 2, "marginal": {"type": "uniform"}}
        config.write_text(json.dumps({"space": space, "samples": samples, "chi": 1.0}))
        assert run_cli("--config", str(config), "--out", str(tmp_path / "new"), "simulate") == 0
        spans = calls("run_batch")
        assert spans == calls("chunk")  # each run_batch call of simulate sees exactly one writer chunk of rows
        self._reference(config, tmp_path / "ref")
        for name in ("outcomes.csv", "summary.json"):
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
        assert sorted(os.listdir(tmp_path / "new")) == ["outcomes.csv", "summary.json"]
        assert spans == [(r, min(self.SPAN, samples - r)) for r in range(0, samples, self.SPAN)]
        parts = min(len(os.sched_getaffinity(0)), len(spans))
        assert len(forks) == (parts if parts > 1 else 0)
        assert multiprocessing.active_children() == []
        if samples == 0:
            header = b"s_1,s_2,winner,threshold,payment_1,payment_2,revenue,welfare\r\n"
            assert (tmp_path / "new" / "outcomes.csv").read_bytes() == header
            summary = json.loads((tmp_path / "new" / "summary.json").read_text())
            assert all(summary["metrics"][m]["mean"] is None for m in self.METRICS)

    @pytest.mark.parametrize("cpus", [1, 2])  # the span from row 100 runs inline, or in the second part's process
    @pytest.mark.parametrize("earlier", [None, b"s_1,s_2\r\nfrom an earlier run\r\n"])
    def test_failed_span_leaves_no_partial_file(self, tmp_path, monkeypatch, calls, earlier, cpus):
        monkeypatch.setattr(valuations, "_CHUNK_CELLS", 64 * (2 * 2 + 4) * 100)  # 100-row spans at n = 2
        _cpus(monkeypatch, cpus)
        calls.fail_at = 100
        out = tmp_path / "out"
        out.mkdir()
        if earlier is not None:
            (out / "outcomes.csv").write_bytes(earlier)
        with pytest.raises(MechanismInvariantError):
            run_cli("--out", str(out), "--n", "2", "--samples", "250", "simulate")
        assert calls("run_batch") == [(0, 100), (100, 100)]
        assert multiprocessing.active_children() == []
        assert sorted(os.listdir(out)) == ([] if earlier is None else ["outcomes.csv"])
        if earlier is not None:
            assert (out / "outcomes.csv").read_bytes() == earlier

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_invariant_error_names_the_sample_row(self, tmp_path, monkeypatch, calls, cpus):
        monkeypatch.setattr(valuations, "_CHUNK_CELLS", 64 * (2 * 2 + 4) * 100)  # 100-row spans at n = 2
        _cpus(monkeypatch, cpus)
        calls.fail_at = 100  # the error names row 3 of that span
        with pytest.raises(MechanismInvariantError) as err:
            run_cli("--out", str(tmp_path / "out"), "--n", "2", "--samples", "250", "simulate")
        assert (err.value.what, err.value.row, err.value.agent, err.value.value) == ("more than one winner", 103, 1, 2.0)
        assert str(err.value) == "more than one winner: row 103, agent 1, value 2.0"
        assert os.listdir(tmp_path / "out") == []


class TestVerify:
    def test_masked_gva_all_pass(self, tmp_path):
        code = run_cli(
            "--out", str(tmp_path), "--samples", "800", "--chi", "1.0",
            "verify", "--properties", "cepic,epir,cepir,epbb,npt", "--deviations", "21",
        )
        assert code == 0
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["all_passed"]

    def test_zero_transfer_epir_fails(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "chi": 1.0,
                    "mechanism": {"rule": {"kind": "gva"}, "payment_policy": "zero-transfer"},
                    "samples": 800,
                }
            )
        )
        code = run_cli("--config", str(cfg), "--out", str(tmp_path), "verify", "--properties", "epir", "--deviations", "11")
        assert code == 1

    def test_concave_sum_masked_gva_budget_balanced(self, tmp_path):
        # the l2 norm (l = power 0.5, g = h = power 2) under the default m_gva
        square = {"kind": "power", "params": [2.0]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "chi": 1.0,
                    "samples": 2000,
                    "space": {"n": 5, "marginal": {"type": "uniform", "s_bar": 1.0}},
                    "model": {"family": "concave_sum", "l": {"kind": "power", "params": [0.5]}, "g": square, "h": square},
                }
            )
        )
        code = run_cli("--config", str(cfg), "--out", str(tmp_path), "verify", "--properties", "epbb,npt")
        assert code == 0
        reports = json.loads((tmp_path / "verify.json").read_text())["reports"]
        assert sorted(reports) == ["epbb", "npt"]
        for rep in reports.values():
            assert rep["passed"] and rep["max_violation"] == 0.0 and rep["samples_checked"] == 2000

    def test_unknown_property_is_usage_error(self, tmp_path):
        code = run_cli("--out", str(tmp_path), "--samples", "10", "verify", "--properties", "nonsense")
        assert code == 2


class TestExperiments:
    def test_unknown_name_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("--out", str(tmp_path), "experiment", "mystery")
        assert exc.value.code == 2

    def test_wallet(self, tmp_path):
        code = run_cli("--out", str(tmp_path), "experiment", "wallet")
        assert code == 0
        payload = json.loads((tmp_path / "wallet.json").read_text())
        assert payload["naive_u0_100"]["bid_at_probe"] == 80.0
        assert -21 <= payload["naive_u0_100"]["expected_winner_utility"] <= -19

    def test_rev_optimal_threshold(self, tmp_path):
        code = run_cli("--out", str(tmp_path), "experiment", "rev-optimal-threshold")
        assert code == 0
        payload = json.loads((tmp_path / "rev-optimal-threshold.json").read_text())
        assert payload["max_abs_error_chi1"] <= 1e-3
        assert payload["max_abs_error_chi0"] <= 1e-3

    def test_max_zero_welfare_small(self, tmp_path):
        code = run_cli("--out", str(tmp_path), "--samples", "4000", "experiment", "max-zero-welfare", "--n-list", "2")
        assert code == 0
        payload = json.loads((tmp_path / "max-zero-welfare.json").read_text())
        assert all(row["mean"] == 0 for row in payload["rows"])

    def test_negative_revenue(self, tmp_path):
        code = run_cli(
            "--out", str(tmp_path), "--samples", "20000", "experiment", "negative-revenue", "--n-list", "25,50,100"
        )
        assert code == 0
        payload = json.loads((tmp_path / "negative-revenue.json").read_text())
        assert payload["passed"] is True
        assert all(abs(r - 1.0) <= 0.05 for r in payload["target_ratio"])

    @pytest.mark.parametrize(
        "seed, name, n_list",
        [("1", "half-welfare", ["--n-list", "10"]), ("2", "negative-revenue", [])],
        ids=["half-welfare", "negative-revenue"],
    )
    def test_non_finite_numbers_are_written_as_null(self, tmp_path, capsys, seed, name, n_list):
        """One sample keeps no draw on the half-welfare event (a NaN conditional
        welfare), or estimates a zero outflow (a NaN fitted exponent)."""
        assert run_cli("--out", str(tmp_path), "--samples", "1", "--seed", seed, "experiment", name, *n_list) == 1
        strict = lambda text: json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} is not strict JSON"))
        payload = strict((tmp_path / f"{name}.json").read_text())
        printed = strict(capsys.readouterr().out)
        if name == "half-welfare":
            assert payload["rows"][0]["conditional_welfare"] is None
        else:
            assert payload["fitted_exponent"] is None and printed["fitted_exponent"] is None


class TestNegativeRevenueFormula:
    def test_two_bidders_by_hand(self):
        # beta * (2 E(1/2 - U)^+ - E(1/2 - min)^+) = (1/2)(1/4 - 10/48)
        assert _negative_revenue_formula(2) == 1 / 48

    def test_reference_values_approach_asymptote_from_below(self):
        ns = [25, 50, 100]
        values = [_negative_revenue_formula(n) for n in ns]
        for got, want in zip(values, [6.650873, 19.636443, 56.616132]):
            assert got == pytest.approx(want, rel=1e-6)
        ratios = [v / ((n / 2) * math.sqrt((n - 1) / (24 * math.pi))) for v, n in zip(values, ns)]
        assert ratios[0] < ratios[1] < ratios[2] < 1.0


class TestOracleCheck:
    def test_small_suite_passes(self, tmp_path):
        code = run_cli("--out", str(tmp_path), "oracle-check", "--n-list", "2", "--m-values", "5")
        assert code == 0
        payload = json.loads((tmp_path / "oracle_check.json").read_text())
        assert payload["all_passed"]

    def test_broken_injection_fails(self, tmp_path):
        code = run_cli(
            "--out", str(tmp_path), "oracle-check", "--n-list", "2", "--m-values", "5", "--inject-broken"
        )
        assert code == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_first_profile_rows_hold_the_others_thresholds(self, n):
        """all_profiles() is agent-0 major: its first rows put agent 0 at the
        lowest atom against each others_profiles() row in order, so their
        agent-0 thresholds are the direct solve on others_profiles(), bit for bit."""
        for m in (1, 2, 5) if n == 4 else (1, 2, 5, 11):
            for model in (WeightedSum(0.5), WeightedSum(1.0), MaxSignal()):
                for chi in (0.0, 0.5, 1.0):
                    grid = GridModel(n=n, m=m, model=model, chi=chi)
                    ctx = grid.context()
                    rule = RevenueOptimalRule(chi)
                    others = grid.others_profiles()
                    batch = run_batch(Mechanism(rule, chi, "compensated"), grid.all_profiles(), ctx)
                    direct = rule.critical_bids(OthersView.from_others(others, ctx.model), ctx)
                    np.testing.assert_array_equal(
                        batch.thresholds[: len(others), 0].view(np.int64), direct.view(np.int64)
                    )

    def test_two_revenue_optimal_solves_per_grid(self, monkeypatch):
        solves = []
        solve = RevenueOptimalRule.critical_bids

        def counting(rule, view, ctx):
            solves.append(len(view))
            return solve(rule, view, ctx)

        monkeypatch.setattr(RevenueOptimalRule, "critical_bids", counting)
        monkeypatch.setattr(valuations, "_cpus", lambda: 1)  # the grids run here, where the spy sees them
        assert cli._oracle_suite([2, 3], [5])["all_passed"]
        grids = 2 * 3 * 3  # n values x models x chi values
        assert len(solves) == 2 * grids  # run_batch and the best response; the thresholds check reuses run_batch's

    def test_oversized_grid_is_config_error(self, tmp_path, monkeypatch, capsys):
        """Every grid is checked before any runs, so a bad size forks nothing."""
        forks = _cpus(monkeypatch, 2)
        for option, value, message in (("--m-values", "50", "1 <= m <= 21, got 50"), ("--n-list", "2,5", "2 <= n <= 4, got 5")):
            code = run_cli("--out", str(tmp_path), "oracle-check", option, value)
            assert code == 2
            assert capsys.readouterr().err == f"config error: grid oracle supports {message}\n"
        assert forks == [] and not (tmp_path / "oracle_check.json").exists()

    def test_same_checks_for_any_cpu_count(self, monkeypatch):
        dumps = set()
        for cpus, forked in ((1, 0), (2, 2), (3, 3)):
            forks = _cpus(monkeypatch, cpus)
            dumps.add(json.dumps(cli._oracle_suite([2, 3], [1, 2, 5], inject_broken=True)))
            assert len(forks) == forked and multiprocessing.active_children() == []
        assert len(dumps) == 1

    def test_a_suite_in_a_part_forks_nothing(self, monkeypatch):
        forks = _cpus(monkeypatch, 2)  # a fork inside the part raises
        ref = cli._oracle_suite([2], [2])
        forks.clear()
        assert valuations._forked([lambda: cli._oracle_suite([2], [2])]) == [ref]
        assert len(forks) == 1 and multiprocessing.active_children() == []

    def test_a_suite_beside_another_thread_forks_nothing(self, monkeypatch):
        forks = _cpus(monkeypatch, 2)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            suite = cli._oracle_suite([2], [2])
        finally:
            stop.set()
            other.join(timeout=10)
        assert suite["all_passed"] and not other.is_alive() and forks == []
        assert multiprocessing.active_children() == []

    def test_leaves_numpy_ma_unimported(self, tmp_path):
        """numpy's unique and isin import numpy.ma on some paths; m = 21 reaches
        isin's sorting path and the MaxSignal grid cases the tail table's knots.
        One CPU, so the grids run in the process whose modules are checked."""
        argv = ["--out", str(tmp_path), "oracle-check", "--n-list", "2", "--m-values", "3,21"]
        code = (
            "import os, sys; os.sched_setaffinity(0, [min(os.sched_getaffinity(0))]); "
            f"from cursed_auctions.cli import main; print(main({argv!r}), 'numpy.ma' in sys.modules)"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
        assert out.split("\n")[-2] == "0 False"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--deviations", "-1"],
            ["experiment", "max-zero-welfare", "--n-list", "a"],
            ["experiment", "max-zero-welfare", "--n-list", "1"],
            ["oracle-check", "--m-values", "x"],
            ["--samples", "-1", "simulate"],
            ["--samples", "0", "verify"],
            ["--samples", "0", "experiment", "half-welfare"],
            ["--samples", "0", "experiment", "max-zero-welfare"],
            ["--samples", "0", "experiment", "negative-revenue"],
            ["experiment", "negative-revenue", "--n-list", "25"],
            ["experiment", "negative-revenue", "--n-list", "25,25"],
            ["--model", "max_signal", "--beta", "0.3", "simulate"],
            ["--seed", "-1", "simulate"],
            ["--seed", "-1", "verify"],
            ["--seed", "-1", "experiment", "wallet"],
            ["--seed", str(2**128), "simulate"],
            ["--seed", str(2**128), "verify"],
            ["--seed", str(2**128), "experiment", "wallet"],
        ],
    )
    def test_exits_two(self, tmp_path, argv):
        assert run_cli("--out", str(tmp_path), "--samples", "50", *argv) == 2

    def test_beta_applies_to_weighted_sum_only(self, tmp_path):
        argv = ["--out", str(tmp_path), "--samples", "5", "--model", "weighted_sum", "--beta", "0.3", "simulate"]
        assert run_cli(*argv) == 0
        model = json.loads((tmp_path / "summary.json").read_text())["config"]["model"]
        assert model == {"family": "weighted_sum", "beta": 0.3}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"family": "max_signal"}}))
        assert run_cli("--config", str(cfg), "--out", str(tmp_path), "--beta", "0.3", "simulate") == 2

    @pytest.mark.parametrize("name", ["wallet", "rev-optimal-threshold"])
    def test_zero_samples_valid_without_sampling(self, tmp_path, name):
        assert run_cli("--out", str(tmp_path), "--samples", "0", "experiment", name) == 0

    def test_zero_deviation_grid_is_valid(self, tmp_path):
        code = run_cli("--out", str(tmp_path), "--samples", "50", "verify", "--properties", "cepic", "--deviations", "0")
        assert code == 0


def test_config_file_not_found(tmp_path):
    assert run_cli("--config", str(tmp_path / "missing.json"), "simulate") == 2


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[1, 2]",
        '{"samples": "abc"}',
        '{"chi": null}',
        '{"seed": [1]}',
        '{"samples": 2.7}',
        '{"seed": 1.5}',
        '{"seed": -1}',
        '{"samples": Infinity}',
        '{"space": {"n": 3, "marginal": {"type": "uniform", "s_bar": Infinity}}, "samples": 10}',
        '{"model": {"family": "weighted_sum", "beta": NaN}, "mechanism": {"rule": {"kind": "gva"}}}',
        '{"space": {"n": 3, "marginal": {"type": "grid", "points": [0.0, 0.5, NaN]}}}',
        '{"space": {"n": 3, "marginal": {"type": "quantile", "kind": "power", "params": [NaN, 1.0]}}}',
        '{"model": {"family": "concave_sum", "l": {"kind": "log1p_scaled", "params": [Infinity]},'
        ' "g": {"kind": "identity"}, "h": {"kind": "identity"}}}',
        '{"model": {"family": "concave_sum", "l": {"kind": "power", "params": [0.5]},'
        ' "g": {"kind": "affine", "params": [1.0, -1.0]}, "h": {"kind": "identity"}}}',
        '{"space": {"n": 2.7, "marginal": {"type": "uniform"}}}',
        '{"space": {"n": "3", "marginal": {"type": "uniform"}}}',
        '{"space": {"n": 3, "marginal": {"type": "uniform", "s_bar": "2"}}}',
        '{"model": {"family": "weighted_sum", "beta": "0.5"}}',
        '{"mechanism": {"rule": {"kind": "revenue_optimal", "grid_size": 2048}}}',
        '{"mechanism": {"rule": {"kind": "revenue_optimal", "refine_iters": 60}}}',
    ],
)
def test_malformed_config_exits_two(tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run_cli("--config", str(cfg), "--out", str(tmp_path), "--samples", "5", "simulate") == 2
    assert not (tmp_path / "outcomes.csv").exists()


def test_integral_float_counts_accepted():
    raw = {
        "samples": 10.0,
        "seed": 3.0,
        "space": {"n": 2.0, "marginal": {"type": "uniform"}},
        "mechanism": {"rule": {"kind": "revenue_optimal"}},
    }
    cfg = ExperimentConfig.from_dict(raw)
    assert (cfg.samples, cfg.seed) == (10, 3)
    space, _model, _ctx, mech = cfg.build()
    assert space.n == 2 and mech.rule == RevenueOptimalRule(cfg.chi)
    raw["mechanism"] = {"rule": {"kind": "revenue_optimal", "grid_size": 64.0}}
    with pytest.raises(ConfigError, match="unknown rule keys"):
        ExperimentConfig.from_dict(raw).build()


def test_unknown_config_key_exits_two(tmp_path):
    cfg = tmp_path / "cfg.json"
    for raw in ({"shenanigans": True}, {"workers": 1}):  # the CPU count comes from the affinity mask, not a key
        cfg.write_text(json.dumps(raw))
        assert run_cli("--config", str(cfg), "--out", str(tmp_path), "simulate") == 2


@pytest.mark.parametrize("chi", [1.5, "nan"])
def test_revenue_optimal_chi_outside_unit_interval_exits_two(tmp_path, chi):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mechanism": {"rule": {"kind": "revenue_optimal", "chi": chi}}, "samples": 5}))
    assert run_cli("--config", str(cfg), "--out", str(tmp_path), "simulate") == 2
    assert not (tmp_path / "outcomes.csv").exists()


class TestMechanismConfig:
    def test_m_gva_sugar_and_masked_equivalence(self, tmp_path):
        import numpy as np

        from cursed_auctions.cli import build_mechanism
        from cursed_auctions.mechanisms import make_context, run_batch
        from cursed_auctions.signals import RandomStream, SignalSpace, UniformIID, sample_profiles
        from cursed_auctions.valuations import WeightedSum

        ctx = make_context(SignalSpace(2, UniformIID(1.0)), WeightedSum(1.0))
        sugar = build_mechanism({"rule": {"kind": "m_gva"}}, 0.7, ctx)
        explicit = build_mechanism(
            {"rule": {"kind": "masked", "base": {"kind": "gva"}}}, 0.7, ctx
        )
        profiles = sample_profiles(ctx.space, RandomStream(5), 500)
        a = run_batch(sugar, profiles, ctx)
        b = run_batch(explicit, profiles, ctx)
        np.testing.assert_array_equal(a.winner, b.winner)
        np.testing.assert_allclose(a.payments, b.payments)

    def test_revenue_optimal_inherits_config_chi(self):
        from cursed_auctions.cli import build_mechanism
        from cursed_auctions.mechanisms import make_context
        from cursed_auctions.signals import SignalSpace, UniformIID
        from cursed_auctions.valuations import WeightedSum

        ctx = make_context(SignalSpace(2, UniformIID(1.0)), WeightedSum(1.0))
        mech = build_mechanism({"rule": {"kind": "revenue_optimal"}}, 0.63, ctx)
        assert mech.rule.chi == 0.63
