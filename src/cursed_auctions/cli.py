"""Command-line front end: configuration, simulation, property verification,
canned experiments, and the grid-oracle equivalence suite.

Exit codes: 0 on success / all checks passed, 1 when a requested property or
experiment target fails, 2 on configuration or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import oracle as orc
from . import valuations, verify
from .mechanisms import (
    GVARule,
    Mechanism,
    OthersView,
    RevenueOptimalRule,
    _executed,
    make_context,
    masked_gva,
    rule_from_config,
    run_batch,
)
from .signals import RandomStream, SignalSpace, UniformIID, _config_number
from .valuations import MaxSignal, WeightedSum, _row_spans, model_from_config
from .verify import CHECKERS, Draw, SamplingPlan

__all__ = ["main", "ExperimentConfig", "ConfigError"]


class ConfigError(ValueError):
    """Bad configuration file or option combination (exit code 2)."""


@dataclass
class ExperimentConfig:
    """Everything a command needs; round-trips through JSON losslessly."""

    space: dict = field(default_factory=lambda: {"n": 3, "marginal": {"type": "uniform", "s_bar": 1.0}})
    model: dict = field(default_factory=lambda: {"family": "weighted_sum", "beta": 0.5})
    chi: float = 0.63
    mechanism: dict = field(default_factory=lambda: {"rule": {"kind": "m_gva"}, "payment_policy": "compensated"})
    samples: int = 100_000
    seed: int = 2024

    _KEYS = ("space", "model", "chi", "mechanism", "samples", "seed")

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"a config must be a JSON object, got {type(raw).__name__}")
        raw = dict(raw)
        cfg = ExperimentConfig()
        for key in ExperimentConfig._KEYS:
            if key in raw:
                setattr(cfg, key, raw.pop(key))
        if raw:
            raise ConfigError(f"unknown config keys: {sorted(raw)}")
        try:
            for key, integral in (("chi", False), ("samples", True), ("seed", True)):
                setattr(cfg, key, _config_number(getattr(cfg, key), key, integral))
            for key in ("space", "model", "mechanism"):
                setattr(cfg, key, _parsed_numbers(getattr(cfg, key)))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not (0.0 <= cfg.chi <= 1.0):
            raise ConfigError(f"chi must lie in [0, 1], got {cfg.chi}")
        if cfg.samples < 0:
            raise ConfigError("samples must be >= 0")
        if not 0 <= cfg.seed < 1 << 128:
            raise ConfigError(f"seed must lie in [0, 2**128), got {cfg.seed}")
        return cfg

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in self._KEYS}

    def build(self):
        """(space, model, ctx, mechanism) from the descriptors."""
        try:
            space = SignalSpace.from_config(self.space)
            model = model_from_config(self.model)
            ctx = make_context(space, model)
            mech = build_mechanism(self.mechanism, self.chi, ctx)
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
        return space, model, ctx, mech


def _parsed_numbers(block, key: str = ""):
    """A copy of a nested config block with each number as it is parsed: the
    bidder count ``n`` an int, every other number a float; the rest is kept
    for the block's own parser to accept or reject."""
    if isinstance(block, dict):
        return {k: _parsed_numbers(v, k) for k, v in block.items()}
    if isinstance(block, list):
        return [_parsed_numbers(v, key) for v in block]
    if isinstance(block, numbers.Real) and not isinstance(block, bool):
        return _config_number(block, key, integral=key == "n")
    return block


def build_mechanism(mech_cfg: dict, chi: float, ctx) -> Mechanism:
    cfg = dict(mech_cfg)
    rule_cfg = dict(cfg.pop("rule"))
    policy = cfg.pop("payment_policy", "compensated")
    if cfg:
        raise ConfigError(f"unknown mechanism keys: {sorted(cfg)}")
    if rule_cfg.get("kind") == "m_gva":
        rule_cfg.pop("kind")
        if rule_cfg:
            raise ConfigError(f"unknown rule keys: {sorted(rule_cfg)}")
        if policy != "compensated":
            raise ConfigError("the masked efficient auction is always compensated")
        return masked_gva(ctx, chi)
    if rule_cfg.get("kind") == "revenue_optimal":
        rule_cfg.setdefault("chi", chi)
    return Mechanism(rule_from_config(rule_cfg), chi, policy)


def _load_config(args) -> ExperimentConfig:
    raw = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:  # ValueError covers JSON and text decoding
            raise ConfigError(f"cannot read {args.config}: {exc}") from exc
    cfg = ExperimentConfig.from_dict(raw)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.samples is not None:
        cfg.samples = args.samples
    if args.chi is not None:
        cfg.chi = args.chi
    if args.n is not None:
        cfg.space = dict(cfg.space, n=args.n)
    if args.model is not None:
        cfg.model = {"family": "weighted_sum", "beta": 0.5} if args.model == "weighted_sum" else {"family": args.model}
    if args.beta is not None:
        if cfg.model.get("family") != "weighted_sum":
            raise ConfigError("--beta only applies to the weighted_sum model")
        cfg.model = dict(cfg.model, beta=args.beta)
    return ExperimentConfig.from_dict(cfg.to_dict())  # validates the overrides too


def _int_list(text: str, option: str, minimum: int) -> list:
    """Comma-separated integers, each at least ``minimum``."""
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"{option} takes comma-separated integers, got {text!r}") from None
    if min(values) < minimum:
        raise ConfigError(f"{option} values must be >= {minimum}, got {text!r}")
    return values


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _finite(obj):
    """``obj`` with each number that is not finite as None, which strict JSON writes as null."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(_finite(payload), indent=2, sort_keys=True) + "\n"  # before the open, to keep an earlier file
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    """Sample, execute, write and reduce one row span at a time, so memory
    stays flat in the sample count: only the four per-row metric columns
    outlive a span.  Each span is one part of ``write_outcomes_csv``, which
    may run its parts in forked processes, so the metric columns are shared
    memory that those processes fill.  A failed run leaves no outcomes.csv and
    keeps an earlier one."""
    import mmap

    cfg = _load_config(args)
    space, _model, ctx, mech = cfg.build()
    out = _out_dir(args)
    metrics = ("revenue", "welfare", "transfers_out", "allocation_prob")
    shared = mmap.mmap(-1, max(1, 8 * len(metrics) * cfg.samples))  # anonymous, shared with forked processes
    columns = np.frombuffer(shared, dtype=float, count=len(metrics) * cfg.samples)
    values = dict(zip(metrics, columns.reshape(len(metrics), cfg.samples)))
    # a span is one chunk of the CSV writer (64 float cells per CSV cell), which
    # is narrower than one chunk of run_batch (40 per row and agent)
    spans = _row_spans(cfg.samples, 64 * (2 * space.n + 4))

    def executed(span):
        for profiles, batch in _executed(ctx, RandomStream(cfg.seed), [span], mech):
            for metric in metrics:
                values[metric][span] = ev._metric_from_batch(metric, batch, profiles, ctx, mech)
            yield profiles, batch

    ev.write_outcomes_csv(out / "outcomes.csv", space.n, [functools.partial(executed, s) for s in spans])

    summary = {"schema_version": ev.SCHEMA_VERSION, "config": cfg.to_dict(), "metrics": {}}
    for metric in metrics:
        summary["metrics"][metric] = ev._summarize(metric, values[metric], cfg.seed).to_json()
    _write_json(out / "summary.json", summary)
    print(f"wrote {out / 'outcomes.csv'} and {out / 'summary.json'} ({cfg.samples} profiles)")
    return 0


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    names = [p.strip() for p in args.properties.split(",") if p.strip()]
    unknown = [p for p in names if p not in CHECKERS]
    if unknown or not names:
        what = f"unknown properties {unknown}" if unknown else "--properties names no property"
        raise ConfigError(f"{what}; available: {sorted(CHECKERS)}")
    _space, _model, ctx, mech = cfg.build()
    try:
        plan = SamplingPlan(
            profile_count=cfg.samples,
            deviation_grid_size=args.deviations,
            stream=RandomStream(cfg.seed),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    reports = dict(zip(names, verify._pass(Draw(mech, ctx, plan), [verify._CHECKS[name] for name in names])))
    payload = {
        "config": cfg.to_dict(),
        "reports": {k: r.to_json() for k, r in reports.items()},
        "all_passed": all(r.passed for r in reports.values()),
    }
    out = _out_dir(args)
    _write_json(out / "verify.json", payload)
    for name, rep in reports.items():
        print(f"{name:22s} {'PASS' if rep.passed else 'FAIL'}  max_violation={rep.max_violation:.3e}")
    return 0 if payload["all_passed"] else 1


def cmd_experiment(args) -> int:
    cfg = _load_config(args)
    runner, sampling = EXPERIMENTS[args.name]
    if sampling and cfg.samples < 1:
        raise ConfigError(f"experiment {args.name} needs at least one sample")
    out = _out_dir(args)
    ns = _int_list(args.n_list, "--n-list", 2) if args.n_list else None
    payload = runner(cfg, ns)
    _write_json(out / f"{args.name}.json", payload)
    if payload.get("rows"):
        ev.write_estimates_csv(out / f"{args.name}.csv", payload["rows"])
    print(json.dumps(_finite({k: v for k, v in payload.items() if k != "rows"}), indent=2, sort_keys=True))
    return 0 if payload.get("passed", True) else 1


def _experiment_wallet(cfg: ExperimentConfig, _ns) -> dict:
    naive = ev.wallet_report("U[0,100]", chi=1.0, mc_draws=1_000_000, seed=cfg.seed)
    fits = [ev.wallet_report("U[1,4]", chi=c, mc_draws=10_000, seed=cfg.seed) for c in (0.0, 0.63, 1.0)]
    passed = (
        naive["bid_at_probe"] == 80.0
        and -21.0 <= naive["expected_winner_utility"] <= -19.0
    )
    rows = [
        {
            "metric": "winner_utility",
            "chi": r["chi"],
            "n": 2,
            "mean": r["expected_winner_utility"],
            "standard_error": r["winner_utility_se"],
            "sample_count": r["mc_wins"],
            "seed": r["seed"],
        }
        for r in [naive]
    ]
    return {"naive_u0_100": naive, "fitted_u1_4": fits, "passed": bool(passed), "rows": rows}


def _negative_revenue_formula(n: int) -> float:
    """Exact expected seller outflow of the compensated efficient auction with
    n bidders, signals U[0, 1], weighted-sum values (beta = 1/2), chi = 1.

    Agent i's threshold is t = max(others) < 1, and mu_t - v_t =
    beta((n-1)/2 - S_{-i}) whatever t is, so each loser receives
    beta((n-1)/2 - S_{-i})^+.  The winner pays min{v_t, v_chi(t)} >= 0 (its
    compensation is netted into that price), so the outflow is the losers'
    sum.  With m = n - 1 and IH_m the Irwin-Hall sum of m uniforms this is

        beta * [n E(m/2 - IH_m)^+  -  E(m/2 - (S - max s))^+].

    E(a - IH_m)^+ = G_m(a) = sum_k (-1)^k C(m, k) (a - k)_+^(m+1) / (m+1)!.
    Given max s = x (density n x^m) the other m signals are U[0, x], so the
    winner's term is n int_0^1 x^(m+1) G_m(m / (2x)) dx, whose k-th summand
    integrates in closed form.  Everything is summed in exact rationals; the
    CLT asymptote (n/2) sqrt((n-1)/(24 pi)) is approached from below.
    """
    m = n - 1
    half = Fraction(m, 2)
    others = sum((-1) ** k * math.comb(m, k) * (half - k) ** (m + 1) for k in range(m // 2 + 1))
    winner = half ** (m + 1) + sum(
        (-1) ** k * math.comb(m, k) * (half ** (m + 2) - max(half - k, 0) ** (m + 2)) / (k * (m + 2))
        for k in range(1, m + 1)
    )
    return float(Fraction(1, 2) * n * (others - winner) / math.factorial(m + 1))


def _experiment_negative_revenue(cfg: ExperimentConfig, ns) -> dict:
    ns = ns or [25, 50, 100]
    if len(set(ns)) < 2:
        raise ConfigError(f"the growth-exponent fit needs two distinct bidder counts in --n-list, got {ns}")
    targets = [_negative_revenue_formula(n) for n in ns]
    rows = []
    measured = []
    for n, target in zip(ns, targets):
        space = SignalSpace(n, UniformIID(1.0))
        ctx = make_context(space, WeightedSum(0.5))
        mech = Mechanism(GVARule(), 1.0, "compensated")
        rep = ev.estimate(mech, ctx, "transfers_out", cfg.samples, cfg.seed)
        measured.append(rep.mean)
        rows.append(
            {
                "metric": "transfers_out",
                "chi": 1.0,
                "n": n,
                "mean": rep.mean,
                "standard_error": rep.standard_error,
                "sample_count": rep.sample_count,
                "seed": rep.seed,
                "closed_form_target": target,
            }
        )
    # log-log slope; a zero outflow has no logarithm, so then there is no fit
    exponent = float(np.polyfit(np.log(ns), np.log(measured), 1)[0]) if min(measured) > 0 else math.nan
    ratios = [m / t for m, t in zip(measured, targets)]
    passed = exponent >= 1.4 and exponent <= 1.6 and all(abs(r - 1.0) <= 0.05 for r in ratios)
    return {
        "n_values": ns,
        "transfers_out": measured,
        "closed_form_target": targets,
        "target_ratio": ratios,
        "fitted_exponent": exponent,
        "passed": bool(passed),
        "rows": rows,
    }


def _experiment_max_zero_welfare(cfg: ExperimentConfig, ns) -> dict:
    ns = ns or [2, 5]
    rows = []
    all_zero = True
    for n in ns:
        for chi in (0.25, 1.0):
            space = SignalSpace(n, UniformIID(1.0))
            ctx = make_context(space, MaxSignal())
            mech = masked_gva(ctx, chi)
            reps = ev.estimate_many(mech, ctx, ["allocation_prob", "welfare"], cfg.samples, cfg.seed)
            alloc, welfare = reps["allocation_prob"], reps["welfare"]
            count = int(round(alloc.mean * alloc.sample_count))
            all_zero &= count == 0 and welfare.mean == 0.0
            rows.append(
                {
                    "metric": "allocation_count",
                    "chi": chi,
                    "n": n,
                    "mean": count,
                    "standard_error": 0.0,
                    "sample_count": alloc.sample_count,
                    "seed": alloc.seed,
                }
            )
    return {"rows": rows, "passed": bool(all_zero)}


def _experiment_half_welfare(cfg: ExperimentConfig, ns) -> dict:
    ns = ns or [10, 50, 200]
    rows = []
    ratios = {}
    for n in ns:
        space = SignalSpace(n, UniformIID(1.0))
        ctx = make_context(space, WeightedSum(0.5))
        mech = masked_gva(ctx, 1.0)
        w = ev.estimate(mech, ctx, "welfare", cfg.samples, cfg.seed)
        opt = ev.optimal_welfare(ctx, cfg.samples, cfg.seed)
        prob = ev.event_probability(ctx, n, cfg.samples, cfg.seed)
        cond = ev.conditional_welfare(mech, ctx, cfg.samples, cfg.seed)
        ratios[n] = w.mean / opt.mean
        rows.append(
            {
                "metric": "welfare_ratio",
                "chi": 1.0,
                "n": n,
                "mean": ratios[n],
                "standard_error": w.standard_error / max(opt.mean, 1e-12),
                "sample_count": w.sample_count,
                "seed": w.seed,
                "event_probability": prob.mean,
                "masked_welfare": w.mean,
                "optimal_welfare": opt.mean,
                "conditional_welfare": cond.mean,
                "post_rejection_count": cond.sample_count,
            }
        )
    prob_1000 = ev.event_probability(
        make_context(SignalSpace(2, UniformIID(1.0)), WeightedSum(0.5)), 1000, cfg.samples, cfg.seed
    )
    passed = 0.45 <= prob_1000.mean <= 0.55
    return {
        "rows": rows,
        "ratios": {str(k): v for k, v in ratios.items()},
        "event_probability_n1000": prob_1000.mean,
        "passed": bool(passed),
    }


def _experiment_rev_optimal_threshold(cfg: ExperimentConfig, _ns) -> dict:
    space = SignalSpace(2, UniformIID(1.0))
    ctx = make_context(space, WeightedSum(1.0))
    test_points = np.linspace(0.0, 1.0, 52)[1:-1]
    rows = []
    max_err = {0.0: 0.0, 1.0: 0.0}
    for chi, closed in (
        (1.0, lambda sj: max(0.25, sj)),
        (0.0, lambda sj: max((1.0 - sj) / 2.0, sj)),
    ):
        view = OthersView.from_others(test_points[:, None], ctx.model)
        t_opts = RevenueOptimalRule(chi).critical_bids(view, ctx)
        for sj, t_opt in zip(test_points, t_opts.tolist()):
            err = abs(t_opt - closed(float(sj)))
            max_err[chi] = max(max_err[chi], err)
            rows.append(
                {
                    "metric": "threshold",
                    "chi": chi,
                    "n": 2,
                    "mean": t_opt,
                    "standard_error": 0.0,
                    "sample_count": 1,
                    "seed": cfg.seed,
                    "s_other": float(sj),
                    "closed_form": closed(float(sj)),
                    "abs_error": err,
                }
            )
    passed = max(max_err.values()) <= 1e-3
    return {
        "max_abs_error_chi1": max_err[1.0],
        "max_abs_error_chi0": max_err[0.0],
        "test_points": len(test_points),
        "passed": bool(passed),
        "rows": rows,
    }


# name -> (runner, whether it estimates from cfg.samples profiles; zero samples estimate nothing)
EXPERIMENTS = {
    "wallet": (_experiment_wallet, False),
    "negative-revenue": (_experiment_negative_revenue, True),
    "max-zero-welfare": (_experiment_max_zero_welfare, True),
    "half-welfare": (_experiment_half_welfare, True),
    "rev-optimal-threshold": (_experiment_rev_optimal_threshold, False),
}


def cmd_oracle_check(args) -> int:
    cfg = _load_config(args)
    ms = _int_list(args.m_values, "--m-values", 1) if args.m_values else [5, 11]
    ns = _int_list(args.n_list, "--n-list", 2) if args.n_list else [2, 3]
    try:
        suite = _oracle_suite(ns, ms, inject_broken=args.inject_broken)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _out_dir(args)
    _write_json(out / "oracle_check.json", suite)
    for row in suite["checks"]:
        print(f"{row['name']:58s} {'PASS' if row['passed'] else 'FAIL'}")
    return 0 if suite["all_passed"] else 1


def _oracle_suite(ns, ms, inject_broken: bool = False) -> dict:
    """The grid-oracle checks for every (n, m, model, chi) grid, in that
    nesting order, and whether all passed.

    Every grid is built, and so checked against the oracle's size limits,
    before any is run.  ``valuations._in_parts`` runs them in W parts, grids k,
    k + W, ... in part k, and the checks are put back in grid order, so the
    result does not depend on W.
    """
    models = [("weighted_sum_0.5", WeightedSum(0.5)), ("weighted_sum_1.0", WeightedSum(1.0)), ("max_signal", MaxSignal())]
    configs = [
        (label, orc.GridModel(n=n, m=m, model=model, chi=chi))
        for n in ns
        for m in ms
        for label, model in models
        for chi in (0.0, 0.5, 1.0)
    ]
    check = functools.partial(_oracle_grid_checks, inject_broken=inject_broken)
    done = valuations._in_parts(lambda k, W: [check(*c) for c in configs[k::W]], len(configs))
    per_grid = [None] * len(configs)
    for k, lists in enumerate(done):
        per_grid[k :: len(done)] = lists
    checks = [row for rows in per_grid for row in rows]
    return {"checks": checks, "all_passed": all(c["passed"] for c in checks)}


def _oracle_grid_checks(label: str, grid, inject_broken: bool) -> list:
    """The payment, best-response and threshold checks of one grid, as dicts."""
    n, m, chi = grid.n, grid.m, grid.chi
    checks = []
    ctx = grid.context()
    profiles = grid.all_profiles()
    mechs = {"gva_compensated": Mechanism(GVARule(), chi, "compensated")}
    mechs["masked_gva"] = masked_gva(ctx, chi)
    mechs["revenue_optimal"] = Mechanism(RevenueOptimalRule(chi), chi, "compensated")
    if inject_broken:
        from .testing import RealizedPriceMechanism

        mechs["broken_realized_price"] = RealizedPriceMechanism(GVARule(), chi, "compensated")
    scale = max(ctx.scale(), 1.0)
    others = grid.others_profiles()
    for mech_name, mech in mechs.items():
        batch = run_batch(mech, profiles, ctx)
        if mech_name == "revenue_optimal":
            # all_profiles() is agent-0 major: its first rows hold agent 0 at the lowest
            # atom facing each others_profiles() row in order
            t_opts = batch.thresholds[: len(others), 0]
        oracle_pay = orc.oracle_payments(grid, batch.thresholds, profiles)
        gap = float(np.max(np.abs(batch.payments - oracle_pay)))
        checks.append(
            {
                "name": f"payments n={n} m={m} {label} chi={chi} {mech_name}",
                "passed": bool(gap <= 1e-12 * scale),
                "max_gap": gap,
            }
        )
        if mech_name in ("masked_gva", "revenue_optimal", "broken_realized_price"):
            worst = orc.brute_force_best_response(grid, mech, 0, ctx).regret
            expected_ic = mech_name != "broken_realized_price"
            ok = (worst <= 1e-9 * scale) == expected_ic
            checks.append(
                {
                    "name": f"best_response n={n} m={m} {label} chi={chi} {mech_name}",
                    "passed": bool(ok),
                    "worst_regret": worst,
                }
            )
    # brute-force optimal thresholds vs the continuous optimizer
    spacing = grid.points[1] - grid.points[0] if grid.m > 1 else grid.s_bar
    t_oracle = orc.brute_force_rev_optimal_threshold(grid, others)
    worst_gap = float(np.max(np.abs(t_oracle - t_opts), initial=0.0))
    checks.append(
        {
            "name": f"thresholds n={n} m={m} {label} chi={chi}",
            "passed": bool(worst_gap <= spacing + 1e-9),
            "max_gap": worst_gap,
        }
    )
    return checks


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cursed-auctions",
        description="Simulate, verify, and evaluate single-item auctions for winner's-curse-prone bidders.",
    )
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--chi", type=float, default=None)
    p.add_argument("--n", type=int, default=None, help="number of bidders")
    p.add_argument("--beta", type=float, default=None, help="weighted-sum weight on others")
    p.add_argument("--model", choices=["weighted_sum", "max_signal"], default=None)
    p.add_argument("--out", default="out", help="output directory")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", help="run profiles through the configured mechanism").set_defaults(func=cmd_simulate)

    v = sub.add_parser("verify", help="run property checkers; exit 0 iff all pass")
    v.add_argument("--properties", default="cepic,epir,cepir,epbb,npt,allocation_monotone")
    v.add_argument("--deviations", type=int, default=101)
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("experiment", help="run a canned experiment")
    e.add_argument("name", choices=EXPERIMENTS)
    e.add_argument("--n-list", dest="n_list", default=None, help="comma-separated bidder counts")
    e.set_defaults(func=cmd_experiment)

    o = sub.add_parser("oracle-check", help="grid equivalence suite against the brute-force oracle")
    o.add_argument("--n-list", dest="n_list", default=None)
    o.add_argument("--m-values", dest="m_values", default=None)
    o.add_argument("--inject-broken", action="store_true", help="add a broken mechanism (must fail)")
    o.set_defaults(func=cmd_oracle_check)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
