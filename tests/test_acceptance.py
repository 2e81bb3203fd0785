"""Acceptance gate: one test per headline criterion, each printing a PASS/FAIL
line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 2 compares the seller's compensation outflow with its exact
finite-n expectation, ``cli._negative_revenue_formula``, the same target the
``negative-revenue`` experiment reports (see that test's docstring).
"""

import math
import time

import numpy as np

from cursed_auctions.cli import _negative_revenue_formula, _oracle_suite
from cursed_auctions.evaluate import (
    chi_sweep,
    estimate,
    estimate_many,
    event_probability,
    optimal_welfare,
    wallet_report,
)
from cursed_auctions.mechanisms import (
    GVARule,
    Mechanism,
    RevenueOptimalRule,
    critical_bid,
    make_context,
    masked_gva,
    run_batch,
)
from cursed_auctions.signals import RandomStream, SignalSpace, UniformIID, sample_profiles
from cursed_auctions.testing import (
    IntervalAllocationMechanism,
    LoserSurchargeMechanism,
    RealizedPriceMechanism,
)
from cursed_auctions.valuations import MaxSignal, WeightedSum, cursed_value
from cursed_auctions.verify import (
    Draw,
    SamplingPlan,
    check_allocation_monotone,
    check_cepic,
    check_cepir,
    check_chi_robustness,
    check_epbb,
    check_epir,
    check_no_positive_transfers,
)

SEED = 2024


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_c01_wallet_game():
    """Fully cursed truthful bid at signal 30 is exactly 80; both-naive play
    loses the winner about 20 on average; under 10 seconds."""
    t0 = time.monotonic()
    rep = wallet_report("U[0,100]", chi=1.0, mc_draws=1_000_000, seed=SEED)
    elapsed = time.monotonic() - t0
    ok = (
        rep["bid_at_probe"] == 80.0
        and -21.0 <= rep["expected_winner_utility"] <= -19.0
        and elapsed < 10.0
    )
    _report(
        1,
        "wallet game",
        ok,
        f"bid={rep['bid_at_probe']}, winner utility={rep['expected_winner_utility']:.3f}, {elapsed:.1f}s",
    )
    assert ok


def test_c02_negative_revenue_scaling():
    """Compensated efficient auction, fully cursed, beta=1/2: seller outflow
    for n in {25, 50, 100} within 5% of its exact expectation, plus the
    growth exponent.

    Each of the n-1 losers receives beta((n-1)/2 - S_{-i})^+ and the winner's
    compensation is netted into its price min{v, v_chi} >= 0, so with m = n-1
    and IH_m the Irwin-Hall sum of m uniforms the target is
    beta * [n E(m/2 - IH_m)^+ - E(m/2 - (S - max s))^+]: 6.650873, 19.636443
    and 56.616132.  It rises toward the CLT asymptote
    (n/2) sqrt((n-1)/(24 pi)) from below (0.943x of it at n = 25).
    """
    t0 = time.monotonic()
    ns = [25, 50, 100]
    measured = []
    for n in ns:
        ctx = make_context(SignalSpace(n, UniformIID(1.0)), WeightedSum(0.5))
        mech = Mechanism(GVARule(), 1.0, "compensated")
        measured.append(estimate(mech, ctx, "transfers_out", 100_000, SEED).mean)
    targets = [_negative_revenue_formula(n) for n in ns]
    rel_err = [abs(m - t) / t for m, t in zip(measured, targets)]
    exponent = float(np.polyfit(np.log(ns), np.log(measured), 1)[0])
    elapsed = time.monotonic() - t0
    within_5pct = all(e <= 0.05 for e in rel_err)
    exponent_ok = 1.4 <= exponent <= 1.6
    ok = within_5pct and exponent_ok and elapsed < 120.0
    _report(
        2,
        "negative revenue scaling",
        ok,
        f"measured={[f'{m:.2f}' for m in measured]}, targets={[f'{t:.2f}' for t in targets]}, "
        f"ratios={[f'{m / t:.3f}' for m, t in zip(measured, targets)]}, exponent={exponent:.3f}, {elapsed:.0f}s",
    )
    assert exponent_ok, "growth exponent escaped [1.4, 1.6]"
    assert elapsed < 120.0
    assert within_5pct, "measured outflow is more than 5% from its exact expectation"


def test_c03_max_signal_collapse():
    """Masked efficient auction with pure common values never sells."""
    rows = []
    ok = True
    for n in (2, 5):
        for chi in (0.25, 1.0):
            ctx = make_context(SignalSpace(n, UniformIID(1.0)), MaxSignal())
            mech = masked_gva(ctx, chi)
            reps = estimate_many(mech, ctx, ["allocation_prob", "welfare", "revenue"], 100_000, SEED)
            count = int(round(reps["allocation_prob"].mean * 100_000))
            ok &= count == 0 and reps["welfare"].mean == 0.0 and reps["revenue"].mean == 0.0
            rows.append(f"n={n},chi={chi}:count={count}")
    _report(3, "max-signal collapse", ok, "; ".join(rows))
    assert ok


def test_c04_half_welfare():
    """Additive-others event probability near one half at n=1000; masked/optimal
    welfare ratio at least 0.45 by n=200 and trending up from n=10."""
    t0 = time.monotonic()
    base_ctx = make_context(SignalSpace(2, UniformIID(1.0)), WeightedSum(0.5))
    prob = event_probability(base_ctx, 1000, 100_000, SEED).mean

    ratios = {}
    for n in (10, 200):
        ctx = make_context(SignalSpace(n, UniformIID(1.0)), WeightedSum(0.5))
        w = estimate(masked_gva(ctx, 1.0), ctx, "welfare", 100_000, SEED).mean
        opt = optimal_welfare(ctx, 100_000, SEED).mean
        ratios[n] = w / opt
    elapsed = time.monotonic() - t0
    ok = (
        0.45 <= prob <= 0.55
        and ratios[200] >= 0.45
        and 0.0 < ratios[10] < ratios[200] + 0.1
        and elapsed < 300.0
    )
    _report(
        4,
        "half welfare",
        ok,
        f"event prob(n=1000)={prob:.4f}, ratio(10)={ratios[10]:.4f}, ratio(200)={ratios[200]:.4f}, {elapsed:.0f}s",
    )
    assert ok


def test_c05_revenue_optimal_thresholds():
    """Optimizer matches the calculus closed forms at 50 points for both the
    fully cursed and the rational case."""
    ctx = make_context(SignalSpace(2, UniformIID(1.0)), WeightedSum(1.0))
    points = np.linspace(0.0, 1.0, 52)[1:-1]
    worst = {0.0: 0.0, 1.0: 0.0}
    for chi, closed in ((1.0, lambda s: max(0.25, s)), (0.0, lambda s: max((1 - s) / 2, s))):
        rule = RevenueOptimalRule(chi)
        for sj in points:
            got = critical_bid(rule, np.array([sj]), ctx)
            worst[chi] = max(worst[chi], abs(got - closed(float(sj))))
    ok = worst[1.0] <= 1e-3 and worst[0.0] <= 1e-3
    _report(
        5,
        "revenue-optimal thresholds",
        ok,
        f"max err chi=1: {worst[1.0]:.2e}, chi=0: {worst[0.0]:.2e} over {len(points)} points",
    )
    assert ok


def test_c06_oracle_equivalence():
    """Exhaustive grid oracle agrees with the mechanisms on payments, truthful
    regret, and optimal thresholds for all matched instances."""
    suite = _oracle_suite([2, 3], [5, 11])
    failures = [c["name"] for c in suite["checks"] if not c["passed"]]
    ok = suite["all_passed"]
    _report(6, "oracle equivalence", ok, f"{len(suite['checks'])} checks, failures={failures[:3]}")
    assert ok


def test_c07_property_suites():
    """All incentive/budget checkers pass for the masked efficient mechanism,
    and the four properties a compensated unmasked mechanism can satisfy pass
    for the revenue-optimal one; every documented broken control fails.

    The revenue-optimal mechanism provably cannot clear the budget checks for
    chi > 0: with compensated payments it pays participation transfers
    (epbb/npt fail -- the same behavior the zero-curse checks use as negative
    controls), and with zero-transfer payments epir fails instead.  Those two
    mandated failures are asserted as failures below rather than skipped.
    """
    ctx = make_context(SignalSpace(3, UniformIID(1.0)), WeightedSum(0.5))
    plan = SamplingPlan(profile_count=10_000, deviation_grid_size=101, stream=RandomStream(SEED))
    all_checkers = (
        check_cepic,
        check_epir,
        check_cepir,
        check_epbb,
        check_no_positive_transfers,
        check_allocation_monotone,
    )
    incentive_checkers = (check_cepic, check_epir, check_cepir, check_allocation_monotone)
    masked = Draw(masked_gva(ctx, 1.0), ctx, plan)
    rev_opt = Draw(Mechanism(RevenueOptimalRule(1.0), 1.0, "compensated"), ctx, plan)
    failures = []
    for checker in all_checkers:
        rep = checker(masked)
        if not rep.passed:
            failures.append(f"masked_gva.{rep.name}={rep.max_violation:.2e}")
    for checker in incentive_checkers:
        rep = checker(rev_opt)
        if not rep.passed:
            failures.append(f"revenue_optimal.{rep.name}={rep.max_violation:.2e}")
    for checker in (check_epbb, check_no_positive_transfers):
        rep = checker(rev_opt)
        if rep.passed or not rep.witnesses:
            failures.append(f"revenue_optimal.{rep.name} unexpectedly balanced")

    control_plan = SamplingPlan(profile_count=2_000, deviation_grid_size=41, stream=RandomStream(SEED))
    controls = [
        ("realized_price.cepic", check_cepic, RealizedPriceMechanism(GVARule(), 1.0, "compensated")),
        ("zero_transfer.epir", check_epir, Mechanism(GVARule(), 1.0, "zero-transfer")),
        ("loser_surcharge.cepir", check_cepir, LoserSurchargeMechanism(GVARule(), 0.5, "compensated")),
        ("compensated_gva.epbb", check_epbb, Mechanism(GVARule(), 1.0, "compensated")),
        ("compensated_gva.npt", check_no_positive_transfers, Mechanism(GVARule(), 1.0, "compensated")),
        ("interval.monotone", check_allocation_monotone, IntervalAllocationMechanism(GVARule(), 0.5)),
    ]
    for name, checker, mech in controls:
        rep = checker(Draw(mech, ctx, control_plan))
        if rep.passed or not rep.witnesses:
            failures.append(f"control {name} did not fail with a witness")
    ok = not failures
    _report(
        7,
        "property suites",
        ok,
        f"failures={failures[:4]}"
        if failures
        else "6+4 suites pass, 2 mandated budget failures observed, 6 controls fail",
    )
    assert ok


def test_c08_chi_monotonicity():
    """Fixed-rule revenue means are exactly non-increasing under common random
    numbers; per-chi optimized revenue and masked welfare are non-increasing
    up to overlapping 95% intervals."""
    ctx = make_context(SignalSpace(3, UniformIID(1.0)), WeightedSum(0.5))
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]

    fixed = chi_sweep(lambda c: Mechanism(GVARule(), c, "compensated"), ctx, grid, "revenue", 10_000, SEED)
    fixed_means = [rep.mean for _c, rep in fixed]
    fixed_ok = all(b <= a for a, b in zip(fixed_means, fixed_means[1:]))

    def within_ci_monotone(rows):
        out = True
        for (_c1, a), (_c2, b) in zip(rows, rows[1:]):
            slack = 1.96 * (a.standard_error + b.standard_error)
            out &= b.mean <= a.mean + slack
        return out

    opt = chi_sweep(
        lambda c: Mechanism(RevenueOptimalRule(c), c, "compensated"),
        ctx, grid, "revenue", 20_000, SEED,
    )
    welfare = chi_sweep(lambda c: masked_gva(ctx, c), ctx, grid, "welfare", 20_000, SEED)
    opt_ok = within_ci_monotone(opt)
    wel_ok = within_ci_monotone(welfare)
    ok = fixed_ok and opt_ok and wel_ok
    _report(
        8,
        "chi monotonicity",
        ok,
        f"fixed exact={fixed_ok}, optimal-rule within CI={opt_ok}, masked welfare within CI={wel_ok}",
    )
    assert ok


def test_c09_chi_robustness():
    """Truthful regret under mis-estimated cursedness stays below the linear
    bound eps * v(s_bar, s_bar) with only an absolute 1e-9 slack."""
    ctx = make_context(SignalSpace(2, UniformIID(1.0)), WeightedSum(1.0))
    mech = masked_gva(ctx, 0.5)
    plan = SamplingPlan(
        profile_count=10_000, deviation_grid_size=101, tolerance=1e-9, stream=RandomStream(SEED)
    )
    rep = check_chi_robustness(Draw(mech, ctx, plan), [0.05, 0.1])
    ok = rep.passed
    _report(9, "chi robustness", ok, f"max excess over bound={rep.max_violation:.2e} <= 1e-9")
    assert ok


def test_c10_virtual_surplus_identity():
    """Expected revenue equals expected allocated virtual value minus expected
    compensation outflow, within three combined standard errors."""
    ctx = make_context(SignalSpace(2, UniformIID(1.0)), WeightedSum(1.0))
    marginal = ctx.space.marginal
    details = []
    ok = True
    for chi in (0.0, 1.0):
        mech = Mechanism(GVARule(), chi, "compensated")
        lhs = estimate(mech, ctx, "revenue", 100_000, seed=101)

        profiles = sample_profiles(ctx.space, RandomStream(303), 100_000)
        batch = run_batch(mech, profiles, ctx)
        # allocated cursed virtual value, rebuilt from public pieces: for the
        # weighted sum both v and the interim expectation have unit slope
        rhs_vals = batch.compensations.sum(axis=1)
        for i in range(ctx.space.n):
            won_i = batch.winner == i
            own = profiles[won_i, i]
            vchi = cursed_value(ctx.interim, chi, profiles[won_i], i)
            hazard = (1.0 - np.asarray(marginal.cdf(own))) / np.asarray(marginal.pdf(own))
            rhs_vals[won_i] += vchi - hazard
        rhs_mean = float(rhs_vals.mean())
        rhs_se = float(rhs_vals.std(ddof=1) / math.sqrt(len(rhs_vals)))

        gap = abs(lhs.mean - rhs_mean)
        bound = 3.0 * math.sqrt(lhs.standard_error**2 + rhs_se**2)
        ok &= gap <= bound
        details.append(f"chi={chi}: |{lhs.mean:.4f}-{rhs_mean:.4f}|={gap:.4f} <= {bound:.4f}")
    _report(10, "virtual-surplus identity", ok, "; ".join(details))
    assert ok
