import json

import numpy as np
import pytest

from cursed_auctions import mechanisms, valuations, verify
from cursed_auctions.mechanisms import (
    GVARule,
    MaskedRule,
    Mechanism,
    RevenueOptimalRule,
    ThresholdRule,
    _quote,
    critical_bid,
    make_context,
    masked_gva,
    run,
    run_batch,
)
from cursed_auctions.signals import RandomStream, SignalSpace, UniformIID, sample_profiles
from cursed_auctions.testing import (
    IntervalAllocationMechanism,
    LoserSurchargeMechanism,
    RealizedPriceMechanism,
)
from cursed_auctions.valuations import ConcaveSum, MaxSignal, ScalarMap, WeightedSum, cursed_value
from cursed_auctions.verify import (
    CHECKERS,
    Draw,
    SamplingPlan,
    check_allocation_monotone,
    check_cepic,
    check_cepir,
    check_chi_robustness,
    check_epbb,
    check_epir,
    check_no_positive_transfers,
    check_payment_chi_monotone,
)

PLAN = SamplingPlan(profile_count=1500, deviation_grid_size=41, stream=RandomStream(2024))


@pytest.fixture(scope="module")
def ctx():
    return make_context(SignalSpace(3, UniformIID(1.0)), WeightedSum(0.5))


@pytest.fixture(scope="module")
def wallet_ctx():
    return make_context(SignalSpace(2, UniformIID(100.0)), WeightedSum(1.0))


class TestCepic:
    def test_masked_gva_passes(self, wallet_ctx):
        rep = check_cepic(Draw(masked_gva(wallet_ctx, 1.0), wallet_ctx, PLAN))
        assert rep.passed and rep.max_violation <= rep.tolerance

    def test_revenue_optimal_passes(self, ctx):
        mech = Mechanism(RevenueOptimalRule(1.0), 1.0, "compensated")
        rep = check_cepic(Draw(mech, ctx, PLAN))
        assert rep.passed

    def test_realized_price_control_fails_with_witness(self, ctx):
        broken = RealizedPriceMechanism(GVARule(), 1.0, "compensated")
        rep = check_cepic(Draw(broken, ctx, PLAN))
        assert not rep.passed
        assert rep.witnesses and "deviation" in rep.witnesses[0]

    def test_truthful_utility_two_ways(self, ctx):
        mech = Mechanism(GVARule(), 0.63, "compensated")
        profiles = sample_profiles(ctx.space, RandomStream(3), 100)
        for row in profiles[:30]:
            out = run(mech, row, ctx)
            for i in range(3):
                won = out.winner == i
                direct = won * cursed_value(ctx.interim, 0.63, row, i) - out.payments[i]
                # identical algebra, evaluated without the executed outcome
                t_i = critical_bid(mech.rule, np.delete(row, i), ctx)
                if row[i] > t_i:
                    p_i = out.payments[i]
                    alg = cursed_value(ctx.interim, 0.63, row, i) - p_i
                else:
                    alg = -out.compensations[i]
                np.testing.assert_allclose(direct, alg, atol=1e-12)


class TestEpir:
    def test_compensated_gva_passes(self, ctx):
        rep = check_epir(Draw(Mechanism(GVARule(), 1.0, "compensated"), ctx, PLAN))
        assert rep.passed

    def test_zero_transfer_control_fails(self, ctx):
        rep = check_epir(Draw(Mechanism(GVARule(), 1.0, "zero-transfer"), ctx, PLAN))
        assert not rep.passed
        assert rep.witnesses

    def test_rational_zero_transfer_passes(self, ctx):
        rep = check_epir(Draw(Mechanism(GVARule(), 0.0, "zero-transfer"), ctx, PLAN))
        assert rep.passed


class TestCepir:
    def test_compensated_gva_any_chi(self, ctx):
        for chi in (0.0, 0.63, 1.0):
            rep = check_cepir(Draw(Mechanism(GVARule(), chi, "compensated"), ctx, PLAN))
            assert rep.passed

    def test_masked_gva(self, ctx):
        assert check_cepir(Draw(masked_gva(ctx, 1.0), ctx, PLAN)).passed

    def test_loser_surcharge_control_fails(self, ctx):
        rep = check_cepir(Draw(LoserSurchargeMechanism(GVARule(), 0.5, "compensated"), ctx, PLAN))
        assert not rep.passed


class TestBudget:
    def test_masked_gva_budget_balanced(self, ctx):
        assert check_epbb(Draw(masked_gva(ctx, 1.0), ctx, PLAN)).passed

    def test_unmasked_compensated_gva_fails(self, ctx):
        rep = check_epbb(Draw(Mechanism(GVARule(), 1.0, "compensated"), ctx, PLAN))
        assert not rep.passed
        assert rep.witnesses

    def test_rational_always_balanced(self, ctx):
        assert check_epbb(Draw(Mechanism(GVARule(), 0.0, "compensated"), ctx, PLAN)).passed

    def test_no_positive_transfers(self, ctx):
        assert check_no_positive_transfers(Draw(masked_gva(ctx, 1.0), ctx, PLAN)).passed
        rep = check_no_positive_transfers(Draw(Mechanism(GVARule(), 1.0, "compensated"), ctx, PLAN))
        assert not rep.passed

    def test_npt_implies_epbb_on_same_samples(self, ctx):
        # sum of non-negative payments: whenever npt passes, epbb must pass too
        for mech in (masked_gva(ctx, 1.0), Mechanism(GVARule(), 0.0, "compensated")):
            draw = Draw(mech, ctx, PLAN)
            npt = check_no_positive_transfers(draw)
            epbb = check_epbb(draw)
            if npt.passed:
                assert epbb.passed


class TestAllocationMonotone:
    def test_threshold_mechanisms_pass(self, ctx):
        for mech in (
            masked_gva(ctx, 1.0),
            Mechanism(RevenueOptimalRule(0.63), 0.63, "compensated"),
        ):
            assert check_allocation_monotone(Draw(mech, ctx, PLAN)).passed

    def test_interval_control_fails(self, ctx):
        rep = check_allocation_monotone(
            Draw(IntervalAllocationMechanism(GVARule(), 0.5, "compensated"), ctx, PLAN)
        )
        assert not rep.passed
        assert rep.witnesses

    def test_masked_max_signal_vacuous_pass(self):
        mctx = make_context(SignalSpace(3, UniformIID(1.0)), MaxSignal())
        assert check_allocation_monotone(Draw(masked_gva(mctx, 0.5), mctx, PLAN)).passed


class TestChiRobustness:
    def test_masked_gva_bound(self):
        ctx2 = make_context(SignalSpace(2, UniformIID(1.0)), WeightedSum(1.0))
        mech = masked_gva(ctx2, 0.5)
        rep = check_chi_robustness(Draw(mech, ctx2, PLAN), [0.1])
        assert rep.passed  # bound is eps * v(s_bar, s_bar) = 0.2

    def test_eps_zero_collapses_to_cepic(self):
        ctx2 = make_context(SignalSpace(2, UniformIID(1.0)), WeightedSum(1.0))
        mech = masked_gva(ctx2, 0.5)
        rep = check_chi_robustness(Draw(mech, ctx2, PLAN), [0.0])
        assert rep.passed and rep.max_violation <= rep.tolerance

    def test_large_eps_loose_bound(self):
        ctx2 = make_context(SignalSpace(2, UniformIID(1.0)), WeightedSum(1.0))
        mech = masked_gva(ctx2, 0.5)
        assert check_chi_robustness(Draw(mech, ctx2, PLAN), [0.5]).passed

    def test_out_of_range_eps_rejected(self, monkeypatch):
        ctx2 = make_context(SignalSpace(2, UniformIID(1.0)), WeightedSum(1.0))
        draw = Draw(masked_gva(ctx2, 0.5), ctx2, PLAN)
        monkeypatch.setattr(verify, "_deviation_regrets", None)  # rejected before any regret: a call raises TypeError
        for eps_list in ([0.6], [0.1, 0.6]):
            with pytest.raises(ValueError):
                check_chi_robustness(draw, eps_list)

    def test_eps_generator_read_once(self):
        ctx2 = make_context(SignalSpace(2, UniformIID(1.0)), WeightedSum(1.0))
        draw = Draw(masked_gva(ctx2, 0.5), ctx2, PLAN)
        listed = check_chi_robustness(draw, [0.1, 0.2])
        generated = check_chi_robustness(draw, (eps for eps in (0.1, 0.2)))
        assert generated.samples_checked == 2 * PLAN.profile_count
        assert generated.to_json() == listed.to_json()


class TestPaymentChiMonotone:
    def test_fixed_rule_pointwise(self, ctx):
        rep = check_payment_chi_monotone(GVARule(), ctx, [0.0, 0.25, 0.5, 0.75, 1.0], PLAN)
        assert rep.passed

    def test_mean_revenue_monotone_exactly(self, ctx):
        profiles = sample_profiles(ctx.space, PLAN.stream, PLAN.profile_count)
        means = [
            run_batch(Mechanism(GVARule(), c, "compensated"), profiles, ctx).revenue.sum()
            for c in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(b <= a for a, b in zip(means, means[1:]))

    def test_equal_chis_equal_payments(self, ctx):
        rep = check_payment_chi_monotone(GVARule(), ctx, [0.5, 0.5], PLAN)
        assert rep.max_violation <= 1e-12

    def test_unsorted_grid_rejected(self, ctx):
        with pytest.raises(ValueError):
            check_payment_chi_monotone(GVARule(), ctx, [0.5, 0.25], PLAN)


def test_checker_determinism(ctx):
    mech = masked_gva(ctx, 1.0)
    a = check_cepic(Draw(mech, ctx, PLAN))
    b = check_cepic(Draw(mech, ctx, PLAN))
    assert a.max_violation == b.max_violation
    assert a.samples_checked == b.samples_checked


def test_report_json_round_trip(ctx):
    import json

    rep = check_epir(Draw(Mechanism(GVARule(), 1.0, "zero-transfer"), ctx, PLAN))
    payload = json.loads(json.dumps(rep.to_json()))
    assert payload["passed"] == rep.passed
    assert payload["witnesses"]


@pytest.mark.parametrize("tolerance", [-1.0, float("nan"), float("inf"), -float("inf")])
def test_bad_tolerance_rejected(tolerance):
    with pytest.raises(ValueError):
        SamplingPlan(tolerance=tolerance)


def test_zero_tolerance_accepted(ctx):
    rep = check_epir(Draw(Mechanism(GVARule(), 1.0, "compensated"), ctx, SamplingPlan(profile_count=50, tolerance=0.0)))
    assert rep.tolerance == 0.0 and rep.passed


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDraw:
    """A Draw's per-agent quotes, rebuilt from its batch's thresholds, match
    separate quotes, and its batch matches run_batch at any row spans."""

    MODELS = {
        "weighted_sum": WeightedSum(0.5),
        "max_signal": MaxSignal(),
        "concave_sum": ConcaveSum(ScalarMap("log1p_scaled", (1.0,)), ScalarMap("identity"), ScalarMap("power", (0.5,))),
    }
    MECHS = {
        "gva": lambda: Mechanism(GVARule(), 0.7, "compensated"),
        "gva_zero_transfer": lambda: Mechanism(GVARule(), 0.7, "zero-transfer"),
        "masked": lambda: Mechanism(MaskedRule(GVARule()), 0.5, "compensated"),
        "revenue_optimal": lambda: Mechanism(RevenueOptimalRule(0.63), 0.63, "compensated"),
    }

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_matches_separate_quotes_and_run_batch(self, monkeypatch, model, n):
        ctx = make_context(SignalSpace(n, UniformIID(1.0)), self.MODELS[model])
        plan = SamplingPlan(profile_count=300, stream=RandomStream(67, n))
        for name, make in self.MECHS.items():
            mech = make()
            draw = Draw(mech, ctx, plan)
            for i in range(n):
                alone = _quote(mech, draw.profiles, ctx, [i])
                column = draw.agent_quote(i)
                for field, a in vars(alone).items():
                    assert _same_bits(getattr(column, field), a), (name, i, field)
            # one run_batch chunk, then 43 of 7 rows; only run_batch's spans are patched, so the
            # optimizer and the mask scan inside keep their default chunks
            for chunk_rows in (None, 7):
                if chunk_rows:
                    seven = lambda N, width: [slice(a, a + 7) for a in range(0, N, 7)]
                    monkeypatch.setattr(mechanisms, "_row_spans", seven)
                batch = run_batch(mech, draw.profiles, ctx)
                for field, a in vars(batch).items():
                    assert _same_bits(getattr(draw.batch, field), a), (name, chunk_rows, field)
            monkeypatch.undo()


class _CountingRule(ThresholdRule):
    """Delegates to a rule and records the rows of every critical_bids call."""

    def __init__(self, base):
        self.base, self.calls = base, []

    def critical_bids(self, view, ctx):
        self.calls.append(len(view))
        return self.base.critical_bids(view, ctx)


def test_every_checker_reads_one_quote(ctx):
    rule = _CountingRule(RevenueOptimalRule(0.5))
    plan = SamplingPlan(profile_count=200, deviation_grid_size=11, stream=RandomStream(5))
    draw = Draw(Mechanism(rule, 0.5, "compensated"), ctx, plan)
    for checker in CHECKERS.values():
        checker(draw)
    check_chi_robustness(draw, [0.1, 0.2])
    assert rule.calls == [200 * ctx.space.n]


def _reports(draw) -> str:
    """Every report of ``draw``, witnesses included, as one JSON text."""
    out = [checker(draw).to_json() for checker in CHECKERS.values()]
    return json.dumps(out + [check_chi_robustness(draw, [0.1, 0.2]).to_json()])


@pytest.mark.parametrize(
    "make",
    [
        lambda: Mechanism(_CountingRule(RevenueOptimalRule(0.5)), 0.5, "compensated"),
        lambda: Mechanism(_CountingRule(MaskedRule(GVARule())), 0.5, "zero-transfer"),
        lambda: RealizedPriceMechanism(_CountingRule(GVARule()), 0.5, "compensated"),
        lambda: LoserSurchargeMechanism(_CountingRule(GVARule()), 0.5, "compensated"),
        lambda: IntervalAllocationMechanism(_CountingRule(GVARule()), 0.5, "compensated"),
    ],
    ids=["revenue_optimal", "masked_zero_transfer", "realized_price", "loser_surcharge", "interval_allocation"],
)
def test_quotes_follow_run_batch_spans(ctx, monkeypatch, make):
    """A Draw quotes its profiles in run_batch's row spans, and the reports,
    witnesses included, do not depend on those spans."""
    plan = SamplingPlan(profile_count=200, deviation_grid_size=11, stream=RandomStream(13))
    whole = _reports(Draw(make(), ctx, plan))
    seven = lambda N, width: [slice(a, min(a + 7, N)) for a in range(0, N, 7)]
    monkeypatch.setattr(mechanisms, "_row_spans", seven)
    mech = make()
    draw = Draw(mech, ctx, plan)
    assert len(mech.rule.calls) == 29 and max(mech.rule.calls) == 7 * ctx.space.n
    assert _reports(draw) == whole


@pytest.mark.parametrize(
    "make",
    [
        lambda: Mechanism(RevenueOptimalRule(0.5), 0.5, "compensated"),
        lambda: RealizedPriceMechanism(GVARule(), 0.5, "compensated"),
        lambda: IntervalAllocationMechanism(GVARule(), 0.5, "compensated"),
    ],
    ids=["revenue_optimal", "realized_price", "interval_allocation"],
)
def test_row_chunks_match_one_chunk(ctx, monkeypatch, make):
    """Reports, witnesses included, do not depend on how the deviation and
    monotonicity passes split the profile rows."""
    plan = SamplingPlan(profile_count=200, deviation_grid_size=11, stream=RandomStream(13))
    draw = Draw(make(), ctx, plan)
    whole = _reports(draw)
    # 7-row deviation chunks of 4 * 14 cells, 1-row monotonicity chunks of 4 * 201
    monkeypatch.setattr(valuations, "_CHUNK_CELLS", 7 * 4 * 14)
    assert _reports(draw) == whole
