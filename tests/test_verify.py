import json
import tracemalloc

import numpy as np
import pytest

from cursed_auctions import cli, mechanisms, valuations, verify
from cursed_auctions.mechanisms import (
    GVARule,
    MaskedRule,
    Mechanism,
    MechanismInvariantError,
    RevenueOptimalRule,
    ThresholdRule,
    _quote,
    critical_bid,
    make_context,
    masked_gva,
    run,
    run_batch,
)
from cursed_auctions.reports import _WorstCases
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
    check_properties,
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

    def test_empty_eps_list_rejected(self, monkeypatch):
        ctx2 = make_context(SignalSpace(2, UniformIID(1.0)), WeightedSum(1.0))
        draw = Draw(masked_gva(ctx2, 0.5), ctx2, SamplingPlan(profile_count=100))
        monkeypatch.setattr(verify, "_deviation_regrets", None)  # rejected before any regret: a call raises TypeError
        for eps_list in ([], iter(())):
            with pytest.raises(ValueError, match="empty eps list"):
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

    @pytest.mark.parametrize("chis", [[], [0.5]])
    def test_fewer_than_two_chis_rejected(self, ctx, monkeypatch, chis):
        monkeypatch.setattr(verify, "_executed", None, raising=False)  # rejected before anything is drawn: a call raises TypeError
        with pytest.raises(ValueError, match="fewer than two"):
            check_payment_chi_monotone(GVARule(), ctx, chis, SamplingPlan(profile_count=100))

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


@pytest.mark.parametrize(
    "key, count",
    [
        ("profile_count", 10.5),
        ("deviation_grid_size", 2.5),
        ("profile_count", np.float64(3.0)),
        ("deviation_grid_size", np.float64(3.0)),
        ("profile_count", "20"),
        ("profile_count", True),
        ("deviation_grid_size", False),
    ],
)
def test_non_integer_counts_rejected(key, count):
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        SamplingPlan(**{key: count})


def test_numpy_integer_counts_accepted(ctx):
    plan = SamplingPlan(profile_count=np.int64(50), deviation_grid_size=np.int32(11))
    rep = check_cepic(Draw(masked_gva(ctx, 1.0), ctx, plan))
    assert rep.passed and rep.samples_checked == 50


class TestCheckProperties:
    def test_reports_by_name_in_the_order_given(self, ctx):
        draw = Draw(Mechanism(GVARule(), 1.0, "compensated"), ctx, SamplingPlan(profile_count=100))
        reports = check_properties(draw, ["npt", "epir", "epbb"])
        assert list(reports) == ["npt", "epir", "epbb"]
        assert [rep.name for rep in reports.values()] == ["no_positive_transfers", "epir", "epbb"]
        for name, rep in reports.items():
            assert rep.to_json() == CHECKERS[name](draw).to_json()

    @pytest.mark.parametrize(
        "names, what",
        [
            (["epir", "nonsense", "nonsense"], "unknown properties ['nonsense']"),
            ([], "the property list names no property"),
            (iter(()), "the property list names no property"),
        ],
    )
    def test_unknown_or_no_name_rejected_before_anything_is_drawn(self, ctx, monkeypatch, names, what):
        draw = Draw(masked_gva(ctx, 1.0), ctx, SamplingPlan(profile_count=100))
        monkeypatch.setattr(draw, "_spans", None)  # rejected before any span: a call raises TypeError
        with pytest.raises(ValueError) as err:
            check_properties(draw, names)
        assert str(err.value) == f"{what}; available: {sorted(CHECKERS)}"

    def test_a_name_given_twice_is_checked_once(self, ctx, monkeypatch):
        """One fold per name: over one span, a repeated name is folded and reported once."""
        calls, add, report = [], _WorstCases.add, _WorstCases.report
        monkeypatch.setattr(_WorstCases, "add", lambda cases, *a: calls.append("add") or add(cases, *a))
        monkeypatch.setattr(_WorstCases, "report", lambda cases, name, *a: calls.append(name) or report(cases, name, *a))
        draw = Draw(Mechanism(GVARule(), 1.0, "zero-transfer"), ctx, SamplingPlan(profile_count=100))
        twice = check_properties(draw, ["epir", "epbb", "epir"])
        assert calls == ["add", "add", "epir", "epbb"] and list(twice) == ["epir", "epbb"]
        assert twice["epir"].to_json() == check_epir(draw).to_json()


def test_zero_tolerance_accepted(ctx):
    rep = check_epir(Draw(Mechanism(GVARule(), 1.0, "compensated"), ctx, SamplingPlan(profile_count=50, tolerance=0.0)))
    assert rep.tolerance == 0.0 and rep.passed


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDraw:
    """A Draw's span holds the sample's profiles, its per-agent quotes, rebuilt
    from the span batch's thresholds, match separate quotes, and its batch
    matches run_batch at any row spans."""

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
        profiles = sample_profiles(ctx.space, plan.stream, plan.profile_count)
        for name, make in self.MECHS.items():
            mech = make()
            (span,) = Draw(mech, ctx, plan)._spans()  # 300 rows are one run_batch span
            assert _same_bits(span.profiles, profiles)
            for i in range(n):
                alone = _quote(mech, profiles, ctx, [i])
                column = span.agent_quote(i)
                for field, a in vars(alone).items():
                    assert _same_bits(getattr(column, field), a), (name, i, field)
            # one run_batch chunk, then 43 of 7 rows; only run_batch's spans are patched, so the
            # optimizer and the mask scan inside keep their default chunks
            for chunk_rows in (None, 7):
                if chunk_rows:
                    seven = lambda N, width: [slice(a, a + 7) for a in range(0, N, 7)]
                    monkeypatch.setattr(mechanisms, "_row_spans", seven)
                batch = run_batch(mech, profiles, ctx)
                for field, a in vars(batch).items():
                    assert _same_bits(getattr(span.batch, field), a), (name, chunk_rows, field)
            monkeypatch.undo()


class _CountingRule(ThresholdRule):
    """Delegates to a rule and records the rows of every critical_bids call."""

    def __init__(self, base):
        self.base, self.calls = base, []

    def critical_bids(self, view, ctx):
        self.calls.append(len(view))
        return self.base.critical_bids(view, ctx)


def _seven(N, width):
    """7-row spans, in place of ``_row_spans``."""
    return [slice(a, min(a + 7, N)) for a in range(0, N, 7)]


def _reports(draw) -> str:
    """Every report of ``draw``, witnesses included, from one pass, as one JSON text."""
    checks = [*(checker._check for checker in CHECKERS.values()), verify._chi_robustness(draw, [0.1, 0.2])]
    return json.dumps([rep.to_json() for rep in verify._pass(draw, checks)])


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
    monkeypatch.setattr(mechanisms, "_row_spans", _seven)
    mech = make()
    draw = Draw(mech, ctx, plan)
    assert mech.rule.calls == []  # a Draw draws nothing until a pass
    assert _reports(draw) == whole
    assert len(mech.rule.calls) == 29 and max(mech.rule.calls) == 7 * ctx.space.n


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
    # the chunks of a 7 * 4 * 14 cell budget in the checks alone: 7-row deviation chunks of 4 * 14
    # cells, 1-row monotonicity chunks of 4 * 201; run_batch and the threshold search keep theirs
    step = lambda width: max(1, 7 * 4 * 14 // width)
    monkeypatch.setattr(verify, "_row_spans", lambda N, width: [slice(a, min(a + step(width), N)) for a in range(0, N, step(width))])
    assert _reports(draw) == whole


class _TwoWinners(Mechanism):
    """Every bidder above 0.9 wins when the top one does: two winners where two signals pass 0.9."""

    def _win(self, bids, q, ctx):
        return np.asarray(bids) > np.minimum(q.t, 0.9)[:, None]


class _RisingPrice(Mechanism):
    """A winner bidding above 0.9 pays chi: its payment rises with chi, by the same step at every such case."""

    def _winner_payments(self, bids, q, ctx):
        return np.where(np.asarray(bids) > 0.9, self.chi, q.price[:, None])


def _rows_of(profiles, witnesses) -> list:
    """The sample rows the witnesses' profiles name."""
    row_of = {tuple(p): r for r, p in enumerate(profiles.tolist())}
    return [row_of[tuple(w["profile"])] for w in witnesses]


class TestSpans:
    """A pass draws and executes one run_batch span at a time, every check of
    the pass reads that span's one quote, and the reports, witnesses included,
    are those of one span."""

    PLAN = SamplingPlan(profile_count=200, deviation_grid_size=11, stream=RandomStream(13))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RealizedPriceMechanism(GVARule(), 0.5, "compensated"),
            lambda: IntervalAllocationMechanism(GVARule(), 0.5, "compensated"),
        ],
        ids=["realized_price", "interval_allocation"],
    )
    def test_each_checker_gives_the_report_of_the_pass(self, ctx, monkeypatch, make):
        """Each public checker, making its own pass at 7-row spans, gives the
        report of the one pass at one span, and so does check_properties over
        all six names at 7-row spans."""
        draw = Draw(make(), ctx, self.PLAN)
        whole = _reports(draw)
        monkeypatch.setattr(mechanisms, "_row_spans", _seven)
        separate = [checker(draw).to_json() for checker in CHECKERS.values()]
        assert json.dumps(separate + [check_chi_robustness(draw, [0.1, 0.2]).to_json()]) == whole
        together = check_properties(draw, list(CHECKERS))
        assert list(together) == list(CHECKERS)
        assert [rep.to_json() for rep in together.values()] == separate

    def test_check_properties_quotes_each_span_once(self, ctx, monkeypatch):
        """check_properties checks all six properties in one pass, which calls
        critical_bids once per run_batch span."""
        monkeypatch.setattr(mechanisms, "_row_spans", _seven)
        mech = Mechanism(_CountingRule(RevenueOptimalRule(0.63)), 0.63, "compensated")
        reports = check_properties(Draw(mech, ctx, self.PLAN), list(CHECKERS))
        assert list(reports) == list(CHECKERS)
        assert mech.rule.calls == [7 * 3] * 28 + [4 * 3]

    def test_tied_margins_across_a_span_edge(self, ctx, monkeypatch):
        """Ties keep profile order across spans: a window of 0.7 makes some
        profiles drop their allocation, each by a margin of 1."""
        draw = Draw(IntervalAllocationMechanism(GVARule(), 0.5, window=0.7), ctx, self.PLAN)
        whole = check_allocation_monotone(draw)
        monkeypatch.setattr(mechanisms, "_row_spans", _seven)
        assert check_allocation_monotone(draw).to_json() == whole.to_json()
        rows = _rows_of(sample_profiles(ctx.space, self.PLAN.stream, 200), whole.witnesses)
        assert [w["margin"] for w in whole.witnesses] == [1.0] * 5 and rows == sorted(rows)
        assert rows[0] < 7 <= rows[-1]  # the tie straddles the first span edge

    def test_payment_chi_monotone_matches_one_span(self, ctx, monkeypatch):
        """Pair-major cases over spans: every winner above 0.9 raises its
        payment by 0.25 from one chi to the next, so the witnesses are the first
        such (profile, agent) cases of the first pair, over several spans."""
        monkeypatch.setattr(verify, "Mechanism", _RisingPrice)
        whole = check_payment_chi_monotone(GVARule(), ctx, [0.0, 0.25, 0.5], self.PLAN)
        assert whole.max_violation == 0.25 and whole.samples_checked == 600
        assert [(w["chi_pair"], w["margin"]) for w in whole.witnesses] == [([0.0, 0.25], 0.25)] * 5
        rows = _rows_of(sample_profiles(ctx.space, self.PLAN.stream, 200), whole.witnesses)
        assert rows == sorted(rows) and len({r // 7 for r in rows}) > 1
        monkeypatch.setattr(mechanisms, "_row_spans", _seven)
        assert check_payment_chi_monotone(GVARule(), ctx, [0.0, 0.25, 0.5], self.PLAN).to_json() == whole.to_json()

    @pytest.mark.parametrize("spans", [None, _seven], ids=["one_span", "seven_rows"])
    def test_invariant_error_names_the_sample_row(self, ctx, monkeypatch, spans):
        profiles = sample_profiles(ctx.space, self.PLAN.stream, 200)
        high = profiles > 0.9
        row = int(np.argmax(high.sum(axis=1) >= 2))
        assert row >= 7  # past the first 7-row span
        if spans is not None:
            monkeypatch.setattr(mechanisms, "_row_spans", spans)
        with pytest.raises(MechanismInvariantError) as err:
            check_epbb(Draw(_TwoWinners(GVARule(), 0.5), ctx, self.PLAN))
        second = int(np.flatnonzero(high[row])[1])
        assert (err.value.what, err.value.row, err.value.agent) == ("more than one winner", row, second)

    def test_verify_quotes_each_span_once(self, tmp_path, monkeypatch):
        """``verify`` checks every property in one pass, which calls
        critical_bids once per run_batch span."""
        calls, solve = [], RevenueOptimalRule.critical_bids
        monkeypatch.setattr(RevenueOptimalRule, "critical_bids", lambda rule, view, c: calls.append(len(view)) or solve(rule, view, c))
        monkeypatch.setattr(mechanisms, "_row_spans", _seven)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mechanism": {"rule": {"kind": "revenue_optimal"}}, "samples": 200}))
        assert cli.main(["--config", str(config), "--out", str(tmp_path), "verify", "--deviations", "11"]) == 1
        reports = json.loads((tmp_path / "verify.json").read_text())["reports"]
        assert sorted(reports) == sorted(CHECKERS)
        assert calls == [7 * 3] * 28 + [4 * 3]

    def test_a_pass_holds_one_span(self, ctx, monkeypatch):
        """With 200-row spans, the traced peak of a pass over 2,400 profiles
        stays within 10% of that over 600."""
        monkeypatch.setattr(valuations, "_CHUNK_CELLS", mechanisms._BATCH_CELLS * 3 * 200)
        peaks = []
        for count in (600, 2_400):
            plan = SamplingPlan(profile_count=count, deviation_grid_size=11, stream=RandomStream(17))
            draw = Draw(masked_gva(ctx, 0.63), ctx, plan)
            tracemalloc.start()
            try:
                _reports(draw)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    def test_threshold_search_forks_inside_a_pass(self, ctx, monkeypatch, set_cpus):
        """At two CPUs and no fork budget, each span's threshold search forks
        two parts from inside the span loop, and the reports are the inline ones."""
        monkeypatch.setattr(valuations, "_CHUNK_CELLS", 2048 * 20)  # 341-row spans, 20-row optimizer chunks
        plan = SamplingPlan(profile_count=400, deviation_grid_size=11, stream=RandomStream(19))
        make = lambda: Mechanism(RevenueOptimalRule(0.5), 0.5, "compensated")
        set_cpus(1)
        inline = _reports(Draw(make(), ctx, plan))
        monkeypatch.setattr(valuations, "_FORK_CELLS", 0)
        forks = set_cpus(2)
        assert _reports(Draw(make(), ctx, plan)) == inline
        assert len(mechanisms._batch_spans(400, 3)) == 2 and len(forks) == 4
