import multiprocessing
import os
import pickle
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cursed_auctions import evaluate, mechanisms, valuations
from cursed_auctions.mechanisms import (
    GVARule,
    MaskedRule,
    Mechanism,
    MechanismInvariantError,
    ModelUnsupportedError,
    OthersView,
    RevenueOptimalRule,
    _quote,
    _threshold_revenue,
    agent_outcomes_for_bids,
    critical_bid,
    make_context,
    masked_gva,
    rule_from_config,
    run,
    run_batch,
)
from cursed_auctions.oracle import GridModel
from cursed_auctions.signals import (
    DiscreteGridIID,
    GenericIID,
    RandomStream,
    SignalSpace,
    UniformIID,
    sample_profiles,
)
from cursed_auctions.testing import ConstantOffsetRule
from cursed_auctions.valuations import (
    ConcaveSum,
    MaxSignal,
    ScalarMap,
    WeightedSum,
    _CHUNK_CELLS,
    _chunked,
    cursed_value_from_parts,
    value,
)


@pytest.fixture(scope="module")
def wallet_ctx():
    return make_context(SignalSpace(2, UniformIID(100.0)), WeightedSum(1.0))


@pytest.fixture(scope="module")
def unit_ctx():
    return make_context(SignalSpace(2, UniformIID(1.0)), WeightedSum(1.0))


@pytest.fixture(scope="module")
def three_ctx():
    return make_context(SignalSpace(3, UniformIID(1.0)), WeightedSum(0.5))


class TestCriticalBid:
    def test_gva_is_max_of_others(self, three_ctx):
        assert critical_bid(GVARule(), np.array([0.3, 0.7]), three_ctx) == 0.7

    def test_masked_gva_wallet(self, wallet_ctx):
        rule = MaskedRule(GVARule())
        assert critical_bid(rule, np.array([60.0]), wallet_ctx) == 60.0
        assert critical_bid(rule, np.array([40.0]), wallet_ctx) == 100.0

    def test_constant_offset_caps_at_s_bar(self, unit_ctx):
        rule = ConstantOffsetRule(0.3)
        np.testing.assert_allclose(critical_bid(rule, np.array([0.5]), unit_ctx), 0.8)
        assert critical_bid(rule, np.array([0.9]), unit_ctx) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2), st.sampled_from(["gva", "masked", "revopt", "offset"]))
    def test_threshold_range_invariant(self, others, kind):
        ctx = make_context(SignalSpace(3, UniformIID(1.0)), WeightedSum(0.5))
        rule = {
            "gva": GVARule(),
            "masked": MaskedRule(GVARule()),
            "revopt": RevenueOptimalRule(0.5),
            "offset": ConstantOffsetRule(0.2),
        }[kind]
        t = critical_bid(rule, np.array(others), ctx)
        assert max(others) - 1e-12 <= t <= 1.0 + 1e-12

    def test_anonymous_in_others_order(self, three_ctx):
        rule = RevenueOptimalRule(1.0)
        a = critical_bid(rule, np.array([0.2, 0.6]), three_ctx)
        b = critical_bid(rule, np.array([0.6, 0.2]), three_ctx)
        assert a == b

    @pytest.mark.parametrize(
        "rule, others",
        [(GVARule(), [0.2, 0.3, 0.4, 0.9]), (GVARule(), [np.nan, 0.3]), (RevenueOptimalRule(0.5), [1.5, 0.3])],
        ids=["too_many_others", "nan_signal", "signal_above_s_bar"],
    )
    def test_malformed_others_rejected(self, three_ctx, rule, others):
        with pytest.raises(ValueError, match="must"):
            critical_bid(rule, np.array(others), three_ctx)


def _compensation(mech, others, ctx):
    """Agent 0's compensation at these others, read from an executed auction
    (agent 0 reports 0, but the compensation depends on the others alone)."""
    return run(mech, np.concatenate(([0.0], others)), ctx).compensations[0]


class TestCompensation:
    def test_masked_rule_never_compensates(self, wallet_ctx):
        mech = masked_gva(wallet_ctx, 1.0)
        for others in ([10.0], [40.0], [60.0], [99.0]):
            assert _compensation(mech, others, wallet_ctx) == 0.0

    def test_gva_low_others(self, three_ctx):
        mech = Mechanism(GVARule(), 1.0, "compensated")
        np.testing.assert_allclose(_compensation(mech, [0.2, 0.2], three_ctx), -0.3)

    def test_chi_zero_no_compensation(self, three_ctx):
        mech = Mechanism(GVARule(), 0.0, "compensated")
        assert _compensation(mech, [0.2, 0.2], three_ctx) == 0.0

    def test_zero_transfer_policy(self, three_ctx):
        mech = Mechanism(GVARule(), 1.0, "zero-transfer")
        assert _compensation(mech, [0.2, 0.2], three_ctx) == 0.0


class TestRun:
    def test_masked_gva_wallet_profile(self, wallet_ctx):
        out = run(masked_gva(wallet_ctx, 1.0), np.array([80.0, 60.0]), wallet_ctx)
        assert out.winner == 0
        assert out.threshold_used == 60.0
        np.testing.assert_allclose(out.payments, [110.0, 0.0])
        np.testing.assert_allclose(out.welfare, 140.0)
        np.testing.assert_allclose(out.revenue, 110.0)

    def test_masked_gva_blocks_low_loser(self, wallet_ctx):
        out = run(masked_gva(wallet_ctx, 1.0), np.array([80.0, 40.0]), wallet_ctx)
        assert out.winner is None
        assert out.welfare == 0.0
        np.testing.assert_allclose(out.payments, [0.0, 0.0])

    def test_compensated_gva_three_bidders(self, three_ctx):
        mech = Mechanism(GVARule(), 1.0, "compensated")
        out = run(mech, np.array([0.9, 0.2, 0.2]), three_ctx)
        assert out.winner == 0
        np.testing.assert_allclose(out.payments[0], 0.4)
        np.testing.assert_allclose(out.payments[1:], 0.0)  # loser curse gap is >= 0 at t=0.9
        np.testing.assert_allclose(out.revenue, 0.4)

    def test_ties_never_allocate(self, three_ctx):
        mech = Mechanism(GVARule(), 1.0, "compensated")
        out = run(mech, np.array([0.5, 0.5, 0.1]), three_ctx)
        assert out.winner is None
        np.testing.assert_allclose(out.payments, out.compensations)

    def test_near_tie_feasibility(self, three_ctx):
        mech = Mechanism(GVARule(), 0.5, "compensated")
        eps = 1e-14
        profiles = np.array(
            [[0.5, 0.5, 0.1], [0.5 + eps, 0.5, 0.1], [0.5, 0.5 - eps, 0.5]]
        )
        batch = run_batch(mech, profiles, three_ctx)
        assert np.all(batch.win.sum(axis=1) <= 1)

    def test_winner_payment_identity_two_paths(self, three_ctx):
        # the winner's min-rule price equals the cursed value at the threshold
        # plus the participation constant, both read from the agent's quote
        mech = Mechanism(GVARule(), 0.7, "compensated")
        profiles = sample_profiles(three_ctx.space, RandomStream(21), 300)
        batch = run_batch(mech, profiles, three_ctx)
        for i in range(3):
            q = _quote(mech, profiles, three_ctx, [i])
            via_identity = cursed_value_from_parts(q.v_t, q.mu_t, mech.chi) + q.compensation
            won = batch.winner == i
            assert won.any()
            np.testing.assert_allclose(batch.payments[won, i], via_identity[won], atol=1e-12)

    def test_allocation_is_step_function_in_own_signal(self, three_ctx):
        mech = Mechanism(RevenueOptimalRule(1.0), 1.0, "compensated")
        s_grid = np.linspace(0.0, 1.0, 201)
        for others in ([0.1, 0.2], [0.5, 0.6], [0.0, 0.0]):
            wins = []
            for s in s_grid:
                out = run(mech, np.array([s] + others), three_ctx)
                wins.append(1 if out.winner == 0 else 0)
            assert np.all(np.diff(wins) >= 0)


class TestRevenueOptimalRule:
    @pytest.mark.parametrize("chi", [1.5, -0.1, float("nan")])
    def test_chi_outside_unit_interval_rejected(self, chi):
        with pytest.raises(ValueError, match="chi"):
            RevenueOptimalRule(chi)
        with pytest.raises(ValueError, match="chi"):
            rule_from_config({"kind": "revenue_optimal", "chi": chi})

    def test_interior_optimum_fully_cursed(self, unit_ctx):
        rule = RevenueOptimalRule(1.0)
        t = critical_bid(rule, np.array([0.1]), unit_ctx)
        np.testing.assert_allclose(t, 0.25, atol=1e-6)
        view = OthersView.from_others(np.array([[0.1]]), unit_ctx.model)
        r_star = float(_threshold_revenue(np.array([t]), view, unit_ctx, 1.0)[0])
        # frozen via an independent 2e6-point grid scan of the objective
        np.testing.assert_allclose(r_star, 0.1625, atol=1e-6)

    def test_boundary_binds(self, unit_ctx):
        rule = RevenueOptimalRule(1.0)
        np.testing.assert_allclose(critical_bid(rule, np.array([0.4]), unit_ctx), 0.4, atol=1e-9)

    def test_rational_case_matches_monopoly_threshold(self, unit_ctx):
        rule = RevenueOptimalRule(0.0)
        np.testing.assert_allclose(critical_bid(rule, np.array([0.2]), unit_ctx), 0.4, atol=1e-6)

    def test_dominates_grid_and_never_negative(self, three_ctx):
        rule = RevenueOptimalRule(0.63)
        others = sample_profiles(three_ctx.space, RandomStream(17), 50)[:, :2]
        for o in others:
            t_star = critical_bid(rule, o, three_ctx)
            view = OthersView.from_others(o[None, :], three_ctx.model)
            r_star = float(_threshold_revenue(np.array([t_star]), view, three_ctx, 0.63)[0])
            assert r_star >= -1e-12
            grid = np.linspace(o.max(), 1.0, 257)
            r_grid = _threshold_revenue(grid[:, None], OthersView(view.max, view.stat), three_ctx, 0.63)[:, 0]
            r_grid[-1] = 0.0
            assert r_star >= r_grid.max() - 1e-9

    def test_chi_validated(self):
        with pytest.raises(ValueError):
            RevenueOptimalRule(1.5)


class TestMasking:
    def test_max_signal_masks_to_never_allocate(self):
        ctx = make_context(SignalSpace(3, UniformIID(1.0)), MaxSignal())
        rule = MaskedRule(GVARule())
        for others in ([0.2, 0.5], [0.0, 0.9], [0.99, 0.98]):
            assert critical_bid(rule, np.array(others), ctx) == 1.0

    def test_weighted_sum_mask_condition(self, three_ctx):
        # curse gap is constant in t: allocate at the base iff sum(others) >= (n-1)/2
        rule = MaskedRule(GVARule())
        others = sample_profiles(three_ctx.space, RandomStream(31), 200)[:, :2]
        for o in others:
            t = critical_bid(rule, o, three_ctx)
            if o.sum() >= 1.0:
                assert t == o.max()
            else:
                assert t == 1.0

    def test_mask_is_idempotent(self, three_ctx):
        rule = MaskedRule(GVARule())
        twice = MaskedRule(rule)
        others = sample_profiles(three_ctx.space, RandomStream(37), 100)[:, :2]
        for o in others:
            assert critical_bid(rule, o, three_ctx) == critical_bid(twice, o, three_ctx)

    def test_masked_thresholds_do_not_depend_on_chi(self, three_ctx):
        profiles = sample_profiles(three_ctx.space, RandomStream(41), 500)
        batches = [
            run_batch(masked_gva(three_ctx, chi), profiles, three_ctx) for chi in (0.25, 0.75)
        ]
        np.testing.assert_array_equal(batches[0].thresholds, batches[1].thresholds)
        np.testing.assert_array_equal(batches[0].winner, batches[1].winner)

    def test_masked_payments_never_negative(self, three_ctx):
        mech = masked_gva(three_ctx, 1.0)
        profiles = sample_profiles(three_ctx.space, RandomStream(43), 2000)
        batch = run_batch(mech, profiles, three_ctx)
        assert np.all(batch.payments >= 0.0)
        assert np.all(batch.revenue >= 0.0)


class TestMaxSignalMaskClosedForm:
    """The one-probe MaxSignal decision equals the generic mask scan bit for bit."""

    BAND = (0.0, 1e-16, 2.2e-16, 1e-15, 1e-13, 1e-12, 1e-9)

    @pytest.fixture(
        params=[
            UniformIID(1.0),
            UniformIID(2.0),
            GenericIID("power", (0.5, 1.0)),
            DiscreteGridIID(tuple(np.linspace(0.0, 1.0, 5))),
            DiscreteGridIID(tuple(np.linspace(0.0, 1.0, 11))),
            DiscreteGridIID((0.2, 0.5, 1.0)),
            DiscreteGridIID((0.0, 0.5, 0.5, 1.0)),
        ],
        ids=repr,
    )
    def marginal(self, request):
        return request.param

    @staticmethod
    def _masked_and_scanned(view, ctx, monkeypatch):
        scanned = []
        scan = mechanisms._mask_scan

        def spy(base, stat, ctx):
            scanned.append(base.copy())
            return scan(base, stat, ctx)

        monkeypatch.setattr(valuations, "_cpus", lambda: 1)  # the spy sees the scans of this process only
        with monkeypatch.context() as m:
            m.setattr(mechanisms, "_mask_scan", spy)
            got = MaskedRule(GVARule()).critical_bids(view, ctx)
        plain = lambda b, s: mechanisms._mask_scan(b, s, ctx)
        ref = _chunked(plain, _CHUNK_CELLS // 1000, view.max, view.stat)  # 1000-row chunks
        return got, ref, np.concatenate([np.empty(0)] + scanned)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_scan(self, marginal, n, monkeypatch):
        ctx = make_context(SignalSpace(n, marginal), MaxSignal())
        s_bar = ctx.s_bar
        profiles = sample_profiles(ctx.space, RandomStream(53 + n), 2000)

        # GVA bases: every row is decided without the scan, and never allocates
        gva = OthersView.from_others(profiles[:, 1:], ctx.model)
        got, ref, scanned = self._masked_and_scanned(gva, ctx, monkeypatch)
        assert np.array_equal(got, ref)
        assert np.all(got == s_bar) and scanned.size == 0

        # bases next to s_bar: the rows where the scan returns an interior
        # threshold (the rounding band) must reach the scan; the sweep puts
        # the band's edge in the scan's last interior cell for a few rows
        band = s_bar - np.concatenate([self.BAND, s_bar * np.geomspace(1e-15, 1e-9, 120)])
        got, ref, scanned = self._masked_and_scanned(OthersView(band, band), ctx, monkeypatch)
        assert np.array_equal(got, ref)
        interior = (ref > band) & (ref < s_bar)
        # a continuous tail is quadratic at s_bar and rounds away on a band of
        # bases; a grid's tail is linear there, c * (s_bar - t), and for c near
        # 1/2 or above it stays above half an ulp of t at every scan point
        assert interior.any() or isinstance(marginal, DiscreteGridIID)
        assert np.isin(band[interior], scanned).all()

        # off-contract rows with base < stat go through the scan
        stat = gva.stat
        below = OthersView(stat * RandomStream(59).generator().random(len(stat)), stat)
        got, ref, scanned = self._masked_and_scanned(below, ctx, monkeypatch)
        assert np.array_equal(got, ref)
        assert np.any(ref < s_bar) and scanned.size > 0


_L2 = ConcaveSum(ScalarMap("power", (0.5,)), ScalarMap("power", (2.0,)), ScalarMap("power", (2.0,)))
_LOG1P = ConcaveSum(ScalarMap("log1p_scaled", (1.0,)), ScalarMap("identity"), ScalarMap("power", (0.5,)))
_DISTINCT_MODELS = {"weighted_sum": WeightedSum(0.5), "max_signal": MaxSignal(), "l2": _L2, "log1p": _LOG1P}
_DISTINCT_MARGINALS = {
    "uniform": UniformIID(1.0),
    "power": GenericIID("power", (2.0, 1.0)),
    "grid": DiscreteGridIID(tuple(np.linspace(0.0, 1.0, 7))),
}
# every model meets every marginal, and each of them meets n = 2, 3 and 5
_DISTINCT_CASES = [
    (model, marginal, (2, 3, 5)[(i + j) % 3])
    for i, model in enumerate(_DISTINCT_MODELS)
    for j, marginal in enumerate(_DISTINCT_MARGINALS)
]


class TestSolveDistinct:
    """Thresholds solved once per distinct (others' max, statistic) input equal
    a per-row solve (the optimizer and the mask scan called on each row alone)
    bit for bit, whatever the row chunks."""

    RULES = [
        RevenueOptimalRule(0.0),
        RevenueOptimalRule(0.5),
        RevenueOptimalRule(1.0),
        MaskedRule(GVARule()),
        MaskedRule(RevenueOptimalRule(0.5)),
    ]

    @staticmethod
    def _view(ctx, seed):
        """Six sampled others, four of them repeated, and all -0.0 and all 0.0
        others, in shuffled order."""
        others = sample_profiles(ctx.space, RandomStream(seed), 6)[:, 1:]
        zeros = np.zeros((1, ctx.space.n - 1))
        others = np.concatenate([others, others[:4], -zeros, zeros])
        return OthersView.from_others(others[RandomStream(seed).generator().permutation(len(others))], ctx.model)

    @staticmethod
    def _solve(rule, view, ctx, monkeypatch, per_row=False, chunk_cells=None):
        """(thresholds, the (base, stat) bit pairs sent to _mask_scan)."""
        scanned = []
        scan = mechanisms._mask_scan

        def spy(base, stat, ctx):
            scanned.extend(zip(base.view(np.int64).tolist(), stat.view(np.int64).tolist()))
            return scan(base, stat, ctx)

        with monkeypatch.context() as m:
            m.setattr(mechanisms, "_mask_scan", spy)
            m.setattr(valuations, "_cpus", lambda: 1)  # the spy sees the scans of this process only
            if chunk_cells is not None:
                # mechanisms' chunks cut as under a budget of chunk_cells (exact: it divides width * budget);
                # the interim's own chunks, nested inside, keep the default budget
                scale = lambda width: width * valuations._CHUNK_CELLS // chunk_cells
                m.setattr(mechanisms, "_chunked", lambda fn, width, *a: _chunked(fn, scale(width), *a))
            if not per_row:
                return rule.critical_bids(view, ctx), scanned
            m.setattr(mechanisms, "_per_distinct", lambda fn, width, a, b: fn(a, b))
            rows = [OthersView(view.max[i:i + 1], view.stat[i:i + 1]) for i in range(len(view))]
            return np.concatenate([rule.critical_bids(row, ctx) for row in rows]), scanned

    @pytest.mark.parametrize("model,marginal,n", _DISTINCT_CASES)
    def test_matches_per_row_solve(self, model, marginal, n, monkeypatch):
        ctx = make_context(SignalSpace(n, _DISTINCT_MARGINALS[marginal]), _DISTINCT_MODELS[model])
        view = self._view(ctx, 71 + n)
        zero, neg = view.max == 0.0, np.signbit(view.max)
        assert (zero & neg).any() and (zero & ~neg).any()
        for rule in self.RULES:
            ref, ref_scanned = self._solve(rule, view, ctx, monkeypatch, per_row=True)
            # one row per optimizer chunk and per scan chunk, then the default chunks
            for chunk_cells in (1024, None):
                got, scanned = self._solve(rule, view, ctx, monkeypatch, chunk_cells=chunk_cells)
                np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64), err_msg=repr(rule))
                # the scan sees each distinct (base, stat) input once
                assert sorted(scanned) == sorted(set(ref_scanned)), rule
            if isinstance(ctx.model, ConcaveSum) and isinstance(rule, MaskedRule):
                assert len(set(ref_scanned)) < len(ref_scanned), rule  # repeated scan rows were merged

    @pytest.mark.parametrize("model,n", [(_L2, 3), (_LOG1P, 50)], ids=["l2-3", "log1p-50"])
    def test_full_scan_chunk_stays_within_the_cell_budget(self, model, n, monkeypatch):
        """A full chunk of the mask scan traces at most the float cells of the
        budget, and not much less: its width matches what a row holds."""
        ctx = make_context(SignalSpace(n, UniformIID(1.0)), model)
        rng = RandomStream(83).generator()
        view = OthersView(rng.random(6000) * 0.5, rng.random(6000) * 0.5)
        calls = []
        scan = mechanisms._mask_scan

        def traced(base, stat, ctx):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                out = scan(base, stat, ctx)
                calls.append((len(base), tracemalloc.get_traced_memory()[1] - start))
            finally:
                tracemalloc.stop()
            return out

        monkeypatch.setattr(mechanisms, "_mask_scan", traced)
        monkeypatch.setattr(valuations, "_cpus", lambda: 1)  # the spy sees the scans of this process only
        got = MaskedRule(GVARule()).critical_bids(view, ctx)
        monkeypatch.undo()
        assert len(calls) > 1  # so the largest call is a full chunk
        peak = max(calls)[1]
        assert 0.9 * 8 * _CHUNK_CELLS < peak <= 8 * _CHUNK_CELLS  # bytes of the budget's float cells
        # the thresholds do not depend on the chunks: the scan's old width of one cell per point
        with monkeypatch.context() as m:
            m.setattr(mechanisms, "_per_distinct", lambda fn, width, a, b: _chunked(fn, mechanisms._SCAN_POINTS, a, b))
            old = MaskedRule(GVARule()).critical_bids(view, ctx)
        np.testing.assert_array_equal(got.view(np.int64), old.view(np.int64))

    @pytest.mark.parametrize("rule", RULES, ids=repr)
    def test_zero_rows(self, rule):
        ctx = make_context(SignalSpace(3, UniformIID(1.0)), _L2)
        t = rule.critical_bids(OthersView(np.empty(0), np.empty(0)), ctx)
        assert t.shape == (0,) and t.dtype == np.float64


def _dense_thresholds(view, ctx, chi):
    """Reference: the exhaustive revenue-optimal search, which evaluates the
    revenue at every one of the ``_OPT_POINTS`` grid points before the same
    golden steps and tie-break.  A row's result does not depend on its chunk."""
    s_bar = ctx.s_bar
    tie_tol = 1e-12 * max(ctx.scale(), 1.0)
    points = mechanisms._OPT_POINTS
    frac = np.linspace(0.0, 1.0, points)

    def chunk(lo, stat):
        sub = OthersView(lo, stat)
        span = s_bar - lo
        t_grid = lo[None, :] + frac[:, None] * span[None, :]
        r = _threshold_revenue(t_grid, sub, ctx, chi)
        r[-1, :] = 0.0
        k = np.argmax(r, axis=0)
        rows = np.arange(len(lo))
        r_grid_best = r[k, rows]
        t_grid_best = t_grid[k, rows]
        b_lo = t_grid[np.maximum(k - 1, 0), rows]
        b_hi = t_grid[np.minimum(k + 1, points - 1), rows]
        t_ref, r_ref = mechanisms._golden_max(
            lambda t: _threshold_revenue(t, sub, ctx, chi), b_lo, b_hi, mechanisms._GOLDEN_ITERS
        )
        best = np.maximum.reduce([r_grid_best, r_ref, np.zeros_like(r_ref)])
        t_best = np.full(len(lo), s_bar)
        for t_cand, r_cand in ((t_ref, r_ref), (t_grid_best, r_grid_best)):
            take = (r_cand >= best - tie_tol) & (t_cand <= t_best)
            t_best = np.where(take, t_cand, t_best)
        return np.where(span <= 0.0, s_bar, t_best)

    # 256-row chunks, whatever chunk budget a test patches in for the search
    parts = [chunk(view.max[a:a + 256], view.stat[a:a + 256]) for a in range(0, len(view), 256)]
    return np.concatenate(parts + [np.empty(0)])


def _assert_matches_dense(view, ctx, chi):
    got = RevenueOptimalRule(chi).critical_bids(view, ctx)
    ref = _dense_thresholds(view, ctx, chi)
    np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64), err_msg=f"chi={chi}")


def _certified_marginals(s_bar):
    return {
        "uniform": UniformIID(s_bar),
        "power2": GenericIID("power", (2.0, s_bar)),
        "power0.5": GenericIID("power", (0.5, s_bar)),
        "grid": DiscreteGridIID(tuple(np.linspace(0.0, s_bar, 7))),
    }


class TestCertifiedSearch:
    """The coarse-to-fine revenue-optimal search returns the dense grid scan's
    thresholds bit for bit, its cell bound is sound, and it stays sparse."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [5, 11])
    def test_oracle_grids(self, n, m):
        for model in (WeightedSum(0.5), WeightedSum(1.0), MaxSignal()):
            for chi in (0.0, 0.5, 1.0):
                grid = GridModel(n=n, m=m, model=model, chi=chi)
                ctx = grid.context()
                _assert_matches_dense(OthersView.from_others(grid.others_profiles(), model), ctx, chi)

    def test_c05_points(self):
        ctx = make_context(SignalSpace(2, UniformIID(1.0)), WeightedSum(1.0))
        others = np.linspace(0.0, 1.0, 52)[1:-1, None]
        for chi in (0.0, 1.0):
            _assert_matches_dense(OthersView.from_others(others, ctx.model), ctx, chi)

    @pytest.mark.parametrize("marginal", ["uniform", "power2", "power0.5", "grid"])
    def test_edge_rows(self, marginal):
        s_bar = 2.5
        tops = [s_bar, np.nextafter(s_bar, 0.0), -0.0, 0.0, 1e-300, 5e-324]
        # others at the top value and one at zero below it: spans 0 and 1 ulp, signed zeros, tiny maxima
        others = np.array([[x, x] for x in tops] + [[x, 0.0] for x in tops])
        for model in _DISTINCT_MODELS.values():
            ctx = make_context(SignalSpace(3, _certified_marginals(s_bar)[marginal]), model)
            view = OthersView.from_others(others, model)
            for chi in (0.0, 0.5, 1.0):
                _assert_matches_dense(view, ctx, chi)

    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from(sorted(_DISTINCT_MODELS)),
        marginal=st.sampled_from(["uniform", "power2", "power0.5", "grid"]),
        s_bar=st.sampled_from([0.3, 2.5, 40.0]),
        n=st.integers(2, 5),
        chi=st.floats(0.0, 1.0),
        fracs=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=40),
    )
    def test_random_configs(self, model, marginal, s_bar, n, chi, fracs):
        ctx = make_context(SignalSpace(n, _certified_marginals(s_bar)[marginal]), _DISTINCT_MODELS[model])
        signals = np.resize(np.array(fracs) * s_bar, (max(1, len(fracs) // (n - 1)), n - 1))
        _assert_matches_dense(OthersView.from_others(signals, ctx.model), ctx, chi)

    def test_one_row_chunks(self, monkeypatch):
        ctx = make_context(SignalSpace(3, UniformIID(1.0)), _LOG1P)
        view = OthersView.from_others(sample_profiles(ctx.space, RandomStream(83), 40)[:, 1:], ctx.model)
        monkeypatch.setattr(valuations, "_CHUNK_CELLS", 1024)  # 1024 // _OPT_POINTS: one row per chunk
        for chi in (0.0, 0.5, 1.0):
            _assert_matches_dense(view, ctx, chi)

    @pytest.mark.parametrize("model", sorted(_DISTINCT_MODELS))
    @pytest.mark.parametrize("marginal", ["uniform", "power2", "power0.5", "grid"])
    @pytest.mark.parametrize("chi", [0.0, 1.0])
    def test_cell_bound_is_sound(self, model, marginal, chi):
        """Every computed revenue inside a first-level cell lies at or below
        the cell's bound plus the search's tolerance."""
        ctx = make_context(SignalSpace(3, _certified_marginals(1.0)[marginal]), _DISTINCT_MODELS[model])
        tie_tol = 1e-12 * max(ctx.scale(), 1.0)
        view = OthersView.from_others(sample_profiles(ctx.space, RandomStream(89), 40)[:, 1:], ctx.model)
        t = view.max + mechanisms._OPT_FRAC[:, None] * (ctx.s_bar - view.max)
        parts = np.stack(mechanisms._revenue_parts(t, view.stat, ctx, chi))
        m, c, F = parts
        r = m - c * F
        last = mechanisms._OPT_POINTS - 1
        ends = np.r_[0:last:mechanisms._OPT_STRIDE, last]
        for a, b in zip(ends[:-1], ends[1:]):
            bound = mechanisms._cell_bound(c[a], F[a], m[b], F[b])
            assert np.all(r[a + 1:b] <= bound + tie_tol), (a, b)

    def test_evaluations_per_distinct_row(self, monkeypatch):
        """At the verify_revopt shape the search evaluates far fewer points
        than the grid holds; the golden steps add 2 + _GOLDEN_ITERS per row."""
        ctx = make_context(SignalSpace(3, UniformIID(1.0)), WeightedSum(0.5))
        others = sample_profiles(ctx.space, RandomStream(97), 1000)[:, 1:]
        view = OthersView.from_others(others, ctx.model)
        points = []
        parts = mechanisms._revenue_parts

        def spy(t, stat, ctx, chi):
            points.append(np.broadcast(t, stat).size)
            return parts(t, stat, ctx, chi)

        monkeypatch.setattr(mechanisms, "_revenue_parts", spy)
        monkeypatch.setattr(valuations, "_cpus", lambda: 1)  # the spy sees the evaluations of this process only
        RevenueOptimalRule(1.0).critical_bids(view, ctx)
        rows = len(np.unique(np.stack([view.max, view.stat], 1), axis=0))
        search = sum(points) - (2 + mechanisms._GOLDEN_ITERS) * rows
        assert search <= 128 * rows, search / rows

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5, 3.0])
    def test_bad_rows_rejected(self, bad):
        ctx = make_context(SignalSpace(3, UniformIID(2.0)), WeightedSum(0.5))
        ok = np.array([0.5, -0.0])
        for rule in (RevenueOptimalRule(1.0), MaskedRule(RevenueOptimalRule(0.5))):
            with pytest.raises(ValueError, match="finite"):
                rule.critical_bids(OthersView(np.append(ok, bad), np.append(ok, 1.0)), ctx)
            if not np.isfinite(bad):
                with pytest.raises(ValueError, match="finite"):
                    rule.critical_bids(OthersView(np.append(ok, 1.0), np.append(ok, bad)), ctx)
        t = RevenueOptimalRule(1.0).critical_bids(OthersView(ok, ok), ctx)
        assert np.all((t >= 0.0) & (t <= 2.0))


class TestMaskedGva:
    def test_wallet_allocation_region(self, wallet_ctx):
        mech = masked_gva(wallet_ctx, 1.0)
        profiles = sample_profiles(wallet_ctx.space, RandomStream(47), 2000)
        batch = run_batch(mech, profiles, wallet_ctx)
        second = profiles.min(axis=1)
        expect = (profiles[:, 0] != profiles[:, 1]) & (second >= 50.0)
        np.testing.assert_array_equal(batch.winner >= 0, expect)

    def test_max_signal_never_allocates(self):
        ctx = make_context(SignalSpace(2, UniformIID(1.0)), MaxSignal())
        mech = masked_gva(ctx, 0.5)
        profiles = sample_profiles(ctx.space, RandomStream(53), 5000)
        batch = run_batch(mech, profiles, ctx)
        assert np.all(batch.winner == -1)

    def test_chi_zero_allocates_like_plain_gva(self, wallet_ctx):
        mech = masked_gva(wallet_ctx, 0.0)
        gva = Mechanism(GVARule(), 0.0, "compensated")
        profiles = sample_profiles(wallet_ctx.space, RandomStream(59), 2000)
        a = run_batch(mech, profiles, wallet_ctx)
        b = run_batch(gva, profiles, wallet_ctx)
        np.testing.assert_array_equal(a.winner, b.winner)
        np.testing.assert_allclose(a.payments, b.payments)

    def test_single_crossing_required(self):
        ctx = make_context(SignalSpace(2, UniformIID(1.0)), WeightedSum(1.5))
        with pytest.raises(ModelUnsupportedError):
            masked_gva(ctx, 0.5)


class TestRuleConfig:
    def test_parses(self):
        assert rule_from_config({"kind": "gva"}) == GVARule()
        assert rule_from_config({"kind": "masked", "base": {"kind": "gva"}}) == MaskedRule(GVARule())
        assert rule_from_config({"kind": "revenue_optimal", "chi": 0.63}) == RevenueOptimalRule(0.63)
        assert rule_from_config({"kind": "revenue_optimal", "chi": 1}) == RevenueOptimalRule(1.0)
        masked = rule_from_config({"kind": "masked", "base": {"kind": "revenue_optimal", "chi": 0.5}})
        assert masked == MaskedRule(RevenueOptimalRule(0.5))

    @pytest.mark.parametrize(
        "cfg",
        [
            {"kind": "revenue_optimal", "chi": "0.5"},
            {"kind": "masked", "base": {"kind": "revenue_optimal", "chi": True}},
        ],
    )
    def test_non_numeric_or_fractional_parameters_rejected(self, cfg):
        with pytest.raises(ValueError, match="must be"):
            rule_from_config(cfg)

    @pytest.mark.parametrize(
        "cfg",
        [
            {"kind": "revenue_optimal", "chi": 0.5, "grid_size": 512, "refine_iters": 30},
            {"kind": "revenue_optimal", "chi": 0.5, "grid_size": 64.9},
            {"kind": "revenue_optimal", "chi": 0.5, "refine_iters": 3.5},
            {"kind": "revenue_optimal", "chi": 0.5, "grid_size": "64"},
            {"kind": "masked", "base": {"kind": "revenue_optimal", "chi": 0.5, "refine_iters": True}},
        ],
    )
    def test_search_budget_keys_rejected(self, cfg):
        """The revenue-optimal search is fixed, so its old budget keys are unknown."""
        with pytest.raises(ValueError, match="unknown rule keys"):
            rule_from_config(cfg)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown rule keys"):
            rule_from_config({"kind": "masked", "base": {"kind": "gva", "chi": 0.5}})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            rule_from_config({"kind": "mystery"})


def test_mechanism_validation():
    with pytest.raises(ValueError):
        Mechanism(GVARule(), 1.4)
    with pytest.raises(ValueError):
        Mechanism(GVARule(), 0.5, "subsidized")


def test_outcome_accounting(three_ctx):
    mech = Mechanism(GVARule(), 1.0, "compensated")
    profiles = sample_profiles(three_ctx.space, RandomStream(61), 500)
    batch = run_batch(mech, profiles, three_ctx)
    np.testing.assert_allclose(batch.revenue, batch.payments.sum(axis=1), atol=1e-12)
    for r in range(50):
        if batch.winner[r] >= 0:
            np.testing.assert_allclose(
                batch.welfare[r], value(three_ctx.model, profiles[r], int(batch.winner[r]))
            )
        else:
            assert batch.welfare[r] == 0.0


class TestOneQuotePath:
    """agent_outcomes_for_bids at the truthful bid is column i of run_batch."""

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

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_truthful_column_matches_run_batch(self, model, n):
        ctx = make_context(SignalSpace(n, UniformIID(1.0)), self.MODELS[model])
        profiles = sample_profiles(ctx.space, RandomStream(67, n), 400)
        for name, make in self.MECHS.items():
            mech = make()
            batch = run_batch(mech, profiles, ctx)
            for i in range(n):
                win, pay, t, comp = agent_outcomes_for_bids(mech, i, profiles, profiles[:, [i]], ctx)
                np.testing.assert_array_equal(win[:, 0], batch.win[:, i], err_msg=name)
                np.testing.assert_array_equal(pay[:, 0], batch.payments[:, i], err_msg=name)
                np.testing.assert_array_equal(t, batch.thresholds[:, i], err_msg=name)
                np.testing.assert_array_equal(comp, batch.compensations[:, i], err_msg=name)


class _TiesWinMechanism(Mechanism):
    """Broken win rule: a report equal to the critical bid also wins."""

    def _win(self, bids, q, ctx):
        return np.asarray(bids) >= q.t[:, None]


class _UnmaskedRule(MaskedRule):
    """Broken mask: returns the base thresholds unchanged."""

    def critical_bids(self, view, ctx):
        return self.base.critical_bids(view, ctx)


class TestInvariantErrors:
    @pytest.mark.parametrize("chunk_pairs", [None, 3])  # 3: one row per run_batch chunk
    def test_nonzero_masked_compensation_names_row_agent_value(self, three_ctx, monkeypatch, chunk_pairs):
        if chunk_pairs:
            monkeypatch.setattr(valuations, "_CHUNK_CELLS", 40 * chunk_pairs)  # run_batch's 40 cells per pair
        mech = Mechanism(_UnmaskedRule(GVARule()), 1.0, "compensated")
        # only agent 2 of row 1 faces others summing below (n-1)/2 = 1
        profiles = np.array([[0.9, 0.8, 0.7], [0.4, 0.5, 0.7]])
        with pytest.raises(MechanismInvariantError) as err:
            run_batch(mech, profiles, three_ctx)
        assert (err.value.row, err.value.agent) == (1, 2)
        np.testing.assert_allclose(err.value.value, -0.05)
        with pytest.raises(MechanismInvariantError) as err:
            agent_outcomes_for_bids(mech, 2, profiles, np.linspace(0.0, 1.0, 5), three_ctx)
        assert (err.value.row, err.value.agent) == (1, 2)

    def test_pickle_round_trip_keeps_the_witness(self):
        err = pickle.loads(pickle.dumps(MechanismInvariantError("more than one winner", 3, 1, 2.0)))
        assert type(err) is MechanismInvariantError
        assert (err.what, err.row, err.agent, err.value) == ("more than one winner", 3, 1, 2.0)
        assert str(err) == "more than one winner: row 3, agent 1, value 2.0"

    def test_two_winners_names_row_agent_count(self, three_ctx):
        mech = _TiesWinMechanism(GVARule(), 0.5, "compensated")
        with pytest.raises(MechanismInvariantError) as err:
            run_batch(mech, np.array([[0.9, 0.2, 0.1], [0.3, 0.6, 0.6]]), three_ctx)
        assert (err.value.row, err.value.agent, err.value.value) == (1, 2, 2.0)


class TestInputValidation:
    @pytest.mark.parametrize(
        "profile",
        [[0.5, np.nan, 0.1], [0.5, np.inf, 0.1], [0.5, -0.1, 0.1], [0.5, 1.1, 0.1], [0.5, 0.1], [0.5, 0.1, 0.2, 0.3]],
    )
    def test_bad_profiles_rejected(self, three_ctx, profile):
        mech = Mechanism(GVARule(), 0.5, "compensated")
        with pytest.raises(ValueError):
            run(mech, np.array(profile), three_ctx)
        with pytest.raises(ValueError):
            run_batch(mech, np.array([profile, profile]), three_ctx)
        with pytest.raises(ValueError):
            agent_outcomes_for_bids(mech, 0, np.array([profile]), np.linspace(0.0, 1.0, 3), three_ctx)

    @pytest.mark.parametrize("bid", [1.5, np.nan, np.inf, -0.1])
    def test_bad_bids_rejected(self, three_ctx, bid):
        mech = Mechanism(GVARule(), 0.5, "compensated")
        profiles = np.array([[0.5, 0.2, 0.1]])
        for bids in (np.array([0.0, bid]), np.array([[0.3, bid]])):
            with pytest.raises(ValueError):
                agent_outcomes_for_bids(mech, 0, profiles, bids, three_ctx)

    @pytest.mark.parametrize("i", [-1, 3, 4])
    def test_agent_outside_range_rejected(self, three_ctx, i):
        mech = Mechanism(GVARule(), 0.5, "compensated")
        with pytest.raises(ValueError, match="outside range"):
            agent_outcomes_for_bids(mech, i, np.array([[0.5, 0.2, 0.1]]), np.array([0.0, 1.0]), three_ctx)

    def test_support_edge_bids_accepted(self, three_ctx):
        mech = Mechanism(GVARule(), 0.5, "compensated")
        profiles = np.array([[0.5, 0.2, 0.1]])
        win, _pay, t, _comp = agent_outcomes_for_bids(mech, 0, profiles, np.array([0.0, 1.0]), three_ctx)
        assert t.tolist() == [0.2] and win.tolist() == [[False, True]]

    def test_zero_rows_allowed(self, three_ctx):
        batch = run_batch(masked_gva(three_ctx, 1.0), np.empty((0, 3)), three_ctx)
        assert batch.payments.shape == (0, 3) and batch.welfare.shape == (0,)


class TestChunkedParts:
    """A ``_chunked`` call of several chunks and ``_FORK_CELLS`` cells runs its
    rows, split by stride, in one forked process per CPU, and gives the bits one
    process gives; a smaller call, or one in a part or beside another thread,
    runs inline."""

    WIDTH = 40
    ROWS = 4  # rows of a chunk at WIDTH under the ``budget`` fixture

    @pytest.fixture
    def budget(self, monkeypatch):
        monkeypatch.setattr(valuations, "_CHUNK_CELLS", self.WIDTH * self.ROWS)
        monkeypatch.setattr(valuations, "_FORK_CELLS", 0)  # any call of two chunks fans out

    def _same_for_any_cpu_count(self, rule, view, ctx, monkeypatch, set_cpus):
        ref = rule.critical_bids(view, ctx)  # the default budget
        monkeypatch.setattr(valuations, "_CHUNK_CELLS", 4 * mechanisms._OPT_POINTS)  # 4 optimizer, 5 scan rows
        monkeypatch.setattr(valuations, "_FORK_CELLS", 0)
        for cpus in (1, 2, 3):
            forks = set_cpus(cpus)
            got = rule.critical_bids(view, ctx)
            np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64), err_msg=f"{rule!r}, {cpus} CPUs")
            assert (len(forks) > 0) == (cpus > 1)
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("marginal", ["uniform", "grid"])
    @pytest.mark.parametrize("model", ["weighted_sum", "max_signal", "l2"])
    def test_revenue_optimal_thresholds_for_any_cpu_count(self, model, marginal, monkeypatch, set_cpus):
        ctx = make_context(SignalSpace(3, _DISTINCT_MARGINALS[marginal]), _DISTINCT_MODELS[model])
        view = OthersView.from_others(sample_profiles(ctx.space, RandomStream(97), 60)[:, 1:], ctx.model)
        self._same_for_any_cpu_count(RevenueOptimalRule(1.0), view, ctx, monkeypatch, set_cpus)

    @pytest.mark.parametrize("marginal", ["uniform", "grid"])
    @pytest.mark.parametrize("model", ["l2", "log1p"])
    def test_mask_scan_thresholds_for_any_cpu_count(self, model, marginal, monkeypatch, set_cpus):
        ctx = make_context(SignalSpace(3, _DISTINCT_MARGINALS[marginal]), _DISTINCT_MODELS[model])
        view = OthersView.from_others(sample_profiles(ctx.space, RandomStream(101), 200)[:, 1:], ctx.model)
        scanned = []
        scan = mechanisms._mask_scan
        with monkeypatch.context() as m:
            m.setattr(valuations, "_cpus", lambda: 1)
            m.setattr(mechanisms, "_mask_scan", lambda base, stat, ctx: scanned.append(len(base)) or scan(base, stat, ctx))
            MaskedRule(GVARule()).critical_bids(view, ctx)
        assert sum(scanned) > 10  # rows for 3 or more 5-row scan chunks
        self._same_for_any_cpu_count(MaskedRule(GVARule()), view, ctx, monkeypatch, set_cpus)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_parts_take_rows_by_stride(self, budget, cpus, set_cpus):
        forks = set_cpus(cpus)
        x = np.arange(23.0)
        # a chunk of part k holds rows k, k + W, ...: each row maps to k when its step from the last is W
        out = valuations._chunked(lambda a: np.where(np.diff(a, prepend=a[0] - cpus) == cpus, a % cpus, -1.0), self.WIDTH, x)
        assert np.array_equal(out, x % cpus) and out.flags.owndata
        assert len(forks) == cpus  # every part forked, none run by the caller
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("N", [0, 1, ROWS])
    def test_zero_rows_or_one_chunk_forks_nothing(self, budget, N, set_cpus):
        forks = set_cpus(2)
        x = np.arange(float(N))
        assert np.array_equal(valuations._chunked(lambda a: 2 * a, self.WIDTH, x), 2 * x)
        assert forks == []

    def test_a_call_below_the_fork_budget_runs_inline(self, monkeypatch, budget, set_cpus):
        forks = set_cpus(2)
        x = np.arange(23.0)  # 23 * WIDTH cells in 6 chunks
        for cells, forked in ((23 * self.WIDTH + 1, 0), (23 * self.WIDTH, 2)):
            monkeypatch.setattr(valuations, "_FORK_CELLS", cells)
            forks.clear()
            assert np.array_equal(valuations._chunked(lambda a: 2 * a, self.WIDTH, x), 2 * x)
            assert len(forks) == forked

    def test_a_call_in_a_part_runs_inline(self, budget, set_cpus):
        forks = set_cpus(2)  # a fork inside a part raises
        inner = lambda a: valuations._chunked(lambda b: 2 * b, self.WIDTH, np.repeat(a, 3))[::3]  # 3 chunks
        x = np.arange(23.0)
        assert np.array_equal(valuations._chunked(inner, self.WIDTH, x), 2 * x)
        assert len(forks) == 2

    def test_a_call_from_a_reduce_thread_runs_inline(self, monkeypatch, set_cpus):
        space = SignalSpace(3, UniformIID(1.0))
        monkeypatch.setattr(valuations, "_CHUNK_CELLS", mechanisms._BATCH_CELLS * 3 * 8)  # 8-row spans, 24-row chunks
        monkeypatch.setattr(valuations, "_FORK_CELLS", 0)
        threads = []

        def values_fn(profiles):
            threads.append(threading.current_thread() is threading.main_thread())
            return {"x": valuations._chunked(lambda a: 2 * a, self.WIDTH, np.repeat(profiles[:, 0], 10))[::10]}

        set_cpus(1)
        ref = evaluate._reduce(space, ["x"], values_fn, 100, 5, 30)
        threads.clear()
        forks = set_cpus(2)
        assert evaluate._reduce(space, ["x"], values_fn, 100, 5, 30) == ref  # 4 chunks on 2 threads
        assert threads and not any(threads) and forks == []

    def test_a_call_beside_another_thread_runs_inline(self, budget, set_cpus):
        forks = set_cpus(2)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            x = np.arange(23.0)
            assert np.array_equal(valuations._chunked(lambda a: 2 * a, self.WIDTH, x), 2 * x)
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive() and forks == []

    @pytest.mark.parametrize(
        "error", [ValueError("bad row 0"), MechanismInvariantError("more than one winner", 103, 1, 2.0)], ids=repr
    )
    def test_an_error_in_a_part_arrives_whole(self, budget, error, set_cpus):
        forks = set_cpus(2)

        def fn(a):
            if 0.0 in a:  # part 0
                raise error
            if 1.0 in a:  # part 1, which the caller stops without waiting for it
                time.sleep(30)
            return a

        start = time.monotonic()
        with pytest.raises(type(error)) as err:
            valuations._chunked(fn, self.WIDTH, np.arange(23.0))
        assert time.monotonic() - start < 10
        assert (type(err.value), str(err.value), vars(err.value)) == (type(error), str(error), vars(error))
        assert len(forks) == 2 and multiprocessing.active_children() == []

    def test_a_part_that_dies_is_a_runtime_error(self, budget, set_cpus):
        forks = set_cpus(2)

        def fn(a):
            if 1.0 in a:
                os._exit(3)
            return a

        with pytest.raises(RuntimeError, match="died with exit code 3"):
            valuations._chunked(fn, self.WIDTH, np.arange(23.0))
        assert len(forks) == 2 and multiprocessing.active_children() == []


class TestInParts:
    """``valuations._in_parts(work, count)`` returns ``[work(k, W) for k in
    range(W)]`` with W = min(CPUs, count): from W = 2 on each part runs in its
    own forked process and its return value comes back pickled, in part order;
    otherwise ``work(0, 1)`` runs in the calling process."""

    def test_results_come_back_in_part_order(self, set_cpus, tmp_path):
        forks = set_cpus(3)
        flag = tmp_path / "part 1 returned"

        def work(k, W):
            if k == 0:  # part 0 returns only after part 1 has
                deadline = time.monotonic() + 10
                while not flag.exists() and time.monotonic() < deadline:
                    time.sleep(0.005)
                return ("part 0 of", W, flag.exists())
            if k == 1:
                flag.touch()
                return [1.5, {"part": 1}]
            return None

        assert valuations._in_parts(work, 5) == [("part 0 of", 3, True), [1.5, {"part": 1}], None]
        assert len(forks) == 3 and multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus, count", [(1, 5), (3, 1), (3, 0)])
    def test_one_part_runs_inline(self, set_cpus, cpus, count):
        forks = set_cpus(cpus)
        assert valuations._in_parts(lambda k, W: (k, W, os.getpid()), count) == [(0, 1, os.getpid())]
        assert forks == []

    def test_the_affinity_mask_sets_the_part_count(self, set_cpus):
        """Under the real affinity mask: W forked parts, or the inline call when W = 1."""
        forks = set_cpus(None)
        W = min(len(os.sched_getaffinity(0)), 5)
        assert valuations._in_parts(lambda k, parts: (k, parts), 5) == [(k, W) for k in range(W)]
        assert len(forks) == (W if W > 1 else 0) and multiprocessing.active_children() == []

    def test_a_call_in_a_part_runs_inline(self, set_cpus):
        forks = set_cpus(2)  # a fork inside a part raises
        got = valuations._in_parts(lambda k, W: valuations._in_parts(lambda j, V: (k, W, j, V), 3), 2)
        assert got == [[(0, 2, 0, 1)], [(1, 2, 0, 1)]]
        assert len(forks) == 2 and multiprocessing.active_children() == []

    def test_an_unpicklable_result_is_a_runtime_error(self, set_cpus):
        forks = set_cpus(2)
        with pytest.raises(RuntimeError, match="a forked part's result cannot be pickled: AttributeError.*local object"):
            valuations._in_parts(lambda k, W: k if k == 0 else (lambda: 1), 2)
        assert len(forks) == 2 and multiprocessing.active_children() == []

    def test_an_unpicklable_exception_is_a_runtime_error(self, set_cpus):
        forks = set_cpus(2)

        def work(k, W):
            if k == 1:
                raise ValueError(lambda: 1)
            return k

        with pytest.raises(RuntimeError, match="a forked part's exception cannot be pickled: AttributeError.*local object"):
            valuations._in_parts(work, 2)
        assert len(forks) == 2 and multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "error", [ValueError("bad row 0"), MechanismInvariantError("more than one winner", 103, 1, 2.0)], ids=repr
    )
    def test_an_error_in_a_part_arrives_whole(self, set_cpus, error):
        forks = set_cpus(2)

        def work(k, W):
            if k == 1:
                raise error
            return [0.5]

        with pytest.raises(type(error)) as err:
            valuations._in_parts(work, 2)
        assert (type(err.value), str(err.value), vars(err.value)) == (type(error), str(error), vars(error))
        assert len(forks) == 2 and multiprocessing.active_children() == []
