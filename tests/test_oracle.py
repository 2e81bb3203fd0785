import functools
import itertools
import math

import numpy as np
import pytest

from cursed_auctions.evaluate import estimate, write_outcomes_csv
from cursed_auctions.mechanisms import (
    GVARule,
    MaskedRule,
    Mechanism,
    RevenueOptimalRule,
    agent_outcomes_for_bids,
    critical_bid,
    make_context,
    masked_gva,
    run_batch,
)
from cursed_auctions.oracle import (
    BestResponse,
    GridModel,
    _threshold_revenue_exact,
    brute_force_best_response,
    brute_force_rev_optimal_threshold,
    exact_expectation,
    exact_interim_mu,
    oracle_payments,
)
from cursed_auctions.signals import DiscreteGridIID, SignalSpace
from cursed_auctions.testing import RealizedPriceMechanism
from cursed_auctions.valuations import ConcaveSum, MaxSignal, ScalarMap, WeightedSum, _stat_law, value

_EPS = np.finfo(float).eps
IDENTITY = ScalarMap("identity")
LOG1P_MAP = ScalarMap("log1p_scaled", (1.0,))
L2 = ConcaveSum(ScalarMap("power", (0.5,)), ScalarMap("power", (2.0,)), ScalarMap("power", (2.0,)))
LOG1P = ConcaveSum(LOG1P_MAP, IDENTITY, ScalarMap("power", (0.5,)))


class TestExactInterim:
    def test_three_point_grid(self):
        grid = GridModel(n=2, m=3, model=WeightedSum(1.0), chi=1.0)
        assert exact_interim_mu(grid, 0.5) == 1.0

    def test_max_two_point_grid(self):
        grid = GridModel(n=2, m=2, model=MaxSignal(), chi=1.0)
        assert exact_interim_mu(grid, 0.0) == 0.5

    def test_single_point_grid(self):
        grid = GridModel(n=2, m=1, model=WeightedSum(0.5), chi=0.5)
        assert exact_interim_mu(grid, 0.0) == 0.0

    def test_off_grid_rejected(self):
        grid = GridModel(n=2, m=3, model=WeightedSum(1.0), chi=1.0)
        with pytest.raises(ValueError):
            exact_interim_mu(grid, 0.3)

    def test_matches_mechanism_cache(self):
        grid = GridModel(n=3, m=5, model=WeightedSum(0.5), chi=1.0)
        ctx = grid.context()
        for s in grid.points:
            np.testing.assert_allclose(
                exact_interim_mu(grid, float(s)), ctx.interim.expected_value(s), atol=1e-13
            )
        # MaxSignal reads the atom-knotted tail table and ConcaveSum the exact
        # law of the others' statistic: enumeration agrees to rounding
        for model in (MaxSignal(), L2, LOG1P):
            for n, m in itertools.product((2, 3, 4), (1, 2, 5, 11, 21)):
                grid = GridModel(n=n, m=m, model=model, chi=1.0)
                ctx = grid.context()
                got = ctx.interim.expected_value(grid.points)
                want = [exact_interim_mu(grid, float(s)) for s in grid.points]
                np.testing.assert_allclose(
                    got, want, rtol=0, atol=4 * _EPS * max(ctx.scale(), 1.0), err_msg=f"{model} n={n} m={m}"
                )

    @pytest.mark.parametrize("model,atom_count", [(ConcaveSum(LOG1P_MAP, IDENTITY, IDENTITY), 300), (L2, 5341)])
    def test_concave_sum_law_merges_past_enumeration(self, model, atom_count):
        # 21**5 ~ 4.1M others' profiles, but their h-sums take few distinct values
        space = SignalSpace(6, DiscreteGridIID(tuple(np.linspace(0.0, 1.0, 21))))
        (atoms, _weights), exact = _stat_law(space, model)
        assert exact and atoms.size == atom_count
        h = model.h(np.array(space.marginal.points))
        sums = functools.reduce(np.add.outer, [h] * 5).ravel()
        ctx = make_context(space, model)
        for s in (0.0, 0.35, 1.0):
            want = model.l(model.g(s) + sums).mean()
            np.testing.assert_allclose(
                ctx.interim.expected_value(s), want, rtol=0, atol=4 * _EPS * max(ctx.scale(), 1.0)
            )

    @staticmethod
    def _max_atom_sum(points, n, s):
        """E[max(s, M)] as fsum over the atoms of M, the max of n - 1 grid draws."""
        m, k = len(points), n - 1
        terms, below = [], 0
        for a in sorted(set(points)):
            upto = sum(p <= a for p in points)
            terms.append((upto**k - below**k) / m**k * max(s, a))
            below = upto
        return math.fsum(terms)

    @pytest.mark.parametrize(
        "n,points",
        [(n, tuple(np.linspace(0.0, 1.0, m))) for n in (2, 3, 4) for m in (2, 5, 11, 21)]
        + [(3, (0.4,)), (3, (0.0, 0.5, 0.5, 1.0)), (3, (0.2, 0.5, 1.0)), (3, tuple(np.linspace(0.0, 2.5, 6)))],
    )
    def test_max_signal_cache_off_grid(self, n, points):
        ctx = make_context(SignalSpace(n, DiscreteGridIID(points)), MaxSignal())
        s = np.linspace(0.0, ctx.s_bar, 997)
        want = [self._max_atom_sum(points, n, float(x)) for x in s]
        np.testing.assert_allclose(
            ctx.interim.expected_value(s), want, rtol=0, atol=4 * _EPS * max(ctx.scale(), 1.0)
        )


class TestExactExpectation:
    def test_revenue_nine_profiles(self):
        grid = GridModel(n=2, m=3, model=WeightedSum(1.0), chi=1.0)
        mech = Mechanism(GVARule(), 1.0, "compensated")
        np.testing.assert_allclose(exact_expectation(grid, mech, "revenue"), 1.0 / 9.0)

    def test_allocation_probability_with_tie_rule(self):
        grid = GridModel(n=2, m=3, model=WeightedSum(1.0), chi=1.0)
        mech = Mechanism(GVARule(), 1.0, "compensated")
        np.testing.assert_allclose(exact_expectation(grid, mech, "allocation_prob"), 6.0 / 9.0)

    def test_masked_max_signal_zero_welfare(self):
        grid = GridModel(n=2, m=5, model=MaxSignal(), chi=0.5)
        ctx = grid.context()
        assert exact_expectation(grid, masked_gva(ctx, 0.5), "welfare", ctx) == 0.0

    def test_monte_carlo_agrees_on_matched_space(self):
        grid = GridModel(n=2, m=3, model=WeightedSum(1.0), chi=1.0)
        ctx = grid.context()
        mech = Mechanism(GVARule(), 1.0, "compensated")
        exact = exact_expectation(grid, mech, "revenue", ctx)
        mc = estimate(mech, ctx, "revenue", 40_000, seed=17)
        assert abs(mc.mean - exact) <= 3 * mc.standard_error


class TestBruteForceThreshold:
    def test_interior_optimum_on_fine_grid(self):
        # On the grid the best threshold sits a hair below an atom: stepping up
        # from the continuous optimum 0.25 to just below 0.3 sells to exactly
        # the same atoms at a higher price.
        grid = GridModel(n=2, m=21, model=WeightedSum(1.0), chi=1.0)
        t = brute_force_rev_optimal_threshold(grid, np.array([0.1]))
        np.testing.assert_allclose(t, 0.3, atol=2e-9)
        assert t < 0.3

    def test_boundary_case(self):
        grid = GridModel(n=2, m=21, model=WeightedSum(1.0), chi=1.0)
        t = brute_force_rev_optimal_threshold(grid, np.array([0.7]))
        np.testing.assert_allclose(t, 0.75, atol=2e-9)

    def test_atom_scan_alone_would_miss_the_supremum(self):
        # Counterexample that forced the extended candidate set: with
        # others = (0,) on the 5-point grid every atom threshold earns at most
        # zero, yet just below 0.5 the revenue is strictly positive.
        grid = GridModel(n=2, m=5, model=WeightedSum(1.0), chi=1.0)
        from cursed_auctions.oracle import _threshold_revenue_exact

        atoms_best = max(
            _threshold_revenue_exact(grid, float(t), np.array([0.0])) for t in grid.points
        )
        assert atoms_best <= 0.0
        just_below = _threshold_revenue_exact(grid, 0.5 - 1e-9, np.array([0.0]))
        np.testing.assert_allclose(just_below, 0.1, atol=1e-6)
        t_star = brute_force_rev_optimal_threshold(grid, np.array([0.0]))
        np.testing.assert_allclose(t_star, 0.5, atol=2e-9)

    def test_max_signal_prefers_selling_high(self):
        grid = GridModel(n=2, m=11, model=MaxSignal(), chi=1.0)
        t = brute_force_rev_optimal_threshold(grid, np.array([0.3]))
        assert 0.3 <= t <= 1.0  # enumeration is the ground truth here

    def test_within_one_spacing_of_optimizer(self):
        for model in (WeightedSum(1.0), WeightedSum(0.5), MaxSignal()):
            for chi in (0.0, 0.5, 1.0):
                grid = GridModel(n=2, m=11, model=model, chi=chi)
                ctx = grid.context()
                rule = RevenueOptimalRule(chi)
                spacing = 0.1
                for o in ([0.0], [0.3], [0.8]):
                    t_bf = brute_force_rev_optimal_threshold(grid, np.array(o))
                    t_opt = critical_bid(rule, np.array(o), ctx)
                    assert abs(t_bf - t_opt) <= spacing + 1e-9


def _per_row_threshold(grid, others):
    """Reference: the per-row candidate loop the one-pass oracle replaced.
    Ascending candidates with a strict ``>`` keep the smallest maximizer, and
    t = s_bar (worth 0) stands unless some candidate earns more."""
    others = np.asarray(others, dtype=float)
    lo = float(others.max())
    eps = 1e-9 * grid.s_bar
    cands = {grid.s_bar}
    for t in grid.points:
        t = float(t)
        if t >= lo - 1e-12:
            cands.add(t)
        if t - eps >= lo:
            cands.add(t - eps)
    best_t, best_r = grid.s_bar, 0.0
    for t in sorted(cands):
        r = _threshold_revenue_exact(grid, t, others)
        if r > best_r:
            best_t, best_r = t, r
    return best_t


class TestOnePassThreshold:
    """One pass over all others-profiles of a grid returns the per-row loop's
    thresholds bit for bit."""

    @pytest.mark.parametrize(
        "n, m", [(n, m) for n in (2, 3) for m in (1, 2, 5, 11, 21)] + [(4, 2), (4, 5)]
    )
    def test_matches_per_row_loop(self, n, m):
        for model in (WeightedSum(0.5), WeightedSum(1.0), MaxSignal()):
            for chi in (0.0, 0.5, 1.0):
                grid = GridModel(n=n, m=m, model=model, chi=chi)
                others = grid.others_profiles()
                got = brute_force_rev_optimal_threshold(grid, others)
                ref = np.array([_per_row_threshold(grid, o) for o in others])
                assert got.shape == (len(others),)
                np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64), err_msg=f"{model} chi={chi}")

    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_ties_keep_the_smallest_threshold(self, n):
        # with beta = 2^60 the own signal vanishes in the rounding of v and the
        # interim mean, so an atom and the point just below the next atom earn
        # bit-identical revenue: the smaller one must win
        for chi in (0.0, 0.5, 1.0):
            grid = GridModel(n=n, m=5, model=WeightedSum(2.0**60), chi=chi)
            others = grid.others_profiles()
            got = brute_force_rev_optimal_threshold(grid, others)
            ref = np.array([_per_row_threshold(grid, o) for o in others])
            np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64), err_msg=f"chi={chi}")
        row = np.full(n - 1, 0.25)
        tie = _threshold_revenue_exact(grid, 0.25, row)
        assert tie > 0.0 and tie == _threshold_revenue_exact(grid, 0.5 - 1e-9, row)
        assert brute_force_rev_optimal_threshold(grid, row).tolist() == [0.25]

    def test_one_row_and_no_rows(self):
        grid = GridModel(n=3, m=5, model=WeightedSum(1.0), chi=1.0)
        row = np.array([0.25, 0.0])
        assert brute_force_rev_optimal_threshold(grid, row).tolist() == [_per_row_threshold(grid, row)]
        assert brute_force_rev_optimal_threshold(grid, np.empty((0, 2))).shape == (0,)


class TestBestResponse:
    def test_masked_gva_zero_regret_everywhere(self):
        grid = GridModel(n=2, m=5, model=WeightedSum(1.0), chi=1.0)
        ctx = grid.context()
        assert brute_force_best_response(grid, masked_gva(ctx, 1.0), 0, ctx).regret <= 1e-12

    def test_rational_compensated_gva_zero_regret(self):
        grid = GridModel(n=3, m=5, model=WeightedSum(0.5), chi=0.0)
        ctx = grid.context()
        mech = Mechanism(GVARule(), 0.0, "compensated")
        assert brute_force_best_response(grid, mech, 0, ctx).regret <= 1e-12

    def test_broken_mechanism_shows_positive_regret(self):
        grid = GridModel(n=2, m=11, model=WeightedSum(1.0), chi=1.0)
        ctx = grid.context()
        broken = RealizedPriceMechanism(GVARule(), 1.0, "compensated")
        assert brute_force_best_response(grid, broken, 0, ctx).regret > 1e-6

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_every_agent_column(self, i):
        """The searched agent's column is inserted at position i, so agents
        other than 0 see the same grid profiles in their own order."""
        grid = GridModel(n=3, m=5, model=WeightedSum(0.5), chi=0.5)
        ctx = grid.context()
        masked = brute_force_best_response(grid, masked_gva(ctx, 0.5), i, ctx)
        assert 0.0 <= masked.regret <= 4 * _EPS * max(ctx.scale(), 1.0)
        broken = RealizedPriceMechanism(GVARule(), 0.5, "compensated")
        assert brute_force_best_response(grid, broken, i, ctx).regret > 1e-6

    def test_agent_outside_range_rejected(self):
        """Agents 0 and 1 have no regret here; -1 once built a wrong profile
        layout and reported 0.5, and 2 raised IndexError."""
        grid = GridModel(n=2, m=3, model=WeightedSum(0.5), chi=0.5)
        ctx = grid.context()
        mech = Mechanism(GVARule(), 0.5, "compensated")
        assert [brute_force_best_response(grid, mech, i, ctx).regret for i in (0, 1)] == [0.0, 0.0]
        for i in (-1, 2):
            with pytest.raises(ValueError, match="outside range"):
                brute_force_best_response(grid, mech, i, ctx)

    @pytest.mark.parametrize("beta,chi", [(0.5, 0.0), (0.5, 0.5), (1.0, 0.0), (1.0, 0.5)])
    def test_others_stat_rounding_pinned(self, beta, chi):
        """The mechanism forms the others' weighted sum as S - s_i and the
        oracle sums the others, so on m=11 grids the two roundings leave
        regrets of an ulp or two (oracle-check reads 2.2e-16 and 4.4e-16),
        never more than 4 eps times the value scale."""
        grid = GridModel(n=3, m=11, model=WeightedSum(beta), chi=chi)
        ctx = grid.context()
        worst = brute_force_best_response(grid, masked_gva(ctx, chi), 0, ctx).regret
        assert 0.0 <= worst <= 4 * np.finfo(float).eps * max(ctx.scale(), 1.0)

    def test_result_structure(self):
        grid = GridModel(n=2, m=5, model=WeightedSum(1.0), chi=0.5)
        ctx = grid.context()
        br = brute_force_best_response(grid, Mechanism(GVARule(), 0.5, "compensated"), 0, ctx)
        assert isinstance(br, BestResponse)
        assert br.witness_own in grid.points
        assert len(br.witness_others) == grid.n - 1

    @pytest.mark.parametrize("i", [0, 2])
    def test_witness_reproduces_utilities(self, i):
        grid = GridModel(n=3, m=5, model=WeightedSum(1.0), chi=1.0)
        ctx = grid.context()
        broken = RealizedPriceMechanism(GVARule(), 1.0, "compensated")
        br = brute_force_best_response(grid, broken, i, ctx)
        profile = np.insert(np.array(br.witness_others), i, br.witness_own)[None, :]
        win, pay, _t, _c = agent_outcomes_for_bids(broken, i, profile, grid.points, ctx)
        v = float(value(grid.model, profile[0], i))
        vchi = (1.0 - grid.chi) * v + grid.chi * exact_interim_mu(grid, br.witness_own)
        utils = win[0] * vchi - pay[0]
        assert utils[list(grid.points).index(br.witness_own)] == br.truthful_utility
        assert utils[list(grid.points).index(br.best_bid)] == br.best_utility
        assert br.best_utility - br.truthful_utility == br.regret


class TestPaymentsAgreement:
    @pytest.mark.parametrize("chi", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("model", [WeightedSum(1.0), WeightedSum(0.5), MaxSignal()])
    def test_gva_payments_match_oracle(self, model, chi):
        grid = GridModel(n=3, m=5, model=model, chi=chi)
        ctx = grid.context()
        mech = Mechanism(GVARule(), chi, "compensated")
        profiles = grid.all_profiles()
        batch = run_batch(mech, profiles, ctx)
        expected = oracle_payments(grid, batch.thresholds, profiles)
        np.testing.assert_allclose(batch.payments, expected, atol=1e-12)

    @pytest.mark.parametrize("chi", [0.0, 0.5, 1.0])
    def test_four_bidders(self, chi):
        grid = GridModel(n=4, m=5, model=WeightedSum(0.5), chi=chi)
        ctx = grid.context()
        profiles = grid.all_profiles()
        for mech in (
            Mechanism(GVARule(), chi, "compensated"),
            masked_gva(ctx, chi),
            Mechanism(RevenueOptimalRule(chi), chi, "compensated"),
        ):
            batch = run_batch(mech, profiles, ctx)
            expected = oracle_payments(grid, batch.thresholds, profiles)
            np.testing.assert_allclose(batch.payments, expected, rtol=0, atol=1e-12 * max(ctx.scale(), 1.0))

    @pytest.mark.parametrize("n,m", [(2, 5), (2, 11), (3, 5), (3, 11)])
    @pytest.mark.parametrize("model", [WeightedSum(0.5), WeightedSum(1.0), MaxSignal()], ids=repr)
    def test_masked_revenue_optimal_quotes_exact_zero_compensation(self, n, m, model):
        for chi in (0.5, 1.0):
            grid = GridModel(n=n, m=m, model=model, chi=chi)
            ctx = grid.context()
            mech = Mechanism(MaskedRule(RevenueOptimalRule(chi)), chi, "compensated")
            batch = run_batch(mech, grid.all_profiles(), ctx)  # a nonzero one would raise
            assert np.all(batch.compensations == 0.0)

    def test_masked_payments_match_oracle(self):
        grid = GridModel(n=2, m=11, model=WeightedSum(0.5), chi=1.0)
        ctx = grid.context()
        mech = masked_gva(ctx, 1.0)
        profiles = grid.all_profiles()
        batch = run_batch(mech, profiles, ctx)
        expected = oracle_payments(grid, batch.thresholds, profiles)
        np.testing.assert_allclose(batch.payments, expected, atol=1e-12)


class TestCompare:
    def test_mc_vs_exact_within_three_se(self):
        grid = GridModel(n=2, m=5, model=WeightedSum(1.0), chi=0.5)
        ctx = grid.context()
        mech = Mechanism(GVARule(), 0.5, "compensated")
        exact = exact_expectation(grid, mech, "welfare", ctx)
        mc = estimate(mech, ctx, "welfare", 30_000, seed=23)
        assert abs(mc.mean - exact) <= 3 * mc.standard_error


def test_grid_bounds_enforced():
    with pytest.raises(ValueError):
        GridModel(n=5, m=5, model=WeightedSum(1.0), chi=0.5)
    with pytest.raises(ValueError):
        GridModel(n=2, m=50, model=WeightedSum(1.0), chi=0.5)


@pytest.mark.parametrize("s_bar", [0.0, -1.0, float("nan"), float("inf")])
def test_grid_s_bar_positive_and_finite(s_bar):
    # at s_bar = 0 every point would be 0 while grid.space().s_bar reads 1.0
    with pytest.raises(ValueError, match="s_bar"):
        GridModel(n=2, m=5, model=WeightedSum(1.0), chi=0.5, s_bar=s_bar)


def test_outcome_dump(tmp_path):
    grid = GridModel(n=2, m=3, model=WeightedSum(1.0), chi=1.0)
    path = tmp_path / "grid.csv"
    profiles = grid.all_profiles()
    batch = run_batch(Mechanism(GVARule(), 1.0, "compensated"), profiles, grid.context())
    write_outcomes_csv(path, grid.n, [lambda: [(profiles, batch)]])
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 10  # header + 9 profiles
