import csv
import dataclasses
import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from cursed_auctions import evaluate, valuations
from cursed_auctions.evaluate import (
    _h_map_and_moments,
    _metric_values,
    chi_sweep,
    conditional_welfare,
    estimate,
    estimate_many,
    event_probability,
    optimal_welfare,
    wallet_report,
    write_outcomes_csv,
)
from cursed_auctions.mechanisms import (
    AuctionContext,
    BatchOutcome,
    GVARule,
    Mechanism,
    MechanismInvariantError,
    make_context,
    masked_gva,
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
from cursed_auctions.valuations import ConcaveSum, MaxSignal, ScalarMap, WeightedSum


@pytest.fixture(scope="module")
def ctx():
    return make_context(SignalSpace(3, UniformIID(1.0)), WeightedSum(0.5))


class TestEstimate:
    def test_single_sample_has_zero_se(self, ctx):
        mech = Mechanism(GVARule(), 1.0, "compensated")
        rep = estimate(mech, ctx, "revenue", 1, seed=5)
        assert rep.standard_error == 0.0
        profile = sample_profiles(ctx.space, RandomStream(5, 0), 1)[0]
        out = run(mech, profile, ctx)
        np.testing.assert_allclose(rep.mean, out.revenue)

    @pytest.mark.parametrize(
        "call",
        [
            lambda mech, ctx, n: estimate(mech, ctx, "revenue", n, 1),
            lambda mech, ctx, n: estimate_many(mech, ctx, ["revenue", "welfare"], n, 1),
            lambda mech, ctx, n: optimal_welfare(ctx, n, 1),
            lambda mech, ctx, n: chi_sweep(lambda c: Mechanism(GVARule(), c), ctx, [0.0, 1.0], "revenue", n, 1),
            lambda mech, ctx, n: event_probability(ctx, 3, n, 1),
            lambda mech, ctx, n: conditional_welfare(mech, ctx, n, 1),
        ],
        ids=["estimate", "estimate_many", "optimal_welfare", "chi_sweep", "event_probability", "conditional_welfare"],
    )
    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_empty_sample_is_an_error(self, ctx, call, n_samples):
        mech = masked_gva(ctx, 1.0)
        with pytest.raises(ValueError, match="n_samples"):
            call(mech, ctx, n_samples)
        call(mech, ctx, 1)  # one sample is fine

    def test_masked_max_signal_never_allocates(self):
        mctx = make_context(SignalSpace(3, UniformIID(1.0)), MaxSignal())
        rep = estimate(masked_gva(mctx, 0.5), mctx, "allocation_prob", 20_000, seed=7)
        assert rep.mean == 0.0

    def test_estimate_many_matches_estimate(self, ctx):
        wide = make_context(SignalSpace(200, UniformIID(1.0)), WeightedSum(0.5))
        mech = Mechanism(GVARule(), 1.0, "compensated")
        for c, samples in ((ctx, 5_000), (wide, 25_000)):  # one chunk, then three
            many = estimate_many(mech, c, ["revenue", "transfers_out"], samples, seed=3)
            for metric in ("revenue", "transfers_out"):
                one = estimate(mech, c, metric, samples, seed=3)
                assert many[metric].mean == one.mean
                assert many[metric].standard_error == one.standard_error

    def test_standard_error_free_of_cancellation(self):
        # welfare near 2e6 with unit spread: sum-of-squares moments cancel here
        space = SignalSpace(3, GenericIID("affine", (1e6, 1e6 + 1)))
        wctx = make_context(space, WeightedSum(0.5))
        mech = Mechanism(GVARule(), 0.5, "compensated")
        rep = estimate(mech, wctx, "welfare", 20_000, seed=7)
        values = run_batch(mech, sample_profiles(space, RandomStream(7, 0), 20_000), wctx).welfare
        two_pass = values.std(ddof=1) / np.sqrt(len(values))
        assert abs(rep.standard_error - two_pass) <= 1e-6 * two_pass

    def test_unknown_metric_rejected(self, ctx):
        with pytest.raises(ValueError):
            estimate(Mechanism(GVARule(), 0.5), ctx, "profit", 10, seed=1)

    def test_accounting_identity_per_profile(self, ctx):
        # revenue + sum of bidder utilities telescopes to realized welfare
        from cursed_auctions.valuations import value

        mech = Mechanism(GVARule(), 0.63, "compensated")
        profiles = sample_profiles(ctx.space, RandomStream(13), 400)
        batch = run_batch(mech, profiles, ctx)
        utilities = np.zeros(len(profiles))
        for i in range(3):
            utilities += batch.win[:, i] * value(ctx.model, profiles, i) - batch.payments[:, i]
        np.testing.assert_allclose(batch.revenue + utilities, batch.welfare, atol=1e-12)


def _whole_chunk_reduce(space, keys, values_fn, n_samples, seed, chunk_rows):
    """The reducer before it streamed: each chunk drawn whole by
    ``sample_profiles`` and mapped by one ``values_fn`` call, inline."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    spans = [(c, min(chunk_rows, n_samples - c * chunk_rows)) for c in range(-(-n_samples // chunk_rows))]
    parts = []
    for c, rows in spans:
        values = values_fn(sample_profiles(space, RandomStream(seed, c), rows))
        parts.append({k: evaluate._moments(values[k]) for k in keys})
    return {k: evaluate._merge([p[k] for p in parts]) for k in keys}


# every estimator on 3 or more chunks of the small_chunks fixture
ESTIMATORS = {
    "estimate": lambda mech, ctx: estimate(mech, ctx, "virtual_surplus", 2000, 5),
    "estimate_many": lambda mech, ctx: estimate_many(mech, ctx, list(evaluate.METRICS), 2000, 5),
    "optimal_welfare": lambda mech, ctx: optimal_welfare(ctx, 2000, 5),
    "chi_sweep": lambda mech, ctx: chi_sweep(lambda c: masked_gva(ctx, c), ctx, [0.25, 1.0], "welfare", 2000, 5),
    "event_probability": lambda mech, ctx: event_probability(ctx, 3000, 3000, 5),  # 1333-row chunks
    "conditional_welfare": lambda mech, ctx: conditional_welfare(mech, ctx, 2000, 5),
}


class TestReduceThreads:
    """``_reduce`` draws each chunk one run_batch span at a time, runs the
    chunks on one thread per CPU of the affinity mask and merges them in chunk
    order: every estimate is the one the whole-chunk inline loop gives."""

    SPAN = 64  # run_batch rows at n = 3

    @pytest.fixture
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(evaluate, "_chunk_rows", lambda n: 700)
        monkeypatch.setattr(valuations, "_CHUNK_CELLS", 40 * 3 * self.SPAN)

    @pytest.fixture
    def threads(self, monkeypatch):
        """The list of threads started so far."""
        started = []
        start = threading.Thread.start

        def counting(thread):
            started.append(thread)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        return started

    @pytest.mark.parametrize("cpus", [None, 1, 2, 3])  # None: the real affinity mask
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_matches_whole_chunk_reduce_for_any_cpu_count(self, ctx, monkeypatch, small_chunks, name, cpus):
        mech = masked_gva(ctx, 1.0)
        call = ESTIMATORS[name]
        with monkeypatch.context() as m:
            m.setattr(evaluate, "_reduce", _whole_chunk_reduce)
            expected = call(mech, ctx)
        if cpus is not None:
            monkeypatch.setattr(valuations, "_cpus", lambda: cpus)
        assert call(mech, ctx) == expected  # reports compare every field exactly

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("subset", [False, True], ids=["full_rows", "subset_rows"])
    def test_values_fn_sees_at_most_one_batch_span(self, ctx, monkeypatch, small_chunks, threads, subset, cpus):
        monkeypatch.setattr(valuations, "_cpus", lambda: cpus)
        mech = Mechanism(GVARule(), 0.63, "compensated")
        seen = []

        def values_fn(profiles):
            seen.append(len(profiles))
            rows = profiles[profiles[:, 0] > 0.9] if subset else profiles  # some spans keep no row
            batch = run_batch(mech, rows, ctx)
            return {"revenue": batch.revenue, "welfare": batch.welfare}

        got = evaluate._reduce(ctx.space, ["revenue", "welfare"], values_fn, 2000, 9, 700)
        assert max(seen) == self.SPAN and sum(seen) == 2000 and len(seen) == 11 + 11 + 10  # chunks of 700, 700, 600
        assert got == _whole_chunk_reduce(ctx.space, ["revenue", "welfare"], values_fn, 2000, 9, 700)
        assert (len(threads) > 0) == (cpus > 1)

    def test_one_chunk_starts_no_thread(self, monkeypatch, threads):
        monkeypatch.setattr(valuations, "_cpus", lambda: 2)
        mctx = make_context(SignalSpace(2, UniformIID(1.0)), MaxSignal())
        reps = estimate_many(masked_gva(mctx, 0.25), mctx, ["allocation_prob", "welfare"], 8000, seed=2024)
        assert reps["allocation_prob"].mean == 0.0 and threads == []


class TestVirtualSurplus:
    @pytest.mark.parametrize("family", ["weighted_sum", "max_signal"])
    def test_matches_closed_form_per_profile(self, family):
        # two U[0, 1] bidders, GVA: the higher signal s wins against o < s.
        # weighted sum (beta 1): v_chi = s + (1 - chi) o + chi/2, slope 1;
        # max signal: v_chi = (1 - chi) s + chi (1 + s^2)/2, slope 1 - chi + chi s
        # (finite-difference branch; the interim table is linear between grid
        # points 1/4096 apart, so its slope is off by up to chi/8192).
        # Virtual value = v_chi - slope (1 - s).
        chi = 0.6
        model = WeightedSum(1.0) if family == "weighted_sum" else MaxSignal()
        vctx = make_context(SignalSpace(2, UniformIID(1.0)), model)
        profiles = sample_profiles(vctx.space, RandomStream(19), 2000)
        profiles[:5, 1] = profiles[:5, 0]  # ties allocate nothing
        got = _metric_values("virtual_surplus", Mechanism(GVARule(), chi, "compensated"), profiles, vctx)
        s, o = profiles.max(axis=1), profiles.min(axis=1)
        if family == "weighted_sum":
            vchi, slope, atol = s + (1 - chi) * o + chi / 2, 1.0, 1e-12
        else:
            vchi, slope, atol = (1 - chi) * s + chi * (1 + s**2) / 2, 1 - chi + chi * s, 1e-4
        np.testing.assert_allclose(got, np.where(s > o, vchi - slope * (1 - s), 0.0), rtol=0, atol=atol)
        assert np.all(got[:5] == 0.0)


class TestOptimalWelfare:
    def test_weighted_sum_two_bidders(self):
        ctx2 = make_context(SignalSpace(2, UniformIID(1.0)), WeightedSum(0.5))
        rep = optimal_welfare(ctx2, 100_000, seed=2024)
        assert abs(rep.mean - 5.0 / 6.0) <= 3 * rep.standard_error

    def test_max_of_two_uniforms(self):
        mctx = make_context(SignalSpace(2, UniformIID(1.0)), MaxSignal())
        rep = optimal_welfare(mctx, 100_000, seed=2024)
        assert abs(rep.mean - 2.0 / 3.0) <= 3 * rep.standard_error

    def test_degenerate_grid(self):
        gctx = make_context(SignalSpace(2, DiscreteGridIID(points=(0.0,))), WeightedSum(0.5))
        assert optimal_welfare(gctx, 1_000, seed=1).mean == 0.0

    def test_requires_single_crossing(self):
        bad = make_context(SignalSpace(2, UniformIID(1.0)), WeightedSum(1.5))
        with pytest.raises(ValueError):
            optimal_welfare(bad, 100, seed=1)


class TestChiSweep:
    def test_fixed_rule_revenue_exactly_monotone(self, ctx):
        rows = chi_sweep(
            lambda c: Mechanism(GVARule(), c, "compensated"),
            ctx,
            [0.0, 0.5, 1.0],
            "revenue",
            10_000,
            seed=2024,
        )
        means = [rep.mean for _chi, rep in rows]
        assert means[0] >= means[1] >= means[2]

    def test_masked_welfare_monotone(self, ctx):
        rows = chi_sweep(
            lambda c: masked_gva(ctx, c), ctx, [0.0, 0.5], "welfare", 10_000, seed=2024
        )
        assert rows[0][1].mean >= rows[1][1].mean


class TestEventProbability:
    def test_two_bidders_exact_zero(self):
        # mean h cutoff at n=2 needs s_1 + s_2 >= 2: a measure-zero corner
        ctx2 = make_context(SignalSpace(2, UniformIID(1.0)), WeightedSum(0.5))
        rep = event_probability(ctx2, 2, 50_000, seed=3)
        assert rep.mean == 0.0
        assert rep.mean < 0.5

    def test_degenerate_marginal(self):
        gctx = make_context(SignalSpace(2, DiscreteGridIID(points=(0.5,))), WeightedSum(0.5))
        assert event_probability(gctx, 4, 2_000, seed=3).mean == 0.0

    def test_large_n_approaches_half(self):
        ctx2 = make_context(SignalSpace(2, UniformIID(1.0)), WeightedSum(0.5))
        rep = event_probability(ctx2, 1000, 50_000, seed=2024)
        assert 0.4 < rep.mean < 0.5

    def test_conditional_welfare_on_event_rows(self, ctx):
        mech = masked_gva(ctx, 1.0)
        cond = conditional_welfare(mech, ctx, 20_000, seed=7)
        # 20k rows fit in one chunk, so the draws are chunk 0 of the stream
        profiles = sample_profiles(ctx.space, RandomStream(7, 0), 20_000)
        kept = profiles[0.5 * profiles.mean(axis=1) >= 0.25 + 0.5 / 3]
        batch = run_batch(mech, kept, ctx)
        assert cond.sample_count == len(kept) > 0
        assert np.all(batch.winner >= 0)  # the masked auction allocates on the event
        assert cond.mean == pytest.approx(batch.welfare.mean(), rel=1e-12)
        assert event_probability(ctx, 3, 20_000, seed=7).mean == len(kept) / 20_000

    def test_needs_additive_family(self):
        mctx = make_context(SignalSpace(2, UniformIID(1.0)), MaxSignal())
        with pytest.raises(ValueError):
            event_probability(mctx, 10, 100, seed=1)


def _concave_ctx(marginal, h):
    # E[h] reads only the space and the model, so the (slow) interim cache is skipped
    model = ConcaveSum(ScalarMap("identity"), ScalarMap("identity"), h)
    return AuctionContext(SignalSpace(2, marginal), model, interim=None)


_MARGINALS = [
    UniformIID(1.0),
    UniformIID(100.0),
    GenericIID("affine", (1.0, 4.0)),
    GenericIID("affine", (0.0, 2.0)),
    GenericIID("power", (0.5, 1.0)),
    GenericIID("power", (3.0, 2.0)),
    GenericIID("power", (0.1, 1.0)),
]
_MAPS = [
    ScalarMap("identity"),
    ScalarMap("affine", (2.0, 1.0)),
    ScalarMap("power", (0.5,)),
    ScalarMap("power", (0.1,)),
    ScalarMap("power", (2.0,)),
    ScalarMap("log1p_scaled", (1.0,)),
    ScalarMap("log1p_scaled", (3.0,)),
]


class TestConcaveSumMoment:
    """E[h(signal)] for ConcaveSum on a continuous marginal (a fixed quadrature rule)."""

    @pytest.mark.parametrize("q", [0.05, 0.1, 0.5, 1.0, 2.0, 7.0])
    def test_uniform_power_closed_form(self, q):
        _h, lam, _b = _h_map_and_moments(_concave_ctx(UniformIID(1.0), ScalarMap("power", (q,))))
        assert lam == pytest.approx(1.0 / (q + 1.0), rel=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("q", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("s_bar", [0.5, 2.0])
    def test_power_marginal_closed_form(self, p, q, s_bar):
        # signal = s_bar * U**p, so E[signal**q] = s_bar**q / (p q + 1)
        ctx = _concave_ctx(GenericIID("power", (p, s_bar)), ScalarMap("power", (q,)))
        _h, lam, b = _h_map_and_moments(ctx)
        assert lam == pytest.approx(s_bar**q / (p * q + 1.0), rel=1e-12)
        assert b == pytest.approx(s_bar**q, rel=1e-15)

    @pytest.mark.parametrize("c", [0.5, 1.0, 3.0])
    def test_uniform_log1p_closed_form(self, c):
        _h, lam, _b = _h_map_and_moments(_concave_ctx(UniformIID(1.0), ScalarMap("log1p_scaled", (c,))))
        assert lam == pytest.approx(c * (2.0 * math.log(2.0) - 1.0), rel=1e-12)

    @pytest.mark.parametrize("marginal", _MARGINALS, ids=repr)
    def test_matches_adaptive_quadrature(self, marginal):
        for h in _MAPS:
            _h, lam, _b = _h_map_and_moments(_concave_ctx(marginal, h))
            ref, _err = integrate.quad(lambda u: float(h(marginal.quantile(u))), 0.0, 1.0, limit=200)
            assert lam == pytest.approx(ref, rel=1e-10), h

    def test_grid_marginal_is_atom_mean(self):
        grid = DiscreteGridIID(points=(0.0, 0.25, 1.0))
        _h, lam, _b = _h_map_and_moments(_concave_ctx(grid, ScalarMap("power", (0.5,))))
        assert lam == pytest.approx((0.5 + 1.0) / 3.0, rel=1e-15)

    def test_event_probability_large_n(self):
        ctx = _concave_ctx(UniformIID(1.0), ScalarMap("power", (0.5,)))
        rep = event_probability(ctx, 1000, 50_000, seed=2024)
        assert 0.4 < rep.mean < 0.5


def test_cli_import_needs_no_scipy():
    code = (
        "import sys; import cursed_auctions.cli; "
        "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.'))); "
        "print('numpy.random' in sys.modules)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split("\n")[:2] == ["[]", "True"]


def test_cli_import_starts_no_pool_machinery():
    code = "import sys; import cursed_auctions.cli; print('concurrent' in sys.modules, 'multiprocessing' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False False\n"


class TestWalletReport:
    def test_naive_bid_and_utility(self):
        rep = wallet_report("U[0,100]", chi=1.0, mc_draws=200_000, seed=5)
        assert rep["bid_at_probe"] == 80.0
        assert -21.0 <= rep["expected_winner_utility"] <= -19.0

    def test_avery_support_bid_functions(self):
        full = wallet_report("U[1,4]", chi=1.0, mc_draws=1_000, seed=5)
        assert (full["bid_slope"], full["bid_intercept"]) == (1.0, 2.5)
        rational = wallet_report("U[1,4]", chi=0.0, mc_draws=1_000, seed=5)
        assert (rational["bid_slope"], rational["bid_intercept"]) == (2.0, 0.0)
        fitted = wallet_report("U[1,4]", chi=0.63, mc_draws=1_000, seed=5)
        np.testing.assert_allclose(fitted["bid_slope"], 1.37)
        np.testing.assert_allclose(fitted["bid_intercept"], 1.575)

    def test_masked_allocation_cutoff_is_mean(self):
        assert wallet_report("U[0,100]", 1.0, mc_draws=1_000)["masked_allocation_cutoff"] == 50.0
        assert wallet_report("U[1,4]", 1.0, mc_draws=1_000)["masked_allocation_cutoff"] == 2.5

    def test_unknown_support_rejected(self):
        with pytest.raises(ValueError):
            wallet_report("U[0,7]", 1.0)

    def test_bid_function_is_best_response_on_grid(self):
        # independent oracle: against opponents playing b(t) = (2-chi) t + chi E[s],
        # the cursed expected utility of bidding x at signal s is
        # (1-chi) E[(s + t - b(t)) 1{x > b(t)}] + chi E[(s + t - b(t')) 1{x > b(t')}]
        # with t' an independent copy; the argmax should sit at b(s).
        chi = 0.63
        marg = GenericIID("affine", (1.0, 4.0))
        gen = RandomStream(99).generator()
        t = np.asarray(marg.quantile(gen.random(120_000)))
        t_ind = np.asarray(marg.quantile(gen.random(120_000)))
        bid_of = lambda sig: (2 - chi) * sig + chi * 2.5

        def cursed_eu(x, s):
            rational = np.mean((s + t - bid_of(t)) * (x > bid_of(t)))
            cursed = np.mean((s + t - bid_of(t_ind)) * (x > bid_of(t_ind)))
            return (1 - chi) * rational + chi * cursed

        grid = np.linspace(2.0, 9.0, 141)
        for s in (1.0, 2.0, 3.0, 4.0):
            eus = np.array([cursed_eu(x, s) for x in grid])
            # fixed point: no grid bid beats the strategy bid by more than MC noise
            assert eus.max() - cursed_eu(bid_of(s), s) <= 0.02


class TestCsv:
    def test_outcomes_csv_schema(self, ctx, tmp_path):
        mech = Mechanism(GVARule(), 0.5, "compensated")
        profiles = sample_profiles(ctx.space, RandomStream(1), 5)
        batch = run_batch(mech, profiles, ctx)
        path = tmp_path / "outcomes.csv"
        write_outcomes_csv(path, 3, [lambda: [(profiles, batch)]])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "s_1,s_2,s_3,winner,threshold,payment_1,payment_2,payment_3,revenue,welfare"
        assert len(lines) == 6

    def test_mismatched_batch_rejected(self, ctx, tmp_path):
        mech = Mechanism(GVARule(), 0.5, "compensated")
        profiles = sample_profiles(ctx.space, RandomStream(1), 5)
        batch = run_batch(mech, profiles, ctx)
        path = tmp_path / "outcomes.csv"
        with pytest.raises(ValueError, match="rows"):
            write_outcomes_csv(path, 3, [lambda: [(profiles[:3], batch)]])
        for field in ("payments", "thresholds"):
            wide = dataclasses.replace(batch, **{field: np.zeros((5, 4))})
            with pytest.raises(ValueError, match="width"):
                write_outcomes_csv(path, 3, [lambda: [(profiles, wide)]])
        with pytest.raises(ValueError, match="width"):
            write_outcomes_csv(path, 4, [lambda: [(profiles, batch)]])
        assert os.listdir(tmp_path) == []

    def test_blocks_written_in_order(self, tmp_path):
        profiles, batch = _edge_batch(3, 40, seed=5)
        blocks = [(profiles[r], _batch_rows(batch, r)) for r in (slice(0, 7), slice(7, 7), slice(7, 40))]
        write_outcomes_csv(tmp_path / "one.csv", 3, [lambda: [(profiles, batch)]])
        write_outcomes_csv(tmp_path / "three.csv", 3, [lambda: iter(blocks)])
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "three.csv").read_bytes()

    @pytest.mark.parametrize("earlier", [None, b"s_1,s_2\r\nfrom an earlier run\r\n"])
    @pytest.mark.parametrize("failure", ["bad second block", "raising iterator"])
    def test_failure_leaves_no_file_and_keeps_an_earlier_one(self, tmp_path, earlier, failure):
        profiles, batch = _edge_batch(3, 40, seed=6)
        path = tmp_path / "outcomes.csv"
        if earlier is not None:
            path.write_bytes(earlier)

        def blocks():
            yield profiles, batch
            if failure == "raising iterator":
                raise RuntimeError("the second block failed")
            yield profiles[:3], batch

        with pytest.raises(ValueError if failure == "bad second block" else RuntimeError):
            write_outcomes_csv(path, 3, [blocks])
        assert os.listdir(tmp_path) == ([] if earlier is None else ["outcomes.csv"])
        if earlier is not None:
            assert path.read_bytes() == earlier


def _batch_rows(batch, rows):
    """The outcomes of ``rows`` (a slice) of ``batch``."""
    return BatchOutcome(**{f.name: getattr(batch, f.name)[rows] for f in dataclasses.fields(batch)})


def _csv_writer_outcomes(path, profiles, batch):
    """The per-cell ``csv.writer`` loop that ``write_outcomes_csv`` replaced,
    kept as the reference for its bytes (with n read from the profile width)."""
    profiles = np.atleast_2d(profiles)
    n = profiles.shape[1]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            [f"s_{i + 1}" for i in range(n)]
            + ["winner", "threshold"]
            + [f"payment_{i + 1}" for i in range(n)]
            + ["revenue", "welfare"]
        )
        for r in range(len(profiles)):
            winner = int(batch.winner[r])
            top = int(np.argmax(profiles[r]))
            w.writerow(
                [f"{x:.12g}" for x in profiles[r]]
                + [winner if winner >= 0 else "", f"{batch.thresholds[r, top]:.12g}"]
                + [f"{x:.12g}" for x in batch.payments[r]]
                + [f"{batch.revenue[r]:.12g}", f"{batch.welfare[r]:.12g}"]
            )


_CSV_SPECIALS = (-0.0, 5e-324, 1e16, 1e-5, 123456789012.5, float("inf"), float("nan"))


def _edge_batch(n: int, rows: int, seed: int):
    """Random outcomes with no-winner rows and the specials injected into the
    profiles, the payments and the threshold column (the argmax agent's)."""
    rng = np.random.default_rng(seed)
    profiles = rng.random((rows, n))
    payments = rng.normal(scale=10.0, size=(rows, n))
    thresholds = rng.random((rows, n)) * 3.0
    winner = rng.integers(-1, n, rows)
    winner[::4] = -1
    for r in range(0, rows, 2):
        v = _CSV_SPECIALS[(r // 2) % len(_CSV_SPECIALS)]
        profiles[r, r % n] = v
        payments[r, (3 * r) % n] = v
        thresholds[r, np.argmax(profiles[r])] = v
    zeros = np.zeros((rows, n))
    batch = BatchOutcome(
        winner=winner,
        win=zeros > 0,
        payments=payments,
        thresholds=thresholds,
        compensations=zeros,
        welfare=rng.random(rows),
        revenue=payments.sum(axis=1),
    )
    return profiles, batch


def _assert_same_bytes(tmp_path, profiles, batch):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_outcomes_csv(new, profiles.shape[1], [lambda: [(profiles, batch)]])
    _csv_writer_outcomes(old, profiles, batch)
    assert new.read_bytes() == old.read_bytes()


class TestOutcomesCsvDifferential:
    """``write_outcomes_csv`` writes the bytes of the ``csv.writer`` loop it replaced."""

    CELLS = 5_000  # a small budget of CSV cells, so chunk edges are cheap to reach

    @pytest.mark.parametrize("n", [1, 3, 25, 200])
    @pytest.mark.parametrize(
        "rows_of", [lambda c: 0, lambda c: 1, lambda c: c - 1, lambda c: c, lambda c: c + 1, lambda c: 3 * c + 2],
        ids=["zero", "one", "chunk-1", "chunk", "chunk+1", "3chunks+2"],
    )
    def test_edge_values_across_chunk_edges(self, tmp_path, monkeypatch, n, rows_of):
        monkeypatch.setattr(valuations, "_CHUNK_CELLS", 64 * self.CELLS)  # the writer counts 64 floats per cell
        rows = rows_of(self.CELLS // (2 * n + 4))
        _assert_same_bytes(tmp_path, *_edge_batch(n, rows, seed=n * 1000 + rows))

    def test_default_chunk_edge(self, tmp_path):
        n = 25
        _assert_same_bytes(tmp_path, *_edge_batch(n, valuations._CHUNK_CELLS // (64 * (2 * n + 4)) + 1, seed=7))

    def test_grid_oracle_dump(self, tmp_path):
        grid = GridModel(n=2, m=3, model=WeightedSum(1.0), chi=1.0)
        profiles = grid.all_profiles()
        batch = run_batch(Mechanism(GVARule(), 1.0, "compensated"), profiles, grid.context())
        _assert_same_bytes(tmp_path, profiles, batch)


def _percent_text(line, n, cells, winner):
    """One "%" on the repeated line template: the chunk formatter that
    ``_csv_text`` replaced, kept as the reference for its bytes."""
    flat = cells.ravel().tolist()
    flat[n :: 2 * n + 4] = [w if w >= 0 else "" for w in winner.tolist()]
    return ((line * len(winner)) % tuple(flat)).encode("ascii")


class TestCsvEncoder:
    """``_csv_text`` writes the bytes of the "%" template on every kind of cell."""

    @staticmethod
    def _assert_encodes(values, n=3, winners=(0, -1, 2)):
        """Rows whose float columns hold ``values`` in order (cycled to fill the
        last row) and whose winner column cycles through ``winners``."""
        width = 2 * n + 4
        values = np.asarray(values, dtype=float).ravel()
        rows = max(1, -(-len(values) // (width - 1)))
        winner = np.resize(np.asarray(winners, dtype=np.int64), rows)
        floats = np.resize(values, (rows, width - 1))
        cells = np.column_stack((floats[:, :n], winner, floats[:, n:]))
        line = ",".join(["%.12g"] * n + ["%s"] + ["%.12g"] * (n + 3)) + "\r\n"
        got = evaluate._csv_text(line, n, cells, winner).split(b"\r\n")
        want = _percent_text(line, n, cells, winner).split(b"\r\n")
        bad = [(g, w) for g, w in zip(got, want) if g != w]
        assert not bad and len(got) == len(want), bad[:3]

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(31)
        bits = rng.integers(0, 2**64, 30_000, dtype=np.uint64, endpoint=False)
        bits[::3] &= np.uint64(0x800F_FFFF_FFFF_FFFF)  # subnormals and signed zeros
        bits[1::7] |= np.uint64(0x7FF0_0000_0000_0000)  # infinities and nan payloads
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 2.2250738585072014e-308]
        self._assert_encodes(np.concatenate([specials, bits.view(np.float64)]))

    @pytest.mark.parametrize("n", [1, 3, 25])
    def test_every_fixed_notation_exponent(self, n):
        rng = np.random.default_rng(32 + n)
        values = []
        for e in range(-4, 12):
            x = rng.uniform(10.0**e, 10.0 ** (e + 1), 400)
            values.append(x)
            values += [[float(f"{v:.{d}g}") for v in x[:40]] for d in range(1, 13)]  # trailing zeros in each group
        values = np.concatenate(values)
        values[1::2] *= -1.0
        self._assert_encodes(values, n=n)

    def test_switch_points_and_integers(self):
        edges = [9.9999999999995e-5, 1e-4, 1e-5, 99.99999999995, 999999999999.5, 1e12]
        near = [np.nextafter(x, d) for x in edges for d in (0.0, math.inf)]
        powers = [10.0**e for e in range(-6, 14)]
        integers = [1.0, -20.0, 100.0, 999.0, 1000.0, 12.0, 3.0e11]
        values = edges + near + powers + integers
        self._assert_encodes(values + [-v for v in values])

    def test_winners(self):
        self._assert_encodes(np.linspace(-3.0, 3.0, 70), n=2, winners=(-1, 0, 9, 10, 99, 100, 1000))

    def test_exact_half_products(self):
        """Cells x whose product fl(|x| * 10**p) is exactly k + 1/2, so rounding
        that product to an integer would round the tie, not the exact value."""
        rng = np.random.default_rng(34)
        p = rng.integers(0, 16, 40_000)
        k = rng.integers(10**11, 10**12, 40_000).astype(float)
        scale = 10.0**p
        target = k + 0.5
        a = target / scale
        found = np.zeros(len(a), dtype=bool)
        x = np.zeros(len(a))
        for direction in (math.inf, 0.0):
            step = a.copy()
            for _ in range(4):
                hit = ~found & (step * scale == target)
                x[hit], found[hit] = step[hit], True
                step = np.nextafter(step, direction)
        assert found.sum() > 10_000
        x = x[found]
        x[1::2] *= -1.0
        self._assert_encodes(x, n=25)

    def test_sub_block_edges(self):
        rng = np.random.default_rng(35)
        sub = evaluate._CSV_SUB_ROWS
        for rows in (sub - 1, sub, sub + 1, 2 * sub + 1):
            values = rng.normal(scale=10.0, size=(rows, 9))
            values[rows // 2, 4] = math.nan  # one row formatted by "%" mid-block
            self._assert_encodes(values)


_PARENT_PID = os.getpid()
_MARK = 0.3125  # the first signal of the part whose process finishes last
_csv_text = evaluate._csv_text


def _late_marked_chunk(line, n, cells, winner):
    """``_csv_text``, slowed in a forked process for the chunk that starts with
    the mark, so the parts after it finish first."""
    if os.getpid() != _PARENT_PID and cells[0, 0] == _MARK:
        time.sleep(0.2)
    return _csv_text(line, n, cells, winner)


def _dies_in_child(line, n, cells, winner):
    if os.getpid() != _PARENT_PID:
        os._exit(1)
    return _csv_text(line, n, cells, winner)


class TestOutcomesCsvParts:
    """With several CPUs, each contiguous run of parts is written in its own
    forked process; the bytes do not depend on the part count, and no process
    or temporary file outlives the call."""

    N, ROWS = 3, 50  # 50-row chunks at n = 3
    CUTS = (0, 60, 110, 110, 152, 153)  # five blocks, one empty and the last a one-row no-sale block

    @pytest.fixture
    def forks(self, monkeypatch, set_cpus):
        """Chunks of ROWS rows, 3 CPUs, and the list that counts the processes forked."""
        monkeypatch.setattr(valuations, "_CHUNK_CELLS", 64 * (2 * self.N + 4) * self.ROWS)
        return set_cpus(3)

    def _parts(self, count):
        """The five blocks cut into ``count`` contiguous parts, the mark at the
        first row of the second part; and the whole sample."""
        profiles, batch = _edge_batch(self.N, self.CUTS[-1], seed=11)
        batch.winner[-1] = -1
        blocks = [(profiles[a:b], _batch_rows(batch, slice(a, b))) for a, b in zip(self.CUTS, self.CUTS[1:])]
        groups = [blocks[k * len(blocks) // count : (k + 1) * len(blocks) // count] for k in range(count)]
        if count > 1:
            profiles[self.CUTS[len(blocks) // count], 0] = _MARK
        return [lambda g=g: iter(g) for g in groups], profiles, batch

    def _assert_no_leftovers(self, out, text):
        """No process and no temporary file is left, and outcomes.csv holds ``text``."""
        assert multiprocessing.active_children() == []
        assert os.listdir(out) == ["outcomes.csv"]
        assert (out / "outcomes.csv").read_bytes() == text

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_same_bytes_for_any_part_count(self, tmp_path, monkeypatch, forks, count):
        parts, profiles, batch = self._parts(count)
        _csv_writer_outcomes(tmp_path / "reference.csv", profiles, batch)
        monkeypatch.setattr(evaluate, "_csv_text", _late_marked_chunk)
        out = tmp_path / "out"
        out.mkdir()
        write_outcomes_csv(out / "outcomes.csv", self.N, parts)
        assert len(forks) == (count if count > 1 else 0)
        self._assert_no_leftovers(out, (tmp_path / "reference.csv").read_bytes())

    def test_one_part_forks_nothing(self, tmp_path, forks):
        profiles, batch = _edge_batch(self.N, 3 * self.ROWS + 1, seed=12)
        _assert_same_bytes(tmp_path, profiles, batch)
        assert forks == []

    def test_success_replaces_an_earlier_file(self, tmp_path, forks):
        parts, profiles, batch = self._parts(2)
        out = tmp_path / "out"
        out.mkdir()
        (out / "outcomes.csv").write_bytes(b"from an earlier run\r\n")
        write_outcomes_csv(out / "outcomes.csv", self.N, parts)
        assert len(forks) == 2
        _csv_writer_outcomes(tmp_path / "reference.csv", profiles, batch)
        self._assert_no_leftovers(out, (tmp_path / "reference.csv").read_bytes())

    @pytest.mark.parametrize("part", [0, 1])
    def test_bad_block_stops_every_process(self, tmp_path, forks, part):
        parts, profiles, batch = self._parts(3)
        good = parts[part]
        parts[part] = lambda: itertools.chain(good(), [(profiles[:2], batch)])
        earlier = b"from an earlier run\r\n"
        (tmp_path / "outcomes.csv").write_bytes(earlier)
        with pytest.raises(ValueError, match="rows"):
            write_outcomes_csv(tmp_path / "outcomes.csv", self.N, parts)
        assert len(forks) == 3
        self._assert_no_leftovers(tmp_path, earlier)

    def test_failure_stops_later_parts_without_waiting(self, tmp_path, forks):
        parts, profiles, batch = self._parts(2)
        good = parts[1]

        def slow():
            time.sleep(30)
            yield from good()

        parts = [lambda: [(profiles[:2], batch)], slow]
        start = time.monotonic()
        with pytest.raises(ValueError, match="rows"):
            write_outcomes_csv(tmp_path / "outcomes.csv", self.N, parts)
        assert time.monotonic() - start < 10
        assert multiprocessing.active_children() == []
        assert os.listdir(tmp_path) == []

    def test_invariant_error_in_a_process_arrives_whole(self, tmp_path, forks):
        parts, _profiles, _batch = self._parts(3)
        good = parts[1]

        def fails():
            yield from good()
            raise MechanismInvariantError("more than one winner", 103, 1, 2.0)

        parts[1] = fails
        with pytest.raises(MechanismInvariantError) as err:
            write_outcomes_csv(tmp_path / "outcomes.csv", self.N, parts)
        assert (err.value.what, err.value.row, err.value.agent, err.value.value) == ("more than one winner", 103, 1, 2.0)
        assert str(err.value) == "more than one winner: row 103, agent 1, value 2.0"
        assert multiprocessing.active_children() == []
        assert os.listdir(tmp_path) == []

    def test_dead_process_stops_every_process(self, tmp_path, monkeypatch, forks):
        parts, _profiles, _batch = self._parts(3)
        earlier = b"from an earlier run\r\n"
        (tmp_path / "outcomes.csv").write_bytes(earlier)
        monkeypatch.setattr(evaluate, "_csv_text", _dies_in_child)
        with pytest.raises(RuntimeError, match="died with exit code 1"):
            write_outcomes_csv(tmp_path / "outcomes.csv", self.N, parts)
        assert len(forks) == 3
        self._assert_no_leftovers(tmp_path, earlier)


def test_masked_welfare_never_exceeds_optimal_pointwise(ctx):
    mech = masked_gva(ctx, 1.0)
    profiles = sample_profiles(ctx.space, RandomStream(77), 2_000)
    batch = run_batch(mech, profiles, ctx)
    from cursed_auctions.valuations import profile_stats, value_from_own_and_stat

    top = np.argmax(profiles, axis=1)
    rows = np.arange(len(profiles))
    stat = profile_stats(ctx.model, profiles)[rows, top]
    best = value_from_own_and_stat(ctx.model, profiles[rows, top], stat)
    assert np.all(batch.welfare <= best + 1e-12)

