"""Monte Carlo estimation of auction metrics, cursedness sweeps, and the
two-bidder wallet-game demonstration.

Every estimator streams through one reducer, ``_reduce``.  It draws chunk c
as ``sample_profiles(space, RandomStream(seed, c), rows)`` with a chunk row
count fixed by the caller, maps it to per-row values, and keeps each chunk's
(count, sum, M2), where M2 is the sum of squared deviations from the chunk
mean.  Chunks are merged in chunk order (Chan, Golub & LeVeque 1979): the
mean is the exactly rounded sum of chunk sums over the count, and
M2 = sum_c [M2_c + count_c * (mean_c - mean)^2], so the standard error does
not cancel for metrics with a large mean.  Estimates are deterministic in
(seed, sample count) and do not depend on how many workers processed the
chunks.  Cursedness sweeps reuse the identical draws for every chi (common
random numbers); with a fixed rule this turns the pointwise payment
monotonicity in chi into an exact, assertion-grade comparison of the sweep
means.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .mechanisms import AuctionContext, Mechanism, run_batch
from .signals import GenericIID, RandomStream, SignalSpace, UniformIID, sample_profiles
from .valuations import (
    ConcaveSum,
    WeightedSum,
    _row_spans,
    cursed_virtual_value,
    profile_stats,
    single_crossing_holds,
    value_from_own_and_stat,
)

__all__ = [
    "EstimateReport",
    "METRICS",
    "estimate",
    "estimate_many",
    "optimal_welfare",
    "chi_sweep",
    "event_probability",
    "conditional_welfare",
    "wallet_report",
    "write_outcomes_csv",
    "write_estimates_csv",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1

METRICS = (
    "revenue",
    "welfare",
    "transfers_out",
    "allocation_prob",
    "virtual_surplus",
)


@dataclass(frozen=True)
class EstimateReport:
    """A Monte Carlo mean with its standard error and 95% normal interval."""

    metric: str
    mean: float
    standard_error: float
    sample_count: int
    seed: int
    confidence_interval_95: tuple

    @staticmethod
    def from_m2(metric: str, count: int, mean: float, m2: float, seed: int) -> "EstimateReport":
        """Report from a sample count, mean and M2 (sum of squared deviations)."""
        se = math.sqrt(m2 / (count - 1) / count) if count > 1 else 0.0
        return EstimateReport(
            metric=metric,
            mean=mean,
            standard_error=se,
            sample_count=count,
            seed=seed,
            confidence_interval_95=(mean - 1.96 * se, mean + 1.96 * se),
        )

    def to_json(self) -> dict:
        """The report as JSON fields; a mean of no samples is null, not a measured 0."""
        mean, se, lo, hi = (self.mean, self.standard_error, *self.confidence_interval_95)
        if self.sample_count == 0:
            mean = se = lo = hi = None
        return {
            "metric": self.metric,
            "mean": mean,
            "standard_error": se,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "ci95_low": lo,
            "ci95_high": hi,
        }


def _metric_values(metric: str, mech: Mechanism, profiles: np.ndarray, ctx: AuctionContext) -> np.ndarray:
    batch = run_batch(mech, profiles, ctx)
    return _metric_from_batch(metric, batch, profiles, ctx, mech)


def _metric_from_batch(metric: str, batch, profiles: np.ndarray, ctx: AuctionContext, mech: Mechanism) -> np.ndarray:
    if metric == "revenue":
        return batch.revenue
    if metric == "welfare":
        return batch.welfare
    if metric == "transfers_out":
        return np.maximum(0.0, -batch.payments).sum(axis=1)
    if metric == "allocation_prob":
        return (batch.winner >= 0).astype(float)
    if metric == "virtual_surplus":
        return _winner_virtual_values(mech.chi, profiles, batch, ctx)
    raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")


def _winner_virtual_values(chi: float, profiles: np.ndarray, batch, ctx: AuctionContext) -> np.ndarray:
    """Sum over agents of allocation times the cursed virtual value (only the
    winner contributes)."""
    out = np.zeros(len(profiles))
    rows = np.flatnonzero(batch.winner >= 0)
    if rows.size:
        cols = batch.winner[rows]
        stat = profile_stats(ctx.model, profiles[rows])[np.arange(len(rows)), cols]
        out[rows] = cursed_virtual_value(ctx.interim, chi, profiles[rows, cols], stat)
    return out


def _chunk_rows(n: int) -> int:
    return max(1, 2_000_000 // max(n, 1))


def _moments(values: np.ndarray) -> tuple:
    """(count, sum, M2) of one chunk's values; M2 sums squared deviations from
    the chunk mean."""
    count = len(values)
    total = float(values.sum())
    if count == 0:
        return 0, 0.0, 0.0
    dev = values - total / count
    return count, total, float((dev * dev).sum())


def _merge(parts) -> tuple:
    """Merge per-chunk (count, sum, M2) in chunk order into (count, mean, M2)."""
    count = sum(c for c, _s, _m2 in parts)
    if count == 0:
        return 0, 0.0, 0.0
    mean = math.fsum(s for _c, s, _m2 in parts) / count
    m2 = math.fsum(m2_c + c * (s / c - mean) ** 2 for c, s, m2_c in parts if c)
    return count, mean, m2


def _summarize(metric: str, values: np.ndarray, seed: int) -> EstimateReport:
    """Report on an already computed array of per-profile values."""
    return EstimateReport.from_m2(metric, *_merge([_moments(values)]), seed)


def _reduce(
    space: SignalSpace,
    keys: Sequence,
    values_fn: Callable[[np.ndarray], dict],
    n_samples: int,
    seed: int,
    chunk_rows: int,
    workers: int = 1,
) -> dict:
    """The one Monte Carlo loop: {key: (count, mean, M2)} over ``n_samples`` profiles.

    Chunk c holds ``sample_profiles(space, RandomStream(seed, c), rows)`` with
    rows = ``chunk_rows`` except in the last chunk; ``values_fn(profiles)``
    maps it to {key: 1-D values}, which may cover only some of the rows.
    Chunks may run on ``workers`` threads; they are merged in chunk order, so
    the result does not depend on the worker count.  Fewer than one sample is
    a ValueError: an empty sample has no mean.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    spans = [(c, min(chunk_rows, n_samples - c * chunk_rows)) for c in range(-(-n_samples // chunk_rows))]

    def one(span):
        c, rows = span
        values = values_fn(sample_profiles(space, RandomStream(seed, c), rows))
        return {k: _moments(values[k]) for k in keys}

    if workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one, spans))
    else:
        parts = [one(s) for s in spans]
    return {k: _merge([p[k] for p in parts]) for k in keys}


def _estimates(mech: Mechanism, ctx: AuctionContext, metrics: list, n_samples: int, seed: int, workers: int = 1) -> dict:
    def values_fn(profiles):
        batch = run_batch(mech, profiles, ctx)
        return {m: _metric_from_batch(m, batch, profiles, ctx, mech) for m in metrics}

    moments = _reduce(ctx.space, metrics, values_fn, n_samples, seed, _chunk_rows(ctx.space.n), workers)
    return {m: EstimateReport.from_m2(m, *moments[m], seed) for m in metrics}


def estimate(
    mech: Mechanism,
    ctx: AuctionContext,
    metric: str,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> EstimateReport:
    """Monte Carlo mean of a per-auction metric over i.i.d. signal profiles."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    return _estimates(mech, ctx, [metric], n_samples, seed, workers)[metric]


def estimate_many(
    mech: Mechanism,
    ctx: AuctionContext,
    metrics: Sequence[str],
    n_samples: int,
    seed: int,
) -> dict:
    """Like :func:`estimate` for several metrics sharing one execution pass.

    Identical draws and results to calling ``estimate`` per metric with the
    same seed; one run of the mechanism per chunk instead of one per metric.
    """
    metrics = list(metrics)
    bad = [m for m in metrics if m not in METRICS]
    if bad:
        raise ValueError(f"unknown metrics {bad}; choose from {METRICS}")
    return _estimates(mech, ctx, metrics, n_samples, seed)


def optimal_welfare(ctx: AuctionContext, n_samples: int, seed: int, workers: int = 1) -> EstimateReport:
    """Welfare of always giving the item to the highest signal (the efficient
    benchmark; requires single crossing so the highest signal has the highest value)."""
    if not single_crossing_holds(ctx.model, ctx.space):
        raise ValueError("optimal welfare benchmark needs the single-crossing condition")

    def values_fn(profiles):
        top = np.argmax(profiles, axis=1)
        rows = np.arange(len(profiles))
        stat = profile_stats(ctx.model, profiles)[rows, top]
        return {"optimal_welfare": value_from_own_and_stat(ctx.model, profiles[rows, top], stat)}

    moments = _reduce(ctx.space, ["optimal_welfare"], values_fn, n_samples, seed, _chunk_rows(ctx.space.n), workers)
    return EstimateReport.from_m2("optimal_welfare", *moments["optimal_welfare"], seed)


def chi_sweep(
    mechanism_factory: Callable[[float], Mechanism],
    ctx: AuctionContext,
    chi_grid: Sequence[float],
    metric: str,
    n_samples: int,
    seed: int,
) -> list:
    """Estimate a metric for each chi on identical profile draws (common random
    numbers).  Returns [(chi, EstimateReport), ...] in grid order."""
    chis = list(chi_grid)
    mechs = [mechanism_factory(c) for c in chis]

    def values_fn(profiles):
        return {k: _metric_values(metric, mech, profiles, ctx) for k, mech in enumerate(mechs)}

    moments = _reduce(ctx.space, range(len(mechs)), values_fn, n_samples, seed, _chunk_rows(ctx.space.n))
    return [(c, EstimateReport.from_m2(metric, *moments[k], seed)) for k, c in enumerate(chis)]


def _h_map_and_moments(ctx: AuctionContext):
    """(h, E[h(signal)], sup h) for the additive part of the valuation.

    For ConcaveSum on a continuous marginal, E[h] = int_0^1 h(quantile(u)) du
    is a 64-node Gauss-Legendre rule after u = w**8 (du = 8 w**7 dw); the
    substitution smooths the u**alpha endpoint behaviour of power quantiles
    and maps, so the rule agrees with adaptive quadrature to ~1e-11 relative.
    """
    model = ctx.model
    marginal = ctx.space.marginal
    if isinstance(model, WeightedSum):
        h = lambda s: model.beta * np.asarray(s, dtype=float)
        lam = model.beta * marginal.mean()
    elif isinstance(model, ConcaveSum):
        h = model.h
        if hasattr(marginal, "atoms"):
            lam = float(np.mean(h(marginal.atoms())))
        else:
            x, weights = np.polynomial.legendre.leggauss(64)
            w = 0.5 * (x + 1.0)
            lam = float((4.0 * weights * w**7) @ h(marginal.quantile(w**8)))
    else:
        raise ValueError("event probability needs an additive-others valuation family")
    return h, float(lam), float(h(ctx.s_bar))


def _mean_event(ctx: AuctionContext, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Row mask of a profile block on the event mean h(signals) >= E[h] + sup(h)/n."""
    h, lam, b = _h_map_and_moments(ctx)
    cutoff = lam + b / n
    return lambda profiles: h(profiles).mean(axis=1) >= cutoff


def event_probability(ctx: AuctionContext, n: int, n_samples: int, seed: int) -> EstimateReport:
    """P[mean of h(signals) >= E[h] + sup(h)/n] for n agents.

    This is the event under which the masked efficient auction provably
    allocates for additive-others valuations; its probability tends to 1/2.
    """
    event = _mean_event(ctx, n)
    wide = SignalSpace(n, ctx.space.marginal) if n != ctx.space.n else ctx.space

    def values_fn(profiles):
        return {"event_probability": event(profiles).astype(float)}

    moments = _reduce(wide, ["event_probability"], values_fn, n_samples, seed, max(1, 4_000_000 // n))
    return EstimateReport.from_m2("event_probability", *moments["event_probability"], seed)


def conditional_welfare(mech: Mechanism, ctx: AuctionContext, n_samples: int, seed: int) -> EstimateReport:
    """Welfare of ``mech`` conditioned on the event of :func:`event_probability`
    for ``ctx.space.n`` agents, estimated by rejection.

    ``sample_count`` is the number of draws kept; the mean is NaN if none is.
    """
    event = _mean_event(ctx, ctx.space.n)

    def values_fn(profiles):
        return {"welfare": run_batch(mech, profiles[event(profiles)], ctx).welfare}

    moments = _reduce(ctx.space, ["welfare"], values_fn, n_samples, seed, _chunk_rows(ctx.space.n))
    count, mean, m2 = moments["welfare"]
    return EstimateReport.from_m2("conditional_welfare", count, mean if count else float("nan"), m2, seed)


_WALLET_SUPPORTS = {
    "U[0,100]": (UniformIID(100.0), 30.0),
    "U[1,4]": (GenericIID("affine", (1.0, 4.0)), 2.5),
}


def wallet_report(
    support: str = "U[0,100]",
    chi: float = 1.0,
    probe_signal: Optional[float] = None,
    mc_draws: int = 1_000_000,
    seed: int = 2024,
) -> dict:
    """Second-price wallet game for two bidders with v = s_1 + s_2.

    Reports (a) the chi-cursed truthful bid function b(s) = (2 - chi) s +
    chi * E[s] (the symmetric cursed value at an opponent tie), (b) the Monte
    Carlo expected utility of the probe bidder conditioned on winning when
    BOTH bidders play the fully cursed bid s + E[s], and (c) the masked
    efficient auction's allocation condition: sell only when the losing
    signal is at least E[s].
    """
    if support not in _WALLET_SUPPORTS:
        raise ValueError(f"support must be one of {sorted(_WALLET_SUPPORTS)}")
    if not (0.0 <= chi <= 1.0):
        raise ValueError("chi must lie in [0, 1]")
    marginal, default_probe = _WALLET_SUPPORTS[support]
    mean = marginal.mean()
    probe = default_probe if probe_signal is None else float(probe_signal)

    gen = RandomStream(seed).generator()
    rival = np.asarray(marginal.quantile(gen.random(mc_draws)))
    naive_probe_bid = probe + mean
    rival_bids = rival + mean
    wins = naive_probe_bid > rival_bids
    utilities = (probe + rival[wins]) - rival_bids[wins]
    n_wins = int(wins.sum())
    mc_mean = float(utilities.mean()) if n_wins else float("nan")
    mc_se = float(utilities.std(ddof=1) / math.sqrt(n_wins)) if n_wins > 1 else 0.0

    return {
        "support": support,
        "chi": chi,
        "bid_slope": 2.0 - chi,
        "bid_intercept": chi * mean,
        "probe_signal": probe,
        "bid_at_probe": (2.0 - chi) * probe + chi * mean,
        "naive_bid_at_probe": naive_probe_bid,
        "mc_draws": mc_draws,
        "mc_wins": n_wins,
        "expected_winner_utility": mc_mean,
        "winner_utility_se": mc_se,
        "masked_allocation_cutoff": mean,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# CSV emission (schema v1: header always present, fixed column order).
# outcomes.csv must keep the bytes csv.writer gives for per-cell f"{x:.12g}"
# strings: no field needs quoting, and lines end in CRLF.  ``write_outcomes_csv``
# is the one writer of the file: a header line, then the rows of each
# (profiles, batch) block in order, so ``simulate`` streams its sample through
# it span by span.  Each row chunk is formatted by one "%" on a repeated line
# template; a chunk budgets 16 float cells per CSV cell (its float, the Python
# float and its list and tuple slots, and the formatted text), so the memory it
# takes stays bounded in n.
# ---------------------------------------------------------------------------


def write_outcomes_csv(path, n: int, blocks) -> None:
    """Write outcomes.csv for ``n`` agents from the (profiles, batch) pairs of
    ``blocks``, in order: one line per profile with its signals, the winner (""
    when none), the threshold of the agent with the highest signal, the
    payments, revenue and welfare.

    A block raises ValueError, before any of its text is written, unless its
    profiles are ``n`` wide and its batch has one row per profile and ``n``
    wide payments and thresholds.  The text goes to a temporary file next to
    ``path`` that replaces ``path`` only after the last block; on any error,
    including one from ``blocks`` itself, that file is deleted and an earlier
    file at ``path`` is left as it was.
    """
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    width = 2 * n + 4
    header = [f"s_{i + 1}" for i in range(n)] + ["winner", "threshold"]
    header += [f"payment_{i + 1}" for i in range(n)] + ["revenue", "welfare"]
    line = ",".join(["%.12g"] * n + ["%s"] + ["%.12g"] * (n + 3)) + "\r\n"
    try:
        with open(partial, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for profiles, batch in blocks:
                profiles = np.atleast_2d(profiles)
                N = len(profiles)
                if any(a.shape[1:] != (n,) for a in (profiles, batch.payments, batch.thresholds)):
                    raise ValueError(f"profiles, payments and thresholds must have the width {n}")
                columns = (batch.winner, batch.thresholds, batch.payments, batch.revenue, batch.welfare)
                if any(len(col) != N for col in columns):
                    raise ValueError(f"batch rows do not match the {N} profiles")
                threshold = batch.thresholds[np.arange(N), np.argmax(profiles, axis=1)]
                for r in _row_spans(N, 16 * width):
                    winner = batch.winner[r]
                    cells = np.column_stack(
                        (profiles[r], winner, threshold[r], batch.payments[r], batch.revenue[r], batch.welfare[r])
                    ).ravel().tolist()
                    # the winner column holds float placeholders until here; "%s" then writes int or ""
                    cells[n::width] = [w if w >= 0 else "" for w in winner.tolist()]
                    fh.write((line * len(winner)) % tuple(cells))
                    del cells  # alive while ``blocks`` runs the next span, they lift simulate's peak ~5 MB
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_estimates_csv(path, rows: Sequence[dict]) -> None:
    keys = ["metric", "chi", "n", "mean", "standard_error", "sample_count", "seed"]
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=keys, extrasaction="ignore")
        w.writeheader()
        for row in rows:
            w.writerow(row)

