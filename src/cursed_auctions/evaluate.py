"""Monte Carlo estimation of auction metrics, cursedness sweeps, and the
two-bidder wallet-game demonstration.

Every estimator streams through one reducer, ``_reduce``.  It draws chunk c
as ``sample_profiles(space, RandomStream(seed, c), rows)`` would, one
``run_batch`` span at a time, maps it to per-row values, and keeps each chunk's
(count, sum, M2), where M2 is the sum of squared deviations from the chunk
mean.  Chunks are merged in chunk order (Chan, Golub & LeVeque 1979): the
mean is the exactly rounded sum of chunk sums over the count, and
M2 = sum_c [M2_c + count_c * (mean_c - mean)^2], so the standard error does
not cancel for metrics with a large mean.  Estimates are deterministic in
(seed, sample count) and do not depend on how many threads processed the
chunks.  Cursedness sweeps reuse the identical draws for every chi (common
random numbers); with a fixed rule this turns the pointwise payment
monotonicity in chi into an exact, assertion-grade comparison of the sweep
means.
"""

from __future__ import annotations

import csv
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import valuations
from .mechanisms import AuctionContext, Mechanism, _batch_spans, run_batch
from .signals import GenericIID, RandomStream, SignalSpace, UniformIID, _draw_spans
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
    space: SignalSpace, keys: Sequence, values_fn: Callable[[np.ndarray], dict], n_samples: int, seed: int,
    chunk_rows: int,
) -> dict:
    """The one Monte Carlo loop: {key: (count, mean, M2)} over ``n_samples`` profiles.

    Chunk c holds the rows of ``sample_profiles(space, RandomStream(seed, c),
    rows)``, rows = ``chunk_rows`` except in the last chunk, drawn one
    ``run_batch`` span at a time so no thread holds a whole chunk's profiles;
    ``values_fn(profiles)`` maps a span to {key: 1-D values}, which may cover
    only some of its rows.  Chunks run on a thread per CPU of the affinity mask
    and merge in chunk order, so the result does not depend on the CPU count.
    Fewer than one sample is a ValueError.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    chunks = [(c, min(chunk_rows, n_samples - c * chunk_rows)) for c in range(-(-n_samples // chunk_rows))]

    def one(chunk):
        c, rows = chunk
        spans = _batch_spans(rows, space.n)
        parts = [values_fn(profiles) for profiles in _draw_spans(space, RandomStream(seed, c), spans)]
        return {k: _moments(np.concatenate([p[k] for p in parts])) for k in keys}

    threads = min(valuations._cpus(), len(chunks))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(threads) as pool:
            results = list(pool.map(one, chunks))
    else:
        results = [one(chunk) for chunk in chunks]
    return {k: _merge([r[k] for r in results]) for k in keys}


def _estimates(mech: Mechanism, ctx: AuctionContext, metrics: list, n_samples: int, seed: int) -> dict:
    def values_fn(profiles):
        batch = run_batch(mech, profiles, ctx)
        return {m: _metric_from_batch(m, batch, profiles, ctx, mech) for m in metrics}

    moments = _reduce(ctx.space, metrics, values_fn, n_samples, seed, _chunk_rows(ctx.space.n))
    return {m: EstimateReport.from_m2(m, *moments[m], seed) for m in metrics}


def estimate(mech: Mechanism, ctx: AuctionContext, metric: str, n_samples: int, seed: int) -> EstimateReport:
    """Monte Carlo mean of a per-auction metric over i.i.d. signal profiles."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    return _estimates(mech, ctx, [metric], n_samples, seed)[metric]


def estimate_many(
    mech: Mechanism,
    ctx: AuctionContext,
    metrics: Sequence[str],
    n_samples: int,
    seed: int,
) -> dict:
    """Like :func:`estimate` for several metrics sharing one execution pass.

    Identical draws and results to calling ``estimate`` per metric with the
    same seed; one run of the mechanism per span instead of one per metric.
    """
    metrics = list(metrics)
    bad = [m for m in metrics if m not in METRICS]
    if bad:
        raise ValueError(f"unknown metrics {bad}; choose from {METRICS}")
    return _estimates(mech, ctx, metrics, n_samples, seed)


def optimal_welfare(ctx: AuctionContext, n_samples: int, seed: int) -> EstimateReport:
    """Welfare of always giving the item to the highest signal (the efficient
    benchmark; requires single crossing so the highest signal has the highest value)."""
    if not single_crossing_holds(ctx.model, ctx.space):
        raise ValueError("optimal welfare benchmark needs the single-crossing condition")

    def values_fn(profiles):
        top = np.argmax(profiles, axis=1)
        rows = np.arange(len(profiles))
        stat = profile_stats(ctx.model, profiles)[rows, top]
        return {"optimal_welfare": value_from_own_and_stat(ctx.model, profiles[rows, top], stat)}

    moments = _reduce(ctx.space, ["optimal_welfare"], values_fn, n_samples, seed, _chunk_rows(ctx.space.n))
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
    marginal, probe = _WALLET_SUPPORTS[support]
    mean = marginal.mean()

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
# (profiles, batch) block of each part in order, so ``simulate`` streams its
# sample through it span by span.  ``_csv_text`` encodes a row chunk with
# whole-array steps (below); only rows holding a cell outside its fast range
# go through "%".
# Encoding costs about as much CPU as the rest of ``simulate``, so a run of
# parts is a contiguous share of the sample that one forked process draws,
# executes, encodes and writes to its own file; the calling process appends the
# files in order.  No float or text crosses a pipe: a run sends back None or
# its exception.  A chunk budgets 64 float cells per CSV cell, which keeps a
# chunk's encoder input and text small, and ``simulate``'s spans, one writer
# chunk and one part each, fine enough to share out evenly between processes.
#
# The encoder.  A cell of |x| in [1e-4, 1e3) has the decimal exponent
# e = floor(log10|x|) in -4..2, and s = fl(|x| * 10**(11 - e)) is one correctly
# rounded multiply by an exact power of ten, so rint(s) is the correctly
# rounded 12-digit mantissa m unless s is exactly k + 1/2 (rint rounds that to
# even, "%" rounds the exact product).  A cell is encoded only when
# 1e11 <= s, m < 1e12 and s is not k + 1/2; then e is its "%.12g" exponent and
# m its digits.  Its 24-byte slot holds little-endian words looked up in
# tables: 8 bytes of sign, integer part and point ("-0.000" for e = -4, "12."
# for 12.5 at e = 1, no point for an integer), three 4-digit groups of the
# fraction with trailing zeros left out, and the separator.  Unused bytes are
# 0, and one ``bytes.translate`` deletes them.  Zeros write "0" or "-0", a
# winner of -1 writes nothing, and every other row with a cell that is not
# encoded (an exponent outside -4..2, a k + 1/2 product, inf or nan) is
# formatted by "%" into its slots, which it always fits: a "%.12g" cell is at
# most 19 characters.
# ---------------------------------------------------------------------------

_CSV_SUB_ROWS = 128  # rows encoded at once: small temporaries, reused heap instead of fresh pages
_CSV_POW = 10.0 ** (11 - np.arange(-4, 3))  # 10**(11 - e) for e = -4..2, each exact
_CSV_FRACTION = np.maximum(1e12 / _CSV_POW, 1.0)  # 10**(e + 1) shifts the fraction to 12 digits


def _csv_tables() -> tuple:
    """(groups, heads): little-endian text words, 0 bytes for nothing.

    groups[g] is the 4-digit group g with its trailing zeros left out, and
    groups[10_000 + g] is g in full.  heads[2008 * minus + 1004 * integral + c]
    is a cell's first 8 bytes: the sign, then "0." and -e - 1 zeros for
    c = e + 4 in 0..3 (e < 0), or the integer part c - 4 in 1..999 and its
    point, which an integral cell leaves out; an integral cell at c = 0 is the
    zero "0".
    """
    digits = 48 + np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # row g: the 4 digits of g
    more = np.logical_or.accumulate(digits[:, ::-1] != 48, axis=1)[:, ::-1]  # a nonzero digit here or after
    groups = np.concatenate([np.where(more, digits, 0), digits]).astype(np.uint8, order="C")
    c = np.arange(1004)
    whole = np.maximum(c - 4, 0)
    heads = np.zeros((2, 2, 1004, 8), np.uint8)
    heads[1, ..., 0] = ord("-")
    heads[..., 1] = np.where(whole >= 100, 48 + whole // 100, 0)
    heads[..., 2] = np.where(whole >= 10, 48 + whole // 10 % 10, 0)
    heads[..., 3] = 48 + whole % 10
    heads[:, 0, :, 4] = ord(".")
    heads[:, 0, :, 5:] = np.where(np.arange(3) < 3 - c[:, None], 48, 0)
    return groups.view("<u4").ravel(), heads.view("<u8").ravel()


_CSV_GROUPS, _CSV_HEADS = _csv_tables()


def _csv_text(line: str, n: int, cells: np.ndarray, winner: np.ndarray) -> bytes:
    """The outcomes.csv lines of one row chunk: ``cells`` holds its 2n + 4
    float columns, the winner column a placeholder that ``winner`` fills.
    Rows the encoder cannot take are formatted by the "%" template ``line``."""
    width = cells.shape[1]
    sep = np.full(width, ord(","), "<u4")
    sep[-1] = int.from_bytes(b"\r\n", "little")
    pieces = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # log10(0), and inf or nan cells
        for r0 in range(0, len(cells), _CSV_SUB_ROWS):
            x = cells[r0 : r0 + _CSV_SUB_ROWS]
            w = winner[r0 : r0 + _CSV_SUB_ROWS]
            a = np.abs(x)
            e = np.floor(np.log10(a))
            e = np.fmin(np.fmax(e, -4.0, out=e), 2.0, out=e)  # zero and nan take -4
            k = e.astype(np.intp) + 4
            scale = _CSV_POW[k]
            s = a * scale
            m = np.rint(s)
            fallback = ~(((s >= 1e11) & (m < 1e12) & (np.abs(s - m) != 0.5)) | (a == 0.0))
            np.copyto(m, 0.0, where=fallback)  # keeps the table indices of those cells in range
            whole = np.floor(m / scale)  # 0 when e < 0
            frac = (m - whole * scale) * _CSV_FRACTION[k]
            g0 = np.floor(frac / 1e8)
            rest = frac - g0 * 1e8
            g1 = np.floor(rest / 1e4)
            g2 = rest - g1 * 1e4
            head = whole + np.minimum(e, 0.0) + 4.0 + 1004.0 * (frac == 0.0) + 2008.0 * np.signbit(x)
            slots = np.empty(x.shape + (6,), "<u4")
            slots.view("<u8")[..., 0] = _CSV_HEADS[head.astype(np.intp)]
            slots[..., 2] = _CSV_GROUPS[(g0 + 1e4 * (rest != 0.0)).astype(np.intp)]
            slots[..., 3] = _CSV_GROUPS[(g1 + 1e4 * (g2 != 0.0)).astype(np.intp)]
            slots[..., 4] = _CSV_GROUPS[g2.astype(np.intp)]
            slots[..., 5] = sep
            slots[w < 0, n, :5] = 0
            redo = np.flatnonzero(fallback.any(axis=1))
            if redo.size:
                texts = []
                for row, wr in zip(x[redo].tolist(), w[redo].tolist()):
                    row[n] = wr if wr >= 0 else ""  # "%s" writes the winner as an int, or "" when there is none
                    texts.append(line % tuple(row))
                rows = np.array(texts, dtype=f"S{24 * width}")  # 0-padded
                slots.view(np.uint8).reshape(len(x), -1)[redo] = rows.view(np.uint8).reshape(len(redo), -1)
            pieces.append(slots.tobytes().translate(None, b"\0"))
    return b"".join(pieces)


def _write_blocks(fh, n: int, line: str, blocks) -> None:
    """Write the lines of each (profiles, batch) block of ``blocks`` to ``fh``,
    after checking the block's shapes."""
    width = 2 * n + 4
    for profiles, batch in blocks:
        profiles = np.atleast_2d(profiles)
        N = len(profiles)
        if any(a.shape[1:] != (n,) for a in (profiles, batch.payments, batch.thresholds)):
            raise ValueError(f"profiles, payments and thresholds must have the width {n}")
        columns = (batch.winner, batch.thresholds, batch.payments, batch.revenue, batch.welfare)
        if any(len(col) != N for col in columns):
            raise ValueError(f"batch rows do not match the {N} profiles")
        threshold = batch.thresholds[np.arange(N), np.argmax(profiles, axis=1)]
        for r in _row_spans(N, 64 * width):
            winner = batch.winner[r]
            cells = np.column_stack(
                (profiles[r], winner, threshold[r], batch.payments[r], batch.revenue[r], batch.welfare[r])
            )
            fh.write(_csv_text(line, n, cells, winner))


def write_outcomes_csv(path, n: int, parts: Sequence[Callable]) -> None:
    """Write outcomes.csv for ``n`` agents: one line per profile with its
    signals, the winner ("" when none), the threshold of the agent with the
    highest signal, the payments, revenue and welfare.  Each of ``parts`` is a
    zero-argument callable that returns an iterable of (profiles, batch)
    blocks; the rows follow the parts in order and each part's blocks in order.

    A block raises ValueError, before any of its text is written, unless its
    profiles are ``n`` wide and its batch has one row per profile and ``n``
    wide payments and thresholds.  ``valuations._in_parts`` shares the parts
    out in W contiguous runs, each of which appends to its own file in a
    temporary directory next to ``path``; a run may be a forked process, so
    what a part changes outside it is lost unless that is shared memory.  The
    calling process appends the files in order, and the result replaces
    ``path`` only after the last run.  On any error, in a block, in a part or
    from a process that dies, every process is stopped, the temporary
    directory is deleted and an earlier file at ``path`` is left as it was; a
    part's own exception is raised again in the calling process.
    """
    path = Path(path)
    header = [f"s_{i + 1}" for i in range(n)] + ["winner", "threshold"]
    header += [f"payment_{i + 1}" for i in range(n)] + ["revenue", "welfare"]
    line = ",".join(["%.12g"] * n + ["%s"] + ["%.12g"] * (n + 3)) + "\r\n"
    temp = Path(tempfile.mkdtemp(prefix=f".{path.name}.", dir=path.parent))
    try:
        (temp / "0").write_bytes((",".join(header) + "\r\n").encode("ascii"))  # run 0 appends to it

        def run(k, W):
            with open(temp / str(k), "ab") as fh:
                for part in parts[k * len(parts) // W : (k + 1) * len(parts) // W]:
                    _write_blocks(fh, n, line, part())

        runs = len(valuations._in_parts(run, len(parts)))
        with open(temp / "0", "ab") as fh:
            for k in range(1, runs):
                with open(temp / str(k), "rb") as text:
                    shutil.copyfileobj(text, fh)
        os.replace(temp / "0", path)
    finally:
        shutil.rmtree(temp)


def write_estimates_csv(path, rows: Sequence[dict]) -> None:
    keys = ["metric", "chi", "n", "mean", "standard_error", "sample_count", "seed"]
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=keys, extrasaction="ignore")
        w.writeheader()
        for row in rows:
            w.writerow(row)

