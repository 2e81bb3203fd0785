"""Sampled checkers for the incentive and budget properties of auction mechanisms.

Each checker reads one :class:`Draw` -- the signal profiles a
:class:`SamplingPlan` draws and the truthful outcomes ``run_batch`` executes on
them -- so the properties of one verify run are checked on the same sample and
thresholds.  Each computes one margin per checked case (profile; (eps,
profile); (chi pair, profile, agent)), positive where the case violates the
property, and reduces them with ``reports._worst_case`` to a
:class:`CheckReport`.  Deviation-based checks evaluate a finite bid grid that
always contains the truthful report, the support endpoints, and the agent's
critical bid plus/minus a small nudge; for threshold mechanisms a bidder's
utility is piecewise constant in the bid with a single jump at the critical
bid, so this grid is exhaustive up to the nudge width.

Tolerances default to 1e-9 times the value at the all-s_bar profile so that
the same checks stay meaningful on [0, 1] and [0, 100] supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .mechanisms import AuctionContext, Mechanism, ThresholdRule, run_batch
from .mechanisms import Quote, _outcomes, _quote_at
from .reports import CheckReport, _worst_case
from .signals import RandomStream, sample_profiles
from .valuations import _row_spans, cursed_value, profile_stats, value, value_scale

__all__ = [
    "SamplingPlan",
    "Draw",
    "check_cepic",
    "check_epir",
    "check_cepir",
    "check_epbb",
    "check_no_positive_transfers",
    "check_allocation_monotone",
    "check_chi_robustness",
    "check_payment_chi_monotone",
    "CHECKERS",
]

_NUDGE = 1e-6
_MONOTONE_SCAN_POINTS = 201


@dataclass(frozen=True)
class SamplingPlan:
    """How many profiles to draw, how fine the deviation grid is, and with what stream."""

    profile_count: int = 10_000
    deviation_grid_size: int = 101
    tolerance: Optional[float] = None
    stream: RandomStream = field(default_factory=lambda: RandomStream(2024))

    def __post_init__(self):
        if self.profile_count < 1:
            raise ValueError("profile_count must be positive: no property is checked on zero profiles")
        if self.deviation_grid_size < 0:
            raise ValueError("deviation_grid_size must be non-negative")
        if self.tolerance is not None and not (0.0 <= self.tolerance < math.inf):
            raise ValueError(f"tolerance must be finite and non-negative, got {self.tolerance}")

    def resolve_tolerance(self, ctx: AuctionContext) -> float:
        if self.tolerance is not None:
            return self.tolerance
        return 1e-9 * max(ctx.scale(), 1.0)


class Draw:
    """The sample one verify run checks: the plan's profiles, drawn once, the
    tolerance and the batch ``run_batch`` executes on the profiles, so every
    checker reads the same profiles and thresholds."""

    def __init__(self, mech: Mechanism, ctx: AuctionContext, plan: SamplingPlan = SamplingPlan()):
        self.mech, self.ctx, self.plan = mech, ctx, plan
        self.tolerance = plan.resolve_tolerance(ctx)
        self.profiles = sample_profiles(ctx.space, plan.stream, plan.profile_count)
        self.batch = run_batch(mech, self.profiles, ctx)

    def agent_quote(self, i: int, rows: slice = slice(None)) -> Quote:
        """Agent i's quote for the profile rows ``rows``, rebuilt from the
        batch's critical bids, so no threshold is computed twice."""
        stat = profile_stats(self.ctx.model, self.profiles[rows])[:, i]
        return _quote_at(self.mech, self.batch.thresholds[rows, i], stat, self.ctx)

    def values(self, chi: Optional[float] = None) -> list:
        """Each agent's per-profile value of the item: true, or cursed at ``chi``."""
        ctx, P = self.ctx, self.profiles
        if chi is None:
            return [value(ctx.model, P, i) for i in range(ctx.space.n)]
        return [cursed_value(ctx.interim, chi, P, i) for i in range(ctx.space.n)]


def _profile_report(draw: Draw, name: str, margins: np.ndarray, witness=lambda k: {}) -> CheckReport:
    """Report one margin per drawn profile; each witness names its profile."""
    return _worst_case(
        name, margins, draw.tolerance, len(draw.profiles),
        lambda k: {"profile": draw.profiles[k].tolist(), **witness(k)},
    )


def _deviation_regrets(draw: Draw, agent_values: Sequence[np.ndarray]):
    """Worst deviation gain per (profile, agent) against truthful opponents.

    ``agent_values[i]`` is the per-profile value the deviating agent assigns
    the item (its cursed value under the relevant cursedness level).
    Returns (regret matrix (N, n), best-bid matrix (N, n)).
    """
    (N, n), G = draw.profiles.shape, draw.plan.deviation_grid_size
    s_bar = draw.ctx.s_bar
    grid = np.linspace(0.0, s_bar, G)
    regret = np.empty((N, n))
    best_bid = np.empty((N, n))
    for i in range(n):
        for rows in _row_spans(N, 4 * (G + 3)):  # per bid: the bid, win, payment and utility
            q = draw.agent_quote(i, rows)
            # the grid, then the truthful bid and the critical bid +- a nudge
            nudged = np.clip(q.t[:, None] + np.array([-_NUDGE, _NUDGE]) * s_bar, 0.0, s_bar)
            own = draw.profiles[rows, i:i + 1]
            bids = np.concatenate([np.broadcast_to(grid, (len(own), G)), own, nudged], axis=1)
            win, pay = _outcomes(draw.mech, q, bids, draw.ctx)
            u = win * agent_values[i][rows, None] - pay
            k = np.argmax(u, axis=1)
            at = np.arange(len(k))
            regret[rows, i] = u[at, k] - u[:, G]  # column G is the truthful bid
            best_bid[rows, i] = bids[at, k]
    return regret, best_bid


def check_cepic(draw: Draw) -> CheckReport:
    """Truthful reporting maximizes the cursed utility against every sampled
    deviation, profile by profile."""
    regret, best_bid = _deviation_regrets(draw, draw.values(draw.mech.chi))
    agent_idx = regret.argmax(axis=1)
    return _profile_report(
        draw,
        "cepic",
        regret.max(axis=1),
        lambda k: {"agent": int(agent_idx[k]), "deviation": float(best_bid[k, agent_idx[k]])},
    )


def _ir_report(draw: Draw, name: str, agent_values: Sequence[np.ndarray]) -> CheckReport:
    b = draw.batch
    utils = np.column_stack([b.win[:, i] * v - b.payments[:, i] for i, v in enumerate(agent_values)])
    return _profile_report(draw, name, np.maximum(0.0, -utils.min(axis=1)))


def check_epir(draw: Draw) -> CheckReport:
    """No agent's realized true-value utility is negative under truthful play."""
    return _ir_report(draw, "epir", draw.values())


def check_cepir(draw: Draw) -> CheckReport:
    """No agent's cursed utility is negative under truthful play."""
    return _ir_report(draw, "cepir", draw.values(draw.mech.chi))


def check_epbb(draw: Draw) -> CheckReport:
    """The seller's total collected payment is non-negative on every profile."""
    return _profile_report(draw, "epbb", np.maximum(0.0, -draw.batch.revenue))


def check_no_positive_transfers(draw: Draw) -> CheckReport:
    """The participation constant is exactly zero at every sampled others-profile."""
    return _profile_report(draw, "no_positive_transfers", np.abs(draw.batch.compensations).max(axis=1))


def check_allocation_monotone(draw: Draw) -> CheckReport:
    """Fixing the others, the win indicator is non-decreasing in the own report."""
    s_grid = np.linspace(0.0, draw.ctx.s_bar, _MONOTONE_SCAN_POINTS)
    N, n = draw.profiles.shape
    bad = np.zeros((N, n), dtype=bool)
    first_drop = np.zeros((N, n), dtype=np.intp)
    for i in range(n):
        for chunk in _row_spans(N, 4 * _MONOTONE_SCAN_POINTS):  # per point: win, its int8 copy, diff, drops
            win = draw.mech._win(s_grid, draw.agent_quote(i, chunk), draw.ctx)
            drops = np.diff(win.astype(np.int8), axis=1) < 0
            bad[chunk, i] = drops.any(axis=1)
            first_drop[chunk, i] = np.argmax(drops, axis=1)
    agent = np.argmax(bad, axis=1)  # the first agent whose win indicator drops
    return _profile_report(
        draw,
        "allocation_monotone",
        bad.any(axis=1).astype(float),
        lambda k: {"agent": int(agent[k]), "drop_at": float(s_grid[first_drop[k, agent[k]] + 1])},
    )


def check_chi_robustness(draw: Draw, eps_list: Sequence[float]) -> CheckReport:
    """Truthful play stays an approximate best response when bidders are a bit
    more cursed than the mechanism assumes: the deviation gain under
    cursedness chi + eps is at most eps times the value at the all-s_bar
    profile."""
    eps_list = list(eps_list)
    for eps in eps_list:
        if not (0.0 <= draw.mech.chi + eps <= 1.0):
            raise ValueError(f"chi + eps = {draw.mech.chi + eps} outside [0, 1]")
    N = len(draw.profiles)
    bounds = np.array(eps_list, dtype=float) * value_scale(draw.ctx.model, draw.ctx.space)
    regrets = np.reshape(
        [_deviation_regrets(draw, draw.values(draw.mech.chi + eps))[0].max(axis=1) for eps in eps_list],
        (len(eps_list), N),
    )

    def witness(k):
        e, r = divmod(k, N)
        regret, bound = float(regrets[e, r]), float(bounds[e])
        return {"profile": draw.profiles[r].tolist(), "eps": eps_list[e], "regret": regret, "bound": bound}

    return _worst_case("chi_robustness", regrets - bounds[:, None], draw.tolerance, N * len(eps_list), witness)


def check_payment_chi_monotone(
    rule: ThresholdRule,
    ctx: AuctionContext,
    chi_grid: Sequence[float],
    plan: SamplingPlan = SamplingPlan(),
) -> CheckReport:
    """With the rule and the sampled profiles held fixed, every agent's payment
    is non-increasing in the cursedness level, pointwise."""
    chis = list(chi_grid)
    if any(b < a for a, b in zip(chis, chis[1:])):
        raise ValueError("chi grid must be sorted ascending")
    tol = plan.resolve_tolerance(ctx)
    profiles = sample_profiles(ctx.space, plan.stream, plan.profile_count)
    payments = [run_batch(Mechanism(rule, c, "compensated"), profiles, ctx).payments for c in chis]
    # (chi pair, profile, agent): the payment's rise from one chi to the next
    gaps = np.diff(np.reshape(payments, (len(chis),) + profiles.shape), axis=0)

    def witness(k):
        pair, r, agent = np.unravel_index(k, gaps.shape)
        return {"profile": profiles[r].tolist(), "agent": int(agent), "chi_pair": [chis[pair], chis[pair + 1]]}

    return _worst_case("payment_chi_monotone", gaps, tol, len(profiles) * len(chis), witness)


CHECKERS = {
    "cepic": check_cepic,
    "epir": check_epir,
    "cepir": check_cepir,
    "epbb": check_epbb,
    "npt": check_no_positive_transfers,
    "allocation_monotone": check_allocation_monotone,
}
