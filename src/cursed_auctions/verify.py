"""Sampled checkers for the incentive and budget properties of auction mechanisms.

Each checker draws signal profiles from a :class:`SamplingPlan`, executes the
mechanism through the quotes ``run_batch`` uses, and returns a :class:`CheckReport`
with the worst violation found and concrete witnesses.  Deviation-based
checks evaluate a finite bid grid that always contains the truthful report,
the support endpoints, and the agent's critical bid plus/minus a small nudge;
for threshold mechanisms a bidder's utility is piecewise constant in the bid
with a single jump at the critical bid, so this grid is exhaustive up to the
nudge width.

Tolerances default to 1e-9 times the value at the all-s_bar profile so that
the same checks stay meaningful on [0, 1] and [0, 100] supports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .mechanisms import AuctionContext, Mechanism, ThresholdRule, agent_outcomes_for_bids, run_batch
from .mechanisms import _outcomes, _quote
from .reports import CheckReport
from .signals import RandomStream, sample_profiles
from .valuations import cursed_value, value, value_scale

__all__ = [
    "SamplingPlan",
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

_MAX_WITNESSES = 5
_NUDGE = 1e-6


@dataclass(frozen=True)
class SamplingPlan:
    """How many profiles to draw, how fine the deviation grid is, and with what stream."""

    profile_count: int = 10_000
    deviation_grid_size: int = 101
    tolerance: Optional[float] = None
    stream: RandomStream = field(default_factory=lambda: RandomStream(2024))

    def __post_init__(self):
        if self.profile_count < 0 or self.deviation_grid_size < 0:
            raise ValueError("profile_count and deviation_grid_size must be non-negative")

    def resolve_tolerance(self, ctx: AuctionContext) -> float:
        if self.tolerance is not None:
            return self.tolerance
        return 1e-9 * max(ctx.scale(), 1.0)


def _draw(plan: SamplingPlan, ctx: AuctionContext) -> np.ndarray:
    return sample_profiles(ctx.space, plan.stream, plan.profile_count)


def _top_witnesses(viol: np.ndarray, profiles: np.ndarray, extra_fn=None) -> list:
    order = np.argsort(viol)[::-1]
    out = []
    for k in order[:_MAX_WITNESSES]:
        if viol[k] <= 0:
            break
        w = {"profile": profiles[k].tolist(), "margin": float(viol[k])}
        if extra_fn is not None:
            w.update(extra_fn(int(k)))
        out.append(w)
    return out


def _deviation_regrets(mech: Mechanism, ctx: AuctionContext, profiles: np.ndarray,
                       plan: SamplingPlan, agent_values: Sequence[np.ndarray]):
    """Worst deviation gain per (profile, agent) against truthful opponents.

    ``agent_values[i]`` is the per-profile value the deviating agent assigns
    the item (its cursed value under the relevant cursedness level).
    Returns (regret matrix (N, n), best-bid matrix (N, n)).
    """
    (N, n), G = profiles.shape, plan.deviation_grid_size
    s_bar = ctx.s_bar
    rows = np.arange(N)
    base_grid = np.broadcast_to(np.linspace(0.0, s_bar, G), (N, G))
    regret = np.empty((N, n))
    best_bid = np.empty((N, n))
    for i in range(n):
        q = _quote(mech, profiles, ctx, [i])
        # the grid, then the truthful bid and the critical bid +- a nudge
        nudged = np.clip(q.t[:, None] + np.array([-_NUDGE, _NUDGE]) * s_bar, 0.0, s_bar)
        bids = np.concatenate([base_grid, profiles[:, [i]], nudged], axis=1)
        win, pay = _outcomes(mech, q, bids, ctx)
        u = win * agent_values[i][:, None] - pay
        k = np.argmax(u, axis=1)
        regret[:, i] = u[rows, k] - u[:, G]  # column G is the truthful bid
        best_bid[:, i] = bids[rows, k]
    return regret, best_bid


def check_cepic(mech: Mechanism, ctx: AuctionContext, plan: SamplingPlan = SamplingPlan()) -> CheckReport:
    """Truthful reporting maximizes the cursed utility against every sampled
    deviation, profile by profile."""
    tol = plan.resolve_tolerance(ctx)
    profiles = _draw(plan, ctx)
    vals = [cursed_value(ctx.interim, mech.chi, profiles, i) for i in range(ctx.space.n)]
    regret, best_bid = _deviation_regrets(mech, ctx, profiles, plan, vals)
    worst_per_profile = regret.max(axis=1)
    agent_idx = regret.argmax(axis=1)
    witnesses = _top_witnesses(
        worst_per_profile,
        profiles,
        lambda k: {"agent": int(agent_idx[k]), "deviation": float(best_bid[k, agent_idx[k]])},
    )
    return CheckReport(
        name="cepic",
        max_violation=float(max(0.0, worst_per_profile.max(initial=0.0))),
        tolerance=tol,
        samples_checked=len(profiles),
        witnesses=witnesses,
    )


def _truthful_utilities(mech, ctx, profiles, use_cursed: bool):
    batch = run_batch(mech, profiles, ctx)
    n = ctx.space.n
    utils = np.empty((len(profiles), n))
    for i in range(n):
        v = (
            cursed_value(ctx.interim, mech.chi, profiles, i)
            if use_cursed
            else value(ctx.model, profiles, i)
        )
        utils[:, i] = batch.win[:, i] * v - batch.payments[:, i]
    return utils, batch


def check_epir(mech: Mechanism, ctx: AuctionContext, plan: SamplingPlan = SamplingPlan()) -> CheckReport:
    """No agent's realized true-value utility is negative under truthful play."""
    tol = plan.resolve_tolerance(ctx)
    profiles = _draw(plan, ctx)
    utils, _ = _truthful_utilities(mech, ctx, profiles, use_cursed=False)
    viol = np.maximum(0.0, -utils.min(axis=1))
    return CheckReport(
        name="epir",
        max_violation=float(viol.max(initial=0.0)),
        tolerance=tol,
        samples_checked=len(profiles),
        witnesses=_top_witnesses(viol, profiles),
    )


def check_cepir(mech: Mechanism, ctx: AuctionContext, plan: SamplingPlan = SamplingPlan()) -> CheckReport:
    """No agent's cursed utility is negative under truthful play."""
    tol = plan.resolve_tolerance(ctx)
    profiles = _draw(plan, ctx)
    utils, _ = _truthful_utilities(mech, ctx, profiles, use_cursed=True)
    viol = np.maximum(0.0, -utils.min(axis=1))
    return CheckReport(
        name="cepir",
        max_violation=float(viol.max(initial=0.0)),
        tolerance=tol,
        samples_checked=len(profiles),
        witnesses=_top_witnesses(viol, profiles),
    )


def check_epbb(mech: Mechanism, ctx: AuctionContext, plan: SamplingPlan = SamplingPlan()) -> CheckReport:
    """The seller's total collected payment is non-negative on every profile."""
    tol = plan.resolve_tolerance(ctx)
    profiles = _draw(plan, ctx)
    batch = run_batch(mech, profiles, ctx)
    viol = np.maximum(0.0, -batch.revenue)
    return CheckReport(
        name="epbb",
        max_violation=float(viol.max(initial=0.0)),
        tolerance=tol,
        samples_checked=len(profiles),
        witnesses=_top_witnesses(viol, profiles),
    )


def check_no_positive_transfers(
    mech: Mechanism, ctx: AuctionContext, plan: SamplingPlan = SamplingPlan()
) -> CheckReport:
    """The participation constant is exactly zero at every sampled others-profile."""
    tol = plan.resolve_tolerance(ctx)
    profiles = _draw(plan, ctx)
    batch = run_batch(mech, profiles, ctx)
    viol = np.abs(batch.compensations).max(axis=1)
    return CheckReport(
        name="no_positive_transfers",
        max_violation=float(viol.max(initial=0.0)),
        tolerance=tol,
        samples_checked=len(profiles),
        witnesses=_top_witnesses(viol, profiles),
    )


def check_allocation_monotone(
    mech: Mechanism, ctx: AuctionContext, plan: SamplingPlan = SamplingPlan(), scan_points: int = 201
) -> CheckReport:
    """Fixing the others, the win indicator is non-decreasing in the own report."""
    tol = plan.resolve_tolerance(ctx)
    profiles = _draw(plan, ctx)
    s_grid = np.linspace(0.0, ctx.s_bar, scan_points)
    worst = 0.0
    witnesses = []
    for i in range(ctx.space.n):
        win, _, _, _ = agent_outcomes_for_bids(mech, i, profiles, s_grid, ctx)
        drops = np.diff(win.astype(np.int8), axis=1) < 0
        bad = drops.any(axis=1)
        if bad.any():
            worst = 1.0
            rows = np.where(bad)[0][:_MAX_WITNESSES]
            witnesses += [
                {
                    "profile": profiles[r].tolist(),
                    "agent": i,
                    "drop_at": float(s_grid[int(np.argmax(drops[r])) + 1]),
                    "margin": 1.0,
                }
                for r in rows
            ]
    return CheckReport(
        name="allocation_monotone",
        max_violation=worst,
        tolerance=tol,
        samples_checked=len(profiles),
        witnesses=witnesses[:_MAX_WITNESSES],
    )


def check_chi_robustness(
    mech: Mechanism,
    ctx: AuctionContext,
    eps_list: Sequence[float],
    plan: SamplingPlan = SamplingPlan(),
) -> CheckReport:
    """Truthful play stays an approximate best response when bidders are a bit
    more cursed than the mechanism assumes: the deviation gain under
    cursedness chi + eps is at most eps times the value at the all-s_bar
    profile."""
    tol = plan.resolve_tolerance(ctx)
    scale = value_scale(ctx.model, ctx.space)
    profiles = _draw(plan, ctx)
    worst = 0.0
    witnesses = []
    for eps in eps_list:
        chi_eff = mech.chi + eps
        if not (0.0 <= chi_eff <= 1.0):
            raise ValueError(f"chi + eps = {chi_eff} outside [0, 1]")
        vals = [cursed_value(ctx.interim, chi_eff, profiles, i) for i in range(ctx.space.n)]
        regret, best_bid = _deviation_regrets(mech, ctx, profiles, plan, vals)
        bound = eps * scale
        excess = regret.max(axis=1) - bound
        k = int(np.argmax(excess))
        if excess[k] > worst:
            worst = float(excess[k])
            witnesses = [
                {
                    "profile": profiles[k].tolist(),
                    "eps": eps,
                    "regret": float(regret[k].max()),
                    "bound": bound,
                    "margin": worst,
                }
            ]
    return CheckReport(
        name="chi_robustness",
        max_violation=max(0.0, worst),
        tolerance=tol,
        samples_checked=len(profiles) * len(list(eps_list)),
        witnesses=witnesses,
    )


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
    profiles = _draw(plan, ctx)
    payments = [
        run_batch(Mechanism(rule, c, "compensated"), profiles, ctx).payments for c in chis
    ]
    worst = 0.0
    witnesses = []
    for (c_lo, p_lo), (c_hi, p_hi) in zip(zip(chis, payments), zip(chis[1:], payments[1:])):
        gap = p_hi - p_lo  # must be <= 0 everywhere
        k = np.unravel_index(np.argmax(gap), gap.shape)
        if gap[k] > worst:
            worst = float(gap[k])
            witnesses = [
                {
                    "profile": profiles[k[0]].tolist(),
                    "agent": int(k[1]),
                    "chi_pair": [c_lo, c_hi],
                    "margin": worst,
                }
            ]
    return CheckReport(
        name="payment_chi_monotone",
        max_violation=max(0.0, worst),
        tolerance=tol,
        samples_checked=len(profiles) * len(chis),
        witnesses=witnesses,
    )


CHECKERS = {
    "cepic": check_cepic,
    "epir": check_epir,
    "cepir": check_cepir,
    "epbb": check_epbb,
    "npt": check_no_positive_transfers,
    "allocation_monotone": check_allocation_monotone,
}
