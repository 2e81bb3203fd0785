"""Sampled checkers for the incentive and budget properties of auction mechanisms.

Each checker reads one :class:`Draw`, the signal profiles a
:class:`SamplingPlan` draws, in one pass (``_pass``) over ``run_batch``'s row
spans: each span is drawn and executed once (``mechanisms._executed``), and
every check of the pass folds the span in hand into its own running report
(``reports._WorstCases``), so a pass holds one span.  ``check_properties``
checks several properties in one pass, on the same sample and thresholds.
Each check computes one margin per case (profile; (eps, profile); (chi pair,
profile, agent)), positive where the case violates the property; eps and chi
pairs keep a running report each, merged in that order.  Deviation-based
checks evaluate a finite bid grid that always contains the truthful report,
the support endpoints, and the agent's critical bid plus/minus a small nudge;
for threshold mechanisms a bidder's utility is piecewise constant in the bid
with a single jump at the critical bid, so this grid is exhaustive up to the
nudge width.

Tolerances default to 1e-9 times the value at the all-s_bar profile so that
the same checks stay meaningful on [0, 1] and [0, 100] supports.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .mechanisms import AuctionContext, Mechanism, Quote, ThresholdRule, _batch_spans, _executed, _outcomes, _quote_at
from .mechanisms import run_batch  # not called here; perfbench's tracer checks that it rebinds this name too
from .reports import CheckReport, _WorstCases
from .signals import RandomStream
from .valuations import _row_spans, cursed_value, profile_stats, value, value_scale

__all__ = [
    "SamplingPlan", "Draw", "check_cepic", "check_epir", "check_cepir", "check_epbb", "check_no_positive_transfers",
    "check_allocation_monotone", "check_chi_robustness", "check_payment_chi_monotone", "check_properties", "CHECKERS",
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
        for key in ("profile_count", "deviation_grid_size"):
            count = getattr(self, key)
            if isinstance(count, bool) or not isinstance(count, numbers.Integral):
                raise ValueError(f"{key} must be an integer, got {count!r}")
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
    """The sample one verify run checks: the plan's profiles and the tolerance.
    Building one draws nothing; each pass of the checks (``_pass``) draws and
    executes the profiles one ``run_batch`` row span at a time."""

    def __init__(self, mech: Mechanism, ctx: AuctionContext, plan: SamplingPlan = SamplingPlan()):
        self.mech, self.ctx, self.plan = mech, ctx, plan
        self.tolerance = plan.resolve_tolerance(ctx)

    def _spans(self, *extra: Mechanism):
        """Each ``run_batch`` row span, executed by the draw's mechanism and then ``extra``, as a ``_Span``."""
        spans = _batch_spans(self.plan.profile_count, self.ctx.space.n)
        for profiles, *batches in _executed(self.ctx, self.plan.stream, spans, self.mech, *extra):
            yield _Span(self, profiles, batches)


class _Span:
    """One drawn and executed row span of a Draw: its profiles and batches, the draw's mechanism's (``batch``) first."""

    def __init__(self, draw: Draw, profiles: np.ndarray, batches: list):
        self.draw, self.profiles, self.batches, self.batch = draw, profiles, batches, batches[0]

    def agent_quote(self, i: int, rows: slice = slice(None)) -> Quote:
        """Agent i's quote for the span's rows ``rows``, rebuilt from the
        batch's critical bids, so no threshold is computed twice."""
        ctx = self.draw.ctx
        stat = profile_stats(ctx.model, self.profiles[rows])[:, i]
        return _quote_at(self.draw.mech, self.batch.thresholds[rows, i], stat, ctx)

    def values(self, chi: Optional[float] = None) -> list:
        """Each agent's per-profile value of the item: true, or cursed at ``chi``."""
        ctx, P = self.draw.ctx, self.profiles
        if chi is None:
            return [value(ctx.model, P, i) for i in range(ctx.space.n)]
        return [cursed_value(ctx.interim, chi, P, i) for i in range(ctx.space.n)]


def _pass(draw: Draw, checks, *extra: Mechanism) -> list:
    """The reports of ``checks`` from one pass over the draw's spans, executed
    by its mechanism and then by ``extra``.

    A check is ``(name, parts, runs)``: ``runs(span)`` yields the ``(part,
    rows, margins, witness)`` runs of the span in hand, one margin per profile
    of ``span.profiles[rows]`` or per (profile, agent), each folded into
    running report ``part`` of ``parts`` (N * parts samples); the parts are
    merged in order, so the cases run part-major, and each witness names its
    profile."""
    folds = [[_WorstCases() for _ in range(parts)] for _, parts, _ in checks]
    for span in draw._spans(*extra):
        for (_, _, runs), fold in zip(checks, folds):
            for part, rows, margins, witness in runs(span):
                profiles = span.profiles[rows]
                per = np.size(margins) // len(profiles)  # cases per profile
                fold[part].add(margins, lambda k: {"profile": profiles[k // per].tolist(), **witness(k)})
    N = draw.plan.profile_count
    merged = [functools.reduce(_WorstCases.merge, fold) for fold in folds]
    return [cases.report(name, draw.tolerance, N * parts) for cases, (name, parts, _) in zip(merged, checks)]


def _whole(margins: np.ndarray):
    """One run of one margin per profile of the span, with no witness fields but the profile."""
    return [(0, slice(None), margins, lambda k: {})]


def _worst_agent(margin: np.ndarray, detail: np.ndarray):
    """From each agent's (rows, n) margin and detail: the largest margin per
    row, the first agent with it and that agent's detail."""
    agent = margin.argmax(axis=1)
    return margin.max(axis=1), agent, detail[np.arange(len(agent)), agent]


def _deviation_regrets(span: _Span, values: Sequence[list]):
    """Worst deviation gain per profile of the span against truthful
    opponents, per row chunk: the chunk's rows and, for each entry of
    ``values``, one ``_worst_agent`` result with the best bid as the detail.

    ``values[e][i]`` is the per-profile value deviating agent i assigns the
    item (its cursed value under the relevant cursedness level); a chunk is
    quoted once for every entry.
    """
    draw = span.draw
    (N, n), G = span.profiles.shape, draw.plan.deviation_grid_size
    s_bar = draw.ctx.s_bar
    grid = np.linspace(0.0, s_bar, G)
    for rows in _row_spans(N, 4 * (G + 3)):  # per bid: the bid, win, payment and utility
        shape = (len(values), rows.stop - rows.start, n)
        regret, best_bid = np.empty(shape), np.empty(shape)
        for i in range(n):
            q = span.agent_quote(i, rows)
            # the grid, then the truthful bid and the critical bid +- a nudge
            nudged = np.clip(q.t[:, None] + np.array([-_NUDGE, _NUDGE]) * s_bar, 0.0, s_bar)
            own = span.profiles[rows, i:i + 1]
            bids = np.concatenate([np.broadcast_to(grid, (len(own), G)), own, nudged], axis=1)
            win, pay = _outcomes(draw.mech, q, bids, draw.ctx)
            for e, agent_values in enumerate(values):
                u = win * agent_values[i][rows, None] - pay
                k = np.argmax(u, axis=1)
                at = np.arange(len(k))
                regret[e, :, i] = u[at, k] - u[:, G]  # column G is the truthful bid
                best_bid[e, :, i] = bids[at, k]
        yield rows, [_worst_agent(r, b) for r, b in zip(regret, best_bid)]


def _cepic_runs(span: _Span):
    for rows, [(regret, agent, bid)] in _deviation_regrets(span, [span.values(span.draw.mech.chi)]):
        yield 0, rows, regret, lambda k: {"agent": int(agent[k]), "deviation": float(bid[k])}


def _ir_runs(span: _Span, chi: Optional[float] = None):
    b = span.batch
    utils = np.column_stack([b.win[:, i] * v - b.payments[:, i] for i, v in enumerate(span.values(chi))])
    return _whole(np.maximum(0.0, -utils.min(axis=1)))


def _allocation_monotone_runs(span: _Span):
    ctx = span.draw.ctx
    s_grid = np.linspace(0.0, ctx.s_bar, _MONOTONE_SCAN_POINTS)
    N, n = span.profiles.shape
    for chunk in _row_spans(N, 4 * _MONOTONE_SCAN_POINTS):  # per point: win, its int8 copy, diff, drops
        shape = (chunk.stop - chunk.start, n)
        bad, first_drop = np.empty(shape), np.empty(shape, dtype=np.intp)
        for i in range(n):
            win = span.draw.mech._win(s_grid, span.agent_quote(i, chunk), ctx)
            drops = np.diff(win.astype(np.int8), axis=1) < 0
            bad[:, i] = drops.any(axis=1)
            first_drop[:, i] = np.argmax(drops, axis=1)
        margin, agent, first = _worst_agent(bad, first_drop)  # the first agent whose win drops
        yield 0, chunk, margin, lambda k: {"agent": int(agent[k]), "drop_at": float(s_grid[first[k] + 1])}


def _checker(name: str, runs, doc: str):
    """The checker ``check_<name>``: a pass of its one check ``(name, 1, runs)``, which it carries as ``_check``."""

    def checker(draw: Draw) -> CheckReport:
        return _pass(draw, [checker._check])[0]

    checker._check, checker.__doc__ = (name, 1, runs), doc
    checker.__name__ = checker.__qualname__ = f"check_{name}"
    return checker


CHECKERS = {  # the checker of each property verify names, each a pass of its one check
    "cepic": _checker(
        "cepic", _cepic_runs,
        "Truthful reporting maximizes the cursed utility against every sampled deviation, profile by profile.",
    ),
    "epir": _checker("epir", _ir_runs, "No agent's realized true-value utility is negative under truthful play."),
    "cepir": _checker(
        "cepir", lambda span: _ir_runs(span, span.draw.mech.chi),
        "No agent's cursed utility is negative under truthful play.",
    ),
    "epbb": _checker(
        "epbb", lambda span: _whole(np.maximum(0.0, -span.batch.revenue)),
        "The seller's total collected payment is non-negative on every profile.",
    ),
    "npt": _checker(
        "no_positive_transfers", lambda span: _whole(np.abs(span.batch.compensations).max(axis=1)),
        "The participation constant is exactly zero at every sampled others-profile.",
    ),
    "allocation_monotone": _checker(
        "allocation_monotone", _allocation_monotone_runs,
        "Fixing the others, the win indicator is non-decreasing in the own report.",
    ),
}
(check_cepic, check_epir, check_cepir, check_epbb,
 check_no_positive_transfers, check_allocation_monotone) = CHECKERS.values()


def _chi_robustness(draw: Draw, eps_list: Sequence[float]):
    """The ``_pass`` check of ``check_chi_robustness``: one part per eps."""
    eps_list = list(eps_list)
    if not eps_list:
        raise ValueError("an empty eps list checks nothing")
    for eps in eps_list:
        if not (0.0 <= draw.mech.chi + eps <= 1.0):
            raise ValueError(f"chi + eps = {draw.mech.chi + eps} outside [0, 1]")
    bounds = np.array(eps_list, dtype=float) * value_scale(draw.ctx.model, draw.ctx.space)

    def runs(span):
        values = [span.values(draw.mech.chi + eps) for eps in eps_list]
        for rows, per_eps in _deviation_regrets(span, values):
            for part, (eps, bound, (regret, _, _)) in enumerate(zip(eps_list, bounds, per_eps)):
                yield part, rows, regret - bound, lambda k: {"eps": eps, "regret": float(regret[k]), "bound": float(bound)}

    return "chi_robustness", len(eps_list), runs


def check_chi_robustness(draw: Draw, eps_list: Sequence[float]) -> CheckReport:
    """Truthful play stays an approximate best response when bidders are a bit
    more cursed than the mechanism assumes: the deviation gain under
    cursedness chi + eps is at most eps times the value at the all-s_bar
    profile.  Cases run in (eps, profile) order; an empty ``eps_list`` is a
    ValueError."""
    return _pass(draw, [_chi_robustness(draw, eps_list)])[0]


def check_payment_chi_monotone(
    rule: ThresholdRule,
    ctx: AuctionContext,
    chi_grid: Sequence[float],
    plan: SamplingPlan = SamplingPlan(),
) -> CheckReport:
    """With the rule and the sampled profiles held fixed, every agent's payment
    is non-increasing in the cursedness level, pointwise.  Cases run in (chi
    pair, profile, agent) order; a grid of fewer than two values, or one not
    sorted ascending, is a ValueError."""
    chis = list(chi_grid)
    if len(chis) < 2:
        raise ValueError("a chi grid of fewer than two values compares nothing")
    if any(b < a for a, b in zip(chis, chis[1:])):
        raise ValueError("chi grid must be sorted ascending")
    n, mechs = ctx.space.n, [Mechanism(rule, c, "compensated") for c in chis]

    def runs(span):  # (profile, agent): the payment's rise from one chi to the next
        for pair, (a, b) in enumerate(zip(span.batches, span.batches[1:])):
            witness = lambda k: {"agent": k % n, "chi_pair": chis[pair : pair + 2]}
            yield pair, slice(None), b.payments - a.payments, witness

    # a part per chi pair, and one left empty, so the report counts each profile at every chi
    return _pass(Draw(mechs[0], ctx, plan), [("payment_chi_monotone", len(chis), runs)], *mechs[1:])[0]


def check_properties(draw: Draw, names: Iterable[str]) -> dict:
    """The reports of the ``CHECKERS`` properties ``names`` on one draw, from
    one pass, by name in the order of ``names``; a name given twice is checked
    once, and an unknown name or no name at all is a ValueError."""
    names = list(dict.fromkeys(names))
    unknown = [name for name in names if name not in CHECKERS]
    if unknown or not names:
        what = f"unknown properties {unknown}" if unknown else "the property list names no property"
        raise ValueError(f"{what}; available: {sorted(CHECKERS)}")
    return dict(zip(names, _pass(draw, [CHECKERS[name]._check for name in names])))
