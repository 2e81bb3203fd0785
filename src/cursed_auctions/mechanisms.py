"""Threshold auction rules, compensated payments, masking, and auction execution.

Every deterministic anonymous incentive-compatible mechanism here is a
threshold mechanism: fixing the others' reports, bidder i wins exactly when
their report strictly exceeds a critical bid t(others) in [max(others), s_bar],
where t = s_bar encodes "never allocate".  Ties at the top never win.

Payments follow the binding identity for cursed bidders.  Writing v for the
true value at the critical bid, m for the interim expectation there and
v_chi = (1-chi) v + chi m, every agent's participation compensation is
c = min{0, v - v_chi} (zero when the rule never allocates at those others).
A loser pays c, so it receives -c >= 0.  The winner pays v_chi + c =
min{v, v_chi}: its own compensation is netted into that price, so the
seller's outflow goes to the losers alone.  The "zero-transfer" policy drops the
compensation and charges the winner the full cursed value at the threshold;
it is individually rational only in the bidders' own (cursed) estimation.

The revenue-optimal rule maximizes the seller's threshold revenue
r = m - c * F, with m = min{v, v_chi}, c = v_chi and F the marginal CDF, on a
fixed grid and then refines the best bracket.  All three parts are
non-decreasing in the threshold, so the values at a cell's ends bound r inside
it; the grid search evaluates cell ends coarse to fine, drops every cell whose
bound is below the best value found, and returns the same argmax as a scan of
every grid point.

Masking raises a threshold to the first point where the winner no longer
overestimates the item (true value at the threshold >= interim expectation),
and never allocates if no such point exists below s_bar.  MaxSignal rows are
decided in closed form on any marginal: for t >= max(others) the gap is
-E[(M - t)^+] < 0, so the masked efficient auction never allocates (the
collapse result) and one probe of the gap confirms it.  WeightedSum rows are
decided at the base threshold, where the constant gap is read off; ConcaveSum
models keep a grid scan refined by bisection.  The masked generalized Vickrey
auction applies this to the efficient rule t(others) = max(others); its
compensations vanish identically, which makes it budget balanced profile by
profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .signals import RandomStream, SignalSpace, _checked_profiles, _checked_signals, _config_number, _draw_spans
from .valuations import (
    InterimCache,
    MaxSignal,
    ValuationModel,
    WeightedSum,
    _check_chi,
    _chunked,
    _max_excluding_self,
    _row_spans,
    cursed_value_from_parts,
    make_interim_cache,
    others_stat,
    profile_stats,
    single_crossing_holds,
    value_from_own_and_stat,
    value_scale,
)

__all__ = [
    "AuctionContext",
    "make_context",
    "OthersView",
    "ThresholdRule",
    "GVARule",
    "RevenueOptimalRule",
    "MaskedRule",
    "Mechanism",
    "Outcome",
    "BatchOutcome",
    "critical_bid",
    "run",
    "run_batch",
    "agent_outcomes_for_bids",
    "masked_gva",
    "ModelUnsupportedError",
    "MechanismInvariantError",
    "rule_from_config",
]

_SCAN_POINTS = 512
_SCAN_FRAC = np.linspace(0.0, 1.0, _SCAN_POINTS)
_BISECT_ITERS = 40
# the revenue-optimal search: the argmax of a grid, found cell by cell from cells
# of _OPT_STRIDE points, then golden-section steps on the bracket around it
_OPT_POINTS = 2048
_OPT_FRAC = np.linspace(0.0, 1.0, _OPT_POINTS)
_OPT_STRIDE = 128
_GOLDEN_ITERS = 60
_BATCH_CELLS = 40  # float cells per (row, agent) of a run_batch span: the quote and its outcome


class ModelUnsupportedError(ValueError):
    """Raised when a mechanism's preconditions reject the valuation model."""


class MechanismInvariantError(RuntimeError):
    """A mechanism broke an invariant that holds by construction; ``what``
    names it, and ``row``, ``agent`` and ``value`` are one witness."""

    def __init__(self, what: str, row: int, agent: int, value: float):
        super().__init__(f"{what}: row {row}, agent {agent}, value {value!r}")
        self.what, self.row, self.agent, self.value = what, row, agent, value

    def __reduce__(self):  # ``args`` holds only the message, so pickle the witness
        return type(self), (self.what, self.row, self.agent, self.value)


@dataclass
class AuctionContext:
    """Environment shared by rules and mechanisms: signals, valuations, interim cache."""

    space: SignalSpace
    model: ValuationModel
    interim: InterimCache

    @property
    def s_bar(self) -> float:
        return self.space.s_bar

    def scale(self) -> float:
        return value_scale(self.model, self.space)


def make_context(space: SignalSpace, model: ValuationModel) -> AuctionContext:
    return AuctionContext(space=space, model=model, interim=make_interim_cache(space, model))


class OthersView:
    """Others' reports for one agent, reduced to what rules actually consume:
    the others' maximum and the model's sufficient statistic."""

    __slots__ = ("max", "stat")

    def __init__(self, max_others: np.ndarray, stat: np.ndarray):
        self.max = np.asarray(max_others, dtype=float)
        self.stat = np.asarray(stat, dtype=float)

    @staticmethod
    def from_others(others: np.ndarray, model: ValuationModel) -> "OthersView":
        others = np.atleast_2d(np.asarray(others, dtype=float))
        return OthersView(others.max(axis=1), others_stat(model, others))

    def __len__(self) -> int:
        return len(self.max)


class ThresholdRule:
    """Map from others' reports to the critical bid in [max(others), s_bar]."""

    kind = "abstract"

    def critical_bids(self, view: OthersView, ctx: AuctionContext) -> np.ndarray:
        raise NotImplementedError


@dataclass
class GVARule(ThresholdRule):
    """Generalized Vickrey auction rule: the critical bid is the others' maximum."""

    kind = "gva"

    def critical_bids(self, view, ctx):
        return view.max.copy()


@dataclass
class RevenueOptimalRule(ThresholdRule):
    """Per-query maximizer of the seller's threshold revenue.

    With others fixed, a threshold t < s_bar earns
    min{v, v_chi}(t) - v_chi(t) * F(t) in expectation over the bidder's own
    signal and t = s_bar earns 0; the rule finds the best of ``_OPT_POINTS``
    grid points on [max(others), s_bar], refines the bracket around it by
    ``_GOLDEN_ITERS`` golden-section steps, and tie-breaks to the smallest
    maximizing threshold.  The grid search certifies cells by a monotone bound
    and drops those that cannot hold the maximum, so it returns the argmax of
    a scan of every grid point from far fewer evaluations.  Each distinct
    (others' max, statistic) input of a batch is solved once; an others' max
    outside [0, s_bar] or a non-finite input is a ValueError.
    """

    chi: float

    kind = "revenue_optimal"

    def __post_init__(self):
        _check_chi(self.chi)

    def critical_bids(self, view, ctx):
        return _optimize_thresholds(view, ctx, self.chi)


@dataclass
class MaskedRule(ThresholdRule):
    """Base rule lifted to the first threshold where winning is curse-free.

    Returns the first t in [base, s_bar] where the curse gap
    d(t) = v(t, others) - interim(t) is >= 0, and s_bar when d < 0 throughout.
    MaxSignal rows are decided in closed form (the collapse result: d < 0 on
    [max(others), s_bar), checked by one probe against the table's rounding
    next to s_bar) and WeightedSum rows at the base, where d is constant in t.
    ConcaveSum scans d on a grid and refines the first sign change by
    bisection (the upper bracket end, so d >= 0 holds at the returned
    threshold), once per distinct (base, statistic) input of a batch.
    """

    base: ThresholdRule

    kind = "masked"

    def critical_bids(self, view, ctx):
        base_t = self.base.critical_bids(view, ctx)
        return _mask_thresholds(base_t, view, ctx)


def rule_from_config(cfg: dict) -> ThresholdRule:
    cfg = dict(cfg)
    kind = cfg.pop("kind")
    if kind == "gva":
        out = GVARule()
    elif kind == "revenue_optimal":
        out = RevenueOptimalRule(chi=_config_number(cfg.pop("chi"), "chi"))
    elif kind == "masked":
        out = MaskedRule(base=rule_from_config(cfg.pop("base")))
    else:
        raise ValueError(f"unknown rule kind {kind!r}")
    if cfg:
        raise ValueError(f"unknown rule keys: {sorted(cfg)}")
    return out


# ---------------------------------------------------------------------------
# Threshold computations.
# ---------------------------------------------------------------------------


def _revenue_parts(t, stat, ctx: AuctionContext, chi: float):
    """(m, c, F) with threshold revenue r = m - c * F at own signal t against
    others' statistic ``stat`` (broadcasts): m = min{v, v_chi}, c = v_chi and
    F the marginal CDF.  All three are non-decreasing in t: v and the interim
    expectation are, for every valuation family, and F is a CDF."""
    v = value_from_own_and_stat(ctx.model, t, stat)
    vchi = cursed_value_from_parts(v, ctx.interim.expected_value(t), chi)
    return np.minimum(v, vchi), vchi, ctx.space.marginal.cdf(t)


def _threshold_revenue(t, view: OthersView, ctx: AuctionContext, chi: float):
    """Expected per-bidder revenue of threshold t against fixed others.

    min{v, v_chi}(t, others) - v_chi(t, others) * F(t); broadcasts t against
    the view. The t = s_bar convention (exact zero) is applied by callers.
    """
    m, c, F = _revenue_parts(t, view.stat, ctx, chi)
    return m - c * F


def _cell_bound(c_a, F_a, m_b, F_b):
    """Upper bound on the revenue m - c * F over a grid cell [t_a, t_b] from
    c and F at its left end and m and F at its right end: m(t) <= m(t_b),
    c(t) >= c(t_a) and F(t) lies in [F(t_a), F(t_b)], so
    c(t) * F(t) >= min(c(t_a) * F(t_a), c(t_a) * F(t_b))."""
    return m_b - np.minimum(c_a * F_a, c_a * F_b)


def _grid_argmax(lo, span, stat, ctx, chi, tie_tol):
    """(k, r_k) per row: the first index of the largest revenue on the grid
    t_j = lo + _OPT_FRAC[j] * span, where the last point (s_bar) earns exactly
    zero, and that revenue, without evaluating every point.

    Cells of ``_OPT_STRIDE`` points are evaluated at their ends, then halved at
    integer midpoints, one level at a time on flat (row, cell) arrays that
    carry only what ``_cell_bound`` reads.  A cell is dropped once its bound
    falls below the row's best value minus ``tie_tol``, which covers the
    rounding of the computed monotone maps, so every point of a dropped cell
    is strictly below the row maximum and k is the dense scan's argmax.
    """
    last = _OPT_POINTS - 1

    def evaluate(row, j):
        m, c, F = _revenue_parts(lo[row] + _OPT_FRAC[j] * span[row], stat[row], ctx, chi)
        return m - c * F, m, c, F

    ends = np.r_[0:last:_OPT_STRIDE, last]
    row, j = np.repeat(np.arange(len(lo)), len(ends)), np.tile(ends, len(lo))
    r, m, c, F = evaluate(row, j)
    r[len(ends) - 1 :: len(ends)] = 0.0  # every row's last end is s_bar
    best = r.reshape(len(lo), -1).max(axis=1)
    k = np.full(len(lo), last)
    hit = r == best[row]
    np.minimum.at(k, row[hit], j[hit])
    # a row's cells join consecutive ends: flat points p and p + 1 for every p not at the last index
    p = np.flatnonzero(j != last)
    row, a, b = row[p], j[p], j[p + 1]
    c_a, F_a, m_b, F_b = c[p], F[p], m[p + 1], F[p + 1]
    while True:
        live = np.flatnonzero((b - a > 1) & ~(_cell_bound(c_a, F_a, m_b, F_b) < best[row] - tie_tol))
        if not live.size:
            break
        row, a, b = row[live], a[live], b[live]
        c_a, F_a, m_b, F_b = c_a[live], F_a[live], m_b[live], F_b[live]
        mid = (a + b) // 2
        r, m, c, F = evaluate(row, mid)
        before = best.copy()
        np.maximum.at(best, row, r)
        k[best != before] = last  # a new best: the earlier first-best index no longer holds
        hit = r == best[row]
        np.minimum.at(k, row[hit], mid[hit])
        # the halves [a, mid] and [mid, b]
        row, a, b = np.concatenate((row, row)), np.concatenate((a, mid)), np.concatenate((mid, b))
        c_a, F_a = np.concatenate((c_a, c)), np.concatenate((F_a, F))
        m_b, F_b = np.concatenate((m, m_b)), np.concatenate((F, F_b))
    return k, best


def _optimize_thresholds(view, ctx, chi):
    s_bar = ctx.s_bar
    _checked_signals(view.max, ctx.space)
    if not np.all(np.isfinite(view.stat)):
        raise ValueError("the others' statistics must be finite")
    tie_tol = 1e-12 * max(ctx.scale(), 1.0)

    def chunk(lo, stat):
        sub = OthersView(lo, stat)
        span = s_bar - lo
        t_at = lambda j: lo + _OPT_FRAC[j] * span  # grid point j, formed as the search forms it
        k, r_grid_best = _grid_argmax(lo, span, stat, ctx, chi, tie_tol)
        t_grid_best = t_at(k)
        # golden-section refinement on the bracket around the best grid point
        b_lo, b_hi = t_at(np.maximum(k - 1, 0)), t_at(np.minimum(k + 1, _OPT_POINTS - 1))
        t_ref, r_ref = _golden_max(
            lambda t: _threshold_revenue(t, sub, ctx, chi), b_lo, b_hi, _GOLDEN_ITERS
        )
        best = np.maximum.reduce([r_grid_best, r_ref, np.zeros_like(r_ref)])
        # smallest maximizing threshold; s_bar only when nothing interior matches
        t_best = np.full(len(lo), s_bar)
        for t_cand, r_cand in ((t_ref, r_ref), (t_grid_best, r_grid_best)):
            take = (r_cand >= best - tie_tol) & (t_cand <= t_best)
            t_best = np.where(take, t_cand, t_best)
        return np.where(span <= 0.0, s_bar, t_best)

    return _per_distinct(chunk, _OPT_POINTS, view.max, view.stat)  # a cell per point the search may evaluate


def _per_distinct(fn, width, a, b):
    """``fn(a, b)`` for 1-D key columns whose rows repeat: ``fn`` runs once on the
    distinct (a, b) rows, in chunks of ``width`` cells per row, and the results
    are gathered back.  Exact because a row's threshold depends on that row alone;
    rows are told apart by their bits, so -0.0 and 0.0 stay distinct inputs."""
    bits = np.stack([a, b]).view(np.int64)
    order = np.lexsort(bits[::-1])  # by a's bits, then b's
    bits = bits[:, order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (bits[:, 1:] != bits[:, :-1]).any(axis=0)
    inv = np.empty(len(order), dtype=np.intp)
    inv[order] = np.cumsum(first) - 1
    return _chunked(fn, width, a[order[first]], b[order[first]])[inv]


def _golden_max(f, lo, hi, iters):
    """Vectorized golden-section maximization on per-row brackets [lo, hi].

    One function evaluation per iteration; ties prefer the left (smaller)
    interior point. Returns (argmax estimate, value there) per row.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc = f(c)
    fd = f(d)
    for _ in range(iters):
        left = fc >= fd
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        c_new = np.where(left, hi - invphi * (hi - lo), d)
        d_new = np.where(left, c, lo + invphi * (hi - lo))
        f_eval = f(np.where(left, c_new, d_new))
        fc, fd = np.where(left, f_eval, fd), np.where(left, fc, f_eval)
        c, d = c_new, d_new
    take_c = fc >= fd
    return np.where(take_c, c, d), np.where(take_c, fc, fd)


def _curse_gap(t, stat, ctx):
    """v(t, others) - interim(t): the winner's true value minus its cursed
    estimate at own signal t; broadcasts t against the others' statistic."""
    return value_from_own_and_stat(ctx.model, t, stat) - ctx.interim.expected_value(t)


def _mask_scan(base, stat, ctx):
    """Generic mask search per row: the first point of a _SCAN_POINTS grid on
    [base, s_bar] where the curse gap is >= 0, refined by bisection (upper
    bracket end); base itself when admissible there, s_bar when no point is."""
    s_bar = ctx.s_bar
    span = np.maximum(s_bar - base, 0.0)
    t_grid = base[None, :] + _SCAN_FRAC[:, None] * span[None, :]
    gaps = _curse_gap(t_grid, stat, ctx)
    ok = gaps >= 0.0
    any_ok = ok.any(axis=0)
    first = np.argmax(ok, axis=0)
    res = np.full(len(base), s_bar)
    # first admissible point is the base threshold itself: keep it exactly
    at_base = any_ok & (first == 0)
    res[at_base] = base[at_base]
    # admissible only where the gap touches zero at s_bar: the infimum is s_bar
    touches_end = any_ok & (first == _SCAN_POINTS - 1) & (gaps[-1, :] <= 0.0)
    inner = any_ok & (first > 0) & ~touches_end
    if inner.any():
        rows = np.where(inner)[0]
        lo = t_grid[first[rows] - 1, rows]
        hi = t_grid[first[rows], rows]
        st = stat[rows]
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            pos = _curse_gap(mid, st, ctx) >= 0.0
            hi = np.where(pos, mid, hi)
            lo = np.where(pos, lo, mid)
        res[rows] = hi  # upper end: the returned threshold is curse-free
    return np.where(base >= s_bar, s_bar, res)


def _mask_thresholds(base_t, view, ctx):
    s_bar = ctx.s_bar
    # Rows already curse-free at the base threshold keep it exactly (the scan's
    # first grid point is the base, so this matches the generic path).
    gap_base = _curse_gap(base_t, view.stat, ctx)
    out = np.where((gap_base >= 0.0) & (base_t < s_bar), base_t, s_bar)
    if isinstance(ctx.model, WeightedSum):
        # the gap is constant in t for weighted sums: allocate at the base or never
        return out
    todo = (gap_base < 0.0) & (base_t < s_bar)
    if isinstance(ctx.model, MaxSignal):
        # Collapse: for t >= stat the computed gap is t - fl(t + tail(t)) with
        # a non-increasing tail table, so the admissible set is an upper set and
        # the scan finds a point below s_bar only if its last interior point is
        # admissible.  Rows inadmissible there never allocate; the rest (a
        # rounding band next to s_bar, and rows with base < stat) are scanned.
        rows = np.flatnonzero(todo & (base_t >= view.stat))
        base = base_t[rows]
        probe = base + _SCAN_FRAC[-2] * np.maximum(s_bar - base, 0.0)  # formed as the scan forms it
        todo[rows[_curse_gap(probe, view.stat[rows], ctx) < 0.0]] = False
    rows = np.flatnonzero(todo)
    if rows.size:  # MaxSignal batches rarely leave a row to scan; skip the sort then
        scan = lambda base, stat: _mask_scan(base, stat, ctx)
        # at its peak the scan holds three float cells per scan point (the t grid
        # and the value and the interim there) and a few per row (its span)
        out[rows] = _per_distinct(scan, 3 * _SCAN_POINTS + 8, base_t[rows], view.stat[rows])
    return out


# ---------------------------------------------------------------------------
# Mechanisms.
# ---------------------------------------------------------------------------


class Mechanism:
    """A threshold rule plus a cursedness level and a payment policy.

    payment_policy "compensated" implements the binding individually rational
    payments (winner pays min{v, v_chi} at the threshold, every loser pays
    the non-positive participation constant); "zero-transfer" charges the
    winner the full cursed value at the threshold and pays no compensation.
    """

    def __init__(self, rule: ThresholdRule, chi: float, payment_policy: str = "compensated"):
        _check_chi(chi)
        if payment_policy not in ("compensated", "zero-transfer"):
            raise ValueError(f"unknown payment policy {payment_policy!r}")
        self.rule = rule
        self.chi = chi
        self.payment_policy = payment_policy

    # --- overridable pieces: each negative control in testing.py replaces one ---
    # Contract: a Quote holds flat (M,) arrays for M quoted (row, agent) pairs
    # and bids holds G own-report candidates per pair, shape (M, G) or (G,).
    # _win (the win rule) and _winner_payments (the winner price) return
    # arrays that broadcast to (M, G); _compensations (the loser charge) reads
    # only the quote's t, v_t and mu_t and returns (M,).

    def _win(self, bids, q, ctx):
        return np.asarray(bids) > q.t[:, None]

    def _compensations(self, q, ctx):
        if self.payment_policy == "zero-transfer":
            return np.zeros_like(q.t)
        comp = -self.chi * np.maximum(0.0, q.mu_t - q.v_t)
        return np.where(q.t >= ctx.s_bar, 0.0, comp) + 0.0  # +0.0 normalizes -0.0

    def _winner_payments(self, bids, q, ctx):
        return q.price[:, None]


@dataclass
class Quote:
    """What the others' reports fix for each quoted (row, agent) pair, as flat
    arrays: the others' statistic, the critical bid t, the true value v_t and
    the interim expectation mu_t at t, the loser's charge (the compensation)
    and the winner's price at t."""

    stat: np.ndarray
    t: np.ndarray
    v_t: np.ndarray
    mu_t: np.ndarray
    compensation: Optional[np.ndarray] = None
    price: Optional[np.ndarray] = None


def _quote(mech: Mechanism, profiles: np.ndarray, ctx: AuctionContext, agents, first_row: int = 0) -> Quote:
    """Quote the columns ``agents`` of ``profiles``, whose row r is profile row
    ``first_row + r``: all those (row, agent) pairs go through one
    ``critical_bids`` and one ``_quote_at`` call, flattened in (row, agent)
    order.  A masked rule owes no compensation (the curse gap is >= 0 at every
    threshold below s_bar it returns); a nonzero one raises
    MechanismInvariantError with the row, agent and value."""
    maxo = _max_excluding_self(profiles)[:, agents].reshape(-1)
    view = OthersView(maxo, profile_stats(ctx.model, profiles)[:, agents].reshape(-1))
    q = _quote_at(mech, mech.rule.critical_bids(view, ctx), view.stat, ctx)
    if isinstance(mech.rule, MaskedRule) and np.any(q.compensation != 0.0):
        k = int(np.flatnonzero(q.compensation)[0])
        what = "masked mechanism produced a nonzero compensation"
        raise MechanismInvariantError(what, first_row + k // len(agents), agents[k % len(agents)], float(q.compensation[k]))
    return q


def _quote_at(mech: Mechanism, t: np.ndarray, stat: np.ndarray, ctx: AuctionContext) -> Quote:
    """The quote of (row, agent) pairs with critical bids ``t`` against the
    others' statistics ``stat``: the true value and the interim expectation at
    t, and from them the compensation and the winner's price under the
    mechanism's payment policy."""
    q = Quote(stat, t, value_from_own_and_stat(ctx.model, t, stat), ctx.interim.expected_value(t))
    q.compensation = mech._compensations(q, ctx)
    if mech.payment_policy == "zero-transfer":
        q.price = cursed_value_from_parts(q.v_t, q.mu_t, mech.chi)
    else:
        q.price = q.v_t + mech.chi * np.minimum(0.0, q.mu_t - q.v_t)
    return q


def _outcomes(mech: Mechanism, q: Quote, bids, ctx: AuctionContext):
    """(win, payments), both (M, G), of own reports ``bids`` ((M, G) or (G,))
    against a quote."""
    win = mech._win(bids, q, ctx)
    return win, np.where(win, mech._winner_payments(bids, q, ctx), q.compensation[:, None])


@dataclass
class Outcome:
    """Result of one auction: at most one winner, payments for everyone."""

    winner: Optional[int]
    payments: np.ndarray
    thresholds: np.ndarray
    compensations: np.ndarray
    threshold_used: float
    welfare: float
    revenue: float


@dataclass
class BatchOutcome:
    """Vectorized outcomes for a batch of profiles."""

    winner: np.ndarray  # (N,) agent index, -1 when no winner
    win: np.ndarray  # (N, n) bool
    payments: np.ndarray  # (N, n)
    thresholds: np.ndarray  # (N, n)
    compensations: np.ndarray  # (N, n)
    welfare: np.ndarray  # (N,)
    revenue: np.ndarray  # (N,)


def run_batch(mech: Mechanism, profiles: np.ndarray, ctx: AuctionContext) -> BatchOutcome:
    """Execute the auction on every row of ``profiles`` (shape (N, n)), one
    row span (one ``_quote``) at a time.

    Raises ValueError unless every signal is finite and in [0, s_bar] and the
    width is n; zero rows are fine.  Raises MechanismInvariantError on a row
    with more than one winner.
    """
    profiles = _checked_profiles(profiles, ctx.space)
    N, n = profiles.shape
    out = BatchOutcome(
        np.empty(N, dtype=np.intp), np.empty((N, n), dtype=bool), np.empty((N, n)),
        np.empty((N, n)), np.empty((N, n)), np.zeros(N), np.empty(N),
    )
    for span in _batch_spans(N, n):
        rows = profiles[span]
        q = _quote(mech, rows, ctx, range(n), span.start)
        w, pay = _outcomes(mech, q, rows.reshape(-1, 1), ctx)
        win = w.reshape(-1, n)
        n_winners = win.sum(axis=1)
        if np.any(n_winners > 1):
            r = int(np.argmax(n_winners > 1))
            second = int(np.flatnonzero(win[r])[1])
            raise MechanismInvariantError("more than one winner", span.start + r, second, float(n_winners[r]))
        out.win[span] = win
        out.payments[span] = pay.reshape(-1, n)
        out.thresholds[span] = q.t.reshape(-1, n)
        out.compensations[span] = q.compensation.reshape(-1, n)
        r, i = np.nonzero(win)
        out.welfare[span.start + r] = value_from_own_and_stat(ctx.model, rows[r, i], q.stat.reshape(-1, n)[r, i])
        out.winner[span] = np.where(n_winners == 1, np.argmax(win, axis=1), -1)
        out.revenue[span] = out.payments[span].sum(axis=1)
    return out


def _batch_spans(N: int, n: int) -> list:
    """The row spans ``run_batch`` quotes N profiles of n agents in."""
    return _row_spans(N, _BATCH_CELLS * n)


def _executed(ctx: AuctionContext, stream: RandomStream, spans, *mechs):
    """Yield ``(profiles, *batches)`` for each slice of ``spans``, which
    must tile the rows in order: the span's rows of ``sample_profiles(ctx.space,
    stream, ...)`` and one ``run_batch`` of them per mechanism.  A
    MechanismInvariantError names the row of the whole sample."""
    for span, profiles in zip(spans, _draw_spans(ctx.space, stream, spans)):
        try:
            batches = [run_batch(mech, profiles, ctx) for mech in mechs]
        except MechanismInvariantError as exc:
            witness = MechanismInvariantError(exc.what, span.start + exc.row, exc.agent, exc.value)
            raise witness.with_traceback(exc.__traceback__) from None
        yield profiles, *batches


def run(mech: Mechanism, profile: np.ndarray, ctx: AuctionContext) -> Outcome:
    """Execute one auction; the winner (if any) holds the unique strict maximum."""
    batch = run_batch(mech, np.asarray(profile, dtype=float)[None, :], ctx)
    winner = int(batch.winner[0]) if batch.winner[0] >= 0 else None
    top = int(np.argmax(profile))
    return Outcome(
        winner=winner,
        payments=batch.payments[0],
        thresholds=batch.thresholds[0],
        compensations=batch.compensations[0],
        threshold_used=float(batch.thresholds[0, top]),
        welfare=float(batch.welfare[0]),
        revenue=float(batch.revenue[0]),
    )


def agent_outcomes_for_bids(
    mech: Mechanism, i: int, profiles: np.ndarray, bids: np.ndarray, ctx: AuctionContext
):
    """Allocation and payment of agent i for a grid of own reports.

    ``bids`` has shape (N, G) (or (G,), shared across rows); everyone else
    reports truthfully, so agent i's quote (critical bid, compensation and
    threshold price) is fixed per row while the win indicator and any
    report-dependent (broken) pricing vary across the grid.  The bid column
    ``profiles[:, [i]]`` reproduces column i of ``run_batch`` exactly; an agent
    i outside range(n), or a profile or bid outside [0, s_bar], is a
    ValueError.  Returns (win (N, G), payments (N, G), thresholds (N,),
    compensations (N,)).
    """
    if not 0 <= i < ctx.space.n:
        raise ValueError(f"agent {i} is outside range({ctx.space.n})")
    q = _quote(mech, _checked_profiles(profiles, ctx.space), ctx, [i])
    win, payments = _outcomes(mech, q, _checked_signals(bids, ctx.space), ctx)
    return win, payments, q.t, q.compensation


def critical_bid(rule: ThresholdRule, others: np.ndarray, ctx: AuctionContext) -> float:
    """Critical bid against one others-profile of shape (n - 1,), finite
    signals in [0, s_bar] (a ValueError otherwise); always in [max(others), s_bar]."""
    others = np.asarray(others, dtype=float)
    if others.shape != (ctx.space.n - 1,):
        raise ValueError(f"others must have shape ({ctx.space.n - 1},), got {others.shape}")
    view = OthersView.from_others(_checked_signals(others[None, :], ctx.space), ctx.model)
    return float(rule.critical_bids(view, ctx)[0])


def masked_gva(ctx: AuctionContext, chi: float) -> Mechanism:
    """Masked generalized Vickrey auction: the welfare-optimal budget-balanced mechanism.

    At chi = 0 the mask is vacuous (no compensation is ever owed), so the
    plain efficient rule is used.  For chi > 0 compensations are provably
    zero; ``_quote`` checks this for every (row, agent) pair it quotes.
    """
    if not single_crossing_holds(ctx.model, ctx.space):
        raise ModelUnsupportedError("model fails single crossing; efficient rule undefined")
    if chi == 0.0:
        return Mechanism(GVARule(), 0.0, "compensated")
    return Mechanism(MaskedRule(GVARule()), chi, "compensated")
