"""Exact brute-force computations on small discrete signal grids.

Everything here is an independent cross-check of the mechanism module: interim
expectations come from full enumeration of the others' grid profiles,
expectations from full enumeration of all grid profiles, optimal thresholds
from exhaustive scans, and incentive checks from exhaustive deviation search.
Sums are accumulated with ``math.fsum`` (exactly rounded compensated
summation), so enumeration results carry no accumulation error.

Grids are deliberately capped at n <= 4 bidders and m <= 21 points; beyond
that enumeration is not the point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .mechanisms import (
    AuctionContext,
    Mechanism,
    agent_outcomes_for_bids,
    make_context,
)
from .signals import DiscreteGridIID, SignalSpace
from .valuations import ValuationModel, value

__all__ = [
    "GridModel",
    "exact_interim_mu",
    "exact_expectation",
    "oracle_payments",
    "brute_force_rev_optimal_threshold",
    "brute_force_best_response",
    "BestResponse",
]

_MAX_N = 4
_MAX_M = 21


@dataclass(frozen=True)
class GridModel:
    """n bidders, m equally spaced grid points on [0, s_bar] with uniform mass."""

    n: int
    m: int
    model: ValuationModel
    chi: float
    s_bar: float = 1.0

    def __post_init__(self):
        if not (2 <= self.n <= _MAX_N):
            raise ValueError(f"grid oracle supports 2 <= n <= {_MAX_N}, got {self.n}")
        if not (1 <= self.m <= _MAX_M):
            raise ValueError(f"grid oracle supports 1 <= m <= {_MAX_M}, got {self.m}")
        if not (0.0 <= self.chi <= 1.0):
            raise ValueError("chi must lie in [0, 1]")

    @property
    def points(self) -> np.ndarray:
        if self.m == 1:
            return np.array([0.0])
        return np.linspace(0.0, self.s_bar, self.m)

    def space(self) -> SignalSpace:
        return SignalSpace(self.n, DiscreteGridIID(points=tuple(self.points)))

    def context(self) -> AuctionContext:
        return make_context(self.space(), self.model)

    def all_profiles(self) -> np.ndarray:
        return np.array(list(itertools.product(self.points, repeat=self.n)))

    def others_profiles(self) -> np.ndarray:
        return _others_profiles_cached(self)


@lru_cache(maxsize=64)
def _others_profiles_cached(grid: GridModel) -> np.ndarray:
    return np.array(list(itertools.product(grid.points, repeat=grid.n - 1)))


@lru_cache(maxsize=65536)
def _interim_mu_at(grid: GridModel, s_own: float) -> float:
    """Exact enumeration mean of v(s_own, others); cached because payment
    reconstruction queries the same thresholds over and over."""
    others = grid.others_profiles()
    profs = np.concatenate([np.full((len(others), 1), s_own), others], axis=1)
    vals = value(grid.model, profs, 0)
    return math.fsum(float(x) for x in vals) / len(vals)


def exact_interim_mu(grid: GridModel, s_own: float) -> float:
    """Exact average of v(s_own, others) over all grid others-profiles.

    ``s_own`` must be a grid point; off-grid queries are a domain error.
    """
    if not np.any(np.isclose(grid.points, s_own, atol=1e-12)):
        raise ValueError(f"s_own={s_own} is not on the grid")
    return _interim_mu_at(grid, float(s_own))


def exact_expectation(grid: GridModel, mech: Mechanism, metric: str, ctx: Optional[AuctionContext] = None) -> float:
    """Exact average of a per-auction metric over all m**n grid profiles."""
    from .evaluate import _metric_values

    ctx = ctx or grid.context()
    profiles = grid.all_profiles()
    vals = _metric_values(metric, mech, profiles, ctx)
    return math.fsum(float(x) for x in vals) / len(vals)


def _price_parts(grid: GridModel, t: float, others: np.ndarray):
    v_t = float(value(grid.model, np.concatenate(([t], others)), 0))
    mu_t = _interim_mu_at(grid, t)
    vchi_t = (1.0 - grid.chi) * v_t + grid.chi * mu_t
    return v_t, vchi_t


def oracle_payments(grid: GridModel, thresholds: np.ndarray, profiles: np.ndarray) -> np.ndarray:
    """Payments recomputed from first principles, independent of the mechanism
    module: winners pay the smaller of true and cursed value at their critical
    bid, everyone else receives the compensating constant
    min{0, v - cursed v} at their critical bid (zero when it is s_bar).
    Ties at the top never win.
    """
    profiles = np.atleast_2d(profiles)
    out = np.empty_like(profiles, dtype=float)
    for r, row in enumerate(profiles):
        for i in range(grid.n):
            others = np.delete(row, i)
            t = float(thresholds[r, i])
            if t >= grid.s_bar:
                comp = 0.0
            else:
                v_t, vchi_t = _price_parts(grid, t, others)
                comp = min(0.0, v_t - vchi_t)
            if row[i] > t:  # strict: implies a unique maximum since t >= max(others)
                v_t, vchi_t = _price_parts(grid, t, others)
                out[r, i] = min(v_t, vchi_t)
            else:
                out[r, i] = comp
    return out


def _threshold_revenue_exact(grid: GridModel, t: float, others: np.ndarray) -> float:
    if t >= grid.s_bar:
        return 0.0
    v_t, vchi_t = _price_parts(grid, t, others)
    cdf = float(np.sum(grid.points <= t + 1e-12)) / grid.m
    return min(v_t, vchi_t) - vchi_t * cdf


def brute_force_rev_optimal_threshold(grid: GridModel, others: np.ndarray) -> float:
    """Exhaustive scan of the threshold-revenue objective over every distinct
    allocation behavior on the grid; smallest argmax, with t = s_bar worth 0.

    Because winning requires a report strictly above the threshold, a grid
    atom g can either lose (t = g) or win (any t just below g): the objective
    jumps down at atoms, so its supremum can sit immediately below one.  The
    candidate set therefore contains every atom at or above max(others) plus
    a point a hair below each admissible atom; atoms alone are not exhaustive.
    """
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
    for t in sorted(cands):  # ascending, so ties keep the smallest threshold
        r = _threshold_revenue_exact(grid, t, others)
        if r > best_r:
            best_t, best_r = t, r
    return best_t


@dataclass
class BestResponse:
    """Worst-case truthful regret of one agent over all grid others-profiles."""

    regret: float
    best_bid: float
    best_utility: float
    truthful_utility: float
    witness_others: Optional[list]


def brute_force_best_response(
    grid: GridModel, mech: Mechanism, i: int, s_own: float, ctx: Optional[AuctionContext] = None
) -> BestResponse:
    """Exhaustive deviation search: for every grid others-profile, evaluate the
    cursed utility of every grid bid through the mechanism itself and compare
    with truthful reporting.  The cursed value uses the oracle's exact interim
    expectation, keeping the check independent of the mechanism's cache.
    """
    ctx = ctx or grid.context()
    others = grid.others_profiles()
    bids = grid.points
    mu_own = _interim_mu_at(grid, float(s_own))
    profiles = np.insert(others, i, s_own, axis=1)
    v_true = np.array([float(value(grid.model, p, i)) for p in profiles])
    vchi = (1.0 - grid.chi) * v_true + grid.chi * mu_own
    win, pay, _t, _c = agent_outcomes_for_bids(mech, i, profiles, bids, ctx)
    utils = win * vchi[:, None] - pay
    truth_k = int(np.argmin(np.abs(bids - s_own)))
    u_truth = utils[:, truth_k]
    best_k = np.argmax(utils, axis=1)
    rows = np.arange(len(others))
    regrets = utils[rows, best_k] - u_truth
    r = int(np.argmax(regrets))
    return BestResponse(
        regret=float(regrets[r]),
        best_bid=float(bids[best_k[r]]),
        best_utility=float(utils[r, best_k[r]]),
        truthful_utility=float(u_truth[r]),
        witness_others=others[r].tolist(),
    )
