"""Exact brute-force computations on small discrete signal grids.

Everything here is an independent cross-check of the mechanism module: interim
expectations come from full enumeration of the others' grid profiles,
expectations from full enumeration of all grid profiles, optimal thresholds
from exhaustive scans, and incentive checks from one deviation search over all
grid profiles.  Sums are accumulated with ``math.fsum`` (exactly rounded
compensated summation), so enumeration results carry no accumulation error.

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
from .valuations import ValuationModel, _check_chi, _sorted_unique, value

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
        _check_chi(self.chi)
        if not 0.0 < self.s_bar < np.inf:
            raise ValueError(f"s_bar must be positive and finite, got {self.s_bar}")

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


def oracle_payments(grid: GridModel, thresholds: np.ndarray, profiles: np.ndarray) -> np.ndarray:
    """Payments recomputed from first principles, independent of the mechanism
    module: winners pay the smaller of true and cursed value at their critical
    bid, everyone else receives the compensating constant
    min{0, v - cursed v} at their critical bid (zero when it is s_bar).
    Ties at the top never win.
    """
    profiles = np.atleast_2d(profiles)
    out = np.empty_like(profiles, dtype=float)
    for i in range(grid.n):  # one pass per agent column, all rows at once
        t = thresholds[:, i]
        v_t = value(grid.model, np.column_stack([t, np.delete(profiles, i, axis=1)]), 0)
        t_unique, at = np.unique(t, return_inverse=True)
        mu_t = np.array([_interim_mu_at(grid, float(x)) for x in t_unique])[at]
        vchi_t = (1.0 - grid.chi) * v_t + grid.chi * mu_t
        comp = np.where(t >= grid.s_bar, 0.0, np.minimum(0.0, v_t - vchi_t))
        # strict: implies a unique maximum since t >= max(others)
        out[:, i] = np.where(profiles[:, i] > t, np.minimum(v_t, vchi_t), comp)
    return out


def _threshold_revenue_exact(grid: GridModel, t: float, others: np.ndarray) -> float:
    """The threshold revenue at one (t, others) point; the scalar form of the
    objective ``brute_force_rev_optimal_threshold`` scores."""
    if t >= grid.s_bar:
        return 0.0
    v_t = float(value(grid.model, np.concatenate(([t], others)), 0))
    vchi_t = (1.0 - grid.chi) * v_t + grid.chi * _interim_mu_at(grid, t)
    cdf = float(np.sum(grid.points <= t + 1e-12)) / grid.m
    return min(v_t, vchi_t) - vchi_t * cdf


def brute_force_rev_optimal_threshold(grid: GridModel, others: np.ndarray) -> np.ndarray:
    """Exhaustive scan of the threshold-revenue objective over every distinct
    allocation behavior on the grid, for each others-profile row of ``others``
    (one (n - 1,) row also works); smallest argmax per row, with t = s_bar
    worth 0.

    Because winning requires a report strictly above the threshold, a grid
    atom g can either lose (t = g) or win (any t just below g): the objective
    jumps down at atoms, so its supremum can sit immediately below one.  The
    candidate set therefore contains every atom at or above max(others) plus
    a point a hair below each admissible atom; atoms alone are not exhaustive.
    All rows share one ascending candidate array, scored in one pass: the
    exact interim mean and the CDF once per candidate, the value once per
    (row, candidate) pair; a row's inadmissible candidates never win.
    """
    others = np.atleast_2d(np.asarray(others, dtype=float))
    lo = others.max(axis=1)[:, None]
    atoms = grid.points
    shifted = atoms - 1e-9 * grid.s_bar
    cands = _sorted_unique(np.concatenate((atoms, shifted, [grid.s_bar])))
    # each array holds a value once; assuming so also spares numpy's unique, which imports numpy.ma
    is_atom = np.isin(cands, atoms, assume_unique=True)
    is_shifted = np.isin(cands, shifted, assume_unique=True)
    ok = (is_atom & (cands >= lo - 1e-12)) | (is_shifted & (cands >= lo))
    keep = ok.any(axis=0) | (cands == grid.s_bar)  # s_bar: every row's fallback, worth 0
    cands, ok = cands[keep], ok[:, keep]
    profs = np.empty((len(others), len(cands), grid.n))  # (row, candidate, agent), own signal first
    profs[..., 0], profs[..., 1:] = cands, others[:, None, :]
    v = value(grid.model, profs, 0)
    mu = np.array([_interim_mu_at(grid, float(t)) for t in cands])
    vchi = (1.0 - grid.chi) * v + grid.chi * mu
    cdf = np.count_nonzero(atoms <= cands[:, None] + 1e-12, axis=1) / grid.m
    r = np.minimum(v, vchi) - vchi * cdf
    # a candidate moves a row's answer off s_bar only when it earns more than 0
    gain = np.where(ok & (cands < grid.s_bar) & (r > 0.0), r, 0.0)
    best = np.argmax(gain, axis=1)  # ascending candidates, so ties keep the smallest threshold
    return np.where(gain[np.arange(len(others)), best] > 0.0, cands[best], grid.s_bar)


@dataclass
class BestResponse:
    """Worst-case truthful regret of one agent over all (own, others) grid profiles."""

    regret: float
    best_bid: float
    best_utility: float
    truthful_utility: float
    witness_own: float
    witness_others: list


def brute_force_best_response(
    grid: GridModel, mech: Mechanism, i: int, ctx: Optional[AuctionContext] = None
) -> BestResponse:
    """Exhaustive deviation search: at every own grid signal and others-profile,
    the cursed utility of every grid bid, through the mechanism itself, against
    truthful reporting.  The cursed value uses the oracle's exact interim
    expectation, keeping the check independent of the mechanism's cache.  An
    agent i outside range(n) is a ValueError."""
    if not 0 <= i < grid.n:
        raise ValueError(f"agent {i} is outside range({grid.n})")
    ctx = ctx or grid.context()
    others = grid.others_profiles()
    bids = grid.points
    own_k = np.repeat(np.arange(grid.m), len(others))  # own signal major
    profiles = np.insert(np.tile(others, (grid.m, 1)), i, bids[own_k], axis=1)
    mu_own = np.array([_interim_mu_at(grid, float(s)) for s in bids])[own_k]
    vchi = (1.0 - grid.chi) * value(grid.model, profiles, i) + grid.chi * mu_own
    win, pay, _t, _c = agent_outcomes_for_bids(mech, i, profiles, bids, ctx)
    utils = win * vchi[:, None] - pay
    rows = np.arange(len(profiles))
    u_truth = utils[rows, own_k]
    best_k = np.argmax(utils, axis=1)
    regrets = utils[rows, best_k] - u_truth
    r = int(np.argmax(regrets))
    return BestResponse(
        regret=float(regrets[r]),
        best_bid=float(bids[best_k[r]]),
        best_utility=float(utils[r, best_k[r]]),
        truthful_utility=float(u_truth[r]),
        witness_own=float(bids[own_k[r]]),
        witness_others=others[r % len(others)].tolist(),
    )
