"""Control mechanisms and rules used only by tests and the oracle-check suite.

Each broken mechanism violates exactly one property the checkers are supposed
to catch; ``ConstantOffsetRule`` is a valid but deliberately suboptimal rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mechanisms import Mechanism, ThresholdRule
from .valuations import cursed_value_from_parts, value_from_own_and_stat

__all__ = [
    "RealizedPriceMechanism",
    "LoserSurchargeMechanism",
    "IntervalAllocationMechanism",
    "ConstantOffsetRule",
]


class RealizedPriceMechanism(Mechanism):
    """Charges the winner the cursed value at the *reported* profile instead of
    at the critical bid; underbidding then lowers the price, breaking
    incentive compatibility."""

    def _winner_payments(self, bids, q, ctx):
        v_rep = value_from_own_and_stat(ctx.model, bids, q.stat[:, None])
        mu_rep = ctx.interim.expected_value(bids)
        return cursed_value_from_parts(v_rep, mu_rep, self.chi)


class LoserSurchargeMechanism(Mechanism):
    """Adds a flat 0.01 charge to every loser, violating participation
    rationality for losing bidders."""

    def _compensations(self, q, ctx):
        return super()._compensations(q, ctx) + 0.01


class IntervalAllocationMechanism(Mechanism):
    """Wins only on a bounded bid interval above the critical bid, so the
    allocation is not monotone in the own report."""

    def __init__(self, rule, chi, payment_policy="compensated", window: float = 0.1):
        super().__init__(rule, chi, payment_policy)
        self.window = window

    def _win(self, bids, q, ctx):
        t_col = q.t[:, None]
        width = self.window * ctx.s_bar
        return (np.asarray(bids) > t_col) & (np.asarray(bids) < t_col + width)


@dataclass
class ConstantOffsetRule(ThresholdRule):
    """max(others) + c, capped at s_bar.  A deliberately suboptimal control rule."""

    offset: float

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError("offset must be non-negative")

    def critical_bids(self, view, ctx):
        return np.minimum(view.max + self.offset, ctx.s_bar)
