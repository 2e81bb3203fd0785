#!/usr/bin/env python3
"""The revenue-optimal threshold rule, visualized as a table.

Fixing the rival's report s_j, the seller picks the critical bid t that
maximizes  min{v, v_chi}(t, s_j) - v_chi(t, s_j) * F(t):  sell above t and
charge the smaller of true and cursed value there, compensating nobody who
loses.  For two bidders with v = s_1 + s_2 on uniform [0, 1] signals the
optimum has a closed form, which the grid + golden-section optimizer should
reproduce: t*(s_j) = max(1/4, s_j) when fully cursed, and the classic
monopoly-style t*(s_j) = max((1 - s_j)/2, s_j) when rational.
"""

import numpy as np

from cursed_auctions import RevenueOptimalRule, SignalSpace, UniformIID, WeightedSum, critical_bid, make_context

ctx = make_context(SignalSpace(2, UniformIID(1.0)), WeightedSum(1.0))

print(f"{'s_j':>6} {'t* cursed':>10} {'closed':>8} {'t* rational':>12} {'closed':>8}")
cursed = RevenueOptimalRule(1.0)
rational = RevenueOptimalRule(0.0)
for sj in np.linspace(0.05, 0.95, 10):
    t1 = critical_bid(cursed, np.array([sj]), ctx)
    t0 = critical_bid(rational, np.array([sj]), ctx)
    print(
        f"{sj:>6.2f} {t1:>10.4f} {max(0.25, sj):>8.4f} {t0:>12.4f} {max((1 - sj) / 2, sj):>8.4f}"
    )

print("\nNote the cursed seller's reserve is LOWER (1/4 vs 1/2 at s_j = 0):")
print("cursed bidders bid as if the rival's signal were average, so low-signal")
print("profiles still fetch the cursed price, but the individual-rationality")
print("cap min{v, v_chi} limits what can be charged when the rival is weak.")
