#!/usr/bin/env python3
"""Trust, but verify: property checkers and the brute-force grid oracle.

Every mechanism in the library can be audited two ways: sampled property
checkers (incentive compatibility, individual rationality for true and for
cursed preferences, budget balance, no positive transfers, allocation
monotonicity) and exact enumeration on small discrete grids.  Broken
mechanisms are part of the test bed; the checkers must catch them.
"""

import numpy as np

from cursed_auctions import (
    Mechanism,
    RandomStream,
    RevenueOptimalRule,
    SignalSpace,
    UniformIID,
    WeightedSum,
    make_context,
    masked_gva,
)
from cursed_auctions.mechanisms import GVARule, run_batch
from cursed_auctions.oracle import (
    GridModel,
    brute_force_best_response,
    exact_expectation,
    oracle_payments,
)
from cursed_auctions.testing import RealizedPriceMechanism
from cursed_auctions.verify import CHECKERS, Draw, SamplingPlan

ctx = make_context(SignalSpace(3, UniformIID(1.0)), WeightedSum(0.5))
plan = SamplingPlan(profile_count=3_000, deviation_grid_size=41, stream=RandomStream(5))

print("== Checker scoreboard ==")
mechs = {
    "masked efficient": masked_gva(ctx, 1.0),
    "revenue-optimal": Mechanism(RevenueOptimalRule(1.0), 1.0, "compensated"),
    "compensated efficient": Mechanism(GVARule(), 1.0, "compensated"),
    "zero-transfer efficient": Mechanism(GVARule(), 1.0, "zero-transfer"),
    "broken realized-price": RealizedPriceMechanism(GVARule(), 1.0, "compensated"),
}
header = f"{'mechanism':>24} " + " ".join(f"{k:>10}" for k in CHECKERS)
print(header)
for name, mech in mechs.items():
    draw = Draw(mech, ctx, plan)  # the same sample for every checker, each drawing it in one pass over its spans
    cells = ["pass" if checker(draw).passed else "FAIL" for checker in CHECKERS.values()]
    print(f"{name:>24} " + " ".join(f"{c:>10}" for c in cells))

print("\n== Exact enumeration on a 3-point grid ==")
grid = GridModel(n=2, m=3, model=WeightedSum(1.0), chi=1.0)
gctx = grid.context()
mech = Mechanism(GVARule(), 1.0, "compensated")
print("expected revenue over all 9 profiles:", exact_expectation(grid, mech, "revenue", gctx))
profiles = grid.all_profiles()
batch = run_batch(mech, profiles, gctx)
gap = np.abs(batch.payments - oracle_payments(grid, batch.thresholds, profiles)).max()
print("max |mechanism - oracle| payment gap:", gap)
br = brute_force_best_response(grid, masked_gva(gctx, 1.0), 0, gctx)  # every own signal and others-profile
print("masked efficient worst truthful regret on the grid:", br.regret)
