#!/usr/bin/env python3
"""The two-wallet second-price auction, start to finish.

Two bidders each know the money in their own wallet; both wallets together go
to the winner, so the item is worth the SUM of the two private signals.  A
bidder who ignores what being outbid reveals about the rival's wallet values
the item at their own signal plus the rival's unconditional mean -- and ends
up overpaying whenever the rival's wallet is thin.  This script walks through
that story and shows how the masked Vickrey auction repairs it.
"""

import numpy as np

from cursed_auctions import (
    Mechanism,
    RandomStream,
    SignalSpace,
    UniformIID,
    WeightedSum,
    cursed_value,
    make_context,
    masked_gva,
    run,
    sample_profiles,
)
from cursed_auctions.evaluate import wallet_report
from cursed_auctions.mechanisms import GVARule, run_batch
from cursed_auctions.verify import Draw, SamplingPlan, check_epbb, check_epir

space = SignalSpace(2, UniformIID(100.0))
ctx = make_context(space, WeightedSum(1.0))

print("== The naive bid ==")
print("own wallet: $30; rival uniform on [0, 100]")
print("fully cursed value of the item:", cursed_value(ctx.interim, 1.0, np.array([30.0, 0.0]), 0))
rep = wallet_report("U[0,100]", chi=1.0, mc_draws=1_000_000, seed=2024)
print(f"both bid signal + 50; winner's mean utility (1e6 draws): {rep['expected_winner_utility']:.2f}")

print("\n== Partially cursed bid functions ==")
for chi in (0.0, 0.63, 1.0):
    r = wallet_report("U[1,4]", chi=chi, mc_draws=1_000)
    print(f"  chi={chi:4.2f}: bid(s) = {r['bid_slope']:.2f} s + {r['bid_intercept']:.3f}   (lab support [1, 4])")

print("\n== Compensated vs masked auctions on the same profiles ==")
profiles = sample_profiles(space, RandomStream(7), 50_000)
compensated = Mechanism(GVARule(), 1.0, "compensated")
masked = masked_gva(ctx, 1.0)
for name, mech in (("compensated efficient", compensated), ("masked efficient", masked)):
    batch = run_batch(mech, profiles, ctx)
    sold = (batch.winner >= 0).mean()
    print(
        f"  {name:22s} sells {sold:5.1%} of the time, "
        f"mean revenue {batch.revenue.mean():7.2f}, mean welfare {batch.welfare.mean():6.2f}"
    )

print("\nThe mask sells only when the losing wallet holds at least $50,")
print("the point where winning stops being bad news:")
for profile in ([80.0, 60.0], [80.0, 40.0]):
    out = run(masked, np.array(profile), ctx)
    verdict = f"winner pays {out.payments[out.winner]:.0f}" if out.winner is not None else "no sale"
    print(f"  wallets {profile}: {verdict}")

print("\n== Property check ==")
draw = Draw(masked, ctx, SamplingPlan(profile_count=4_000, stream=RandomStream(11)))
print("  masked auction, never pays a loser:", check_epbb(draw).passed)
print("  masked auction, winner never overpays:", check_epir(draw).passed)
