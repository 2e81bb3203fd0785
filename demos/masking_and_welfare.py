#!/usr/bin/env python3
"""Masking: the budget-balance repair, and what it costs in welfare.

A masked rule refuses to sell whenever selling would require compensating the
winner.  Two extremes:

* pure common value (everyone values the item at the highest signal): every
  winner below the top of the support is cursed, so the masked auction never
  sells and welfare collapses to zero;
* additive values: the winner is curse-free as soon as the others' signals
  sum above their mean, an event of probability -> 1/2, so masking keeps
  about half of the optimal welfare as n grows.
"""

from cursed_auctions import MaxSignal, SignalSpace, UniformIID, WeightedSum, make_context, masked_gva
from cursed_auctions.evaluate import estimate_many, event_probability, optimal_welfare

print("== Pure common value: total collapse ==")
for n in (2, 5):
    ctx = make_context(SignalSpace(n, UniformIID(1.0)), MaxSignal())
    reps = estimate_many(masked_gva(ctx, 0.5), ctx, ["allocation_prob", "welfare"], 50_000, seed=2024)
    print(f"  n={n}: sells {reps['allocation_prob'].mean:.0%} of the time, welfare {reps['welfare'].mean:.0f}")

print("\n== Additive values: half of the optimum survives ==")
print(f"{'n':>5} {'sell prob':>10} {'masked W':>10} {'optimal W':>10} {'ratio':>7}")
for n in (5, 20, 50, 200):
    ctx = make_context(SignalSpace(n, UniformIID(1.0)), WeightedSum(0.5))
    reps = estimate_many(masked_gva(ctx, 1.0), ctx, ["welfare", "allocation_prob"], 50_000, seed=2024)
    w, sold = reps["welfare"], reps["allocation_prob"]
    opt = optimal_welfare(ctx, 50_000, seed=2024)
    print(f"{n:>5} {sold.mean:>10.3f} {w.mean:>10.2f} {opt.mean:>10.2f} {w.mean / opt.mean:>7.3f}")

print("\nThe sale requires the others' mean transform to clear its expectation:")
ctx = make_context(SignalSpace(2, UniformIID(1.0)), WeightedSum(0.5))
for n in (10, 100, 1000):
    p = event_probability(ctx, n, 50_000, seed=2024)
    print(f"  P[mean h >= E h + sup h / n] at n={n}: {p.mean:.4f}  (limit 1/2)")
