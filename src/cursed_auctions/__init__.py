"""Single-item interdependent-value auctions for bidders prone to the winner's
curse: cursed valuations, individually rational compensated payments, the
revenue-optimal threshold rule, masking, and the masked generalized Vickrey
auction, together with property checkers, a brute-force oracle, and Monte
Carlo evaluation."""

from .mechanisms import (
    AuctionContext,
    GVARule,
    MaskedRule,
    Mechanism,
    ModelUnsupportedError,
    Outcome,
    RevenueOptimalRule,
    ThresholdRule,
    critical_bid,
    make_context,
    masked_gva,
    run,
    run_batch,
)
from .reports import CheckReport
from .signals import (
    DiscreteGridIID,
    GenericIID,
    RandomStream,
    SignalSpace,
    UniformIID,
    sample_profiles,
)
from .valuations import (
    ConcaveSum,
    InterimCache,
    MaxSignal,
    ScalarMap,
    WeightedSum,
    check_cursedness_monotonicity,
    check_single_crossing,
    cursed_value,
    cursed_virtual_value,
    make_interim_cache,
    value,
)

__version__ = "0.1.0"
