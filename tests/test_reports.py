"""The one worst-case reducer behind every sampled check: it keeps the reports
the hand-written per-checker loops produced (values recorded from them) and
lists the largest positive margins, largest first."""

import numpy as np
import pytest

from cursed_auctions import valuations
from cursed_auctions.mechanisms import GVARule, make_context
from cursed_auctions.reports import _MAX_WITNESSES, _worst_case
from cursed_auctions.signals import RandomStream, SignalSpace, UniformIID
from cursed_auctions.testing import IntervalAllocationMechanism, RealizedPriceMechanism
from cursed_auctions.valuations import (
    ConcaveSum,
    ScalarMap,
    WeightedSum,
    check_cursedness_monotonicity,
    check_single_crossing,
    make_interim_cache,
)
from cursed_auctions.verify import Draw, SamplingPlan, check_allocation_monotone, check_chi_robustness


def test_worst_case_keeps_the_largest_positive_margins():
    margins = np.array([-1.0, 0.5, 2.0, 0.0, 3.0, 1.0, -np.inf, 1.5, 0.25])
    rep = _worst_case("toy", margins, 0.1, 9, lambda k: {"case": k})
    assert rep.max_violation == 3.0 and not rep.passed and rep.samples_checked == 9
    assert [w["margin"] for w in rep.witnesses] == [3.0, 2.0, 1.5, 1.0, 0.5]
    assert [w["case"] for w in rep.witnesses] == [4, 2, 7, 5, 1]


@pytest.mark.parametrize("count", [10, 10_000])
def test_tied_margins_name_the_first_rows(count):
    margins = np.ones(count)
    margins[2] = 0.0
    rep = _worst_case("toy", margins, 0.0, count, lambda k: {"case": k})
    assert [w["case"] for w in rep.witnesses] == [0, 1, 3, 4, 5]
    margins[[count - 1, 6]] = np.nan, 2.0  # NaN first, then the largest
    rep = _worst_case("toy", margins, 0.0, count, lambda k: {"case": k})
    assert [w["case"] for w in rep.witnesses] == [count - 1, 6, 0, 1, 3]


def test_tied_allocation_drops_name_the_first_profiles():
    ctx = make_context(SignalSpace(3, UniformIID(1.0)), WeightedSum(0.5))
    plan = SamplingPlan(profile_count=10_000, deviation_grid_size=11, stream=RandomStream(2024))
    draw = Draw(IntervalAllocationMechanism(GVARule(), 0.5), ctx, plan)
    rep = check_allocation_monotone(draw)
    assert rep.samples_checked == 10_000 and [w["margin"] for w in rep.witnesses] == [1.0] * _MAX_WITNESSES
    assert [w["profile"] for w in rep.witnesses] == draw.profiles[:_MAX_WITNESSES].tolist()


def test_worst_case_without_violations():
    rep = _worst_case("toy", np.array([-2.0, 0.0, -np.inf]), 0.0, 3, lambda k: {"case": k})
    assert rep.max_violation == 0.0 and rep.passed and rep.witnesses == []
    assert _worst_case("toy", np.empty((0, 4)), 0.0, 0, None).max_violation == 0.0


def _bent_cursedness():
    """The log1p cache with its interim table bent so overestimation stops persisting."""
    identity = ScalarMap("identity")
    cache = make_interim_cache(
        SignalSpace(3, UniformIID(1.0)), ConcaveSum(ScalarMap("log1p_scaled", (1.0,)), identity, identity)
    )
    cache._grid_mu = cache._grid_mu + 0.3 * np.sin(7.0 * cache._grid_s)
    return check_cursedness_monotonicity(cache, sample_count=10_000, stream=RandomStream(11))


def _steep_single_crossing():
    return check_single_crossing(WeightedSum(1.5), SignalSpace(3, UniformIID(1.0)), 10_000, RandomStream(7))


def _realized_price_chi_robustness():
    ctx = make_context(SignalSpace(3, UniformIID(1.0)), WeightedSum(0.5))
    plan = SamplingPlan(profile_count=1500, deviation_grid_size=41, stream=RandomStream(2024))
    draw = Draw(RealizedPriceMechanism(GVARule(), 0.5, "compensated"), ctx, plan)
    return check_chi_robustness(draw, [0.0, 0.05, 0.1])


# (report, max_violation, samples_checked, first witness) as the per-checker loops reported them
CONTROLS = {
    "cursedness_bent_table": (
        _bent_cursedness,
        0.4240711147503773,
        10_000,
        {
            "others": [0.6759873835091338, 0.7384845580801261],
            "shrunk": [0.6527917845193284, 0.6708410873373614],
            "own": 0.6875,
            "margin": 0.4240711147503773,
        },
    ),
    "single_crossing_beta_1.5": (
        _steep_single_crossing,
        0.4987591050567821,
        10_000,
        {
            "profile": [0.002238579743764735, 0.9997567898573294, 0.8412296307117774],
            "pair": [1, 0],
            "margin": 0.4987591050567821,
        },
    ),
    "chi_robustness_realized_price": (
        _realized_price_chi_robustness,
        0.9022193002467409,
        4500,
        {
            "profile": [0.018589375387154772, 0.015104581681607554, 0.9208096756338957],
            "eps": 0.0,
            "regret": 0.9022193002467409,
            "bound": 0.0,
            "margin": 0.9022193002467409,
        },
    ),
}


# small chunks: one row per cursedness chunk and 500 // n^2 rows per single-crossing chunk
@pytest.mark.parametrize("chunk_cells", [None, 4 * 500], ids=["default_chunks", "small_chunks"])
@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_reducer_keeps_the_loop_reports(name, chunk_cells, monkeypatch):
    make, max_violation, samples_checked, first = CONTROLS[name]
    if chunk_cells is not None:
        monkeypatch.setattr(valuations, "_CHUNK_CELLS", chunk_cells)
    rep = make()
    assert rep.max_violation == max_violation and not rep.passed
    assert rep.samples_checked == samples_checked
    assert rep.witnesses[0] == first
    margins = [w["margin"] for w in rep.witnesses]
    assert 1 <= len(margins) <= _MAX_WITNESSES
    assert margins == sorted(margins, reverse=True) and margins[-1] > 0
