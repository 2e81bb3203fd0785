"""The one worst-case reducer behind every sampled check: it keeps the reports
the hand-written per-checker loops produced (values recorded from them),
lists the largest positive margins, largest first, and gives the same report
however the cases are cut into runs."""

import itertools
import json

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
from cursed_auctions.verify import (
    Draw,
    SamplingPlan,
    check_allocation_monotone,
    check_cepic,
    check_chi_robustness,
)


def _one_run(margins):
    """``margins`` as a single run whose witness names the case."""
    return [(margins, lambda k: {"case": k})]


def _runs(margins, cuts):
    """``margins`` cut before each index in ``cuts``, each run's witness naming
    the case by its index in the whole."""
    edges = [0, *cuts, len(margins)]
    for a, b in zip(edges, edges[1:]):
        yield margins[a:b], lambda k, a=a: {"case": a + k}


def test_worst_case_keeps_the_largest_positive_margins():
    margins = np.array([-1.0, 0.5, 2.0, 0.0, 3.0, 1.0, -np.inf, 1.5, 0.25])
    rep = _worst_case("toy", _one_run(margins), 0.1, 9)
    assert rep.max_violation == 3.0 and not rep.passed and rep.samples_checked == 9
    assert [w["margin"] for w in rep.witnesses] == [3.0, 2.0, 1.5, 1.0, 0.5]
    assert [w["case"] for w in rep.witnesses] == [4, 2, 7, 5, 1]


@pytest.mark.parametrize("count", [10, 10_000])
def test_tied_margins_name_the_first_rows(count):
    margins = np.ones(count)
    margins[2] = 0.0
    rep = _worst_case("toy", _one_run(margins), 0.0, count)
    assert [w["case"] for w in rep.witnesses] == [0, 1, 3, 4, 5]
    margins[[count - 1, 6]] = np.nan, 2.0  # NaN first, then the largest
    rep = _worst_case("toy", _one_run(margins), 0.0, count)
    assert [w["case"] for w in rep.witnesses] == [count - 1, 6, 0, 1, 3]


def test_every_cut_gives_the_one_run_report():
    """Every way of cutting the cases into runs, cuts inside the ties of 2.0
    and next to each NaN included, gives the report of one run."""
    report = lambda runs: json.dumps(_worst_case("toy", runs, 0.0, 12).to_json())  # NaN != NaN, its text is equal
    margins = np.array([0.5, 2.0, 2.0, np.nan, 2.0, -1.0, 3.0, 2.0, 0.0, np.nan, 1.0, 2.0])
    one = _worst_case("toy", _one_run(margins), 0.0, 12)
    assert np.isnan(one.max_violation) and [w["case"] for w in one.witnesses] == [3, 9, 6, 1, 2]
    no_nan = np.nan_to_num(margins, nan=-1.0)
    assert [w["case"] for w in _worst_case("toy", _one_run(no_nan), 0.0, 12).witnesses] == [6, 1, 2, 4, 7]
    for m in (margins, no_nan):
        whole = report(_one_run(m))
        for count in range(1, len(m)):
            for cuts in itertools.combinations(range(1, len(m)), count):
                assert report(_runs(m, cuts)) == whole, cuts


def test_tied_allocation_drops_name_the_first_profiles():
    ctx = make_context(SignalSpace(3, UniformIID(1.0)), WeightedSum(0.5))
    plan = SamplingPlan(profile_count=10_000, deviation_grid_size=11, stream=RandomStream(2024))
    draw = Draw(IntervalAllocationMechanism(GVARule(), 0.5), ctx, plan)
    rep = check_allocation_monotone(draw)
    assert rep.samples_checked == 10_000 and [w["margin"] for w in rep.witnesses] == [1.0] * _MAX_WITNESSES
    assert [w["profile"] for w in rep.witnesses] == draw.profiles[:_MAX_WITNESSES].tolist()


def test_worst_case_without_violations():
    rep = _worst_case("toy", _one_run(np.array([-2.0, 0.0, -np.inf])), 0.0, 3)
    assert rep.max_violation == 0.0 and rep.passed and rep.witnesses == []
    assert _worst_case("toy", [(np.empty((0, 4)), None)], 0.0, 0).max_violation == 0.0
    assert _worst_case("toy", [], 0.0, 0).max_violation == 0.0


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


def _realized_price_draw():
    ctx = make_context(SignalSpace(3, UniformIID(1.0)), WeightedSum(0.5))
    plan = SamplingPlan(profile_count=1500, deviation_grid_size=41, stream=RandomStream(2024))
    return Draw(RealizedPriceMechanism(GVARule(), 0.5, "compensated"), ctx, plan)


def _realized_price_chi_robustness():
    return check_chi_robustness(_realized_price_draw(), [0.0, 0.05, 0.1])


def _realized_price_cepic():
    return check_cepic(_realized_price_draw())


def _interval_allocation_monotone():
    ctx = make_context(SignalSpace(3, UniformIID(1.0)), WeightedSum(0.5))
    plan = SamplingPlan(profile_count=2000, deviation_grid_size=11, stream=RandomStream(2024))
    return check_allocation_monotone(Draw(IntervalAllocationMechanism(GVARule(), 0.5), ctx, plan))


# (report, max_violation, samples_checked, first witness) as the per-checker loops reported them;
# the cepic and allocation_monotone values come from the one-call, whole-sample reducer
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
    "cepic_realized_price": (
        _realized_price_cepic,
        0.9022193002467409,
        1500,
        {
            "profile": [0.018589375387154772, 0.015104581681607554, 0.9208096756338957],
            "agent": 2,
            "deviation": 0.018590375387154773,
            "margin": 0.9022193002467409,
        },
    ),
    "allocation_monotone_interval": (
        _interval_allocation_monotone,
        1.0,
        2000,
        {
            "profile": [0.7539532404108791, 0.6536530412806927, 0.8305111850799092],
            "agent": 0,
            "drop_at": 0.935,
            "margin": 1.0,
        },
    ),
}


# small chunks: one row per cursedness run, 500 // n^2 rows per single-crossing run, 11 rows per
# deviation run at 41 bids and 2 rows per allocation run
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
