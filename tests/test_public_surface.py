"""Guards on the public surface: ``__all__`` lists only names that exist, the
package re-exports only names its home modules declare public, and the public
names are exactly the recorded ones, so a second spelling of a concept (a
one-line alias function, a serializer mirroring a parser) cannot come back
unnoticed."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import cursed_auctions

# Every module's ``__all__``, 81 names in total; adding or deleting a public
# name is a change to this record.
PUBLIC = {
    "cli": ["ConfigError", "ExperimentConfig", "main"],
    "evaluate": [
        "EstimateReport", "METRICS", "SCHEMA_VERSION", "chi_sweep", "conditional_welfare", "estimate",
        "estimate_many", "event_probability", "optimal_welfare", "wallet_report", "write_estimates_csv",
        "write_outcomes_csv",
    ],
    "mechanisms": [
        "AuctionContext", "BatchOutcome", "GVARule", "MaskedRule", "Mechanism", "MechanismInvariantError",
        "ModelUnsupportedError", "OthersView", "Outcome", "RevenueOptimalRule", "ThresholdRule",
        "agent_outcomes_for_bids", "critical_bid", "make_context", "masked_gva", "rule_from_config", "run",
        "run_batch",
    ],
    "oracle": [
        "BestResponse", "GridModel", "brute_force_best_response", "brute_force_rev_optimal_threshold",
        "exact_expectation", "exact_interim_mu", "oracle_payments",
    ],
    "reports": ["CheckReport"],
    "signals": [
        "DiscreteGridIID", "GenericIID", "Marginal", "RandomStream", "SignalSpace", "UniformIID",
        "marginal_from_config", "sample_profiles",
    ],
    "testing": ["ConstantOffsetRule", "IntervalAllocationMechanism", "LoserSurchargeMechanism", "RealizedPriceMechanism"],
    "valuations": [
        "ConcaveSum", "InterimCache", "MaxSignal", "ScalarMap", "ValuationModel", "WeightedSum",
        "check_cursedness_monotonicity", "check_single_crossing", "cursed_value", "cursed_value_from_parts",
        "cursed_virtual_value", "make_interim_cache", "model_from_config", "others_stat", "value",
        "value_from_own_and_stat", "value_scale",
    ],
    "verify": [
        "CHECKERS", "Draw", "SamplingPlan", "check_allocation_monotone", "check_cepic", "check_cepir",
        "check_chi_robustness", "check_epbb", "check_epir", "check_no_positive_transfers",
        "check_payment_chi_monotone",
    ],
}


def _reexports():
    """(home module, name) for every ``from .module import name`` in __init__.py."""
    tree = ast.parse(Path(cursed_auctions.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_all_is_the_recorded_surface_and_resolves(module):
    mod = importlib.import_module(f"cursed_auctions.{module}")
    assert sorted(mod.__all__) == PUBLIC[module]
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_record_counts_81_names():
    assert sum(len(names) for names in PUBLIC.values()) == 81


def test_package_reexports_only_public_names():
    for module, name in _reexports():
        home = importlib.import_module(f"cursed_auctions.{module}")
        assert name in home.__all__, f"{name} is not in {module}.__all__"
        assert getattr(cursed_auctions, name) is getattr(home, name)


def test_package_namespace_holds_only_reexports():
    """Nothing outside the re-exports (so no deleted name) imports from the package."""
    public = {
        name
        for name, obj in vars(cursed_auctions).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert public == {name for _module, name in _reexports()}


def test_config_flows_one_way():
    """Config is parsed from JSON by ``*_from_config`` and never serialized
    back: no public class carries a config method other than ``from_config``."""
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"cursed_auctions.{module}")
        for name in names:
            obj = getattr(mod, name)
            if isinstance(obj, type):
                extra = [attr for attr in dir(obj) if "config" in attr and attr != "from_config"]
                assert extra == [], f"{module}.{name}: {extra}"
