"""ticketsim: simulator and analytic valuation toolkit for a lottery-based
execution-rights ticket economy.

The package splits into:

* ``core``      model constants and reward distributions
* ``analytics`` closed-form valuations and the series sums of the oracles
* ``engine``    the Monte Carlo samplers of the slot lottery
* ``quantities`` one table of every quantity: closed form, oracle, estimator
* ``market``    pricing policies and the consecutive-win bonus
* ``config`` / ``report`` / ``harness`` / ``cli``   experiment plumbing

Importing the package loads no submodule: each public name below is
imported from its submodule on first access (PEP 562). numpy loads only
where a sampler draws (or an empirical reward is built), so the closed
forms, the oracles and the closed-form commands never load it.
"""

import importlib

_EXPORTS = {
    "analytics": (
        "control_value", "control_value_derivative_n", "expected_slots_to_win",
        "expected_ticket_value", "issued_market_cap", "npv_rewards", "slots_to_win_variance",
        "ticket_value_derivative_n", "ticket_value_variance",
        "total_ticket_value", "truncated_series_sum",
    ),
    "core": (
        "ConstantReward", "EconomyParams", "EmpiricalReward", "LognormalReward",
        "ParetoReward", "RewardModel", "load_empirical_rewards",
    ),
    "engine": (
        "discount_horizon", "sample_holder_flows", "sample_pool_payoffs", "sample_ticket_payoffs",
        "sample_win_slots", "win_horizon",
    ),
    "errors": (
        "ConfigError", "DiscountRateError", "DivergenceError", "NegativePriceError",
        "TicketSimError",
    ),
    "market": (
        "CaptureReport", "FairValue", "FixedDiscount", "FixedMargin", "MultiBlockSpec",
        "PricingPolicy", "protocol_capture",
    ),
    "quantities": ("Estimate", "Quantity", "estimate"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:   # a submodule: importing it binds it on the package
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
