"""ticketsim: simulator and analytic valuation toolkit for a lottery-based
execution-rights ticket economy.

The package splits into:

* ``core``      model constants, reward distributions, discounting
* ``analytics`` closed-form valuations and the truncated-series oracle
* ``engine``    the slot lottery state machine and Monte Carlo samplers
* ``quantities`` one table of every quantity: closed form, oracle, estimator
* ``market``    pricing policies, pooling, and the consecutive-win bonus
* ``config`` / ``report`` / ``harness`` / ``cli``   experiment plumbing
"""

from .analytics import (
    control_value,
    control_value_derivative_n,
    expected_slots_to_win,
    expected_ticket_value,
    issued_market_cap,
    npv_rewards,
    slots_to_win_variance,
    ticket_value_derivative_n,
    ticket_value_second_moment,
    ticket_value_variance,
    total_ticket_value,
    truncated_series_sum,
)
from .core import (
    ConstantReward,
    DiscountCurve,
    EconomyParams,
    EmpiricalReward,
    LognormalReward,
    ParetoReward,
    RewardModel,
    calibrate_lognormal,
    load_empirical_rewards,
)
from .engine import (
    ReplacementRule,
    SlotState,
    Ticket,
    TrajectoryRecord,
    discount_horizon,
    init_state,
    run_trajectory,
    sample_holder_flows,
    sample_pool_payoffs,
    sample_ticket_payoffs,
    sample_win_slots,
    step,
    win_horizon,
)
from .errors import (
    ConfigError,
    DiscountRateError,
    DivergenceError,
    NegativePriceError,
    TicketSimError,
)
from .market import (
    CaptureReport,
    FairValue,
    FixedDiscount,
    FixedMargin,
    MultiBlockSpec,
    PoolVarianceResult,
    PricingPolicy,
    pooled_variance_experiment,
    protocol_capture,
)
from .quantities import Estimate, Quantity, estimate

__version__ = "0.1.0"
