"""Exception types shared across the package."""


class TicketSimError(Exception):
    """Base class for all ticketsim errors."""


class DiscountRateError(TicketSimError, ValueError):
    """An infinite-horizon valuation was requested with d <= 0 (the sum diverges)."""


class DivergenceError(TicketSimError, ValueError):
    """A series oracle was asked to sum a non-contracting series (ratio >= 1)."""


class NegativePriceError(TicketSimError, ValueError):
    """A pricing policy produced a negative ticket price."""


class ConfigError(TicketSimError, ValueError):
    """Invalid or malformed experiment configuration.

    ``path`` locates the offending key, e.g. ``"reward.sigma_log"``, and
    ``message`` says what is wrong with it.
    """

    def __init__(self, path: str, message: str):
        self.path, self.message = path, message
        super().__init__(f"{path}: {message}")
