"""Exception hierarchy.

Two broad families matter to callers: `ValidationError` (bad inputs or
configuration) and `EstimationError` (a statistical routine cannot run on
otherwise valid data). The CLI exits 2 on either. `run_grid` records any
`FlowcastError` raised while building or fitting a cell as a failed cell:
an `EstimationError` such as `TooFewObservations`, or a `ValidationError`
such as the `InvalidConfig` of a pair whose flow asset has no data. So
`regress` exits 0 with such cells in its grid.
"""


class FlowcastError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FlowcastError):
    """Input data or configuration violates a documented contract."""


class EstimationError(FlowcastError):
    """A fit or aggregation cannot be carried out on the given sample."""


# --- ingestion ---------------------------------------------------------

class MalformedRow(ValidationError):
    """A faulty input record; ``line`` is its line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class NegativeFlow(MalformedRow):
    pass


class DuplicateTimestamp(ValidationError):
    pass


class NonPositivePrice(MalformedRow):
    pass


class FrequencyMismatch(ValidationError):
    pass


class ExpiredAtQuote(MalformedRow):
    pass


class DeltaOutOfRange(MalformedRow):
    pass


# --- series construction ----------------------------------------------

class EmptyInput(ValidationError):
    pass


class MixedAssets(ValidationError):
    pass


class InsufficientSubBars(ValidationError):
    pass


class HorizonMismatch(ValidationError):
    pass


class EmptyAlignment(ValidationError):
    pass


# --- regression --------------------------------------------------------

class RankDeficient(EstimationError):
    pass


class TooFewObservations(EstimationError):
    pass


# --- events -------------------------------------------------------------

class EmptyYear(ValidationError):
    pass


class InsufficientCoverage(ValidationError):
    pass


# --- options ------------------------------------------------------------

class InstrumentMismatch(ValidationError):
    pass


class ZeroEntryPrice(ValidationError):
    pass


class NoMatchingQuotes(ValidationError):
    pass


# --- synthetic data ------------------------------------------------------

class InvalidConfig(ValidationError):
    pass
