"""Exception hierarchy for the vve package.

Every error carries a stable machine-readable ``code`` so the CLI can emit
structured error reports alongside the human-readable message.
"""


class VveError(Exception):
    """Base class for all vve errors."""

    code = "error"


# --- model parameter validation ---------------------------------------------

class NonPositiveSpot(VveError):
    code = "non_positive_spot"


class DegenerateDiffusion(VveError):
    """sigma = 0 and c1 = 0 would make the asset risk-free."""

    code = "degenerate_diffusion"


class NegativeCoefficient(VveError):
    code = "negative_coefficient"


class NonFinite(NegativeCoefficient):  # a NaN or inf input
    code = "non_finite"


class NegativePrice(VveError):
    code = "negative_price"


class NonPositivePrice(VveError):
    code = "non_positive_price"


# --- SDE engine ---------------------------------------------------------------

class InvalidGrid(VveError):
    code = "invalid_grid"


class SigmaZeroUnsupported(VveError):
    """The closed-form path solution divides by sigma (and by no drift), so needs sigma > 0."""

    code = "sigma_zero_unsupported"


# --- calibration ---------------------------------------------------------------

class SeriesTooShort(VveError):
    code = "series_too_short"


class DegenerateX(VveError):
    """Zero variance in the regressor; the OLS slope is undefined."""

    code = "degenerate_x"


class TooFewPoints(VveError):
    code = "too_few_points"


class NegativeSlope(VveError):
    """Fitted slope <= 0; the model requires a positive price coefficient."""

    code = "negative_slope"


# --- pricing --------------------------------------------------------------------

class ExplosionRegion(VveError):
    """Solution-map denominator at or below tolerance; price undefined there."""

    code = "explosion_region"


class OutOfRange(VveError):
    """Target price unreachable by the solution map at this time."""

    code = "out_of_range"


# --- CSV ingestion ---------------------------------------------------------------

class CsvParseError(VveError):
    code = "csv_parse_error"


class DuplicateDate(VveError):
    code = "duplicate_date"


class NonPositiveClose(VveError):
    code = "non_positive_close"
