"""Exception types shared across the package."""


class MTQMLEError(ValueError):
    """Failed on its data: the width rule skips it, the harness counts it."""


class NotPositiveDefinite(MTQMLEError):
    """A matrix required to be positive definite is not."""


class DegenerateWeights(MTQMLEError):
    """Every sample weight vanished, or too few carry it to select a width."""


class SingularMatrix(MTQMLEError):
    """A matrix that must be inverted is numerically singular."""
