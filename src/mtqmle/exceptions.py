"""Exception types shared across the package."""


class NotPositiveDefinite(ValueError):
    """A matrix required to be positive definite is not."""


class DegenerateWeights(ValueError):
    """Every sample weight vanished, or too few carry it to select a width."""


class SingularMatrix(ValueError):
    """A matrix that must be inverted is numerically singular."""
