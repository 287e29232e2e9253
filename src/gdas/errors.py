"""Exception types shared across the package."""


class NumericalDegeneracyError(ArithmeticError):
    """A covariance (sub)matrix is singular where the computation needs it invertible."""
