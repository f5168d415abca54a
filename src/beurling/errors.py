"""Exception types shared across the package.

Domain errors all derive from BeurlingError so the CLI can map them to
exit code 1 while genuine usage errors stay on the argparse path (exit 2).
"""


class BeurlingError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidPrimeError(BeurlingError):
    """A g-prime value was <= 1 (or otherwise not a valid prime)."""


class EmptySystemError(BeurlingError):
    """A construction produced no primes (e.g. sieve limit below 2)."""


class InvalidExponentError(BeurlingError):
    """Power transform called with a non-positive exponent."""


class IncompleteSystemError(BeurlingError):
    """A query exceeded the truncation horizon of the system."""


class MaterialisationError(BeurlingError):
    """Refusing to materialise a g-integer list above the hard cap."""


class ParameterError(BeurlingError):
    """A precondition on operation parameters was violated."""


class DivergenceError(BeurlingError):
    """Series or product evaluated outside its certified half-plane."""


class PoleError(BeurlingError):
    """Evaluation requested at (or too close to) a pole."""

    def __init__(self, message: str, order: int):
        super().__init__(message)
        self.order = order


class StripError(BeurlingError):
    """Mellin transform requested outside its convergence strip."""


class FitError(BeurlingError):
    """Not enough data (or degenerate data) for a least-squares fit."""


class UnstablePointError(BeurlingError):
    """Perron evaluation point is too close to a g-integer."""


class AxiomSearchError(BeurlingError):
    """An order-oracle search exceeded its cap; axiom A3 is suspect."""


class PreconditionError(BeurlingError):
    """A sampled precondition failed; carries a concrete witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
