"""Error taxonomy shared across the package.

Every domain failure raises a subclass of :class:`TwistctlError` so the CLI
can map "your input is bad / the math refused" to exit code 1 while real bugs
escape as ordinary tracebacks.
"""


class TwistctlError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def name(self) -> str:
        return type(self).__name__


# ---------------------------------------------------------------- polynomials / fields

class NotIrreducible(TwistctlError):
    pass


class NotAnAutomorphism(TwistctlError):
    pass


class NotClosed(TwistctlError):
    """A set that should be a group (automorphisms, twists) is not closed."""


class NotSeparableModP(TwistctlError):
    pass


class BadReduction(TwistctlError):
    """Reduction mod p is undefined (denominator or leading term dies)."""


class Ramified(TwistctlError):
    pass


class NotInvertible(TwistctlError):
    pass


# ---------------------------------------------------------------- characters

class NotCoprime(TwistctlError):
    pass


class MissingValue(TwistctlError):
    pass


class IncompatibleSupports(TwistctlError):
    pass


class NotRootOfUnity(TwistctlError):
    pass


class Ambiguous(TwistctlError):
    """Two characters of the same conductor fit the data: not enough places."""


# ---------------------------------------------------------------- eigensystems

class SchemaError(TwistctlError):
    pass


class CoefficientDimensionMismatch(TwistctlError):
    pass


class DuplicatePlace(TwistctlError):
    pass


class NotDivisible(TwistctlError):
    pass


class NontrivialNebentypus(TwistctlError):
    pass


# ---------------------------------------------------------------- twist detection

class InsufficientData(TwistctlError):
    pass


class DuplicateAutomorphism(TwistctlError):
    """The same automorphism showed up with two incompatible twist kinds."""


# ---------------------------------------------------------------- forms / cocycles

class CocycleViolation(TwistctlError):
    pass


class BudgetExceeded(TwistctlError):
    pass


# ---------------------------------------------------------------- remote data

class NotFound(TwistctlError):
    pass


class NetworkError(TwistctlError):
    pass


class SchemaDrift(TwistctlError):
    """The remote response parsed as JSON but not as the shape we expect."""

    def __init__(self, message: str, body: object = None):
        super().__init__(message)
        self.body = body


class NotGalois(TwistctlError):
    pass


class MissingCoefficients(TwistctlError):
    pass
