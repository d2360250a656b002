"""Error taxonomy shared across the package, and the readers of documents.

Every domain failure raises a subclass of :class:`TwistctlError` so the CLI
can map "your input is bad / the math refused" to exit code 1 while real bugs
escape as ordinary tracebacks.  The readers of document ints, labels, bools
and shapes sit beside the SchemaError they raise.
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


class FrobeniusNotFound(TwistctlError):
    """No automorphism acts as x^p at an unramified p: inconsistent data."""


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


def int_from_json(x, what: str, size: int | None = None) -> int:
    """x if it is a JSON int (not a bool), in range(size) when a size is
    given; SchemaError otherwise."""
    if type(x) is not int or (size is not None and not 0 <= x < size):
        where = "" if size is None else f" in range({size})"
        raise SchemaError(f"{what} must be an integer{where}, got {x!r}")
    return x


def label_from_json(x, what: str) -> int | str:
    """A JSON int, or a string in an int's canonical decimal form, as that
    int; any other string as itself.  Another form of an int ("013", " 13",
    "+13", "1_3") or a value neither int nor string is a SchemaError."""
    if not isinstance(x, str):
        return int_from_json(x, what)
    try:
        n = int(x)
    except ValueError:
        return x
    if str(n) != x:
        raise SchemaError(f"{what} {x!r} must be written {str(n)!r}")
    return n


def bool_from_json(x, what: str) -> bool:
    """x if it is a JSON bool; SchemaError otherwise."""
    if type(x) is not bool:
        raise SchemaError(f"{what} must be true or false, got {x!r}")
    return x


def typed_from_json(x, kind: type, what: str):
    """x if its type is kind (list, dict or str); SchemaError otherwise."""
    if type(x) is not kind:
        noun = {list: "list", dict: "object", str: "string"}[kind]
        raise SchemaError(f"{what} must be a JSON {noun}, got {x!r}")
    return x


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
