"""Exception hierarchy shared across the package.

Everything user-facing derives from AlgconnError so the CLI can map domain
failures to a single exit code. Schema problems in JSON payloads raise
SchemaError instead, which maps to the usage exit code. A failed internal
check raises InternalCheckFailed, an AssertionError, which maps to an exit
code of its own.
"""

from contextlib import contextmanager


class AlgconnError(Exception):
    """Base class for domain-level failures."""


class LaurentSyntaxError(AlgconnError):
    """Raised by the Laurent parser; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotAUnit(AlgconnError):
    """Determinant is not a nonzero monomial, so the matrix is not invertible
    over the Laurent ring."""


class ContextMismatch(AlgconnError):
    """Two bundles living over curves of different genus were combined."""


class InvalidAnchor(AlgconnError):
    """An algebroid descriptor violates an anchor invariant."""


class PreconditionFailed(AlgconnError):
    """An operation was called outside its stated domain."""


class InternalCheckFailed(AssertionError):
    """One of the engine's own checks refused what the engine built: a
    splitting record, a certificate, a witness or a printed cocycle. It is
    a bug, not a verdict on the input, and the CLI maps it to its own exit
    code."""


class SchemaError(Exception):
    """A JSON payload does not match the expected schema (CLI usage error)."""


@contextmanager
def naming(where: str):
    """Prefix "where: " to the message of a SchemaError or AlgconnError
    raised inside, so that the error names the input at fault. The error
    keeps its class, so the CLI maps it to the same exit code."""
    try:
        yield
    except (SchemaError, AlgconnError) as exc:
        exc.args = (f"{where}: {exc}",)
        raise
