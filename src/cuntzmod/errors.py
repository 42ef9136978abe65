"""Exception types shared across the package."""


class CuntzError(Exception):
    """Base class for all package-specific errors."""


class UsageError(CuntzError, ValueError):
    """Caller mixed incompatible contexts (elements or scalars over different
    n) or passed arguments outside an operation's contract."""


class BackendError(UsageError):
    """Data the exact field Q(sqrt n) cannot hold: a float or complex
    coefficient or part, a power of n outside (1/2)Z (so Delta^z for such
    z), or the rational value of an irrational number."""


class DomainError(CuntzError, ValueError):
    """Input is outside the mathematical domain of the operation
    (non-degree-0 element passed to the fixed-point trace, non-modular
    unitary passed to spectral flow, failed partial-isometry check, ...)."""


class TermBudgetExceeded(CuntzError, RuntimeError):
    """A max-level expansion would exceed the configured term budget.

    Only ``algebra.canonical_form`` (the output form of ``eval``) and
    ``endos.phi_k_endo`` are budgeted; semantic equality never expands.
    The message names the site, the input's size and the count refused.
    The budget defaults to 100000 terms and can be overridden with the
    CUNTZ_TERM_BUDGET environment variable.
    """


class ExprSyntaxError(CuntzError, ValueError):
    """Expression text does not conform to the element grammar.

    ``offset`` is the byte offset of the first offending character.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset
