"""Exception hierarchy shared by all binomlcm modules.

Three failure kinds are distinguished because callers react differently:
bad arguments are the caller's fault, cap overruns are a sizing problem,
and internal-consistency failures indicate a bug in this library itself
(two redundant computation paths disagreed where mathematics says they
cannot). require_int is the one check of an integer argument.
"""

__all__ = ["DomainError", "ResourceCapError", "InternalConsistencyError"]


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class ResourceCapError(RuntimeError):
    """A request exceeds a configured resource cap (see binomlcm.caps)."""


class InternalConsistencyError(RuntimeError):
    """Two redundant internal computation paths disagreed.

    This is never expected; it means binomlcm itself is wrong, not the
    caller. Verification failures of the checked identities are reported
    as data (a report with holds == False), not via this exception.
    """


def require_int(value, least: int | None, rule: str) -> int:
    """value, if it is an int >= least (any int for least None); else DomainError(rule.format(value)).

    A bool is an int to Python but is refused, and so is a float, which
    would run on to an answer that is not exact (v_2(10.5!) came out 8.0).
    """
    if isinstance(value, int) and not isinstance(value, bool) and (least is None or value >= least):
        return value
    raise DomainError(rule.format(value))
