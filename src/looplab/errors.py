"""Exception hierarchy shared by all looplab modules, and the input checks
they share."""

import math
import numbers


class LooplabError(Exception):
    """Base class for all looplab errors."""


class InvalidInput(LooplabError):
    """Malformed or inconsistent input (dimension mismatch, bad parameters)."""


class InvalidLevel(InvalidInput):
    """Level parameter outside the admissible range l > -1."""


def check_level(level) -> None:
    """Raise InvalidLevel unless level is a finite real number > -1: NaN and
    +inf fail the comparison, as does anything at or below -1."""
    if not (isinstance(level, numbers.Real) and -1 < level < math.inf):
        raise InvalidLevel(f"level {level} is not a finite number > -1")


def check_count(name: str, n, least: int) -> None:
    """Raise InvalidInput unless n is an integer (not a bool) >= least."""
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < least:
        raise InvalidInput(f"{name} must be an integer >= {least}, got {n!r}")


class ConvergenceFailure(LooplabError):
    """An iterative or truncated computation failed to meet its tolerance."""


class NotInTopStratum(LooplabError):
    """The input lies outside the open dense stratum where factorization exists."""


class NonReducedSequence(LooplabError):
    """A reflection sequence failed the reducedness check."""


class ExperimentDegenerate(LooplabError):
    """Too many per-sample failures for an experiment to report a statistic."""


class DomainError(LooplabError):
    """Evaluation at a pole or outside the domain of a closed-form expression."""
