"""Exception hierarchy for grouptrees.

Every error raised on purpose by the library derives from GroupTreesError so
callers (and the CLI) can distinguish "the input is bad / the question is
degenerate" from genuine bugs.
"""


class GroupTreesError(Exception):
    """Base class for all deliberate grouptrees errors."""


class ParseError(GroupTreesError):
    """Malformed textual input (scalars, words, files)."""


class MixedFieldError(GroupTreesError):
    """Arithmetic attempted between scalars living in different quadratic fields."""


class NotABasisError(GroupTreesError):
    """A word list claimed to be a free basis fails to be one."""


class DegenerateSubgroupError(GroupTreesError):
    """An operation that needs a nontrivial subgroup received the trivial one."""


class InvalidSystemError(GroupTreesError):
    """An interval-isometry system or marked graph violates its well-formedness rules."""


class PreconditionError(GroupTreesError):
    """An operation's stated precondition was violated by the caller's data."""


class OutOfSupportError(GroupTreesError):
    """A point or sub-interval lies outside the system's supporting multi-interval."""


class MissingLabelsError(GroupTreesError):
    """A subgroup-constrained operation needs generator labels the system lacks."""
