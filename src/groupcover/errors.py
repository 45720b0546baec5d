"""Exception hierarchy shared across the package."""


class GroupCoverError(Exception):
    """Base class for all errors raised by this package."""


class CapExceeded(GroupCoverError):
    """A cap or work budget stopped a computation before it had an answer."""


class ClosureExceedsCap(CapExceeded):
    """Generated closure grew past the configured order cap, or its products
    past the construction budget."""


class InvalidPermutation(GroupCoverError):
    """A generator is not a permutation of 0..degree-1."""


class SingularGenerator(GroupCoverError):
    """A matrix generator is not invertible modulo p."""


class NotAGroup(GroupCoverError):
    """A multiplication table violates the group axioms.

    Carries a human-readable description of the failing row/column/triple.
    """


class OrderCapExceeded(CapExceeded):
    """Group order exceeds the brute-force cap for this operation."""


class TrivialGroup(GroupCoverError):
    """Operation is undefined on the one-element group."""


class NotNormal(GroupCoverError):
    """The given subgroup is not normal in its parent."""


class NotPrime(GroupCoverError):
    """Argument expected to be a prime number."""


class PresentationSyntaxError(GroupCoverError):
    """Malformed presentation text; `position` is a 0-based text offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownGenerator(GroupCoverError):
    """A relator references an undeclared generator name."""


class EmptyGeneratorList(GroupCoverError):
    """Relators given for a presentation with no generators."""


class InvalidHint(GroupCoverError):
    """Unrecognised group-class hint."""


class SearchBudgetExceeded(CapExceeded):
    """A homomorphism or intersection search exceeds the configured budget."""


class ParseError(GroupCoverError):
    """Malformed group input file; `line` is the 1-based offending line."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line
