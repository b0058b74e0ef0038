"""Exception types shared across the package."""


class DnBranchError(Exception):
    """Base class for every error raised by this package."""


class InvalidEError(DnBranchError, ValueError):
    """The quantum characteristic must be an integer >= 2 or infinite."""


class NotRemovableError(DnBranchError, ValueError):
    """Attempt to remove a cell that is not a removable node of the diagram."""


class ResourceLimitError(DnBranchError, RuntimeError):
    """A size limit was exceeded: the lattice vertex budget or the residue alphabet."""


class NotKleshchevError(DnBranchError, ValueError):
    """The bipartition is not a vertex of the good lattice at these parameters."""


class ShiftReplayError(DnBranchError, RuntimeError):
    """A residue-shifted step or path does not exist in the lattice.

    Path-shift symmetry guarantees every shifted step; a missing one, or two
    edges giving one vertex different ``h`` images, means the signature
    conventions or the lattice data are wrong.
    """


class MultipleSpecialNodesError(DnBranchError, RuntimeError):
    """More than one good node produced an involution-fixed removal.

    Uniqueness of the special node is guaranteed combinatorially; seeing two
    means the engine itself is wrong, so this is an assertion-style failure
    rather than a data error.
    """


class InvariantError(DnBranchError, RuntimeError):
    """An internal invariant of the engine failed, so the engine itself is wrong."""


class FixedPointError(DnBranchError, ValueError):
    """An ``h``-fixed bipartition was given where an unsplit orbit is required."""


class SignError(DnBranchError, ValueError):
    """A sign was given for a label that is not split: its bipartition is no fixed point of ``h``."""


class NotSemisimpleError(DnBranchError, ValueError):
    """A semisimple-only verification suite was invoked at non-semisimple parameters."""


class ParseError(DnBranchError, ValueError):
    """Malformed textual input; ``position`` is the 1-based offending column."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (column {position})"
        super().__init__(message)
        self.position = position


class SchemaMismatchError(DnBranchError, ValueError):
    """A JSON document does not carry the expected schema tag or shape."""
