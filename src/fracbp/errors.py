"""Exception hierarchy shared by all fracbp modules."""


class FracbpError(Exception):
    """Base class for everything raised deliberately by this package."""


class ContractViolation(FracbpError):
    """An argument or intermediate object breaks a documented precondition."""


class InvariantViolation(FracbpError):
    """An internal consistency check failed; this always indicates a bug."""


class MatrixFormatError(FracbpError):
    """Matrix text input could not be parsed."""


class EmptyGraphError(FracbpError):
    """The matrix has no ones, so there is nothing to enumerate or cover."""


class SizeCapExceeded(FracbpError):
    """An enumeration would exceed its size cap.

    Raised instead of silently truncating.  `bound` is the size estimate
    that tripped the cap, `cap` the configured limit.
    """

    def __init__(self, message: str, bound: int, cap: int):
        super().__init__(message)
        self.bound = bound
        self.cap = cap


class NodeCapExceeded(FracbpError):
    """Branch and bound gave up before proving optimality.

    Carries the best incumbent objective seen (or None) and the root
    relaxation bound, both exact.
    """

    def __init__(self, message: str, incumbent=None, root_bound=None, nodes: int = 0):
        super().__init__(message)
        self.incumbent = incumbent
        self.root_bound = root_bound
        self.nodes = nodes


class CheckpointError(FracbpError):
    """A checkpoint file is unreadable, malformed, or for a different matrix."""


class OutputError(FracbpError):
    """A result file could not be written."""
