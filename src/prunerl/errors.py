"""Exception types shared across the package."""


class PruneRLError(Exception):
    """Base class for all package errors."""


class DataError(PruneRLError):
    """Unusable input data: dataset, labels, config or checkpoint (exit 2)."""


class EdgeListParseError(DataError):
    """Malformed edge-list line; carries the 1-based line number."""

    def __init__(self, path, line_no, line):
        self.path = path
        self.line_no = line_no
        self.line = line
        super().__init__(f"{path}:{line_no}: malformed edge-list line: {line!r}")


class CommunityFileError(DataError):
    """Bad community file: overlapping communities or unknown node ids."""


class DeadEdgeError(PruneRLError):
    """An already-pruned edge was pruned or evaluated again."""


class ConvergenceError(PruneRLError):
    """Iterative solver failed to converge; carries the last iterate."""

    def __init__(self, message, last_iterate=None):
        self.last_iterate = last_iterate
        super().__init__(message)


class ShapeError(PruneRLError):
    """Tensor shape mismatch; names both offending shapes."""


class ConfigError(DataError):
    """Invalid run configuration (unknown keys, bad values, missing context)."""
