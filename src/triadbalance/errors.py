"""Exception types shared across the toolkit."""


class ParseError(ValueError):
    """Malformed input line. Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class FormatError(ValueError):
    """Structurally invalid input (e.g. a non-square matrix)."""


class NonTransitiveTriadError(ValueError):
    """An operation restricted to transitive triads was called on another type."""


class UndefinedResultError(ValueError):
    """The requested quantity is undefined for this input.

    Raised instead of silently returning 0 or 1, e.g. balance of a graph
    with no transitive triads, or path length when the giant component has
    fewer than two nodes.
    """
