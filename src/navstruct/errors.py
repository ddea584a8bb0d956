"""Exception types shared across the package."""
from __future__ import annotations


class NavStructError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(NavStructError):
    """Input file could not be parsed (bad syntax, wrong schema, bad record)."""


class ValidationError(NavStructError):
    """Input parsed but violates a structural requirement."""


class DegenerateEdge(ValidationError):
    """An edge with zero (or negative) length/weight was produced."""


class DisconnectedTerminals(NavStructError):
    """A terminal pair cannot be connected; carries the offending pair."""

    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        super().__init__(f"terminals {pair[0]} and {pair[1]} are in different components")


class EmptyTerminalSet(NavStructError):
    """Terminal selection produced no terminals."""


class EmptyGraph(NavStructError):
    """Operation requires at least one edge."""


class NoConvergence(NavStructError):
    """Iterative numeric routine failed to converge."""


class AlphaTooLarge(NavStructError):
    """Katz attenuation factor is at or above 1/spectral-radius; series diverges."""


class PointOffMesh(NavStructError):
    """A query point does not lie on any walkable polygon."""
