"""Exception hierarchy.

Three branches matter to callers: InputError for malformed user input,
CapExceeded for work that was refused because it exceeds a configured
limit, and MathError for violated mathematical preconditions discovered
mid-computation.  The command line maps them to exit codes 2, 3 and 4.
"""

from __future__ import annotations


class HyperspecError(Exception):
    """Base class for every error raised by this package."""


class InputError(HyperspecError):
    """Malformed or out-of-contract user input."""


class ParseError(InputError):
    """Text input that does not follow the hypergraph file format."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class BadEdge(InputError):
    """Edge with wrong arity, repeated or out-of-range vertices."""


class BadSize(InputError):
    """Structural size parameter outside its documented range."""


class BadPartition(InputError):
    """Vertex bipartition that does not partition the vertex set."""


class CapExceeded(HyperspecError):
    """Requested computation exceeds a configured resource cap."""


class DegreeCapExceeded(CapExceeded):
    """Polynomial degree beyond the configured cap."""


class MathError(HyperspecError):
    """A mathematical precondition failed while computing."""


class DivisionByZero(MathError):
    """Rational division by zero."""


class DimMismatch(MathError):
    """Operands with incompatible dimensions or orders."""


class BadPrime(MathError):
    """Modulus unusable: composite, out of range, or divides a denominator."""


class NotHomogeneous(MathError):
    """Polynomial system whose parts are not homogeneous of the declared degrees."""


class NotSquareSystem(MathError):
    """Polynomial system whose polynomial and variable counts differ."""


class BadSetSize(MathError):
    """Vertex set argument of the wrong cardinality."""


class OddV1(MathError):
    """Switching cell of odd size; half of it is not an integer."""


class ConditionAViolated(MathError):
    """An edge meets the switching cell in two or more vertices."""

    def __init__(self, edge: tuple[int, ...]):
        self.edge = edge
        super().__init__(f"edge {edge} has at least two vertices in the switching cell")


class ConditionBViolated(MathError):
    """A co-cell vertex set with a neighbor count other than 0, half, or all."""

    def __init__(self, subset: tuple[int, ...], count: int, allowed: tuple[int, ...]):
        self.subset = subset
        self.count = count
        self.allowed = allowed
        super().__init__(
            f"vertex set {subset} has {count} neighbors in the switching cell; "
            f"allowed counts are {allowed}"
        )
