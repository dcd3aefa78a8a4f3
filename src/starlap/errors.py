"""Exception hierarchy for graph construction, analysis, and I/O."""

from __future__ import annotations


class StarlapError(Exception):
    """Base class for all errors raised by this package."""


class SelfLoopError(StarlapError):
    def __init__(self, u: int, w: float):
        super().__init__(f"self-loop on vertex {u} (weight {w})")
        self.edge = (u, u, w)


class DuplicateEdgeError(StarlapError):
    def __init__(self, u: int, v: int, w: float):
        super().__init__(f"duplicate edge ({u}, {v}) with weight {w}")
        self.edge = (u, v, w)


class NonPositiveWeightError(StarlapError):
    def __init__(self, u: int, v: int, w: float):
        super().__init__(f"edge ({u}, {v}) has non-positive or non-finite weight {w}")
        self.edge = (u, v, w)


class IndexOutOfRangeError(StarlapError):
    def __init__(self, index: int, n: int, context: str = "vertex"):
        super().__init__(f"{context} index {index} out of range for {n} vertices")
        self.index = index
        self.n = n


class IsolatedVertexError(StarlapError):
    def __init__(self, v: int):
        super().__init__(f"vertex {v} is isolated (zero strength)")
        self.vertex = v


class NotSymmetricError(StarlapError):
    pass


class TooFewValuesError(StarlapError):
    pass


class UnequalWeightVectorsError(StarlapError):
    def __init__(self, v1: tuple[int, ...], detail: str = ""):
        msg = f"star vertices {list(v1)} do not share identical weight vectors"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.v1 = v1


class ConditionViolatedError(StarlapError):
    """A dependent-rows partition condition failed; records which one and where."""

    def __init__(self, condition: int, vertex: int, detail: str = ""):
        msg = f"condition {condition} violated at vertex {vertex}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.condition = condition
        self.vertex = vertex


class NoCommonStrengthError(StarlapError):
    def __init__(self, strengths: dict[int, float]):
        super().__init__(f"vertices do not share a common strength: {strengths}")
        self.strengths = strengths


class InfeasibleSpecError(StarlapError):
    pass


class InvalidQError(StarlapError):
    def __init__(self, q: int, m: int):
        super().__init__(f"q={q} is invalid for a star with m={m}; need 1 <= q <= m-1")
        self.q = q
        self.m = m


class StructuralStarOnlyError(StarlapError):
    def __init__(self, v1: tuple[int, ...]):
        super().__init__(
            f"star with v1={list(v1)} has unequal weight vectors and cannot be reduced"
        )
        self.v1 = v1


class DimensionMismatchError(StarlapError):
    pass


class DisconnectedError(StarlapError):
    def __init__(self, n_components: int):
        super().__init__(f"graph is not connected ({n_components} components)")
        self.n_components = n_components


class NonFiniteSpectrumError(StarlapError):
    """An eigenvalue or eigenvector a partition reads is NaN or infinite.

    A valid graph whose weights overflow the strengths gets an all-NaN
    spectrum; its partitions and sign comparisons fail instead of reading
    signs off NaN.
    """


class BadKError(StarlapError):
    def __init__(self, k: int, n: int):
        super().__init__(f"cluster count k={k} outside valid range 2..{n}")
        self.k = k
        self.n = n


class ParseError(StarlapError):
    def __init__(self, line_number: int | None, reason: str):
        super().__init__(reason if line_number is None else f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason
