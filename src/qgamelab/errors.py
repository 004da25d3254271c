"""Exception types shared across the package."""


class GameLabError(Exception):
    """Base class for every error this package raises on bad input."""


class DimensionLimitError(GameLabError):
    """Total Hilbert-space dimension exceeds the configured cap."""


class ShapeMismatchError(GameLabError):
    """Maps or distributions with incompatible shapes were combined."""


class NormalizationError(GameLabError):
    """A state, basis, or distribution violates a normalization constraint.

    ``total`` carries the offending quantity so callers can report it.
    """

    def __init__(self, message: str, total: float | None = None):
        super().__init__(message)
        self.total = total


class UnitarityError(GameLabError):
    """An operator required to be unitary is not, within tolerance."""


class DiagramSyntaxError(GameLabError):
    """Diagram source text failed to parse.

    Carries the 1-based ``line`` and ``column`` of the offending token and
    the set of token descriptions that would have been accepted there.
    """

    def __init__(self, message: str, line: int, column: int,
                 expected: tuple[str, ...] = ()):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.expected = tuple(sorted(expected))


class WireCountError(GameLabError):
    """Sequential stages of a diagram disagree on wire counts."""

    def __init__(self, message: str, stage: int | None = None,
                 produced: int | None = None, consumed: int | None = None):
        super().__init__(message)
        self.stage = stage
        self.produced = produced
        self.consumed = consumed


class NestingDepthError(GameLabError):
    """A diagram term nests deeper than the interpreter's recursion limit
    lets the library walk it."""


class UnboundBoxError(GameLabError):
    """A diagram references a box name with no binding in scope."""


class DomainMismatchError(GameLabError):
    """Game, advice, or expression domains do not agree."""


class EmbeddingError(GameLabError):
    """A classical-to-quantum strategy embedding is not a basis permutation."""


class EnumerationLimitError(GameLabError):
    """A search would cover more cases than the configured cap allows.

    ``count`` is the number of cases the result would cover and
    ``limit`` the cap it exceeds.
    """

    def __init__(self, message: str, count: int, limit: int):
        super().__init__(message)
        self.count = count
        self.limit = limit


class FormatError(GameLabError):
    """A JSON document does not match the documented schema."""


class UnsupportedDimensionError(GameLabError):
    """Operation defined only for qubit wires was asked for another size."""


class UsageError(GameLabError):
    """A command line does not match the CLI's documented usage."""
