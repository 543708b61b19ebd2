"""Exception hierarchy and process exit codes.

Every error raised by the library derives from :class:`PlumblatError`.  The
CLI maps error families onto stable exit codes:

* 1 -- command line usage errors,
* 2 -- input parsing / validation / precondition failures,
* 3 -- an enumeration budget was exceeded,
* 4 -- an internal invariant was violated (always a bug).
"""

from __future__ import annotations

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class PlumblatError(Exception):
    """Base class for all library errors."""

    exit_code = EXIT_INVALID_INPUT


# --- forest validation -------------------------------------------------

class ForestValidationError(PlumblatError):
    """Structural problem with the vertex/edge description of a forest.

    ``entry`` names the input entry that failed, as ``("vertex", i)`` or
    ``("edge", i)`` with i its position among the vertices or the edges.
    """

    def __init__(self, message: str, entry: tuple[str, int]):
        super().__init__(message)
        self.entry = entry


class DuplicateVertexId(ForestValidationError):
    pass


class SelfLoop(ForestValidationError):
    pass


class DanglingEdge(ForestValidationError):
    pass


class DuplicateEdge(ForestValidationError):
    pass


class CycleDetected(ForestValidationError):
    pass


class MistypedForestData(ForestValidationError):
    """A vertex id or edge endpoint that is not a str, or a framing that is
    not an int (bools included)."""


# --- parsing -----------------------------------------------------------

class DslSyntaxError(PlumblatError):
    """A line of the plumbing DSL could not be parsed."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InvalidFraction(PlumblatError):
    """Continued fraction input out of range or not coprime."""


class SeifertInputError(PlumblatError):
    """Malformed Seifert invariant string."""


# --- precondition failures ----------------------------------------------

class NotNegativeDefinite(PlumblatError):
    """The operation requires a negative-definite intersection form."""


class NotApplicable(PlumblatError):
    """Precondition of the operation is not met (e.g. bad vertices present)."""


class UnknownVertexId(PlumblatError):
    """A vertex id that names no vertex of the forest."""


class NotBlowdownable(PlumblatError):
    """The chosen vertex is not a (-1)-framed leaf or isolated vertex."""


class InvalidTriple(PlumblatError):
    """A surgery triple whose framing-bumped graph is not negative definite."""


class ParityViolation(PlumblatError):
    """A vector that was supposed to be characteristic is not."""


class NotNegativeDefiniteEitherOrientation(PlumblatError):
    """Neither orientation of the Seifert data bounds a negative-definite star."""


# --- budgets -------------------------------------------------------------

# The CLI's budget defaults live here, beside the budget errors, so the
# argument parser is built without loading an engine.

# compute_homology raises peak RSS by about 4.3 bytes per box vector on a box
# near the cap (4.3 at 1.9e7 vectors, 15 vertices; 5.4 at 9.4e5, where the
# fixed costs weigh more), so the default box stays near 0.09 GiB
DEFAULT_BOX_CAP = 2 * 10**7

# a flood holds about 400-530 bytes per point under tracemalloc, its
# frontier included (397 B on 26,624 points of the 5-vertex star
# "-1; 4/1 5/3 7/1", 525 B on 137,702 points of the 8-vertex
# "-2; 2/1 5/2 7/3 4/1"), so a sweep at the default cap may reach ~5 GB;
# nothing checks memory yet
DEFAULT_POINT_CAP = 10**7

DEFAULT_NMAX = 64


class BudgetExceeded(PlumblatError):
    exit_code = EXIT_BUDGET


class BoxTooLarge(BudgetExceeded):
    """The product of framing ranges exceeds the configured cap."""


class EnumerationBudgetExceeded(BudgetExceeded):
    """A lattice-point sweep exceeded the configured point cap."""


class TooManyVertices(BudgetExceeded):
    """A forest, or the expansion of a Seifert leg, past the fixed vertex
    limit :data:`plumblat.plumbing.MAX_VERTICES`."""


# --- internal ------------------------------------------------------------

class InternalInvariantViolation(PlumblatError):
    """A certified invariant failed; indicates a bug, never bad input."""

    exit_code = EXIT_INTERNAL


class NegativeOddDimension(InternalInvariantViolation):
    """total dimension fell below |det|, violating the per-orbit lower bound."""
