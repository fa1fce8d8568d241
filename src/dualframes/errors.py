"""Exception hierarchy shared by all dualframes modules."""


class DualFramesError(Exception):
    """Base class for all library errors."""


class NonConvergence(DualFramesError):
    """A numerical kernel failed: the SVD did not converge or missed its
    residual checks, or a built dual failed its duality check."""

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


class FieldMismatch(DualFramesError, TypeError):
    """Operation requires a different scalar field than the input carries."""


class ShapeMismatch(DualFramesError, ValueError):
    """Matrix dimensions are incompatible."""


class RankDeficient(DualFramesError, ValueError):
    """Input matrix does not have full row rank, hence is not a frame."""


class IndexOutOfRange(DualFramesError, IndexError):
    """Row or column index outside the valid range."""


class SizeLimit(DualFramesError):
    """Combinatorial subset search exceeded its budget.

    ``cardinality`` is the subset size the search had reached and ``rows``
    the rows still undecided there (None for a search over one matrix).
    """

    def __init__(self, message, budget=None, cardinality=None, rows=None):
        super().__init__(message)
        self.budget = budget
        self.cardinality = cardinality
        self.rows = rows


class SingularSubset(DualFramesError, ValueError):
    """The selected column subset is not invertible."""


class InvalidSpectrum(DualFramesError, ValueError):
    """Eigenvalue sequence violates the tetris preconditions."""


class NoTightDual(DualFramesError):
    """No tight dual exists for the given frame (multiplicity criterion fails)."""


class BoundInfeasible(DualFramesError, ValueError):
    """Requested tight-dual singular value is outside the admissible range."""


class TooManyPicks(DualFramesError, ValueError):
    """More prescribed singular values than free directions m - n."""


class BelowCanonical(DualFramesError, ValueError):
    """A prescribed singular value is below its canonical-dual floor."""


class BadTarget(DualFramesError, ValueError):
    """Spectrum target has wrong length, order, or sign."""


class DuplicateNode(DualFramesError, ValueError):
    """Vandermonde nodes or exponents are not pairwise distinct."""


class ZeroWindow(DualFramesError, ValueError):
    """Gabor window is the zero vector."""


class BadShape(DualFramesError, ValueError):
    """Operation restricted to a specific matrix shape."""


class ParseError(DualFramesError, ValueError):
    """Matrix file could not be parsed."""


class UnreadableInput(DualFramesError, OSError):
    """Input file could not be opened, or is not UTF-8 text."""


class UnwritableOutput(DualFramesError, OSError):
    """Output file could not be written; nothing was left at its path."""


class Truncated(DualFramesError):
    """Enumeration stopped at the requested limit.  ``partial`` holds the
    first ``limit`` results and ``partial.count`` the full number."""

    def __init__(self, limit, partial):
        super().__init__(f"enumeration truncated at limit {limit} "
                         f"of {partial.count} sparsest duals")
        self.limit = limit
        self.partial = partial
