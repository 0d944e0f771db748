"""Exception types shared across the package."""


class LeviRootsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidRank(LeviRootsError):
    """A rank is not an int, lies outside its family's range or exceeds the cap."""


class InvalidCartan(LeviRootsError):
    """A matrix is not a valid indecomposable Cartan matrix."""


class NotFiniteType(LeviRootsError):
    """Root-string closure, diagram classification or a form certificate
    found no finite type (say a kept Gram block that is not positive
    definite, or an extended diagram with a negative link)."""


class InvalidDesignation(LeviRootsError):
    """A node number (from any entry point) is not an int, lies outside
    1..rank or is named twice, or a parabolic designation kept every node."""


class IrreducibilityViolation(LeviRootsError):
    """A t-root space failed its unique-highest-weight certificate.

    This is an internal-consistency error: it is a theorem that every
    t-root space is irreducible under the Levi factor, so seeing this
    exception means the ambient root data was corrupted.
    """


class InvalidPair(LeviRootsError):
    """A residue class was rejected (say p, q with p + q = 0 mod n, whose
    bracket lands in the subalgebra), or a split asked of a non-maximal parabolic."""


class SeriesMismatch(LeviRootsError):
    """The order grading failed its certificate, a brute-force central-series
    oracle failed, or a closed-form series disagreed with its oracle."""


class SimpleSystemFailure(LeviRootsError):
    """A candidate simple system failed its combinatorial certificate."""


class InvalidComposition(LeviRootsError):
    """A block composition needs at least two positive parts."""
