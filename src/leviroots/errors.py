"""Exception types shared across the package."""


class LeviRootsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidRank(LeviRootsError):
    """A simple type was requested with a rank outside its family's range."""


class InvalidCartan(LeviRootsError):
    """A matrix is not a valid indecomposable Cartan matrix."""


class NotFiniteType(LeviRootsError):
    """Root-string closure, diagram classification or a form certificate
    found no finite type (say a kept Gram block that is not positive
    definite, or an extended diagram with a negative link)."""


class InvalidDesignation(LeviRootsError):
    """A parabolic designation kept every node or named an unknown node."""


class IrreducibilityViolation(LeviRootsError):
    """A t-root space failed its unique-highest-weight certificate.

    This is an internal-consistency error: it is a theorem that every
    t-root space is irreducible under the Levi factor, so seeing this
    exception means the ambient root data was corrupted.
    """


class InvalidPair(LeviRootsError):
    """A node or residue-class argument was rejected (e.g. classes p, q
    with p + q = 0 mod n, whose bracket lands in the subalgebra)."""


class SeriesMismatch(LeviRootsError):
    """The order grading failed its certificate, a brute-force central-series
    oracle failed, or a closed-form series disagreed with its oracle."""


class SimpleSystemFailure(LeviRootsError):
    """A candidate simple system failed its combinatorial certificate."""


class InvalidComposition(LeviRootsError):
    """A block composition needs at least two positive parts."""
