"""Exception types shared across the package."""


class LeviRootsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidRank(LeviRootsError):
    """A simple type was requested with a rank outside its family's range."""


class InvalidCartan(LeviRootsError):
    """A matrix is not a valid indecomposable Cartan matrix."""


class NotFiniteType(LeviRootsError):
    """Root-string closure or diagram classification found no finite type."""


class InvalidDesignation(LeviRootsError):
    """A parabolic designation kept every node or named an unknown node."""


class IrreducibilityViolation(LeviRootsError):
    """A t-root space failed its unique-highest-weight certificate.

    This is an internal-consistency error: it is a theorem that every
    t-root space is irreducible under the Levi factor, so seeing this
    exception means the ambient root data was corrupted.
    """


class InvalidPair(LeviRootsError):
    """A pair of t-roots was rejected (e.g. bracket of nu with -nu)."""


class SeriesMismatch(LeviRootsError):
    """A closed-form central series disagreed with its brute-force oracle."""


class SimpleSystemFailure(LeviRootsError):
    """A candidate simple system failed its combinatorial certificate."""


class InvalidComposition(LeviRootsError):
    """A block composition needs at least two positive parts."""
