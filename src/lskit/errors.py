"""Exception and warning types shared across the package."""


class LskitError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LskitError):
    """Mesh or data file could not be parsed."""


class IndexOutOfRange(ParseError):
    """A face references a vertex index outside the vertex table."""


class DegenerateGeometry(LskitError):
    """Geometry unusable for cotangent discretization (zero-area triangle, ...)."""


class NonManifoldMesh(DegenerateGeometry):
    """An edge is shared by more than two triangles."""


class SolverFailure(LskitError):
    """An eigenvalue or linear solver did not converge."""


class RankDeficientMass(LskitError):
    """Mass matrix has a non-positive diagonal entry."""


class InvalidArgument(LskitError, ValueError):
    """An argument outside the values a function accepts (a ValueError too)."""


class DimensionMismatch(InvalidArgument):
    """Matrix dimensions incompatible with the declared basis truncations
    (a truncation k outside 1..n is a bad argument)."""


class NonBijective(LskitError):
    """Correspondence is not a bijection where one is required."""


class InsufficientShapes(LskitError):
    """Operation needs more shapes than provided."""


class ProviderFailure(LskitError):
    """A map provider failed for a required edge."""

    def __init__(self, edge, cause):
        self.edge, self.cause = edge, cause
        super().__init__(f"map provider failed for edge {edge}: {cause}")


class RequiresCanonical(LskitError):
    """Operation needs a canonical consistent latent basis."""


class NonOrthonormalF(LskitError):
    """Projection basis F does not satisfy F^T F = I."""


class IllConditioned(LskitError):
    """Operator too close to singular for a reliable solve."""


class EmptyRegion(LskitError):
    """A vertex region that must be nonempty is empty."""


class UnknownShape(LskitError):
    """Shape id not present in the collection."""


class NotFullInformation(LskitError):
    """Check requires full bases, shared connectivity and exact maps."""


class ManifestError(LskitError):
    """Workspace manifest missing, malformed, or failing an integrity check."""


class MeshWarning(UserWarning):
    """Structured warning about mesh quality (disconnected components, ...)."""


class SpectralGapWarning(UserWarning):
    """Requested eigen-subspace is bounded by a near-zero spectral gap."""


class UnderDeterminedWarning(UserWarning):
    """Least-squares fit is under-determined; least-norm solution returned."""


class DegenerateSpectrumWarning(UserWarning):
    """Top eigenvalue is repeated (or zero); the optimizer is not unique."""
