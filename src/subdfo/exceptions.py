"""Exception types shared across the package."""


class ContractViolationError(ValueError):
    """An input violates a documented precondition (e.g. asymmetric matrix)."""


class EmptyBasisError(ValueError):
    """All candidate vectors were numerically zero or dependent."""


class SingularSystemError(RuntimeError):
    """A linear system met an exactly singular pivot or gave a non-finite solution."""


class ModelConstructionError(RuntimeError):
    """Interpolation model could not be built from the given points."""


class DegenerateGeometryError(RuntimeError):
    """Interpolation set is affinely dependent; Lagrange basis does not exist."""


class CatalogError(KeyError):
    """Requested test problem is not in the catalog."""


class UnsupportedDiagnosticError(RuntimeError):
    """A diagnostic needs a derivative oracle the problem does not provide."""
