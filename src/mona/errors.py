"""Exception hierarchy shared by all mona modules."""


class MonaError(Exception):
    """Base class for all errors raised by this package."""


class NetlistError(MonaError):
    """Netlist text could not be parsed or violates element constraints."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TopologyError(MonaError):
    """Circuit graph is structurally unusable (disconnected, bad stamps)."""


class MeshError(MonaError):
    """Mesh, material, or winding data violates its invariants."""


class GaugeError(MeshError):
    """Gauged stiffness matrix is singular or not finite (see build_field_model)."""


class SolverError(MonaError):
    """Newton iteration or linear solve failed."""


class ConsistencyError(MonaError):
    """Initial state does not satisfy the algebraic constraints."""
