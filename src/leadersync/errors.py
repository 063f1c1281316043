"""Exception types for synthesis, simulation, and scenario handling.

Errors that correspond to a violated design assumption carry a class
attribute ``assumption`` with the registry number used in CLI messages:

1. (A, B) is stabilizable.
2. Every follower is reachable from the leader node by a directed path.
3. A common diagonal scaling exists for all switching modes.
"""


class LeaderSyncError(Exception):
    """Base class for all package errors."""


class InvalidMatrix(LeaderSyncError):
    """Input matrix violates a shape, symmetry, or finiteness requirement."""


class NumericalOverflow(LeaderSyncError):
    """A computation left the finite floating-point range."""


class EigenFailure(LeaderSyncError):
    """The LAPACK eigenvalue or singular-value solver did not converge."""


class LyapunovSingular(LeaderSyncError):
    """The vectorized Lyapunov system is singular or too ill-conditioned."""


class NotStabilizable(LeaderSyncError):
    """(A, B) has an uncontrollable mode with nonnegative real part."""

    assumption = 1


class CareFailure(LeaderSyncError):
    """The Riccati iteration failed or its solution failed validation."""


class UnreachableGraph(LeaderSyncError):
    """Some follower has no directed path from the leader node."""

    assumption = 2


class DConstructionFailure(LeaderSyncError):
    """Diagonal scaling construction or its definiteness check broke down."""


class CommonDNotFound(LeaderSyncError):
    """The common diagonal scaling search exhausted its candidates.

    The search is incomplete, so a valid scaling may still exist.
    """

    assumption = 3


class EnumerationTooLarge(LeaderSyncError):
    """Requested follower count exceeds the enumeration cap."""


class InvalidTime(LeaderSyncError):
    """A signal query time is outside [0, inf)."""


class InvalidSchedule(LeaderSyncError):
    """Sampling schedule parameters are inconsistent or off the time lattice."""


class IncompleteTrace(LeaderSyncError):
    """Simulation output lacks rows at one or more sampling instants."""


class ScenarioError(LeaderSyncError):
    """Scenario text is malformed; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
