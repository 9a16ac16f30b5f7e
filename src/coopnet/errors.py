"""Exception hierarchy for coopnet.

Every failure mode raised by the toolkit derives from :class:`CoopnetError`,
split into three families that the CLI maps onto exit codes: configuration
errors (exit 3), assumption violations (exit 1) and numerical failures
(exit 2).
"""


class CoopnetError(Exception):
    """Base class for all coopnet errors."""


# ---------------------------------------------------------------------------
# configuration / input errors


class ConfigError(CoopnetError):
    """Base class for configuration and input validation errors."""


class ParseError(ConfigError):
    """Config text could not be parsed; carries the offending line number."""

    def __init__(self, line, message):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


class ValidationError(ConfigError):
    """A parsed value violates its contract; carries the field path."""

    def __init__(self, field, message=""):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}" if message else str(field))


class DimensionMismatch(ConfigError):
    """Matrix dimensions are inconsistent with each other."""


class DimensionTooSmall(ConfigError):
    """A construction needs a larger dimension (e.g. complement basis of N=1)."""


class SelfLoop(ConfigError):
    """An edge connects a node to itself."""


class IndexOutOfRange(ConfigError):
    """A node or edge index lies outside [1, N]."""


class InfeasibleDims(ConfigError):
    """Requested random-network dimensions cannot produce a valid scenario."""


class EmptyWindow(ConfigError):
    """A metrics window is empty or exceeds the simulated horizon."""


# ---------------------------------------------------------------------------
# assumption violations


class AssumptionViolation(CoopnetError):
    """Base class for violated standing assumptions."""


class AssumptionFailed(AssumptionViolation):
    """One or more assumption checks failed; carries the failure list."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("; ".join(str(f) for f in self.failures))


class SpectrumNotMarginal(AssumptionViolation):
    """A matrix required to have purely imaginary spectrum does not."""


class RepeatedEigenvalue(SpectrumNotMarginal):
    """A marginal spectrum has an eigenvalue with multiplicity > 1."""


class NotHurwitz(AssumptionViolation):
    """A matrix required to be Hurwitz has an eigenvalue with Re >= 0."""


class NotHyperMinPhase(AssumptionViolation):
    """A node fails the relative-degree-one / stable-zeros conditions."""


class HypothesisViolated(AssumptionViolation):
    """A lemma hypothesis fails; the message names which one."""


class AllSlaves(AssumptionViolation):
    """Master-slave regime with no master node (l = N is not allowed)."""


# ---------------------------------------------------------------------------
# numerical failures


class NumericalFailure(CoopnetError):
    """Base class for numerical breakdowns."""


class EigenFailure(NumericalFailure):
    """Eigenvalue iteration did not converge."""


class SingularPencil(NumericalFailure):
    """Lyapunov/Sylvester operator is singular (shared spectra)."""


class Infeasible(NumericalFailure):
    """No certificate with the required margin exists, or a supplied one
    fails; the message names the condition that fails."""


class SynthesisFailed(NumericalFailure):
    """No lattice gain gives an SPR state loop, or no closed node is stable."""


class InternalModelViolated(NumericalFailure):
    """The regulator output identity failed (malformed internal model)."""


class IdentityViolated(NumericalFailure):
    """A steady-state map identity failed; the message names it."""


class CertificateFailed(NumericalFailure):
    """A certificate fails its check, or an exact test proves none exists."""


class MissingMaps(NumericalFailure):
    """Closed-loop assembly needs regulation maps that were not supplied."""


class NoStableEps(NumericalFailure):
    """No probe point in the coupling-gain grid was stable."""


class UnstableLoop(NumericalFailure):
    """The closed loop has a growing mode at its coupling gain."""


class NonFiniteState(NumericalFailure):
    """Simulation overflowed; carries the index of the first stored sample
    that is not finite."""

    def __init__(self, step):
        self.step = step
        super().__init__(f"non-finite state at stored sample {step}")
