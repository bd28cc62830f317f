"""Exception hierarchy.

Two families matter for the CLI exit-code contract: HypothesisFailure means
the inputs violate a mathematical precondition (exit code 2), while
ComputationFailure means a configured resource bound or an invalid
intermediate state was hit (exit code 1).
"""


class DualSelmerError(Exception):
    """Base class for every error raised by this package."""


class HypothesisFailure(DualSelmerError):
    """A mathematical hypothesis on the inputs does not hold."""


class ComputationFailure(DualSelmerError):
    """A computation exceeded a bound or received an invalid object."""


class NotPrime(HypothesisFailure):
    """An argument that must be a rational prime is not."""


class SamePrime(HypothesisFailure):
    """The residue characteristic q coincides with p where it must not."""


class SingularCurve(HypothesisFailure):
    """The Weierstrass coefficients define a singular cubic."""


class BadReduction(HypothesisFailure):
    """The curve does not have good reduction at the requested prime."""


class NotOrdinary(HypothesisFailure):
    """p divides the trace of Frobenius, so there is no unit root."""


class DegreeOutOfRange(ComputationFailure):
    """Field degree below 1, or an extension F_(q^k), k > 1, whose modulus
    search would pass the enumeration bound on q^k."""


class FieldTooLarge(ComputationFailure):
    """A point count over F_q with q above the count bound 10^12, or an
    element enumeration over a field above the enumeration bound."""


class MixedContexts(ComputationFailure):
    """Operands live in different field contexts."""


class ZeroPolynomial(ComputationFailure):
    """The zero polynomial was passed where a nonzero one is required."""


class ZeroInput(ComputationFailure):
    """Zero passed where a nonzero integer is required."""


class BadIndex(ComputationFailure):
    """Division polynomial index below 1."""


class NotMultiplicative(ComputationFailure):
    """A multiplicative reduction type was required."""


class PossiblyNonMinimal(ComputationFailure):
    """The model fails the per-prime minimality sanity check."""


class FactoringIncomplete(ComputationFailure):
    """Trial division left a composite residual above the bound."""


class DivisorSearchExhausted(ComputationFailure):
    """The rational-root divisor enumeration could not be completed."""


class RegistryError(ComputationFailure):
    """The curve registry file is unreadable or malformed."""
