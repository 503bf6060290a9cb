"""Exception types shared across the package."""


class EnsqError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(EnsqError):
    """Operands have incompatible shapes or dimensions."""


class NotHermitian(EnsqError):
    """A matrix required to be Hermitian deviates beyond tolerance."""


class NoConvergence(EnsqError):
    """The eigensolver failed to converge."""


class InvalidNormSpec(EnsqError):
    """Malformed or out-of-range norm selector."""


class InvalidState(EnsqError):
    """A state object (density matrix, pure state, channel) fails validation."""


class BlochOutOfBall(EnsqError):
    """Bloch vector longer than one."""


class ParamOutOfRange(EnsqError):
    """A scalar parameter lies outside its admissible range."""


class NotUnitary(EnsqError):
    """A matrix required to be unitary deviates beyond tolerance."""


class WeightSumInvalid(ParamOutOfRange):
    """Probability weights do not sum to one."""


class DecompositionMismatch(EnsqError):
    """A proposed convex decomposition does not recombine to the target state."""


class InvalidPartition(EnsqError):
    """Index blocks do not form a partition of the ensemble."""


class ZeroBlockProbability(EnsqError):
    """A coarse-graining block carries zero total probability."""


class NonRealAmplitudes(EnsqError):
    """Amplitudes required to be real have an imaginary part."""


class EnsembleFileError(EnsqError):
    """An ensemble file cannot be parsed or validated."""
