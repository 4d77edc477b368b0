"""Exception types shared across the package."""


class HypersampleError(Exception):
    """Base class for all package specific failures."""


class CalibrationInconsistent(HypersampleError):
    """Plancherel calibration produced inconsistent scales across test functions."""


class TailMassExceeded(HypersampleError):
    """Spatial mass outside the working ball exceeds the configured tolerance."""


class TailTooLarge(HypersampleError):
    """Spectral tail beyond the grid cutoff exceeds the configured tolerance."""


class NotAFrame(HypersampleError):
    """The sampled system is numerically degenerate on its own span."""


class MultiplierVanishes(HypersampleError):
    """A convolution multiplier has a near-zero on the band, deconvolution is unstable."""


class SingularKernel(HypersampleError):
    """Spline kernel matrix is numerically singular."""


class CertificationFailed(HypersampleError):
    """A lattice certification (packing, cover or multiplicity) failed."""


class ProblemTooLarge(HypersampleError):
    """An array the computation needs cannot be allocated."""


class ConfigError(HypersampleError):
    """Malformed experiment configuration."""


class NumericalFailure(HypersampleError, ArithmeticError):
    """A numerical method missed its own accuracy check (a quadrature residue,
    a stalled iteration, an unconverged series)."""
