"""Sampling, frames and splines for band-limited functions on the
hyperbolic plane, with a 1-D Euclidean baseline and an experiment CLI."""

__version__ = "0.1.0"

from .errors import (
    CalibrationInconsistent,
    CertificationFailed,
    ConfigError,
    HypersampleError,
    MultiplierVanishes,
    NotAFrame,
    ProblemTooLarge,
    SingularKernel,
    TailMassExceeded,
    TailTooLarge,
)
from .geometry import (
    SpaceParams,
    ball_volume,
    busemann,
    circle_points,
    distance,
    euclidean_radius,
)
from .spectral import (
    IDENTITY,
    Multiplier,
    SpectralCoeffs,
    SpectralGrid,
    apply_multiplier,
    build_grid,
    sobolev_multiplier,
    spherical_function,
)
from .transforms import (
    CalibrationResult,
    PolarGrid,
    build_polar_grid,
    calibrate_plancherel,
    forward_transform,
    inverse_on_grid,
    inverse_transform,
    tail_mass_fraction,
)
from .bandlimited import (
    BandlimitedFunction,
    bernstein_check,
    synthesize,
)
from .lattice import (
    Lattice,
    build_lattice,
    certify_cover,
    certify_multiplicity,
)
from .sampling import (
    FrameSystem,
    SampleSet,
    build_frame,
    convolution_samples,
    point_samples,
    reconstruct,
)
from .splines import (
    PolyharmonicKernel,
    SplineInterpolant,
    SplineSystem,
    build_splines,
    polyharmonic_kernel,
    spline_band_projection,
    spline_interpolate,
    spline_reconstruct_deconvolve,
)
from .sphavg import (
    AverageSpec,
    average_multiplier,
    near_identity_check,
    spherical_average_direct,
    theorem73_experiment,
)
from .baseline1d import (
    Signal1D,
    exp_frame_gram,
    gram_reconstruct,
    sinc_reconstruct,
    synthesize_1d,
)
from .cli import ExperimentConfig, load_config, run, verify_all

__all__ = [name for name in dir() if not name.startswith("_")]
