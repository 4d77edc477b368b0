import warnings

import pytest

from hypersample.geometry import SpaceParams
from hypersample.transforms import calibrate_plancherel

# To report a failing example, hypothesis's pytest plugin imports libcst,
# whose libcst.metadata calls mypy_extensions.TypedDict, which warns.  Under
# filterwarnings = ["error"] that warning would end the whole session with
# an INTERNALERROR; imported once here with only that warning ignored, the
# failure is reported as one and the session goes on.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is "
                            "deprecated", DeprecationWarning)
    try:
        import libcst.metadata  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def calibration():
    """One calibration run shared by the whole session."""
    return calibrate_plancherel()


@pytest.fixture(scope="session")
def space(calibration):
    """SpaceParams carrying the measured spectral density constant."""
    return SpaceParams().with_scale(calibration.scale)
