import subprocess
import sys
from pathlib import Path

import pytest

import driftflight

# every name `driftflight/__init__.py` imported eagerly before validation
# (and with it scipy.integrate) became a lazy import
PACKAGE_NAMES = [
    "MixtureParams", "cdf_radial_projection", "cf_nu1", "cf_projection", "density_nu1",
    "density_nu1_closed", "density_projection", "fractional_poisson_pmf",
    "mixture_tail_bound", "radial_density_nu1", "radial_density_projection",
    "radial_moment", "unconditional_density_projection",
    "angles_to_direction", "angular_density", "marginal_angular_density", "sample_angles",
    "FlightParams", "Trajectory", "draws_per_flight", "project", "radial",
    "replicate_stream", "simulate_batch", "simulate_flight", "simulate_trajectories",
    "CoeffTable", "bessel_j", "bessel_j_ratio", "double_factorial_odd",
    "falling_factorial_coeffs", "gamma", "mittag_leffler_paper",
    "intertime_density", "sample_intertimes",
    "GofReport", "IdentityReport", "SuiteConfig", "check_identity", "gof_cf",
    "gof_radial", "ks_distance", "run_suite",
]

_PROBE = """
import sys
sys.path.insert(0, {src!r})
import {module}
import driftflight
assert "scipy.integrate" not in sys.modules, "import {module} loaded scipy.integrate"
for name in {names!r}:
    scope = {{}}
    exec(f"from driftflight import {{name}}", scope)
    assert scope[name] is getattr(driftflight, name), name
from driftflight import validation
for name in ("run_suite", "SuiteConfig", "check_identity"):
    assert getattr(driftflight, name) is getattr(validation, name), name
print("ok")
"""


@pytest.mark.parametrize("module", ["driftflight", "driftflight.cli"])
def test_import_leaves_scipy_integrate_unloaded(module):
    # scipy.integrate costs about 0.3 s and 26 MB at import and the package
    # does not use it; a fresh interpreter shows what import pays
    src = str(Path(driftflight.__file__).resolve().parents[1])
    probe = _PROBE.format(src=src, module=module, names=PACKAGE_NAMES)
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ok"


_VALIDATE_PROBE = """
import sys
sys.path.insert(0, {src!r})
from driftflight import cli
assert cli.main(["validate", "--only", "identities", "--out", {out!r}]) == 0
assert "scipy.integrate" not in sys.modules, "validate loaded scipy.integrate"
print("ok")
"""


def test_identity_checks_leave_scipy_integrate_unloaded(tmp_path):
    # the identity checks integrate with their own array kernel
    src = str(Path(driftflight.__file__).resolve().parents[1])
    probe = _VALIDATE_PROBE.format(src=src, out=str(tmp_path / "report.json"))
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ok"


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError):
        driftflight.no_such_name  # noqa: B018
