"""Physical constants and the package's import footprint."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.constants

import pulsescope
from pulsescope.constants import C_LIGHT, EPSILON_0, HBAR


def test_constants_are_codata_2022():
    assert C_LIGHT == 299792458.0
    assert EPSILON_0 == 8.8541878188e-12
    assert HBAR == 1.0545718176461565e-34
    # independent check against the installed scipy
    np.testing.assert_allclose(
        [C_LIGHT, EPSILON_0, HBAR],
        [scipy.constants.c, scipy.constants.epsilon_0, scipy.constants.hbar],
        rtol=1e-9)


def test_import_loads_only_scipy_special():
    src = os.path.dirname(os.path.dirname(pulsescope.__file__))
    code = ("import sys, pulsescope; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.constants', "
            "'scipy.fft', 'scipy.signal') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def _scipy_modules_after(code, *argv):
    # the scipy modules loaded by code, run in a fresh interpreter
    code += ("; import json; print(json.dumps(sorted(m for m in sys.modules "
             "if m.startswith('scipy'))))")
    src = os.path.dirname(os.path.dirname(pulsescope.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, *argv],
                         env=env, check=True, capture_output=True, text=True,
                         timeout=120).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("module", ["pulsescope", "pulsescope.cli"])
def test_import_loads_no_scipy(module):
    assert _scipy_modules_after(f"import sys, {module}") == []


# scipy.special is imported at the first J1(x)/x with x != 0: the first six
# commands need it only at rho = 0 or not at all, the last three off axis
@pytest.mark.parametrize("command, loads", [
    ("oracle 10 0.05", False),
    ("spectrum", False),
    ("excite", False),
    ("figure 1b", False),
    ("figure 1c", False),
    ("figure 1c-inset", False),
    ("scenario", True),
    ("focus", True),
    ("resolve", True),
])
def test_command_loads_scipy_special_only_off_zero(tmp_path, command, loads):
    code = ("import sys; from pulsescope.cli import main; "
            "assert main(sys.argv[1:]) == 0")
    modules = _scipy_modules_after(code, "--out", str(tmp_path),
                                   "--grid-scale", "0.3", *command.split())
    assert ("scipy.special" in modules) is loads


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone breaks `import *`
    assert len(set(pulsescope.__all__)) == len(pulsescope.__all__)
    assert [n for n in pulsescope.__all__ if not hasattr(pulsescope, n)] == []


def test_star_import_binds_the_export_list():
    namespace = {}
    exec("from pulsescope import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(pulsescope.__all__)
