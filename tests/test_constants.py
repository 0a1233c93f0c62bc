"""Physical constants and the package's import footprint."""

import os
import subprocess
import sys

import numpy as np
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


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone breaks `import *`
    assert len(set(pulsescope.__all__)) == len(pulsescope.__all__)
    assert [n for n in pulsescope.__all__ if not hasattr(pulsescope, n)] == []


def test_star_import_binds_the_export_list():
    namespace = {}
    exec("from pulsescope import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(pulsescope.__all__)
