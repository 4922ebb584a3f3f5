"""Least-squares fits against their pinned outputs.

tests/fixtures/pin_linear_fits.py wrote the pin from the per-caller QR
fits that preceded one shared least-squares QR; the tolerance leaves
room for BLAS differences between hosts, and a zero in the pin (a
zero-variance feature, a perfect fit's standard errors) must stay an
exact zero.
"""

import importlib.util
import json
import os

import numpy as np
import pytest

import reference

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
_spec = importlib.util.spec_from_file_location(
    "pin_linear_fits", os.path.join(FIXTURES, "pin_linear_fits.py")
)
pin = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pin)

with open(os.path.join(FIXTURES, "linear_fit_pin.json"), "r", encoding="utf-8") as _fh:
    PIN = json.load(_fh)
X, Y, Z = (np.array(PIN["inputs"][key], dtype=float) for key in ("x", "y", "z"))


def _assert_matches(got, want):
    want = np.asarray(want, dtype=float)
    np.testing.assert_array_equal(np.asarray(got) == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize(
    "case", PIN["tensors"], ids=lambda c: f"{c['statistic']}-{c['sampler']}"
)
def test_tensor_matches_pin(case):
    _assert_matches(pin.tensor_pairs(X, Y, Z, case["statistic"], case["sampler"]), case["pairs"])


@pytest.mark.parametrize("case", PIN["sampler_fits"], ids=lambda c: c["sampler"])
def test_sampler_fit_matches_pin(case):
    fitted, resid = pin.sampler_fit(X, Z, case["sampler"])
    _assert_matches(fitted, case["fitted_mean"])
    _assert_matches(resid, case["residuals"])


@pytest.mark.parametrize("case", PIN["ols"], ids=lambda c: c["name"])
def test_ols_matches_pin(case):
    design, response = pin.ols_designs(X, Y, Z)[case["name"]]
    fit = reference.ols(design, response)
    _assert_matches(fit.coef, case["coef"])
    _assert_matches(fit.se, case["se"])
    _assert_matches(fit.sigma2, case["sigma2"])
