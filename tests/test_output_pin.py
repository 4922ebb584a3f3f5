"""End-to-end outputs against their pin.

tests/fixtures/pin_outputs.py wrote the pin. Tensor entries and
thresholds are compared at rel 1e-9, with an absolute floor of 1e-12 of
the compared array's largest entry, so BLAS differences between hosts
do not matter; rejection sets and zero counts must match exactly. The
simulation rows are ratios of small integers and must match bit for bit.
"""

import importlib.util
import json
import os
import warnings

import numpy as np
import pytest

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
_spec = importlib.util.spec_from_file_location(
    "pin_outputs", os.path.join(FIXTURES, "pin_outputs.py")
)
pin = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pin)

with open(os.path.join(FIXTURES, "output_pin.json"), "r", encoding="utf-8") as _fh:
    PIN = json.load(_fh)


def _assert_close(got, want):
    want = np.asarray(want, dtype=float)
    floor = 1e-12 * float(np.max(np.abs(want), initial=0.0))
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=floor)


@pytest.mark.parametrize(
    "case", PIN["tensors"], ids=lambda c: f"{c['statistic']}-{c['sampler']}"
)
def test_tensor_and_methods_match_pin(case):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        summary, methods = pin.tensor_case(case["statistic"], case["sampler"])
    want = case["tensor"]
    _assert_close(summary["observed"], want["observed"])
    _assert_close(summary["draw_sum"], want["draw_sum"])
    assert summary["zeros"] == want["zeros"]
    assert set(methods) == set(case["methods"])
    for method, got in methods.items():
        expected = case["methods"][method]
        _assert_close([got["t1"], got["t2"]], [expected["t1"], expected["t2"]])
        assert got["rejected"] == expected["rejected"], method


@pytest.mark.parametrize("case", PIN["replications"], ids=lambda c: f"dgp{c['dgp']}")
def test_replication_rows_match_pin(case):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = pin.replication_rows(case["dgp"])
    assert rows == case["rows"]
