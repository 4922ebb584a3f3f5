"""Every simulation generator against its pin.

tests/fixtures/pin_generators.py wrote the pin. Sums and moments are
compared at rel 1e-9; kinds, null masks and integer-valued blocks (a
binary exposure or confounder, binary or count outcomes) must match
exactly.
"""

import importlib.util
import json
import os

import numpy as np
import pytest

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
_spec = importlib.util.spec_from_file_location(
    "pin_generators", os.path.join(FIXTURES, "pin_generators.py")
)
pin = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pin)

with open(os.path.join(FIXTURES, "generator_pin.json"), "r", encoding="utf-8") as _fh:
    PIN = json.load(_fh)


def test_pin_covers_every_case():
    assert set(PIN) == set(pin.CASES)


@pytest.mark.parametrize("name", sorted(pin.CASES))
def test_generator_matches_pin(name):
    got, want = pin.generator_case(name), PIN[name]
    assert got["kinds"] == want["kinds"]
    assert got["is_null"] == want["is_null"]
    for block in ("x", "y", "z"):
        assert set(got[block]) == set(want[block]), block
        for key, value in want[block].items():
            if key == "values":
                assert got[block][key] == value, block
            else:
                np.testing.assert_allclose(got[block][key], value, rtol=1e-9, err_msg=block)
