"""Pin what every simulation generator draws from a seeded rng.

Run from the repository root against the code to pin:

    PYTHONPATH=src python3 tests/fixtures/pin_generators.py

It writes tests/fixtures/generator_pin.json: for each dgp 1-11, and for
a global-null and an AR(1)-error variant, one ``sim.gen_dataset`` draw
summarised by the kinds of x, y and z, the null mask, the sum and the
second and third moments of each of x, y and z with the column sums of
y, and, for every block that holds integers (a binary exposure or
confounder, binary or count outcomes), its values.

tests/test_generator_pin.py compares the current code against the file:
moments at rel 1e-9, everything else exactly. Regenerate it only when a
change to a generator is meant to change what it draws, and say why in
CHANGES.md.
"""

import json
import os

import numpy as np

from fdr2d import sim

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "generator_pin.json")

N, M = 40, 12
SEED = 20_221_019
# case name -> SimConfig settings beyond the shared ones
CASES = {f"dgp{dgp}": {"dgp": dgp} for dgp in range(1, 12)}
CASES["dgp2-global-null"] = {"dgp": 2, "global_null": True}
CASES["dgp10-global-null"] = {"dgp": 10, "global_null": True}
CASES["dgp1-ar1"] = {"dgp": 1, "ar1_errors": 0.5}


def _block(values, integer):
    out = {
        "sum": float(values.sum()),
        "moment2": float(np.mean(values**2)),
        "moment3": float(np.mean(values**3)),
    }
    if integer:
        out["values"] = values.astype(np.int64).tolist()
    return out


def generator_case(name):
    """The summary of one case's dataset and truth mask."""
    config = sim.SimConfig(n=N, m=M, rho=1.0, pi=0.5, l=0.5, reps=1, **CASES[name])
    dataset, truth = sim.gen_dataset(config, np.random.default_rng(SEED))
    y = _block(dataset.y, dataset.y_kind != "continuous")
    y["column_sums"] = dataset.y.sum(axis=0).tolist()
    return {
        "kinds": [dataset.x_kind, dataset.y_kind, list(dataset.z_kinds)],
        "is_null": truth.is_null.tolist(),
        "x": _block(dataset.x, dataset.x_kind == "binary"),
        "y": y,
        "z": _block(dataset.z, dataset.z_kinds == ("binary",)),
    }


def main():
    cases = {name: generator_case(name) for name in CASES}
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(cases)} generator cases to {OUT}")


if __name__ == "__main__":
    main()
