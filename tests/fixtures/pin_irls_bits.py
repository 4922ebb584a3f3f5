"""Pin the bits of ``_accel.glm_fit_many`` on small seeded stacks.

Run from the repository root against the kernel to pin:

    PYTHONPATH=src python3 tests/fixtures/pin_irls_bits.py

It writes tests/fixtures/irls_bits_pin.json: the inputs of every case
(designs rounded to four decimals, integer responses) and the coef,
cov, status and n_iter that ``glm_fit_many`` returns for them. JSON
writes floats by repr, so they read back to the same bits, and
tests/test_accel.py compares every field with np.array_equal.

The cases cover binomial, poisson and negbinom fits on stacks of
per-draw designs and on one design: fits that stop at different
iterations, a column separated by one draw's exposure, all-zero
columns (separated for binomial, run into the iteration limit for the
count families) and a singular draw. One more binomial design, with a
heavy-tailed exposure, has a column whose fit runs to the iteration
limit with every fitted mean within 1e-8 of 0 or 1 but a row on the
wrong side, so only the separation test after the loop marks it. Regenerate the file only when a
change to the fitting arithmetic is intended, and say why in
CHANGES.md.
"""

import json
import os

import numpy as np

from fdr2d import _accel

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "irls_bits_pin.json")

N, M = 30, 5
NB_SIZE = 3.0
MAX_ITER = 50
TOL = 1e-8


def _responses(rng, eta, family):
    if family == _accel.BINOMIAL:
        return (rng.random(eta.shape) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    mu = np.exp(eta)
    if family == _accel.POISSON:
        return rng.poisson(mu).astype(float)
    return rng.negative_binomial(NB_SIZE, NB_SIZE / (NB_SIZE + mu)).astype(float)


# a binomial design [1, x, z] and its responses: column 0 is separated
# inside the loop, column 1 converges, and column 2, a single 0 among
# 1s, overshoots to saturated means on both sides of the data and runs
# to the iteration limit
SATURATED_DESIGN = [
    [1.0, -6285.6111, -3.364],
    [1.0, -45.8651, -9.4804],
    [1.0, -31.1157, -333.7389],
    [1.0, 2.4795, 3.4347],
    [1.0, -121.1863, -50.2543],
    [1.0, -308.8962, 18.8929],
    [1.0, 7.6572, 11.0104],
]
SATURATED_Y = [[1, 1, 1], [1, 0, 1], [0, 0, 1], [1, 1, 0], [0, 0, 1], [1, 1, 1], [1, 0, 1]]


def _case(name, rng, family, draws, p=1, degenerate=False):
    # draws None: one (N, k) design; otherwise a (draws, N, k) stack
    x = np.round(rng.normal(size=(draws or 1, N, p)), 4)
    z = np.round(rng.normal(size=N), 4)
    eta = 0.2 + 0.5 * z[:, None] + 0.3 * rng.normal(size=(N, M))
    ymat = _responses(rng, eta, family)
    design = np.stack([np.column_stack([np.ones(N), xd, z]) for xd in x])
    if degenerate:
        # column 0 is separated by draw 0's exposure (binomial) or all
        # zero, column 1 all zero, and the last draw repeats its
        # exposure as the confounder, so it is singular
        ymat[:, 0] = (design[0, :, 1] > 0) if family == _accel.BINOMIAL else 0.0
        ymat[:, 1] = 0.0
        design[-1, :, -1] = design[-1, :, 1]
    if draws is None:
        design = design[0]
    return _pinned(name, family, design, ymat)


def _pinned(name, family, design, ymat):
    # the inputs of one case and what glm_fit_many returns for them
    coef, cov, status, n_iter = _accel.glm_fit_many(
        design, ymat, family, NB_SIZE, MAX_ITER, TOL
    )
    return {
        "name": name,
        "family": family,
        "nb_size": NB_SIZE,
        "max_iter": MAX_ITER,
        "tol": TOL,
        "design": design.tolist(),
        "ymat": ymat.astype(int).tolist(),
        "coef": coef.tolist(),
        "cov": cov.tolist(),
        "status": status.tolist(),
        "n_iter": n_iter.tolist(),
    }


def main():
    rng = np.random.default_rng(20_261_018)
    cases = []
    for family, label in (
        (_accel.BINOMIAL, "binomial"),
        (_accel.POISSON, "poisson"),
        (_accel.NEGBINOM, "negbinom"),
    ):
        cases.append(_case(f"{label}-stack", rng, family, 4))
        cases.append(_case(f"{label}-stack-degenerate", rng, family, 3, degenerate=True))
        cases.append(_case(f"{label}-one-design", rng, family, None, p=2))
    saturated = (np.array(SATURATED_DESIGN), np.array(SATURATED_Y, dtype=float))
    cases.append(_pinned("binomial-saturated", _accel.BINOMIAL, *saturated))
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"cases": cases}, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(cases)} cases to {OUT}")


if __name__ == "__main__":
    main()
