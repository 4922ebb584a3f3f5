"""Pin the GLM Wald kernel's outputs on small seeded inputs.

Run from the repository root against the kernel to pin:

    PYTHONPATH=src python3 tests/fixtures/pin_glm_kernel.py

It writes tests/fixtures/glm_kernel_pin.json: the inputs of every case
(designs rounded to four decimals, integer responses) and the
marginal/conditional statistics that ``stats._glm_wald`` returns for
them on the reduced and full designs, with the worse of the two fit
statuses. The full design is [1, x, z] and the reduced one [1, x], so
_glm_wald is handed the exposure columns x with and without z.
tests/test_accel.py compares the current kernel against the file.
Regenerate it only when a change to the fitting rules is intended, and
say why in CHANGES.md.
"""

import json
import os

import numpy as np

from fdr2d import _accel, stats

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "glm_kernel_pin.json")

N, M = 30, 6
NB_SIZE = 3.0
FAMILY_NAMES = {_accel.BINOMIAL: "binomial", _accel.POISSON: "poisson", _accel.NEGBINOM: "negbinom"}


def _responses(rng, eta, family):
    mu = np.exp(eta)
    if family == _accel.BINOMIAL:
        return (rng.random(eta.shape) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    if family == _accel.POISSON:
        return rng.poisson(mu).astype(float)
    return rng.negative_binomial(NB_SIZE, NB_SIZE / (NB_SIZE + mu)).astype(float)


def _case(name, rng, family, p, max_iter=50, edit=None):
    x = np.round(rng.normal(size=(N, p)), 4)
    z = np.round(0.5 * x[:, :1] + rng.normal(size=(N, 1)), 4)
    eta = 0.2 + 0.6 * x[:, :1] - 0.4 * z + rng.normal(scale=0.3, size=(N, M))
    ymat = _responses(rng, eta, family)
    d_full = np.column_stack([np.ones(N), x, z])
    d_red = np.column_stack([np.ones(N), x])
    if edit is not None:
        d_full, d_red, ymat = edit(d_full, d_red, ymat)
    # the IRLS iteration limit is a module constant; one case lowers it
    stats._MAX_ITER = max_iter
    assert np.array_equal(d_red, d_full[:, : 1 + p])
    xs, zc = d_full[None, :, 1 : 1 + p], d_full[:, 1 + p :]
    args = (ymat, FAMILY_NAMES[family], NB_SIZE, False)
    tc, full_status = stats._glm_wald(xs, zc, *args)
    tm, red_status = stats._glm_wald(xs, zc[:, :0], *args)
    tm, tc, warn = tm[0], tc[0], np.maximum(full_status, red_status)[0]
    return {
        "name": name,
        "family": family,
        "p": p,
        "nb_size": NB_SIZE,
        "max_iter": max_iter,
        "tol": stats._TOL,
        "d_full": d_full.tolist(),
        "d_red": d_red.tolist(),
        "ymat": ymat.astype(int).tolist(),
        "tm": np.asarray(tm).tolist(),
        "tc": np.asarray(tc).tolist(),
        "warn": np.asarray(warn).astype(int).tolist(),
    }


def _degenerate_columns(d_full, d_red, ymat):
    # column 0 separated by the exposure, column 1 all zero, column 2 all one
    ymat = ymat.copy()
    ymat[:, 0] = (d_full[:, 1] > 0).astype(float)
    ymat[:, 1] = 0.0
    ymat[:, 2] = 1.0
    return d_full, d_red, ymat


def _zero_counts(d_full, d_red, ymat):
    ymat = ymat.copy()
    ymat[:, 0] = 0.0
    return d_full, d_red, ymat


def _duplicated_column(d_full, d_red, ymat):
    # the confounder repeats the exposure, so only the full design is singular
    d_full = d_full.copy()
    d_full[:, -1] = d_full[:, 1]
    return d_full, d_red, ymat


def main():
    rng = np.random.default_rng(20_220_523)
    cases = []
    for family, label in (
        (_accel.BINOMIAL, "binomial"),
        (_accel.POISSON, "poisson"),
        (_accel.NEGBINOM, "negbinom"),
    ):
        for p in (1, 2):
            cases.append(_case(f"{label}-p{p}", rng, family, p))
    cases.append(_case("binomial-degenerate", rng, _accel.BINOMIAL, 1, edit=_degenerate_columns))
    cases.append(_case("poisson-all-zero", rng, _accel.POISSON, 1, edit=_zero_counts))
    cases.append(_case("poisson-singular", rng, _accel.POISSON, 1, edit=_duplicated_column))
    cases.append(_case("binomial-iteration-limit", rng, _accel.BINOMIAL, 1, max_iter=2))
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"cases": cases}, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(cases)} cases to {OUT}")


if __name__ == "__main__":
    main()
