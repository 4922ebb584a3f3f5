"""Pin the outputs of every least-squares fit on small seeded inputs.

Run from the repository root against the code to pin:

    PYTHONPATH=src:tests python3 tests/fixtures/pin_linear_fits.py

It writes tests/fixtures/linear_fit_pin.json: one dataset (inputs
rounded to four decimals, with one zero-variance and one perfectly fitted
outcome column), the ``build_tensor`` pairs of the least-squares
statistics (gaussian Wald at p = 1 and p = 2, basis Wald, RV) under the
three least-squares samplers, the fitted means and residuals of those
samplers, and the coefficients, standard errors and residual variance
of ``reference.ols`` (tests/reference.py) on an ordinary and a
perfect-fit design.
tests/test_linear_fit_pin.py compares the current code against the
file. Regenerate it only when a change to the fitting rules is
intended, and say why in CHANGES.md.
"""

import json
import os

import numpy as np

import reference
from fdr2d import core, engine, samplers

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "linear_fit_pin.json")

N, M, B = 40, 12, 5
SEED = 20_220_524
Z_KINDS = ("continuous", "binary")

# the least-squares samplers and their plan fields
SAMPLERS = {
    "residual-perm": {},
    "residual-boot": {"spline_df": 5},
    "binned-perm": {"bin_column": 0, "bin_edges": [0.0]},
}
# statistic token and exposure width
STATISTICS = {
    "glm-gaussian-p1": ("glm:gaussian", 1),
    "glm-gaussian-p2": ("glm:gaussian", 2),
    "basis-wald": ("basis-wald", 1),
    "rv": ("rv", 1),
}


def make_inputs():
    rng = np.random.default_rng(SEED)
    z = np.column_stack([rng.normal(size=N), (rng.random(N) < 0.5).astype(float)])
    x = 0.7 * z[:, :1] - 0.4 * z[:, 1:] + rng.normal(size=(N, 2))
    y = 0.5 * x[:, :1] + 0.3 * z[:, :1] + rng.normal(size=(N, M))
    x, z, y = (np.round(a, 4) for a in (x, z, y))
    y[:, -2] = 1.5
    y[:, -1] = 1.0 + 2.0 * x[:, 0] - z[:, 0]
    return x, y, z


def tensor_pairs(x, y, z, statistic, sampler):
    token, p = STATISTICS[statistic]
    dataset = core.Dataset(x[:, :p], y, z, z_kinds=Z_KINDS)
    fields = dict(SAMPLERS[sampler])
    if "bin_edges" in fields:
        fields["bin_edges"] = np.array(fields["bin_edges"])
    plan = engine.ResamplePlan(sampler, b_count=B, seed=SEED, **fields)
    return engine.build_tensor(dataset, plan, engine.StatisticSpec.from_token(token)).pairs


def sampler_fit(x, z, sampler):
    fields = SAMPLERS[sampler]
    model = samplers.fit_for_strategy(
        sampler, x, z, z_kinds=Z_KINDS, spline_df=fields.get("spline_df"),
        bin_column=fields.get("bin_column"), bin_edges=fields.get("bin_edges"),
    )
    return model.fitted_mean, model.residuals


def ols_designs(x, y, z):
    # the perfect-fit response is 1 + 2 x0 - z0: no coefficient is zero, so
    # none is left to rounding noise
    ordinary = np.column_stack([np.ones(N), x, z])
    perfect = np.column_stack([np.ones(N), x[:, 0], z[:, 0]])
    return {"ordinary": (ordinary, y[:, 0]), "perfect-fit": (perfect, y[:, -1])}


def main():
    x, y, z = make_inputs()
    tensors = [
        {"statistic": stat, "sampler": smp, "pairs": tensor_pairs(x, y, z, stat, smp).tolist()}
        for stat in STATISTICS
        for smp in SAMPLERS
    ]
    fits = []
    for smp in SAMPLERS:
        fitted, resid = sampler_fit(x, z, smp)
        fits.append({"sampler": smp, "fitted_mean": fitted.tolist(), "residuals": resid.tolist()})
    ols = []
    for name, (design, response) in ols_designs(x, y, z).items():
        fit = reference.ols(design, response)
        ols.append(
            {"name": name, "coef": fit.coef.tolist(), "se": fit.se.tolist(), "sigma2": fit.sigma2}
        )
    doc = {
        "inputs": {"x": x.tolist(), "y": y.tolist(), "z": z.tolist()},
        "tensors": tensors,
        "sampler_fits": fits,
        "ols": ols,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(tensors)} tensors, {len(fits)} sampler fits, {len(ols)} ols fits to {OUT}")


if __name__ == "__main__":
    main()
