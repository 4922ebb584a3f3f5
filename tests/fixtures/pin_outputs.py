"""Pin end-to-end outputs: one tensor per statistic and sampler, and the
per-replication rows of the simulation loop.

Run from the repository root against the code to pin:

    PYTHONPATH=src python3 tests/fixtures/pin_outputs.py

It writes tests/fixtures/output_pin.json with two parts.

``tensors``: for every statistic token under each compatible sampler,
a summary of the ``build_tensor`` tensor on a small seeded dataset (the
observed row, the per-feature sums over the resampled rows and the
count of entries below 1e-12, i.e. zeros up to rounding) and each
tensor method's ``(t1, t2, rejected)`` from one ``apply_methods`` pass.

``replications``: the ``(fdp, power, n_rejected)`` row of every
replication of ``sim.run_method_comparison`` for dgps 1, 3, 5 and 9,
with every method that applies (``bh`` needs a glm statistic, so dgp 3
has no ``bh`` column).

tests/test_output_pin.py compares the current code against the file.
Regenerate it only when a change to the statistics, the samplers, the
search or the simulation is meant to change their outputs, and say why
in CHANGES.md.
"""

import json
import os

import numpy as np

from fdr2d import core, engine, sim

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "output_pin.json")

N, M, B = 50, 12, 19
SEED = 20_221_018
NB_SIZE = 3.0
CONTINUOUS_SAMPLERS = ("residual-perm", "residual-boot", "binned-perm")
ALL_SAMPLERS = CONTINUOUS_SAMPLERS + ("parametric-logistic",)
# statistic token -> the samplers it runs under
TOKENS = {
    "glm:gaussian": ALL_SAMPLERS,
    "glm:binomial": ALL_SAMPLERS,
    "glm:poisson": ALL_SAMPLERS,
    "glm:negbinom": ALL_SAMPLERS,
    "rv": ALL_SAMPLERS,
    "hsic": CONTINUOUS_SAMPLERS,
    "categorical": ("parametric-logistic",),
    "basis-wald": CONTINUOUS_SAMPLERS,
}
# an entry below this counts as a zero: an exact-null statistic can come
# out as 0.0 or as ~1e-16 depending on the summation order
ZERO = 1e-12
TENSOR_METHODS = tuple(m for m in engine.METHODS if m != "bh")
PROCEDURE = dict(q=0.3, pi0_lambda="auto", grid="quantile:20", path_steps=20)

SIM_DGPS = (1, 3, 5, 9)
SIM = dict(n=50, m=20, rho=1.0, pi=0.3, l=0.8, reps=3, seed=7)
SIM_B = 19


def make_dataset(token, sampler):
    """A seeded dataset of the kinds ``token`` and ``sampler`` need.

    The first four features depend on the exposure; the last one is
    constant (a zero-variance feature).
    """
    rng = np.random.default_rng(SEED)
    categorical = token == "categorical"
    z = (rng.random((N, 1)) < 0.5).astype(float) if categorical else rng.normal(size=(N, 1))
    if sampler == "parametric-logistic":
        x = (rng.random((N, 1)) < 1.0 / (1.0 + np.exp(-0.8 * z))).astype(float)
        x_kind = "binary"
    else:
        x = 0.6 * z + rng.normal(size=(N, 1))
        x_kind = "continuous"
    alpha = np.where(np.arange(M) < 4, 1.0, 0.0)
    eta = x * alpha - 0.5 * z + 0.1
    family = token[4:] if token.startswith("glm:") else None
    if family == "binomial" or categorical:
        y = (rng.random((N, M)) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        y_kind = "binary"
    elif family == "poisson":
        y = rng.poisson(np.exp(0.5 * eta)).astype(float)
        y_kind = "count"
    elif family == "negbinom":
        mu = np.exp(0.5 * eta)
        y = rng.negative_binomial(NB_SIZE, NB_SIZE / (NB_SIZE + mu)).astype(float)
        y_kind = "count"
    else:
        y = eta + rng.normal(size=(N, M))
        y_kind = "continuous"
    y[:, -1] = y[0, -1]
    return core.Dataset(x=x, y=y, z=z, x_kind=x_kind, y_kind=y_kind)


def tensor_case(token, sampler):
    """(tensor summary, {method: (t1, t2, rejected)}) for one case."""
    binned = sampler == "binned-perm"
    plan = engine.ResamplePlan(
        sampler, b_count=B, seed=SEED,
        bin_column=0 if binned else None,
        bin_edges=np.array([0.0]) if binned else None,
    )
    size = NB_SIZE if token == "glm:negbinom" else None
    spec = engine.StatisticSpec.from_token(token, size=size)
    tensor = engine.build_tensor(make_dataset(token, sampler), plan, spec)
    pairs = tensor.pairs
    summary = {
        "observed": pairs[0].tolist(),
        "draw_sum": pairs[1:].sum(axis=0).tolist(),
        "zeros": int(np.count_nonzero(pairs < ZERO)),
    }
    results = engine.apply_methods(tensor, engine.ProcedureConfig(**PROCEDURE), TENSOR_METHODS)
    methods = {
        method: {"t1": r.t1, "t2": r.t2, "rejected": r.rejected.tolist()}
        for method, r in results.items()
    }
    return summary, methods


def sim_config(dgp):
    strategy, spline_df = sim.default_sampler_for_dgp(dgp)
    return sim.SimConfig(
        dgp=dgp,
        procedure=engine.ProcedureConfig(q=0.2, grid="quantile:20", path_steps=20),
        sampler=engine.ResamplePlan(strategy, b_count=SIM_B, seed=0, spline_df=spline_df),
        **SIM,
    )


def sim_methods(dgp):
    glm = sim.default_statistic_for_dgp(dgp).kind == "glm"
    return [m for m in engine.METHODS if glm or m != "bh"]


def replication_rows(dgp):
    """{method: [[fdp, power, n_rejected], ...]} over the pinned replications."""
    table = sim.run_method_comparison(sim_config(dgp), sim_methods(dgp))
    return {method: [list(row) for row in s.per_rep] for method, s in table.items()}


def main():
    tensors = []
    for token, samplers in TOKENS.items():
        for sampler in samplers:
            summary, methods = tensor_case(token, sampler)
            tensors.append(
                {"statistic": token, "sampler": sampler, "tensor": summary, "methods": methods}
            )
    replications = [{"dgp": dgp, "rows": replication_rows(dgp)} for dgp in SIM_DGPS]
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"tensors": tensors, "replications": replications}, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(tensors)} tensor cases and {len(replications)} simulation tables to {OUT}")


if __name__ == "__main__":
    main()
