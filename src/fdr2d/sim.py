"""Synthetic studies: signal generation, data generating processes,
and replication loops reporting empirical error and power.

Eleven generators share one shape: a univariate exposure X tied to a
univariate confounder Z, and m outcome features built from signal
coefficients alpha (exposure effects, the hypotheses under test) and
beta (confounder effects). alpha_j = 0 marks feature j as null.

Continuous exposures are rescaled to unit sample variance after
generation so the effect sizes mean the same thing at every degree of
confounding.
"""

import dataclasses
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _rng, core, engine

_BINARY_X_DGPS = (5, 6, 7, 8)
_DISCRETE_Y_DGPS = (9, 10, 11)


def default_statistic_for_dgp(dgp):
    """Statistic matching each generator's outcome family and shape."""
    if dgp in (2, 3, 4):
        return engine.StatisticSpec(kind="rv", spline_df=5)
    if dgp == 9:
        return engine.StatisticSpec(kind="glm", family="binomial")
    if dgp == 10:
        return engine.StatisticSpec(kind="glm", family="poisson")
    if dgp == 11:
        return engine.StatisticSpec(kind="glm", family="negbinom", size=3.0)
    return engine.StatisticSpec(kind="glm", family="gaussian")


def default_sampler_for_dgp(dgp):
    """(strategy, spline_df) matching each generator's exposure model."""
    if dgp in _BINARY_X_DGPS:
        return "parametric-logistic", None
    if dgp in (2, 3, 4):
        # nonlinear conditional mean of X given Z
        return "residual-perm", 5
    return "residual-perm", None


@dataclass
class SimConfig:
    """One simulation scenario: generator, scale, signals, procedure."""

    dgp: int
    n: int = 100
    m: int = 1000
    rho: float = 1.0
    pi: float = 0.1
    l: float = 0.3
    reps: int = 100
    seed: int = 0
    procedure: engine.ProcedureConfig = field(default_factory=engine.ProcedureConfig)
    statistic: Optional[engine.StatisticSpec] = None
    sampler: Optional[engine.ResamplePlan] = None
    pi_alpha: Optional[float] = None
    pi_beta: Optional[float] = None
    ar1_errors: Optional[float] = None
    global_null: bool = False

    def __post_init__(self):
        if self.dgp not in range(1, 12):
            raise ValueError(f"unknown dgp {self.dgp}; expected 1..11")
        if not 0.0 <= self.pi <= 1.0:
            raise ValueError("pi must lie in [0, 1]")
        for name in ("pi_alpha", "pi_beta"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.l <= 0.0:
            raise ValueError("l must be positive")
        if self.n < 10:
            raise ValueError("n must be at least 10")
        if self.m < 1 or self.reps < 1:
            raise ValueError("m and reps must be positive")
        if self.ar1_errors is not None and not abs(self.ar1_errors) < 1.0:
            raise ValueError("ar1_errors must lie strictly inside (-1, 1)")
        if self.statistic is None:
            self.statistic = default_statistic_for_dgp(self.dgp)
        if self.sampler is None:
            strategy, df = default_sampler_for_dgp(self.dgp)
            self.sampler = engine.ResamplePlan(
                strategy, b_count=100, seed=0, spline_df=df
            )


def _mixture_draw(m, pi, l, rng):
    # (pi/2) U(-l-0.2, -l) + (pi/2) U(l, l+0.2) + (1-pi) point mass at 0
    u = rng.random(m)
    mag = rng.uniform(l, l + 0.2, size=m)
    out = np.zeros(m)
    out[u < pi / 2] = -mag[u < pi / 2]
    pos = (u >= pi / 2) & (u < pi)
    out[pos] = mag[pos]
    return out


def gen_signals(m, pi, l, rng, pi_alpha=None, pi_beta=None):
    """Effect-size vectors (alpha, beta) and the null mask alpha == 0."""
    pa = pi if pi_alpha is None else pi_alpha
    pb = pi if pi_beta is None else pi_beta
    alpha = _mixture_draw(m, pa, l, rng)
    beta = _mixture_draw(m, pb, l, rng)
    return alpha, beta, core.TruthMask(is_null=(alpha == 0.0))


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


# Exposure mean h(Z) for the continuous-X generators (X ~ N(rho h(Z), 1)).
_H = {
    1: lambda z: z,
    2: lambda z: z**2,
    3: lambda z: z + z**2,
    4: lambda z: z + z**2,
    9: lambda z: z,
    10: lambda z: z,
    11: lambda z: z,
}

# Outcome link pieces: Y_j = alpha_j f(X) + beta_j g(Z) + eps_j for the
# additive generators; eta_j = alpha_j X + beta_j Z inside the family
# link for the discrete-outcome ones.
_F = {
    1: lambda x: x,
    2: lambda x: x**3,
    3: lambda x: x**3,
    4: lambda x: x + np.abs(x) ** 3,
    5: np.exp,
    6: np.exp,
    7: np.exp,
    8: lambda x: x,
}

_G = {
    1: lambda z: z,
    2: np.exp,
    3: lambda z: z**3,
    4: np.exp,
    5: lambda z: z,
    6: np.exp,
    7: lambda z: z**2,
    8: lambda z: z,
}


def _error_matrix(n, m, ar1, rng):
    e = rng.standard_normal((n, m))
    if ar1 is None:
        return e
    c = float(ar1)
    eps = np.empty_like(e)
    # stationary start so every feature sees the same error law
    eps[:, 0] = e[:, 0] / np.sqrt(1.0 - c * c)
    for j in range(1, m):
        eps[:, j] = c * eps[:, j - 1] + e[:, j]
    return eps


def _dgp_kinds(dgp):
    """(x_kind, y_kind, z_kinds) of every dataset the generator makes."""
    x_kind = "binary" if dgp in _BINARY_X_DGPS else "continuous"
    y_kind = {9: "binary", 10: "count", 11: "count"}.get(dgp, "continuous")
    return x_kind, y_kind, ("binary",) if dgp == 8 else ("continuous",)


def gen_dataset(config, rng):
    """One draw of (Dataset, TruthMask) from the configured generator.

    Draw order is fixed (signals, Z, X, outcome noise) so a seeded rng
    reproduces the dataset exactly.
    """
    dgp, n, m = config.dgp, config.n, config.m
    alpha, beta, truth = gen_signals(
        m, config.pi, config.l, rng, config.pi_alpha, config.pi_beta
    )
    if config.global_null:
        alpha = np.zeros(m)
        truth = core.TruthMask(is_null=np.ones(m, dtype=bool))

    if dgp == 8:
        z = (rng.random(n) < 0.7).astype(float)
    else:
        z = rng.standard_normal(n)

    if dgp in _BINARY_X_DGPS:
        x = (rng.random(n) < _sigmoid(config.rho * z)).astype(float)
    else:
        x = config.rho * _H[dgp](z) + rng.standard_normal(n)
        x = x / np.std(x, ddof=1)

    if dgp in _DISCRETE_Y_DGPS:
        eta = np.outer(x, alpha) + np.outer(z, beta)
        if dgp == 9:
            y = (rng.random((n, m)) < _sigmoid(eta)).astype(float)
        elif dgp == 10:
            y = rng.poisson(np.exp(eta)).astype(float)
        else:
            mu = np.exp(eta)
            size = 3.0
            y = rng.negative_binomial(size, size / (size + mu)).astype(float)
    else:
        signal = np.outer(_F[dgp](x), alpha) + np.outer(_G[dgp](z), beta)
        if config.global_null:
            # pure confounding, no noise: Y_j = beta_j g(Z) exactly
            y = signal
        else:
            y = signal + _error_matrix(n, m, config.ar1_errors, rng)

    x_kind, y_kind, z_kinds = _dgp_kinds(dgp)
    dataset = core.Dataset(
        x=x, y=y, z=z, x_kind=x_kind, y_kind=y_kind, z_kinds=z_kinds
    )
    return dataset, truth


def score_rejections(rejected, truth):
    """(FDP, power) of a rejection set against the ground truth.

    FDP is 0 when nothing is rejected; power is 0 under the global
    null (both via the max(1, .) floor).
    """
    rej = np.asarray(rejected, dtype=np.int64)
    null = truth.is_null
    n_false = int(np.count_nonzero(null[rej])) if rej.size else 0
    n_true = rej.size - n_false
    fdp = n_false / max(1, rej.size)
    power = n_true / max(1, int(np.count_nonzero(~null)))
    return fdp, power


def replication_seed(root_seed, rep):
    """Seed of replication ``rep`` under ``root_seed``."""
    return _rng.substream_seed(root_seed, "rep", rep)


def _replicate(config, rep_seed, methods):
    """{method: (fdp, power, n_rejected)} on one synthetic dataset.

    Data and sampler use disjoint substreams of ``rep_seed``, so every
    method sees the same data, and the tensor methods share one tensor
    and one search pass (engine.apply_methods).
    """
    dataset, truth = gen_dataset(config, _rng.substream(rep_seed, "data"))
    tensor_methods = [m for m in methods if m != "bh"]
    rejected = {}
    if tensor_methods:
        plan = dataclasses.replace(
            config.sampler, seed=_rng.substream_seed(rep_seed, "sampler")
        )
        tensor = engine.build_tensor(dataset, plan, config.statistic)
        results = engine.apply_methods(tensor, config.procedure, tensor_methods)
        rejected = {m: r.rejected for m, r in results.items()}
    if "bh" in methods:
        rejected["bh"] = engine.bh_rejections(dataset, config.statistic, config.procedure.q)[1]
    return {m: (*score_rejections(rejected[m], truth), int(rejected[m].size)) for m in methods}


def run_replication(config, rep_seed):
    """(fdp, power, rejections) of the configured method for one
    synthetic dataset; errors propagate."""
    method = config.procedure.method
    engine.check_methods([method], config.statistic)
    return _replicate(config, rep_seed, [method])[method]


@dataclass
class ExperimentSummary:
    """Replication averages with Monte Carlo standard errors."""

    fdr: float
    power: float
    fdr_se: float
    power_se: float
    reps_completed: int
    reps_failed: int
    per_rep_fdp: np.ndarray
    per_rep_power: np.ndarray
    per_rep_rejections: np.ndarray

    @property
    def per_rep(self):
        return [
            (float(f), float(p), int(r))
            for f, p, r in zip(
                self.per_rep_fdp, self.per_rep_power, self.per_rep_rejections
            )
        ]


def _summarize(rows, reps_failed):
    fdps, powers, rejections = zip(*rows)
    fdps = np.asarray(fdps, dtype=float)
    powers = np.asarray(powers, dtype=float)
    rejections = np.asarray(rejections, dtype=np.int64)
    k = fdps.size
    fdr_se = float(np.std(fdps, ddof=1) / np.sqrt(k)) if k > 1 else 0.0
    power_se = float(np.std(powers, ddof=1) / np.sqrt(k)) if k > 1 else 0.0
    return ExperimentSummary(
        fdr=float(fdps.mean()),
        power=float(powers.mean()),
        fdr_se=fdr_se,
        power_se=power_se,
        reps_completed=int(k),
        reps_failed=reps_failed,
        per_rep_fdp=fdps,
        per_rep_power=powers,
        per_rep_rejections=rejections,
    )


def run_experiment(config):
    """Replication loop for one scenario.

    The one-method case of run_method_comparison, with its failure
    policy: a failing replication is skipped with a warning, the
    summary counts it in reps_failed, and if every replication fails
    the first one's exception is raised.
    """
    method = config.procedure.method
    return run_method_comparison(config, [method])[method]


def run_method_comparison(config, methods):
    """Run several methods on identical data, once per replication.

    Sharing the data and the tensor makes the comparison paired: every
    method sees the same statistics and resamples, so rejection-count
    differences are attributable to the decision rule alone.

    Unknown methods, bh without a glm statistic, and a sampler or
    statistic that cannot take the generator's exposure and outcome
    kinds are refused before the first dataset is drawn. A replication
    that raises is skipped with a warning and counted in every method's
    reps_failed, so the methods stay paired; the summaries average the
    completed replications. If every replication fails, the first one's
    exception is raised.
    """
    engine.check_methods(methods, config.statistic)
    plan = config.sampler if any(m != "bh" for m in methods) else None
    engine._check_compat(_dgp_kinds(config.dgp), plan, config.statistic)
    rows, failed, first_error = [], 0, None
    for r in range(config.reps):
        try:
            rows.append(_replicate(config, replication_seed(config.seed, r), methods))
        except Exception as exc:  # noqa: BLE001 - survive isolated rep failures
            warnings.warn(f"replication {r} failed: {exc}")
            failed += 1
            first_error = first_error or exc
    if not rows:
        raise first_error
    return {m: _summarize([row[m] for row in rows], failed) for m in methods}
