"""Synthetic studies: signal generation, data generating processes,
and replication loops reporting empirical error and power.

Eleven generators share one shape: a univariate exposure X tied to a
univariate confounder Z, and m outcome features built from signal
coefficients alpha (exposure effects, the hypotheses under test) and
beta (confounder effects). alpha_j = 0 marks feature j as null. Each
generator is one row of _GENERATORS.

Continuous exposures are rescaled to unit sample variance after
generation so the effect sizes mean the same thing at every degree of
confounding.
"""

import dataclasses
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import _rng, core, engine, glm

# negative binomial size of dgp 11's outcomes and of its statistic
_NB_SIZE = 3.0


@dataclass(frozen=True)
class _Generator:
    """One data generating process. X ~ N(rho h(Z), 1), or without h
    X ~ Bernoulli(sigmoid(rho Z)); Y_j = alpha_j f(X) + beta_j g(Z) +
    eps_j, or without f Y_j from the glm family at alpha_j X + beta_j Z;
    Z ~ N(0, 1), or Bernoulli(0.7) if binary_z. spline_df marks a
    nonlinear h: rv and a spline residual-perm are the defaults."""

    h: Optional[Callable] = None
    f: Optional[Callable] = None
    g: Optional[Callable] = None
    family: str = "gaussian"
    binary_z: bool = False
    spline_df: Optional[int] = None


def _identity(v):
    return v


_GENERATORS = {
    1: _Generator(h=_identity, f=_identity, g=_identity),
    2: _Generator(h=lambda z: z**2, f=lambda x: x**3, g=np.exp, spline_df=5),
    3: _Generator(h=lambda z: z + z**2, f=lambda x: x**3, g=lambda z: z**3, spline_df=5),
    4: _Generator(h=lambda z: z + z**2, f=lambda x: x + np.abs(x) ** 3, g=np.exp, spline_df=5),
    5: _Generator(f=np.exp, g=_identity),
    6: _Generator(f=np.exp, g=np.exp),
    7: _Generator(f=np.exp, g=lambda z: z**2),
    8: _Generator(f=_identity, g=_identity, binary_z=True),
    9: _Generator(h=_identity, family="binomial"),
    10: _Generator(h=_identity, family="poisson"),
    11: _Generator(h=_identity, family="negbinom"),
}


def default_statistic_for_dgp(dgp):
    """Statistic matching each generator's outcome family and shape."""
    gen = _GENERATORS[dgp]
    if gen.spline_df is not None:
        return engine.StatisticSpec(kind="rv", spline_df=gen.spline_df)
    size = _NB_SIZE if gen.family == "negbinom" else None
    return engine.StatisticSpec(kind="glm", family=gen.family, size=size)


def default_sampler_for_dgp(dgp):
    """(strategy, spline_df) matching each generator's exposure model."""
    gen = _GENERATORS[dgp]
    if gen.h is None:
        return "parametric-logistic", None
    return "residual-perm", gen.spline_df


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
        if self.dgp not in _GENERATORS:
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
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
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


def _error_matrix(ar1, rng, out):
    """The outcome noise, drawn into out, a C-contiguous float (n, m):
    standard normal, or with ar1 an AR(1) series across the features,
    each column made in place from its draw and the column before."""
    e = rng.standard_normal(out=out)
    if ar1 is None:
        return e
    c = float(ar1)
    # stationary start so every feature sees the same error law
    e[:, 0] /= np.sqrt(1.0 - c * c)
    for j in range(1, e.shape[1]):
        e[:, j] += c * e[:, j - 1]
    return e


def _dgp_kinds(dgp):
    """(x_kind, y_kind, z_kinds) of every dataset the generator makes."""
    gen = _GENERATORS[dgp]
    x_kind = "binary" if gen.h is None else "continuous"
    y_kind = glm.FAMILIES[gen.family].y_kind
    return x_kind, y_kind, ("binary",) if gen.binary_z else ("continuous",)


def _glm_outcomes(family, eta, rng):
    # one draw of every outcome from its glm family at linear predictor eta
    if family == "binomial":
        return (rng.random(eta.shape) < _sigmoid(eta)).astype(float)
    mu = np.exp(eta)
    if family == "poisson":
        return rng.poisson(mu).astype(float)
    return rng.negative_binomial(_NB_SIZE, _NB_SIZE / (_NB_SIZE + mu)).astype(float)


def gen_dataset(config, rng):
    """One draw of (Dataset, TruthMask) from config.dgp's _GENERATORS row.

    Draw order is fixed (signals, Z, X, outcome noise) so a seeded rng
    reproduces the dataset exactly.
    """
    gen, n, m = _GENERATORS[config.dgp], config.n, config.m
    alpha, beta, truth = gen_signals(
        m, config.pi, config.l, rng, config.pi_alpha, config.pi_beta
    )
    if config.global_null:
        alpha = np.zeros(m)
        truth = core.TruthMask(is_null=np.ones(m, dtype=bool))

    z = (rng.random(n) < 0.7).astype(float) if gen.binary_z else rng.standard_normal(n)
    if gen.h is None:
        x = (rng.random(n) < _sigmoid(config.rho * z)).astype(float)
    else:
        x = config.rho * gen.h(z) + rng.standard_normal(n)
        x = x / np.std(x, ddof=1)

    # the sums are accumulated in place: the same additions in the same order
    if gen.f is None:
        eta = np.outer(x, alpha)
        eta += np.outer(z, beta)
        y = _glm_outcomes(gen.family, eta, rng)
    else:
        y = np.outer(gen.f(x), alpha)
        term = np.outer(gen.g(z), beta)
        y += term
        # the global null is pure confounding, no noise: Y_j = beta_j g(Z);
        # else the noise is drawn into the confounding term's buffer
        if not config.global_null:
            y += _error_matrix(config.ar1_errors, rng, out=term)

    x_kind, y_kind, z_kinds = _dgp_kinds(config.dgp)
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
    method sees the same data, and the methods engine.reads_tensor names
    share one tensor and one search pass (engine.apply_methods). bh reads
    its p-values from that tensor's observed row when there is one.
    """
    dataset, truth = gen_dataset(config, _rng.substream(rep_seed, "data"))
    tensor_methods = [m for m in methods if engine.reads_tensor(m)]
    rejected, tensor = {}, None
    if tensor_methods:
        plan = dataclasses.replace(
            config.sampler, seed=_rng.substream_seed(rep_seed, "sampler")
        )
        tensor = engine.build_tensor(dataset, plan, config.statistic)
        results = engine.apply_methods(tensor, config.procedure, tensor_methods)
        rejected = {m: r.rejected for m, r in results.items()}
    for method in methods:
        if not engine.reads_tensor(method):
            rejected[method] = engine.bh_rejections(dataset, config.statistic, config.procedure.q, tensor)[1]
    return {m: (*score_rejections(rejected[m], truth), int(rejected[m].size)) for m in methods}


def run_replication(config, rep_seed, method="mf2d-fdr"):
    """(fdp, power, rejections) of one method for one synthetic dataset;
    errors propagate."""
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


def run_method_comparison(config, methods):
    """{method: ExperimentSummary} of several methods run on identical
    data, once per replication; one method's loop is [method] alone.

    Sharing the data and the tensor makes the comparison paired: every
    method sees the same statistics and resamples, so rejection-count
    differences are attributable to the decision rule alone.

    Unknown or repeated methods, bh without a glm statistic, and a
    sampler or statistic that cannot take the generator's exposure and
    outcome kinds are refused before the first dataset is drawn. A replication
    that raises is skipped with a warning and counted in every method's
    reps_failed, so the methods stay paired; the summaries average the
    completed replications. If every replication fails, the first one's
    exception is raised.
    """
    engine.check_methods(methods, config.statistic)
    x_kind, y_kind, z_kinds = _dgp_kinds(config.dgp)
    if any(engine.reads_tensor(m) for m in methods):
        config.sampler.check_kinds(x_kind)
    config.statistic.check_kinds(x_kind, y_kind, z_kinds)
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
