"""Resampling the exposure from its fitted conditional law given confounders.

_SAMPLERS is the one place a sampler is declared: each row holds the
strategy's fit, its draw, the exposure kind it takes and whether it
needs bins. A fit happens once per analysis and returns the strategy's
own small model. Draws never refit anything and come as a stack
(D, n, p): draw d consumes exactly the generator _rng.substream(seed, d),
so it depends only on the model, the seed and d, never on the other
draws stacked with it. The three residual samplers share one draw, the
fitted mean plus residual rows; they differ only in the rule that picks
each draw's rows.
"""

import warnings
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _accel, _rng, glm
from .core import _as_matrix


# each fit's own model: x given z as its fitted mean plus residuals, each
# (n, p), with each row's bin label for the per-bin fits; or a binary x
# as one success probability per row
ResidualModel = namedtuple("ResidualModel", "fitted_mean residuals")
BinnedResidualModel = namedtuple("BinnedResidualModel", "fitted_mean residuals bins")
LogisticModel = namedtuple("LogisticModel", "success_prob")


def fit_residual_linear(x, z, spline_df=None, z_kinds=None, confounders=None, **_):
    """Regress x on [1, z] (optionally spline-expanded) and keep residuals.

    The design's fit is read from confounders, the glm.confounder_fits
    of z a caller shares, or made here without one. The coefficient
    estimate is frozen here; draws recombine the fitted mean with
    permuted or resampled residual rows and never refit.
    """
    x = _as_matrix(x)
    fixed = (confounders or glm.confounder_fits(z, z_kinds))(spline_df)
    if fixed.q.shape[0] != x.shape[0]:
        raise ValueError("x and z row counts differ")
    if fixed.refusal:
        raise ValueError(fixed.refusal)
    fitted = fixed.fitted(x)
    return ResidualModel(fitted, x - fitted)


def fit_parametric_logistic(x, z, **_):
    """Logistic regression of a binary exposure on [1, z].

    Success probabilities are clamped to [1e-8, 1 - 1e-8]. Complete
    separation cannot be resampled from, so it is an error pointing at
    the residual samplers.
    """
    x = np.asarray(x, dtype=float).ravel()
    z = _as_matrix(z)
    if not np.all((x == 0.0) | (x == 1.0)):
        raise ValueError("binomial family requires a 0/1 response")
    design = np.column_stack([np.ones(x.shape[0]), z])
    # complete separation stops the fit as soon as an iterate's linear
    # predictor splits the classes; other fits, nearly separated ones
    # included, may need hundreds of slow-growth iterations. The model
    # is fit once, so the budget is cheap
    coef, _, (status,), _ = _accel.glm_fit_many(design, x[:, None], _accel.BINOMIAL, 1.0, 500, 1e-8)
    if status == 3:
        raise ValueError("singular design")
    if status == 2:
        raise ValueError(
            "complete separation: x is determined by z, so the conditional law "
            "is degenerate; use a residual sampler or drop confounder columns"
        )
    if status == 1:
        warnings.warn("logistic exposure model did not converge; using last iterate")
    eta = design @ coef[0]
    prob = np.clip(1.0 / (1.0 + np.exp(-eta)), 1e-8, 1.0 - 1e-8)
    return LogisticModel(prob)


def bin_labels(values, bin_edges):
    """Bin index per row; values equal to an edge fall in the lower bin."""
    edges = np.asarray(bin_edges, dtype=float)
    if edges.size == 0:
        raise ValueError("bin_edges must not be empty")
    if np.any(np.diff(edges) <= 0):
        raise ValueError("bin_edges must be strictly increasing")
    return np.digitize(np.asarray(values, dtype=float), edges, right=True)


def fit_binned_residual(x, z, bin_column, bin_edges, **_):
    """Per-bin regressions of x on [1, z]; residuals stay bin-local.

    Bins are cut on one z column; each bin gets its own least-squares
    fit so the conditional mean can change shape across bins. Every bin
    must hold more than d + 1 rows to leave residual variation.
    """
    x = _as_matrix(x)
    z = _as_matrix(z)
    n, d = z.shape
    if not 0 <= bin_column < d:
        raise IndexError(f"bin_column {bin_column} out of range for d={d}")
    labels = bin_labels(z[:, bin_column], bin_edges)
    fitted = np.empty_like(x)
    resid = np.empty_like(x)
    for b in range(len(np.asarray(bin_edges)) + 1):
        idx = np.nonzero(labels == b)[0]
        if idx.size <= d + 1:
            raise ValueError(
                f"bin {b} holds {idx.size} rows; need more than {d + 1} to fit"
            )
        fitted[idx], resid[idx] = fit_residual_linear(x[idx], z[idx])
    return BinnedResidualModel(fitted, resid, labels)


def _residual_draw(rows):
    """The draw of a residual sampler whose rule rows(model, rng) picks
    one draw's n residual rows: the fitted mean plus the picked rows."""

    def draw(model, rngs):
        n = model.residuals.shape[0]
        picks = np.array([rows(model, rng) for rng in rngs], dtype=np.intp).reshape(-1, n)
        return model.fitted_mean + model.residuals[picks]

    return draw


def _permuted(model, rng):
    # residual rows permuted as units
    return rng.permutation(model.residuals.shape[0])


def _resampled(model, rng):
    # residual rows resampled with replacement
    n = model.residuals.shape[0]
    return rng.integers(0, n, size=n)


def _permuted_within_bins(model, rng):
    # residual rows permuted within each bin, bins in ascending order
    rows = np.arange(model.bins.size)
    for b in np.unique(model.bins):
        idx = np.nonzero(model.bins == b)[0]
        rows[idx] = idx[rng.permutation(idx.size)]
    return rows


def _bernoulli_draw(model, rngs):
    # independent Bernoulli draws at the fitted success probabilities
    n = model.success_prob.size
    uniform = np.array([rng.random(n) for rng in rngs]).reshape(-1, n)
    return (uniform < model.success_prob).astype(float)[..., None]


# one strategy: its fit(x, z, **settings) -> model, its draw(model, rngs)
# -> (len(rngs), n, p), the exposure kind it takes, and whether it needs
# ResamplePlan's bin_column and bin_edges
_Sampler = namedtuple("_Sampler", "fit draw exposure binned")


# every sampler, by the strategy token that names it
_SAMPLERS = {
    "residual-perm": _Sampler(fit_residual_linear, _residual_draw(_permuted), "continuous", False),
    "residual-boot": _Sampler(fit_residual_linear, _residual_draw(_resampled), "continuous", False),
    "parametric-logistic": _Sampler(fit_parametric_logistic, _bernoulli_draw, "binary", False),
    "binned-perm": _Sampler(
        fit_binned_residual, _residual_draw(_permuted_within_bins), "continuous", True
    ),
}


def fit_for_strategy(
    strategy, x, z, spline_df=None, z_kinds=None, bin_column=None, bin_edges=None, confounders=None
):
    """The fitted model of a strategy (a key of _SAMPLERS). Each fit reads
    its own settings: the whole-sample residual fits spline_df, z_kinds
    and confounders (the caller's glm.confounder_fits of z, if it shares
    one), the binned fit bin_column and bin_edges."""
    return _SAMPLERS[strategy].fit(
        x,
        z,
        spline_df=spline_df,
        z_kinds=z_kinds,
        bin_column=bin_column,
        bin_edges=bin_edges,
        confounders=confounders,
    )


def draw_for_strategy(strategy, model, seed, draws):
    """The exposures of the given draw indices under a strategy, a stack
    (D, n, p): draw d is made on _rng.substream(seed, d) alone."""
    return _SAMPLERS[strategy].draw(model, [_rng.substream(seed, d) for d in draws])


@dataclass
class ResamplePlan:
    """How to draw b_count exchangeable copies of the exposure: the
    strategy (a key of _SAMPLERS), the seed and the settings its fit
    reads. check_kinds refuses an exposure its sampler cannot draw."""

    strategy: str
    b_count: int
    seed: int
    spline_df: Optional[int] = None
    bin_column: Optional[int] = None
    bin_edges: Optional[np.ndarray] = None

    def __post_init__(self):
        sampler = _SAMPLERS.get(self.strategy)
        if sampler is None:
            expected = tuple(_SAMPLERS)
            raise ValueError(f"unknown sampler strategy {self.strategy!r}; expected one of {expected}")
        if sampler.binned and (self.bin_column is None or self.bin_edges is None):
            raise ValueError(f"{self.strategy} needs bin_column and bin_edges")
        if self.b_count < 1:
            raise ValueError("b_count must be at least 1")

    def check_kinds(self, x_kind):
        """Refuse an exposure kind the strategy's sampler cannot draw."""
        exposure = _SAMPLERS[self.strategy].exposure
        if x_kind != exposure:
            raise ValueError(f"{self.strategy} sampler needs a {exposure} exposure")
