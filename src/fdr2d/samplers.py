"""Resampling the exposure from its fitted conditional law given confounders.

Each sampler is a fit function producing a ConditionalModel plus a draw
function consuming it. Fits happen once per analysis; draws are cheap
and never refit anything, so draw b depends only on the model and the
generator handed in.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import _accel, glm
from .core import _as_matrix

STRATEGIES = ("residual-perm", "residual-boot", "parametric-logistic", "binned-perm")


@dataclass
class ConditionalModel:
    """Fitted representation of x given z, ready to draw from.

    Residual models carry fitted_mean + residuals, the logistic model
    carries success_prob, and the binned model additionally carries
    per-row bin labels.
    """

    fitted_mean: np.ndarray = None
    residuals: np.ndarray = None
    success_prob: np.ndarray = None
    bins: np.ndarray = None


def fit_residual_linear(x, z, spline_df=None, z_kinds=None):
    """Regress x on [1, z] (optionally spline-expanded) and keep residuals.

    The coefficient estimate is frozen here; draws recombine the fitted
    mean with permuted or resampled residual rows and never refit.
    """
    x = _as_matrix(x)
    design = glm.confounder_design(z, spline_df=spline_df, kinds=z_kinds)
    if design.shape[0] != x.shape[0]:
        raise ValueError("x and z row counts differ")
    fixed = glm.Residualiser(design)
    if fixed.refusal:
        raise ValueError(fixed.refusal)
    fitted = fixed.fitted(x)
    return ConditionalModel(fitted_mean=fitted, residuals=x - fitted)


def draw_residual_permutation(model, rng):
    """Fitted mean plus residual rows permuted as units."""
    perm = rng.permutation(model.fitted_mean.shape[0])
    return model.fitted_mean + model.residuals[perm]


def draw_residual_bootstrap(model, rng):
    """Fitted mean plus residual rows resampled with replacement."""
    n = model.fitted_mean.shape[0]
    idx = rng.integers(0, n, size=n)
    return model.fitted_mean + model.residuals[idx]


def fit_parametric_logistic(x, z):
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
    return ConditionalModel(success_prob=prob)


def draw_parametric_bernoulli(model, rng):
    """Independent Bernoulli draws at the fitted success probabilities."""
    return (rng.random(model.success_prob.shape[0]) < model.success_prob).astype(float)


def bin_labels(values, bin_edges):
    """Bin index per row; values equal to an edge fall in the lower bin."""
    edges = np.asarray(bin_edges, dtype=float)
    if edges.size == 0:
        raise ValueError("bin_edges must not be empty")
    if np.any(np.diff(edges) <= 0):
        raise ValueError("bin_edges must be strictly increasing")
    return np.digitize(np.asarray(values, dtype=float), edges, right=True)


def fit_binned_residual(x, z, bin_column, bin_edges):
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
        model = fit_residual_linear(x[idx], z[idx])
        fitted[idx], resid[idx] = model.fitted_mean, model.residuals
    return ConditionalModel(fitted_mean=fitted, residuals=resid, bins=labels)


def draw_binned_permutation(model, rng):
    """Fitted mean plus residual rows permuted within each bin."""
    out = model.fitted_mean.copy()
    for b in np.unique(model.bins):
        idx = np.nonzero(model.bins == b)[0]
        out[idx] += model.residuals[idx[rng.permutation(idx.size)]]
    return out


def fit_for_strategy(strategy, x, z, spline_df=None, z_kinds=None, bin_column=None, bin_edges=None):
    """Fit the conditional model named by a ResamplePlan strategy token."""
    if strategy in ("residual-perm", "residual-boot"):
        return fit_residual_linear(x, z, spline_df=spline_df, z_kinds=z_kinds)
    if strategy == "parametric-logistic":
        return fit_parametric_logistic(x, z)
    if strategy == "binned-perm":
        if bin_column is None or bin_edges is None:
            raise ValueError("binned-perm needs bin_column and bin_edges")
        return fit_binned_residual(x, z, bin_column, bin_edges)
    raise ValueError(f"unknown sampler strategy {strategy!r}; expected one of {STRATEGIES}")


def draw_for_strategy(strategy, model, rng):
    """Draw one exposure matrix (n, p) under the given strategy."""
    if strategy == "residual-perm":
        return draw_residual_permutation(model, rng)
    if strategy == "residual-boot":
        return draw_residual_bootstrap(model, rng)
    if strategy == "parametric-logistic":
        return draw_parametric_bernoulli(model, rng)[:, None]
    if strategy == "binned-perm":
        return draw_binned_permutation(model, rng)
    raise ValueError(f"unknown sampler strategy {strategy!r}; expected one of {STRATEGIES}")
