"""Decision layer: statistic tensors and joint threshold selection.

A StatTensor stacks (marginal, conditional) statistic pairs for the
observed exposure (row 0) and B conditional resamples. Everything
downstream is counting: how many pairs dominate a threshold pair,
pooled over draws for the numerator and on the observed row for the
rejections. The search picks, among threshold pairs whose estimated
false discovery proportion stays below q, the one rejecting the most
features.

Features flagged zero-variance carry (0, 0) in every row: they still
contribute to the pooled numerator (conservative) but are excluded
from observed rejection counts and can never be rejected.
"""

import dataclasses
import re
import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from typing import Optional, Union

import numpy as np

from . import _accel, core, glm, samplers, stats
from .core import CutoffResult
from .samplers import ResamplePlan  # noqa: F401 - engine.ResamplePlan stays importable
from .stats import StatisticSpec  # noqa: F401 - engine.StatisticSpec stays importable

# most cells, summed over one evaluator call's draws, of the largest
# per-draw array (the evaluator's draw_cells): 4 MiB of float64; the
# GLM fits of a full chunk hold about seven such arrays at once.
_CHUNK_CELLS = 2**19

# one row per thresholding method, in --method's order: the threshold
# set it reads on a tensor ("grid", "path"; "pvalues" for model p-values
# and no tensor) and its rule there: _pick's "fdr" or "fwer", "fdr-1d"
# on the grid's t1 = 0 row, the walk without or with pi0 ("pi0-walk")
_Method = namedtuple("_Method", "reads rule")
_METHODS = {
    "mf2d-fdr": _Method("grid", "fdr"),
    "mf2d-fwer": _Method("grid", "fwer"),
    "mf1d": _Method("grid", "fdr-1d"),
    "bh": _Method("pvalues", "step-up"),
    "exchangeable-path": _Method("path", "walk"),
    "ordered-grid": _Method("path", "pi0-walk"),
}
METHODS = tuple(_METHODS)


@dataclass
class ProcedureConfig:
    """What every search reads: the level q, the Storey lambda (None,
    'auto' or a number), the grid spec and the default path's step
    count. The method is an argument of the call that runs a search."""

    q: float = 0.05
    pi0_lambda: Union[None, str, float] = None
    grid: str = "quantile:100"
    path_steps: int = 100

    def __post_init__(self):
        if not (0.0 < self.q <= 1.0):
            raise ValueError("q must lie in (0, 1]")
        if self.pi0_lambda is not None and self.pi0_lambda != "auto":
            lam = float(self.pi0_lambda)
            if not np.isfinite(lam) or lam <= 0.0:
                raise ValueError("pi0_lambda must be 'auto' or a finite positive number")
        if self.path_steps < 1:
            raise ValueError("path_steps must be at least 1")
        _grid_size(self.grid)


@dataclass
class Grid2D:
    """Sorted threshold candidates per axis."""

    t1_values: np.ndarray
    t2_values: np.ndarray

    def __post_init__(self):
        self.t1_values = np.ascontiguousarray(self.t1_values, dtype=float)
        self.t2_values = np.ascontiguousarray(self.t2_values, dtype=float)
        for axis in (self.t1_values, self.t2_values):
            if axis.size == 0:
                raise ValueError("grid axes must be nonempty")
            if not np.all(axis >= 0.0):
                raise ValueError("grid values must be nonnegative numbers, not NaN")
            if np.any(np.diff(axis) <= 0.0):
                raise ValueError("grid axes must be strictly increasing")


@dataclass
class MonotonePath:
    """Threshold chain, componentwise nondecreasing from loose to strict."""

    t1: np.ndarray
    t2: np.ndarray

    def __post_init__(self):
        self.t1 = np.asarray(self.t1, dtype=float).ravel()
        self.t2 = np.asarray(self.t2, dtype=float).ravel()
        if self.t1.size == 0 or self.t1.size != self.t2.size:
            raise ValueError("empty or mismatched path")
        if np.isnan(self.t1).any() or np.isnan(self.t2).any():
            raise ValueError("path values must be numbers, not NaN")
        if np.any(np.diff(self.t1) < 0.0) or np.any(np.diff(self.t2) < 0.0):
            raise ValueError("path must be monotone nondecreasing in both coordinates")


def _check_dataset(dataset, plan, spec):
    # refuse invalid data, then kinds the sampler or statistic cannot
    # use; plan None when no draws are made, so no sampler is checked
    violations = core.validate(dataset)
    if violations:
        head = "; ".join(str(v) for v in violations[:5])
        raise ValueError(f"invalid dataset: {head}")
    if plan is not None:
        plan.check_kinds(dataset.x_kind)
    spec.check_kinds(dataset.x_kind, dataset.y_kind, dataset.z_kinds)


def build_tensor(dataset, plan, spec):
    """Statistic pairs for the observed exposure and B resampled copies.

    Row 0 is the observed data; rows 1..B use draws from the plan's
    conditional sampler, each made on its own deterministic substream of
    the plan seed. The rows are scored in chunks: each chunk's draws come
    from the sampler as one stack and go to the evaluator in one call,
    and a chunk holds _CHUNK_CELLS // draw_cells rows (at least one), so
    working memory stays bounded as m, n and B grow. The first chunk
    stacks the observed exposure ahead of its draws and is scored with
    observed=True, so a statistic failure on the observed data aborts
    before any later chunk is drawn; on resampled rows a failure becomes
    a zero pair, counted and reported once. Features the statistic
    cannot score (StatisticSpec.unscorable: zero-variance ones, and for
    hsic those with a degenerate kernel) are set aside first as the
    tensor's zero_variance mask: they keep (0, 0) in every row, the
    evaluator sees only the others, and with none of those no draw is
    made. The evaluator writes each chunk's rows straight into the
    tensor's two planes (its out= block); with features set aside it
    writes them into one scratch block, reused by every chunk, which is
    then scattered.

    What no draw changes is made once: the confounder design [1, T(z)]
    is fitted at most once per spline df (glm.confounder_fits), for
    whichever of the sampler fit and the statistic reads it, and hsic's
    kernel bandwidths come from the set-aside pass.
    """
    _check_dataset(dataset, plan, spec)
    zv, bandwidths = spec.unscorable(dataset.y)
    scored, cols = dataset, slice(None)
    if zv.any():
        cols = np.flatnonzero(~zv)
        scored = dataclasses.replace(dataset, y=dataset.y[:, cols], feature_names=())
        bandwidths = None if bandwidths is None else bandwidths[cols]
    confounders = glm.confounder_fits(dataset.z, dataset.z_kinds)
    evaluator = stats.make_evaluator(scored, spec, confounders, bandwidths)
    model = samplers.fit_for_strategy(
        plan.strategy,
        dataset.x,
        dataset.z,
        spline_df=plan.spline_df,
        z_kinds=dataset.z_kinds,
        bin_column=plan.bin_column,
        bin_edges=plan.bin_edges,
        confounders=confounders,
    )
    b = plan.b_count
    planes = np.zeros((2, b + 1, dataset.m))
    warn_total = 0
    chunk = min(max(1, _CHUNK_CELLS // max(1, evaluator.draw_cells)), b + 1)
    scratch = np.empty((2, chunk, scored.m)) if zv.any() else None
    for start in range(0, b + 1 if scored.m else 0, chunk):
        stop = min(start + chunk, b + 1)
        xs = samplers.draw_for_strategy(plan.strategy, model, plan.seed, range(max(start, 1), stop))
        if start == 0:
            xs = np.concatenate([dataset.x[None], xs])
        out = planes[:, start:stop] if scratch is None else scratch[:, : stop - start]
        warn_total += evaluator.pairs(xs, observed=start == 0, out=tuple(out))[2]
        if scratch is not None:
            planes[:, start:stop, cols] = out
    if warn_total:
        warnings.warn(
            f"{warn_total} statistic evaluations failed across {b + 1} draws; set to 0"
        )
    return core.StatTensor(
        pairs=planes.transpose(1, 2, 0),
        zero_variance=zv,
        n=dataset.n,
        seed=plan.seed,
        statistic=spec.token,
        sampler=plan.strategy,
    )


def _distinct(sorted_values):
    """Distinct values of an ascending array, in order."""
    keep = np.empty(sorted_values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=keep[1:])
    return sorted_values[keep]


def _inverted_cdf(sorted_values, levels):
    """np.quantile(values, levels, method="inverted_cdf") for ascending
    values: numpy's index rule ceil(n * level - 1), floored at 0, read
    off directly. np.quantile partitions even sorted input, which costs
    over 100 times as much on a pooled axis.
    """
    index = np.maximum(np.ceil(sorted_values.size * levels - 1), 0).astype(np.intp)
    return sorted_values[index]


def _axis_bins(values, derive):
    """The per-axis routine of every search over a tensor.

    Sorts one pooled axis once, as packed (value | index) keys
    (_accel.sort_order), and gathers its values once in that order.
    derive(ascending) reads off those sorted values what the caller
    needs and returns (sets, found): sets maps names to ascending
    threshold arrays, found is anything else (thresholds, lambda, a
    count). Returns (sets, bins, found), bins mapping each name to the
    axis's _accel.exceed_bins against that set. Any order that sorts the
    values gives the same sets, bins and found. The order and the
    sorted copy are dropped on return, before another axis is sorted.
    """
    order, _ = _accel.sort_order(values)
    ascending = values[order]
    sets, found = derive(ascending)
    bins = {name: _accel.exceed_bins(order, ascending, t) for name, t in sets.items()}
    return sets, bins, found


def _both_axes(tensor, derive):
    # _axis_bins on each pooled axis in turn, derive(k, ascending); axis k
    # (0 marginal, 1 conditional) is a flat view of its plane, whose
    # first m values are the observed row
    return [_axis_bins(tensor.planes[k].ravel(), partial(derive, k)) for k in (0, 1)]


def _with_zero(distinct):
    """An ascending distinct array with 0 in its place: equal to
    np.unique(np.append(0.0, distinct))."""
    at = int(np.searchsorted(distinct, 0.0))
    if at < distinct.size and distinct[at] == 0.0:
        return distinct
    return np.insert(distinct, at, 0.0)


def _grid_axis(ascending, size):
    # one axis of make_grid from the ascending pooled values; size is
    # _grid_size of the grid spec
    if size is None:
        return _with_zero(_distinct(ascending))
    levels = np.arange(1, size + 1) / size
    return np.unique(np.concatenate([[0.0], _inverted_cdf(ascending, levels)]))


def _path_axis(ascending, steps):
    """One axis of default_path from the ascending pooled values:
    _inverted_cdf(_distinct(ascending), levels) without the distinct
    copy. Runs of equal values are counted block by block, and run
    starts located only inside the blocks that hold a wanted rank, so
    nothing the size of the axis is made.
    """
    levels = np.arange(1, steps + 1) / steps
    edges = range(0, ascending.size, _RUN_BLOCK)
    counts = np.array([np.count_nonzero(_run_starts(ascending, lo)) for lo in edges])
    ends = np.cumsum(counts)
    rank = np.maximum(np.ceil(ends[-1] * levels - 1), 0).astype(np.intp)
    block = np.searchsorted(ends, rank, side="right")
    out = np.empty(steps)
    for k in np.unique(block):
        at = block == k
        starts = np.flatnonzero(_run_starts(ascending, edges[k]))
        out[at] = ascending[edges[k] + starts[rank[at] - (ends[k] - counts[k])]]
    return out


# values per block when _path_axis counts runs of equal values
_RUN_BLOCK = 2**16


def _run_starts(ascending, lo):
    # which values of the block ascending[lo : lo + _RUN_BLOCK] start a
    # run of equal values, the axis's first value always
    block = ascending[lo : lo + _RUN_BLOCK]
    new = np.empty(block.size, dtype=bool)
    new[:1] = lo == 0 or block[0] != ascending[lo - 1]
    np.not_equal(block[1:], block[:-1], out=new[1:])
    return new


def _half_median(ascending):
    # the "auto" Storey lambda: half the median of the ascending values
    # (the mean of the two middle ones when their count is even)
    half = ascending.size // 2
    mid = ascending[half] if ascending.size % 2 else (ascending[half - 1] + ascending[half]) / 2
    return float(0.5 * mid)


def _grid_size(spec):
    # G of a 'quantile:<G>' grid spec, None for 'observed'; others raise
    token = str(spec).strip()
    if token == "observed":
        return None
    match = re.fullmatch(r"quantile:\s*([+-]?\d+)", token)
    if match is None:
        raise ValueError(f"unknown grid spec {spec!r}; expected 'observed' or 'quantile:<G>'")
    if int(match.group(1)) < 1:
        raise ValueError("quantile grid size must be at least 1")
    return int(match.group(1))


def make_grid(tensor, spec="quantile:100"):
    """Threshold grid from the pooled statistic values.

    'observed' uses every distinct pooled value; 'quantile:<G>' the G
    equally spaced pooled quantiles (inverted-CDF rule). Both prepend 0
    so the loosest corner is always searchable. The grid search makes,
    from the same sorted axes.
    """
    size = _grid_size(spec)
    axes = _both_axes(tensor, lambda k, s: ({}, _grid_axis(s, size)))
    return Grid2D(*(found for _, _, found in axes))


def default_path(tensor, steps=100):
    """Diagonal quantile path over the distinct pooled values per axis.

    steps equal to the distinct-value count makes the path visit every
    value of that axis. The path search makes, from the same sorted
    axes.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    axes = _both_axes(tensor, lambda k, s: ({}, _path_axis(s, steps)))
    return MonotonePath(*(found for _, _, found in axes))


def _dominating(planes, t1, t2):
    # which pairs of the planes (2, ...) dominate (t1, t2): marginal at
    # least t1 and conditional at least t2
    return (planes[0] >= t1) & (planes[1] >= t2)


def fbar(tensor, j, t1, t2):
    """Share of draws (observed included) where feature j dominates (t1, t2).

    For an index array j the shares come back as a vector, one per index.
    """
    share = np.mean(_dominating(tensor.planes, t1, t2)[:, j], axis=0)
    return share if np.ndim(j) else float(share)


def fdp_tilde(tensor, t1, t2, pi0=None):
    """Estimated false discovery proportion at one threshold pair.

    Pooled dominance count over all draws and features (divided by
    B + 1), scaled by pi0 when given, over the observed rejection
    count floored at 1. Zero-variance features count in the numerator
    but never as rejections. The counts are read off the planes; they
    are exact integers, so this equals search's grid surface and path
    walks bit for bit.
    """
    pooled = np.count_nonzero(_dominating(tensor.planes, t1, t2))
    mult = 1.0 if pi0 is None else float(pi0)
    return float(_fdp(pooled, _rejected(tensor, t1, t2).size, tensor.pairs.shape[0], mult))


def storey_pi0(tensor, lam):
    """Null-proportion estimate from the low end of the conditional axis."""
    return _storey(tensor, lam, np.count_nonzero(tensor.planes[1] <= lam))


def _storey(tensor, lam, pooled):
    # storey_pi0 from the pooled count of conditional values <= lam
    tc = tensor.planes[1]
    num = int(np.count_nonzero(tc[0] <= lam))
    den = pooled / tc.shape[0]
    if num == 0 or den == 0.0:
        warnings.warn("no statistics at or below lambda; null proportion set to 1")
        return 1.0
    return float(min(1.0, num / den))


def _fdp(counts_all, robs, b1, pi0):
    # the estimated FDP: pi0 * (pooled count / (B + 1)) / max(observed, 1)
    return pi0 * (counts_all / float(b1)) / np.maximum(robs, 1)


def _rejected(tensor, t1, t2):
    # the features whose observed pair dominates (t1, t2), zero-variance
    # ones never
    hit = _dominating(tensor.planes[:, 0], t1, t2) & ~tensor.zero_variance
    return np.flatnonzero(hit).astype(np.int64)


def _observed_bins(tensor, bins):
    # the observed row's bins are the first m of each pooled axis;
    # zero-variance features never count there
    valid = ~tensor.zero_variance
    return [b[: tensor.m][valid] for b in bins]


def _grid_counts(tensor, grid, bins):
    # (pooled, observed) dominance counts at every grid point from bins,
    # each pooled axis's exceed_bins against the grid
    g = (grid.t1_values.size, grid.t2_values.size)
    observed = _accel.pair_exceed_counts(*_observed_bins(tensor, bins), *g)
    return _accel.pair_exceed_counts(*bins, *g), observed


def _chain_counts(tensor, path, bins):
    # (pooled, observed) dominance counts at every path step, as
    # _grid_counts; the observed bins are copies, taken before the pooled
    # count overwrites the marginal bins with its minimum
    steps = path.t1.size
    observed = _accel.chain_exceed_counts(*_observed_bins(tensor, bins), steps)
    return _accel.chain_exceed_counts(*bins, steps), observed


def _pick(tensor, t1v, t2v, counts_all, robs, q, pi0, mode):
    """Best feasible grid point: most rejections, then smallest criterion,
    then smallest t1, then smallest t2. The criterion is the estimated
    FDP for mode 'fdr' and pi0 times the summed dominance fraction
    (the family-wise error estimate) for mode 'fwer'.
    """
    b1 = tensor.pairs.shape[0]
    if mode == "fdr":
        crit = _fdp(counts_all, robs, b1, pi0)
    else:
        crit = pi0 * (counts_all / float(b1))
    feas = crit <= q
    if not feas.any():
        return _cutoff(tensor, pi0)
    rmask = np.where(feas, robs, -1)
    best_r = int(rmask.max())
    cand = feas & (robs == best_r)
    critmask = np.where(cand, crit, np.inf)
    best_c = critmask.min()
    cand &= critmask == best_c
    flat = int(np.argmax(cand.ravel()))
    a, c = divmod(flat, t2v.size)
    return _cutoff(tensor, pi0, (t1v[a], t2v[c]), crit[a, c])


def _first_feasible(tensor, path, counts_all, robs, q, pi0):
    """First path step whose fdp_tilde times pi0 is at most q, from counts."""
    crit = _fdp(counts_all, robs, tensor.pairs.shape[0], pi0)
    hit = np.flatnonzero(crit <= q)
    if hit.size == 0:
        return _cutoff(tensor, pi0)
    s = int(hit[0])
    return _cutoff(tensor, pi0, (path.t1[s], path.t2[s]), crit[s])


def _cutoff(tensor, pi0, point=None, crit=0.0):
    # the CutoffResult at the chosen point (t1, t2), None when infeasible
    if point is None:
        return CutoffResult(np.inf, np.inf, np.zeros(0, dtype=np.int64), 0.0, pi0)
    t1, t2 = map(float, point)
    return CutoffResult(t1, t2, _rejected(tensor, t1, t2), float(crit), pi0)


def ordered_grid_procedure(tensor, path, q, pi0=None):
    """Smallest chain index whose fdp_tilde is at most q. Without pi0
    this is the exchangeable-path rule: the plain pooled-count ratio is
    what carries the finite-sample guarantee. The chain counts are those
    search makes on the given path."""
    counts = search(tensor, ProcedureConfig(q=q), ["exchangeable-path"], path).path_counts
    return _first_feasible(tensor, path, *counts, q, 1.0 if pi0 is None else float(pi0))


def bh_procedure(pvalues, q):
    """Step-up rule: reject the k* smallest p-values where
    k* = max{k : p_(k) <= q k / m}; the comparison is inclusive.
    """
    p = np.asarray(pvalues, dtype=float).ravel()
    if p.size == 0:
        return np.zeros(0, dtype=np.int64)
    if np.any(~np.isfinite(p)) or np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("p-values must lie in [0, 1]")
    order = np.argsort(p, kind="stable")
    ok = p[order] <= q * np.arange(1, p.size + 1) / p.size
    if not ok.any():
        return np.zeros(0, dtype=np.int64)
    k = int(np.nonzero(ok)[0].max())
    return np.sort(order[: k + 1]).astype(np.int64)


def reads_tensor(method):
    """Whether a method searches a statistic tensor; bh reads p-values."""
    return _METHODS[method].reads != "pvalues"


def check_methods(methods, spec=None):
    """The one place a method list is refused: first a name not in
    METHODS or given twice, then a method that reads model p-values with
    no spec (apply_methods, on a tensor alone) or a non-glm spec."""
    methods = list(methods)
    for k, method in enumerate(methods):
        if method not in _METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
        if method in methods[:k]:
            raise ValueError(f"method {method!r} is given more than once")
    for method in (m for m in methods if not reads_tensor(m)):
        if spec is None:
            raise ValueError(f"method {method!r} does not run on a tensor")
        if spec.kind != "glm":
            raise ValueError(f"{method} needs model-based p-values; use a glm statistic")


def bh_rejections(dataset, spec, q, tensor=None):
    """(p-values, bh rejections) from the spec's glm fit of every feature,
    the one route to bh's p-values. A tensor build_tensor made for this
    dataset and spec holds that fit's Wald statistics in its observed
    conditional row; given one, nothing is refit. Without one, the
    observed exposure alone is scored, on the columns build_tensor would
    score (StatisticSpec.unscorable sets the others aside). Either way a
    zero-variance feature has p = 1 exactly, and so has a failed fit,
    which a refit reports in a warning."""
    if tensor is None:
        _check_dataset(dataset, None, spec)
        cols = np.flatnonzero(~spec.unscorable(dataset.y)[0])
        w = np.zeros(dataset.m)
        (w[cols],), (status,) = stats._glm_wald(
            dataset.x[None], dataset.z, dataset.y[:, cols], spec.family, spec.size, observed=True
        )
        bad = np.count_nonzero(status)
        if bad:
            warnings.warn(f"{bad} model fits did not converge: p-values set to 1")
    else:
        w = tensor.pairs[0, :, 1]
    pvalues = stats.wald_pvalues(w, spec.family, dataset.n, dataset.p, dataset.d)
    return pvalues, bh_procedure(pvalues, q)


@dataclass
class Search:
    """What one search over one tensor made (see search). A field that
    none of the searched methods reads stays None."""

    draws: int  # B + 1, the tensor's row count
    grid: Optional[Grid2D] = None
    grid_counts: Optional[tuple] = None  # (pooled, observed) counts over the grid
    path: Optional[MonotonePath] = None
    path_counts: Optional[tuple] = None  # (pooled, observed) counts along the path
    pi0_lambda: Optional[float] = None
    pi0: Optional[float] = None
    results: dict = dataclasses.field(default_factory=dict)  # {method: CutoffResult}

    @property
    def surface(self):
        """(sum_fbar, observed rejections, fdp_tilde) arrays over the grid
        at the search's pi0."""
        counts_all, robs = self.grid_counts
        return counts_all / float(self.draws), robs, _fdp(counts_all, robs, self.draws, self.pi0)


def search(tensor, config, methods, path=None):
    """Run several thresholding methods on one tensor in one search.

    The only code that sorts, bins and counts a tensor. Each pooled axis
    goes once through _axis_bins, one axis at a time: its packed
    (value | index) keys are sorted once (_accel.sort_order) and its
    values gathered once in that order; from those sorted values the
    search reads every threshold set that its methods' rows of _METHODS
    name (the grid axis, the default path axis) as make_grid and
    default_path read them, and, on the conditional axis, lambda with
    the pooled count at or below it; it bins the axis against each set
    in small integers and drops the order and the sorted copy before the
    other axis is sorted. The grid and chain counts are then made from
    the bins, observed row included (its bins are the first m pooled
    ones), and the bins are dropped. A given path takes the place of the
    default one. pi0 is read from the pooled count when some method
    applies it: 1.0 with no lambda. Each result carries the search's
    lambda as pi0_lambda.

    check_methods refuses the list: an unknown or repeated name, and
    bh, which reads p-values rather than a tensor. An empty list sorts
    nothing. Returns the Search record.
    """
    check_methods(methods)
    found = Search(tensor.pairs.shape[0])
    if not methods:
        return found
    size, lam = _grid_size(config.grid), config.pi0_lambda
    axes = {
        "grid": lambda k, ascending: _grid_axis(ascending, size),
        "path": lambda k, ascending: (
            _path_axis(ascending, config.path_steps) if path is None else (path.t1, path.t2)[k]
        ),
    }
    reads = [name for name in axes if any(_METHODS[m].reads == name for m in methods)]

    def derive(k, ascending):
        sets = {name: axes[name](k, ascending) for name in reads}
        if k == 0 or lam is None:
            return sets, (None, 0)
        at = _half_median(ascending) if lam == "auto" else float(lam)
        return sets, (at, int(np.searchsorted(ascending, at, "right")))

    (sets0, bins0, _), (sets1, bins1, (found.pi0_lambda, below)) = _both_axes(tensor, derive)
    if "grid" in reads:
        found.grid = Grid2D(sets0["grid"], sets1["grid"])
        bins = bins0.pop("grid"), bins1.pop("grid")
        found.grid_counts = _grid_counts(tensor, found.grid, bins)
    if "path" in reads:
        found.path = MonotonePath(sets0["path"], sets1["path"]) if path is None else path
        bins = bins0.pop("path"), bins1.pop("path")
        found.path_counts = _chain_counts(tensor, found.path, bins)
    if any(_METHODS[m].rule != "walk" for m in methods):
        found.pi0 = 1.0 if lam is None else _storey(tensor, found.pi0_lambda, below)

    def run(method):
        # the method's rule on the threshold set its row names
        on, rule = _METHODS[method]
        if on == "path":
            pi0 = found.pi0 if rule == "pi0-walk" else 1.0
            return _first_feasible(tensor, found.path, *found.path_counts, config.q, pi0)
        t1v, counts = found.grid.t1_values, found.grid_counts
        if rule == "fdr-1d":
            # every grid starts at t1 = 0 (_grid_axis puts 0 in and Grid2D
            # refuses negative values); its first row is the 1-D search
            t1v, counts, rule = t1v[:1], [c[:1] for c in counts], "fdr"
        return _pick(tensor, t1v, found.grid.t2_values, *counts, config.q, found.pi0, rule)

    for method in methods:
        found.results[method] = run(method)
        found.results[method].pi0_lambda = found.pi0_lambda
    return found


def apply_methods(tensor, config, methods):
    """{method: CutoffResult} of search, each equal to what apply_method
    gives for that method."""
    return search(tensor, config, methods).results


def apply_method(tensor, config, method="mf2d-fdr"):
    """Run one thresholding method on a finished tensor."""
    return apply_methods(tensor, config, [method])[method]
