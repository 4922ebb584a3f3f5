"""Shared data model: datasets, statistic tensors, cutoff results."""

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

X_KINDS = ("continuous", "binary")
Y_KINDS = ("continuous", "binary", "count")
Z_KINDS = ("continuous", "binary")


def _as_matrix(a):
    out = np.asarray(a, dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    if out.ndim != 2:
        raise ValueError("expected a vector or a 2-D matrix")
    return out


@dataclass
class Dataset:
    """One study: exposure x (n, p), outcomes y (n, m), confounders z (n, d).

    Rows are samples and must be aligned across the three blocks.
    Construction coerces shapes but never inspects values; run
    :func:`validate` to diagnose content problems.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    x_kind: str = "continuous"
    y_kind: str = "continuous"
    z_kinds: tuple = ()
    feature_names: tuple = ()

    def __post_init__(self):
        self.x = _as_matrix(self.x)
        self.y = _as_matrix(self.y)
        self.z = _as_matrix(self.z)
        if not self.z_kinds:
            self.z_kinds = tuple(
                "binary" if _looks_binary(self.z[:, c]) else "continuous"
                for c in range(self.z.shape[1])
            )
        else:
            self.z_kinds = tuple(self.z_kinds)
        if not self.feature_names:
            self.feature_names = _default_names(self.y.shape[1])
        else:
            self.feature_names = tuple(self.feature_names)

    @property
    def n(self):
        return self.y.shape[0]

    @property
    def m(self):
        return self.y.shape[1]

    @property
    def p(self):
        return self.x.shape[1]

    @property
    def d(self):
        return self.z.shape[1]


@functools.lru_cache(maxsize=8)
def _default_names(m):
    # f1..fm, zero-padded to one width; a tuple, so every dataset of m
    # features shares one
    width = len(str(max(m, 1)))
    return tuple(f"f{j + 1:0{width}d}" for j in range(m))


def _looks_binary(col):
    finite = col[np.isfinite(col)]
    return finite.size > 0 and np.all((finite == 0.0) | (finite == 1.0))


@dataclass
class Violation:
    """One validation finding, locating the offending entry."""

    matrix: str
    rule: str
    row: int = -1
    col: int = -1
    detail: str = ""

    def __str__(self):
        where = self.matrix
        if self.row >= 0:
            where += f"[{self.row}"
            where += f",{self.col}]" if self.col >= 0 else "]"
        msg = f"{where}: {self.rule}"
        if self.detail:
            msg += f" ({self.detail})"
        return msg


def validate(dataset):
    """Diagnose a dataset against its declared kinds.

    Returns a list of :class:`Violation`; an empty list means the
    dataset is usable. Nothing is raised here so callers can report
    every problem at once.
    """
    out = []
    x, y, z = dataset.x, dataset.y, dataset.z
    n = y.shape[0]
    if x.shape[0] != n:
        out.append(Violation("x", "row-count-mismatch", detail=f"x has {x.shape[0]} rows, y has {n}"))
    if z.shape[0] != n:
        out.append(Violation("z", "row-count-mismatch", detail=f"z has {z.shape[0]} rows, y has {n}"))
    if n < 3:
        out.append(Violation("y", "too-few-rows", detail=f"n={n}, need at least 3"))
    if dataset.x_kind not in X_KINDS:
        out.append(Violation("x", "unknown-kind", detail=dataset.x_kind))
    if dataset.y_kind not in Y_KINDS:
        out.append(Violation("y", "unknown-kind", detail=dataset.y_kind))
    if len(dataset.z_kinds) != z.shape[1]:
        out.append(Violation("z", "kind-count-mismatch", detail=f"{len(dataset.z_kinds)} kinds for {z.shape[1]} columns"))
    for kind in dataset.z_kinds:
        if kind not in Z_KINDS:
            out.append(Violation("z", "unknown-kind", detail=str(kind)))
    if len(dataset.feature_names) != dataset.m:
        out.append(Violation("y", "name-count-mismatch", detail=f"{len(dataset.feature_names)} names for {dataset.m} features"))

    for label, mat in (("x", x), ("y", y), ("z", z)):
        for r, c in _found(~np.isfinite(mat)):
            out.append(Violation(label, "non-finite", int(r), int(c)))

    def check_binary(label, mat, cols):
        # finite values other than 0 and 1, column by column, then row
        cols = np.asarray(cols, dtype=np.intp)
        # every column is the matrix itself, checked without a copy
        block = mat if cols.size == mat.shape[1] else mat[:, cols]
        offender = np.isfinite(block) & (block != 0.0) & (block != 1.0)
        for k, r in _found(offender.T):
            c = cols[k]
            out.append(Violation(label, "not-binary", int(r), int(c), detail=f"value {mat[r, c]!r}"))

    if dataset.x_kind == "binary":
        check_binary("x", x, range(x.shape[1]))
    if dataset.y_kind == "binary":
        check_binary("y", y, range(y.shape[1]))
    if dataset.y_kind == "count":
        offender = np.isfinite(y) & ((y < 0) | (y != np.floor(y)))
        for r, c in _found(offender):
            out.append(Violation("y", "not-count", int(r), int(c), detail=f"value {y[r, c]!r}"))
    binary_z = [c for c, kind in enumerate(dataset.z_kinds) if kind == "binary" and c < z.shape[1]]
    check_binary("z", z, binary_z)
    return out


def _found(mask):
    # the (row, col) of each True entry of mask in row-major order, as
    # np.argwhere; a clean mask is not searched
    return np.argwhere(mask) if mask.any() else ()


def zero_variance_mask(y):
    """Boolean mask of outcome columns with zero sample variance."""
    if y.shape[0] == 0:
        return np.zeros(y.shape[1], dtype=bool)
    return np.all(y == y[0, :], axis=0)


@dataclass
class StatTensor:
    """Statistic pairs for every feature and resampling draw.

    ``pairs[b, j]`` holds (marginal, conditional) statistics for
    feature j under draw b; b = 0 is the observed data and counts as
    one of the B + 1 exchangeable draws everywhere downstream.
    Features flagged in ``zero_variance`` carry (0, 0) in every row
    and are never rejected. Every statistic is a nonnegative number, as
    every evaluator makes it; NaN or a negative value is refused.

    The statistics live in one C-contiguous (2, B+1, m) block,
    ``planes``: plane 0 marginal, plane 1 conditional. ``pairs`` is a
    transposed view of it, so a pooled axis ``planes[k].ravel()`` is a
    view whose first m values are the observed row. Construction puts
    any (B+1, m, 2) input into that layout once (a view of such a block,
    as build_tensor makes, is kept without a copy).
    """

    pairs: np.ndarray
    zero_variance: np.ndarray
    n: int = 0
    seed: int = 0
    statistic: str = ""
    sampler: str = ""

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=float)
        if pairs.ndim != 3 or pairs.shape[2] != 2:
            raise ValueError(f"pairs must have shape (B+1, m, 2), got {pairs.shape}")
        self.pairs = np.ascontiguousarray(pairs.transpose(2, 0, 1)).transpose(1, 2, 0)
        if not np.all(self.planes >= 0.0):
            raise ValueError("statistics must be nonnegative numbers, not NaN")
        self.zero_variance = np.asarray(self.zero_variance, dtype=bool)
        if self.zero_variance.shape != (self.pairs.shape[1],):
            raise ValueError("zero_variance length must match the feature count")

    @property
    def planes(self):
        """The (2, B+1, m) block behind pairs."""
        return self.pairs.transpose(2, 0, 1)

    @property
    def b(self):
        """Number of resampling draws (excludes the observed row)."""
        return self.pairs.shape[0] - 1

    @property
    def m(self):
        return self.pairs.shape[1]


@dataclass
class TruthMask:
    """Ground truth for simulations: which features carry no signal."""

    is_null: np.ndarray

    def __post_init__(self):
        self.is_null = np.asarray(self.is_null, dtype=bool)


@dataclass
class CutoffResult:
    """Chosen threshold pair and the features it rejects.

    An infeasible search yields t1 = t2 = +inf with no rejections and
    fdp_estimate 0.0. pi0_lambda is the Storey threshold of the search
    pass: the configured number, or half the median pooled conditional
    value for "auto"; None when no correction is asked for.
    exchangeable-path reports it but applies no pi0.
    """

    t1: float
    t2: float
    rejected: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    fdp_estimate: float = 0.0
    pi0: float = 1.0
    pi0_lambda: Optional[float] = None

    def __post_init__(self):
        self.rejected = np.asarray(self.rejected, dtype=np.int64)

    @property
    def n_rejected(self):
        return int(self.rejected.size)
