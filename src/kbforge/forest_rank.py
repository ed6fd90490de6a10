"""Random-forest regressor built from scratch, with mean-MSE-reduction importance.

Split finding is exact and greedy: every registry feature is considered at
every node (no feature subsampling) with candidate thresholds at midpoints of
consecutive distinct values. Ties in split score break by alphabetical feature
name, then smaller threshold, which makes training fully deterministic for a
fixed (row order, params, seed). Per-tree randomness comes only from the
bootstrap resample, seeded with ``seed XOR tree_index`` through numpy's PCG64,
a documented generator with stable streams across platforms.

The search runs on a presorted column block (the "exact greedy" layout of
XGBoost, Chen & Guestrin 2016). ``fit_forest`` transposes the feature matrix
once, drops the columns that are constant across the dataset (they can never
split) and argsorts each remaining column once, stably, so every row of the
block lists record indices by (value, record index). A tree expands that order
to its bootstrap multiset with ``np.repeat`` over the draw counts, which is
the order a stable sort of each node's values over the sorted draws gives:
ties stay in record order and repeated draws stay adjacent. One more row holds
the draws themselves in ascending order, for the node mean. Each node is a
column slice of the tree's one buffer. All live features are scored at once
with row-wise cumulative sums, using the same elementwise expressions in the
same order as a per-feature scan, so thresholds and reductions are
bit-identical to it; the chosen split then partitions every row stably in
place, and the children are the two halves of the node's slice. Scoring and
partitioning take the rows in chunks of at most ``CHUNK_ELEMENTS`` elements,
which bounds a node's temporaries, and so peak memory, whatever the data size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

from .flow_data import FEATURES, AttackLabel, FlowTable


@dataclass(frozen=True)
class ForestParams:
    num_trees: int = 100
    max_depth: int = 12
    min_samples_leaf: int = 5
    bootstrap: bool = True

    def __post_init__(self) -> None:
        if self.num_trees < 1:
            raise ValueError("num_trees must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


@dataclass(frozen=True)
class Leaf:
    value: float
    sample_count: int


@dataclass(frozen=True)
class Split:
    feature: str
    threshold: float
    left: "TreeNode"
    right: "TreeNode"
    #: Node-fraction-weighted MSE reduction: (n_node / n_root) * delta-MSE.
    weighted_mse_reduction: float


TreeNode = Union[Leaf, Split]


@dataclass(frozen=True)
class Forest:
    trees: tuple[TreeNode, ...]
    params: ForestParams
    seed: int


#: Most elements (feature rows x node samples) that one step of a node's split
#: search or partition handles at once; it caps the temporaries a node allocates.
CHUNK_ELEMENTS = 1 << 15


class _TreeGrower:
    """Grows one tree over a slice-partitioned buffer of presorted record indices.

    ``order`` has one row per entry of ``columns`` (record indices sorted by
    that column's value, then by index) plus a last row of the same samples in
    ascending index order; a node owns the columns ``lo:hi`` of every row.
    """

    def __init__(
        self,
        columns: np.ndarray,
        names: tuple[str, ...],
        y: np.ndarray,
        order: np.ndarray,
        params: ForestParams,
    ):
        self.columns = columns
        self.names = names
        self.y = y
        self.order = order
        self.params = params
        self.n_root = order.shape[1]

    def grow(self, lo: int, hi: int, depth: int) -> TreeNode:
        y_node = self.y[self.order[-1, lo:hi]]
        n = hi - lo
        mean = float(y_node.mean())
        params = self.params
        if depth >= params.max_depth or n < 2 * params.min_samples_leaf or np.all(y_node == y_node[0]):
            return Leaf(value=mean, sample_count=n)
        del y_node
        best = self._best_split(lo, hi)
        if best is None:
            return Leaf(value=mean, sample_count=n)

        reduction, column, threshold = best
        mid = self._partition(lo, hi, column, threshold)
        return Split(
            feature=self.names[column],
            threshold=threshold,
            left=self.grow(lo, mid, depth + 1),
            right=self.grow(mid, hi, depth + 1),
            weighted_mse_reduction=reduction / self.n_root,
        )

    def _best_split(self, lo: int, hi: int) -> tuple[float, int, float] | None:
        """Return (sse_reduction, column, threshold) of the node's best split, or None.

        Boundary i puts samples [0..i] of a row left and the rest right; it is
        admissible when both sides hold at least min_samples_leaf samples,
        which leaves positions first..last-1 and left counts first+1..last.
        """
        n = hi - lo
        first, last = self.params.min_samples_leaf - 1, n - self.params.min_samples_leaf
        n_left = np.arange(first + 1, last + 1, dtype=np.float64)
        n_right = n - n_left
        best: tuple[float, int, float] | None = None
        step = max(1, CHUNK_ELEMENTS // n)
        n_columns = self.columns.shape[0]
        for r0 in range(0, n_columns, step):
            r1 = min(r0 + step, n_columns)
            rows = self.order[r0:r1, lo:hi]
            vs = np.take_along_axis(self.columns[r0:r1], rows, axis=1)
            cut = vs[:, first:last] < vs[:, first + 1 : last + 1]
            live = np.flatnonzero(cut.any(axis=1))  # skip rows with no admissible boundary
            if live.size == 0:
                continue
            if live.size < cut.shape[0]:
                rows, vs, cut = rows[live], vs[live], cut[live]
            ys = self.y[rows]
            cum_y = np.cumsum(ys, axis=1)
            cum_y2 = np.cumsum(ys * ys, axis=1)
            del ys
            total_y = cum_y[:, -1:]
            total_y2 = cum_y2[:, -1:]
            sum_left = cum_y[:, first:last]
            sum2_left = cum_y2[:, first:last]
            sse_left = sum2_left - (sum_left * sum_left) / n_left
            sum_right = total_y - sum_left
            sse_right = (total_y2 - sum2_left) - (sum_right * sum_right) / n_right
            sse_total = total_y2 - (total_y * total_y) / n
            reductions = sse_total - sse_left - sse_right
            del cum_y, cum_y2, sum_left, sum2_left, sse_left, sum_right, sse_right
            reductions[~cut] = -np.inf
            # First maximum in a row is the smaller threshold; the first row
            # among equal maxima is the lower registry index.
            at = reductions.argmax(axis=1)
            scores = reductions[np.arange(at.size), at]
            r = int(scores.argmax())
            if best is None or scores[r] > best[0]:
                i = first + int(at[r])
                threshold = float((vs[r, i] + vs[r, i + 1]) / 2.0)
                best = (float(scores[r]), r0 + int(live[r]), threshold)
        if best is None or best[0] <= 0.0:
            return None
        return best

    def _partition(self, lo: int, hi: int, column: int, threshold: float) -> int:
        """Move the node's samples with column value <= threshold to the front
        of every row, keeping each side's order; return the boundary index."""
        n = hi - lo
        values = self.columns[column]
        step = max(1, CHUNK_ELEMENTS // n)
        for r0 in range(0, self.order.shape[0], step):
            rows = self.order[r0 : r0 + step, lo:hi]
            left = values[rows] <= threshold
            k = rows.shape[0]
            n_left = int(np.count_nonzero(left[0]))
            rows[:] = np.concatenate(
                (rows[left].reshape(k, n_left), rows[~left].reshape(k, n - n_left)), axis=1
            )
        return lo + n_left


def fit_forest(
    table: FlowTable,
    target: list[float] | np.ndarray,
    params: ForestParams = ForestParams(),
    seed: int = 0,
) -> Forest:
    """Train a forest of regression trees on the registry features.

    Deterministic for a fixed (row order, params, seed); each tree sees a
    bootstrap resample of the same size when params.bootstrap is set.
    """
    if len(table) < 2:
        raise ValueError("need at least 2 records to fit a forest")
    X = table.X
    varying = np.flatnonzero((X != X[0]).any(axis=0))
    if varying.size == 0:
        raise ValueError("need at least 2 distinct records to fit a forest")
    y = np.asarray(target, dtype=np.float64)
    if y.shape[0] != X.shape[0]:
        raise ValueError("target must be defined for every record")

    n = X.shape[0]
    columns = np.ascontiguousarray(X[:, varying].T)
    names = tuple(FEATURES[j] for j in varying)
    # Presorted rows, then the identity row that becomes the ascending draws.
    block = np.vstack(
        (np.argsort(columns, axis=1, kind="stable"), np.arange(n)[None, :])
    ).astype(np.int32)
    trees = []
    for t in range(params.num_trees):
        if params.bootstrap:
            rng = np.random.Generator(np.random.PCG64(seed ^ t))
            counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
            flat = block.ravel()
            order = np.repeat(flat, counts[flat]).reshape(block.shape)
        else:
            order = block.copy()
        trees.append(_TreeGrower(columns, names, y, order, params).grow(0, n, depth=0))
    return Forest(trees=tuple(trees), params=params, seed=seed)


@dataclass(frozen=True)
class ImportanceReport:
    scores: dict[str, float]
    ranking: tuple[str, ...] = field(default=())

    @staticmethod
    def from_scores(scores: dict[str, float]) -> "ImportanceReport":
        ranking = tuple(sorted(scores, key=lambda name: (-scores[name], name)))
        return ImportanceReport(scores=scores, ranking=ranking)

    def to_json(self) -> str:
        payload = {
            "scores": {name: self.scores[name] for name in sorted(self.scores)},
            "ranking": list(self.ranking),
        }
        return json.dumps(payload, indent=2) + "\n"

    def to_csv(self) -> str:
        """Two-column ranked export, ready for a ranked-bar chart."""
        lines = ["feature,importance"]
        lines.extend(f"{name},{self.scores[name]!r}" for name in self.ranking)
        return "\n".join(lines) + "\n"


def _accumulate_tree_importance(node: TreeNode, sink: dict[str, float]) -> None:
    if isinstance(node, Leaf):
        return
    sink[node.feature] = sink.get(node.feature, 0.0) + node.weighted_mse_reduction
    _accumulate_tree_importance(node.left, sink)
    _accumulate_tree_importance(node.right, sink)


def feature_importance(forest: Forest) -> ImportanceReport:
    """Average per-tree MSE reductions per feature, normalized to sum to one.

    A feature's per-tree score is the sum over its split nodes of the node's
    sample-fraction-weighted MSE reduction; the forest score is the mean over
    trees. All-zero scores (constant target) are left unnormalized.
    """
    totals = {name: 0.0 for name in FEATURES}
    for tree in forest.trees:
        per_tree: dict[str, float] = {}
        _accumulate_tree_importance(tree, per_tree)
        for name, value in per_tree.items():
            totals[name] += value
    t = len(forest.trees)
    scores = {name: value / t for name, value in totals.items()}
    total = sum(scores.values())
    if total > 0.0:
        scores = {name: value / total for name, value in scores.items()}
    return ImportanceReport.from_scores(scores)


def rank_features_for_attack(
    table: FlowTable,
    attack: AttackLabel,
    params: ForestParams = ForestParams(),
    seed: int = 0,
) -> ImportanceReport:
    """One-vs-rest feature ranking: regress the indicator of `attack` on all features."""
    y = table.has_label(attack).astype(np.float64)
    if not y.any():
        raise ValueError(f"no records labeled {attack.render()}")
    if y.all():
        raise ValueError(f"no records labeled other than {attack.render()}")
    forest = fit_forest(table, y, params=params, seed=seed)
    return feature_importance(forest)


def write_report(report: ImportanceReport, json_path: str | Path, csv_path: str | Path) -> None:
    json_path = Path(json_path)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(report.to_json(), encoding="utf-8")
    Path(csv_path).write_text(report.to_csv(), encoding="utf-8")
