"""Random forest of regression trees on a 0/1 indicator, with mean-MSE-reduction importance.

The target is the one-vs-rest indicator of an attack: ``fit_forest`` takes
only 0/1 values and raises ``ValueError`` for any other. Split finding is
exact and greedy: every registry feature is considered at every node (no
feature subsampling) with candidate thresholds at midpoints of consecutive
distinct values. Ties in split score break by alphabetical feature name, then
smaller threshold, which makes training fully deterministic for a fixed (row
order, params, seed). Per-tree randomness comes only from the bootstrap
resample, seeded with ``seed XOR tree_index`` through numpy's PCG64, a
documented generator with stable streams across platforms.

The search runs on a presorted column block (the "exact greedy" layout of
XGBoost, Chen & Guestrin 2016). The table argsorts each column once, stably,
so every row of the block lists record indices by (value, record index);
``fit_forest`` keeps the rows of the columns that vary across the dataset
(the others can never split). A tree's bootstrap becomes a draw count per
record, and its rows keep each drawn record once, in presorted order. Each
node is a column slice of the tree's one buffer and knows its draw count and
positive draws, handed down from its parent's chosen boundary.

All live features are scored at once. One integer prefix sum per row gives,
at every boundary, the draws and the positive draws on the left (both packed
in one int64). For a 0/1 target the sum of squares equals the sum, so the
counts are exactly the float cumulative sums of y and y * y that a
per-feature scan over the draw multiset would take at that boundary;
boundaries inside a run of one record's copies are never admissible, so
dropping them loses nothing. The reduction keeps that scan's float
expressions in the same order, so thresholds, reductions and leaf values
(``s / n``) are bit-identical to it. The chosen split then partitions every
row stably in place, and the children are the two halves of the node's
slice; when both children are leaves (by depth, size or purity) the
partition is skipped. Scoring and partitioning take the rows in chunks of
at most ``CHUNK_ELEMENTS`` elements, which bounds a node's temporaries, and
so peak memory, whatever the data size.
"""

from __future__ import annotations

import json
import math
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


#: Most elements (feature rows x node records) that one step of a node's split
#: search or partition handles at once; it caps the temporaries a node allocates.
CHUNK_ELEMENTS = 1 << 15

#: A record's draws and positive draws share one int64, ``draws + (positive
#: draws << _SHIFT)``, so that one integer prefix sum counts both.
_SHIFT = 32
_LOW = (1 << _SHIFT) - 1


class _TreeGrower:
    """Grows one tree over a slice-partitioned buffer of presorted record indices.

    ``order`` has one row per entry of ``columns``: the tree's drawn records,
    each once, sorted by that column's value, then by index. A node owns the
    columns ``lo:hi`` of every row; it also knows its draw count ``n`` and
    the positive draws ``s`` among them.
    """

    def __init__(
        self,
        columns: np.ndarray,
        names: tuple[str, ...],
        draws: np.ndarray,
        order: np.ndarray,
        params: ForestParams,
    ):
        self.values = columns.ravel()
        self.offsets = np.arange(0, columns.size, columns.shape[1])[:, None]
        self.names = names
        self.draws = draws
        self.order = order
        self.params = params
        self.n_root = columns.shape[1]

    def _is_leaf(self, n: int, s: int, depth: int) -> bool:
        return depth >= self.params.max_depth or n < 2 * self.params.min_samples_leaf or s in (0, n)

    def grow(self, lo: int, hi: int, depth: int, n: int, s: int) -> TreeNode:
        best = None if self._is_leaf(n, s, depth) else self._best_split(lo, hi, n, s)
        if best is None:
            # n is 0 only on the empty side of a midpoint rounded onto the upper value.
            return Leaf(value=s / n if n else math.nan, sample_count=n)

        reduction, column, threshold, m_left, n_left, s_left = best
        mid = lo + m_left
        n_right, s_right = n - n_left, s - s_left
        if not (self._is_leaf(n_left, s_left, depth + 1) and self._is_leaf(n_right, s_right, depth + 1)):
            self._partition(lo, hi, column, m_left)
        return Split(
            feature=self.names[column],
            threshold=threshold,
            left=self.grow(lo, mid, depth + 1, n_left, s_left),
            right=self.grow(mid, hi, depth + 1, n_right, s_right),
            weighted_mse_reduction=reduction / self.n_root,
        )

    def _best_split(self, lo: int, hi: int, n: int, s: int) -> tuple | None:
        """Return (sse_reduction, column, threshold, records_left, n_left,
        s_left) of the node's best split, or None.

        Boundary i puts records [0..i] of a row left and the rest right; it is
        admissible when the values differ across it and both sides hold at
        least min_samples_leaf draws.
        """
        m = hi - lo
        min_leaf = self.params.min_samples_leaf
        total, total_n = float(s), float(n)
        sse_total = total - (total * total) / total_n
        best = None
        step = max(1, CHUNK_ELEMENTS // m)
        for r0 in range(0, self.order.shape[0], step):
            rows = self.order[r0 : r0 + step, lo:hi]
            vs = np.take(self.values, rows + self.offsets[r0 : r0 + step])
            at = np.flatnonzero(vs[:, :-1] < vs[:, 1:])  # boundaries between distinct values, row-major
            prefix = np.take(self.draws, rows).cumsum(axis=1).ravel()[at + at // (m - 1)]
            n_left = prefix & _LOW
            admissible = (n_left >= min_leaf) & (n_left <= n - min_leaf)
            at, prefix, n_left = at[admissible], prefix[admissible], n_left[admissible]
            if at.size == 0:
                continue
            # The per-feature search's expressions over float cumsums of a 0/1
            # target, where sum(y * y) == sum(y): whole-number draw counts give
            # every operand exactly, so each reduction is the same float.
            nl = n_left.astype(np.float64)
            sl = (prefix >> _SHIFT).astype(np.float64)
            sr = total - sl
            reductions = sse_total - (sl - (sl * sl) / nl) - (sr - (sr * sr) / (total_n - nl))
            # The first maximum in row-major order is the lower registry index,
            # then the smaller threshold.
            j = int(reductions.argmax())
            if best is None or reductions[j] > best[0]:
                r, i = divmod(int(at[j]), m - 1)
                threshold = float((vs[r, i] + vs[r, i + 1]) / 2.0)
                # Records with value <= threshold go left: records [0..i],
                # unless the midpoint rounded onto vs[r, i + 1].
                m_left = int(np.searchsorted(vs[r], threshold, side="right"))
                packed = prefix[j] if m_left == i + 1 else self.draws[rows[r, :m_left]].sum()
                counts = int(packed & _LOW), int(packed >> _SHIFT)
                best = (float(reductions[j]), r0 + r, threshold, m_left, *counts)
        if best is None or best[0] <= 0.0:
            return None
        return best

    def _partition(self, lo: int, hi: int, column: int, m_left: int) -> None:
        """Move the node's first m_left records of row ``column`` to the front
        of every row, keeping each side's order."""
        m = hi - lo
        left = np.zeros(self.n_root, dtype=bool)
        left[self.order[column, lo : lo + m_left]] = True
        step = max(1, CHUNK_ELEMENTS // m)
        for r0 in range(0, self.order.shape[0], step):
            rows = self.order[r0 : r0 + step, lo:hi]
            goes_left = np.take(left, rows)
            k = rows.shape[0]
            ahead = np.take(rows, np.flatnonzero(goes_left)).reshape(k, m_left)
            rows[:, m_left:] = np.take(rows, np.flatnonzero(~goes_left)).reshape(k, m - m_left)
            rows[:, :m_left] = ahead


def fit_forest(
    table: FlowTable,
    target: list[float] | np.ndarray,
    params: ForestParams = ForestParams(),
    seed: int = 0,
) -> Forest:
    """Train a forest of regression trees on the registry features for a 0/1
    indicator target.

    Deterministic for a fixed (row order, params, seed); each tree sees a
    bootstrap resample of the same size when params.bootstrap is set.
    """
    if len(table) < 2:
        raise ValueError("need at least 2 records to fit a forest")
    X = table.X
    y = np.asarray(target, dtype=np.float64)
    if y.shape != (X.shape[0],):
        raise ValueError("target must be defined for every record")
    positive = y == 1.0
    if not (positive | (y == 0.0)).all():
        raise ValueError("target must be a 0/1 indicator")
    varying = np.flatnonzero((X != X[0]).any(axis=0))
    if varying.size == 0:
        raise ValueError("need at least 2 distinct records to fit a forest")

    n = X.shape[0]
    columns = np.ascontiguousarray(X[:, varying].T)
    names = tuple(FEATURES[j] for j in varying)
    presorted = table.sorted_rows()[varying].ravel()
    trees = []
    for t in range(params.num_trees):
        if params.bootstrap:
            rng = np.random.Generator(np.random.PCG64(seed ^ t))
            counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
        else:
            counts = np.ones(n, dtype=np.int64)
        # Each row keeps its drawn records, as numpy's index type (no cast per gather).
        order = np.compress(np.take(counts > 0, presorted), presorted).reshape(varying.size, -1)
        order = order.astype(np.intp)
        positives = counts * positive
        draws = counts + (positives << _SHIFT)
        grower = _TreeGrower(columns, names, draws, order, params)
        trees.append(grower.grow(0, order.shape[1], 0, n, int(positives.sum())))
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
