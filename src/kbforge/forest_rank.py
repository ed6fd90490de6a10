"""Random forest of regression trees on 0/1 indicators, with mean-MSE-reduction importance.

The target is the one-vs-rest indicator of an attack: ``fit_forest`` takes
only 0/1 values and raises ``ValueError`` for any other. Split finding is
exact and greedy: every registry feature is considered at every node (no
feature subsampling) with candidate thresholds at midpoints of consecutive
distinct values; where a midpoint rounds onto the upper value, the lower value
is the threshold, so ``value <= threshold`` always splits at the boundary and
neither child is empty. Ties in split score break by alphabetical feature
name, then smaller threshold, which makes training fully deterministic for a
fixed (row order, params, seed). Per-tree randomness comes only from the
bootstrap resample: tree t draws from numpy's PCG64 seeded with
``SeedSequence((seed, t))``, so every (seed, tree index) pair has a stream of
its own, and PCG64 is a documented generator with stable streams across
platforms.

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
partition is skipped. Building a tree's rows, scoring and partitioning
take them in chunks of at most ``CHUNK_ELEMENTS`` elements, which bounds a
step's temporaries, and so peak memory, whatever the data size.

``fit_forest`` takes one indicator of shape (n,) or a (k, n) stack of them,
and the ``Forest`` it returns lists its trees target-major:
``trees[i * num_trees + t]`` is tree t of target i. Tree t of every target
draws the same bootstrap, so for each tree index ``fit_forest`` draws the
bootstrap, compresses the presorted rows and scans the root once for all
targets. The draw count and every target's positive draws are packed into
int64 words, one field of ``n.bit_length()`` bits each and as many fields to
a word as fit below the sign bit; no field's prefix sum exceeds n, so one
prefix sum per word counts them all. The value gather, the distinct-value
boundaries, the draw prefix and the admissibility test serve every target;
each target adds only its positive prefix at the admissible boundaries, its
reductions and its argmax. Below the root each target grows as a fit on it
alone would, with a word that packs only its own field. The last target
partitions the shared buffer; every other target a copy of it, taken when
its root split needs a partition. Every tree is thus the tree a fit on that
one target grows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .flow_data import FEATURES, AttackLabel, FlowTable
from .params import ForestParams


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
#: search or partition, or of building a tree's rows, handles at once; it caps
#: the temporaries a step allocates. At 2**13 an int64 temporary is 64 KiB,
#: under glibc's 128 KiB mmap threshold (M_MMAP_THRESHOLD, mallopt(3)), so
#: malloc serves it from heap pages the process already holds. At 2**15 each
#: node mapped fresh pages that the kernel zero-fills on first touch: about
#: 12,000 minor page faults per fit of 4,000 records.
CHUNK_ELEMENTS = 1 << 13

#: Bits of an int64 that packed fields may fill; the sign bit stays clear.
_WORD_BITS = 63


def _pack(counts: np.ndarray, positives: np.ndarray, bits: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Pack each record's draws and every target's positive draws in
    ``bits``-bit fields of int64 words; return the words and each target's
    field as (word, shift).

    Field 0 is the draw count (the low bits of word 0) and field 1 + i the
    positive draws of target i; each word holds as many fields as fit. No
    prefix sum of a field exceeds the record count, which ``bits`` bits hold,
    so a prefix sum of the words carries nothing from one field to the next.
    """
    per_word = _WORD_BITS // bits
    words = np.zeros((-(-(1 + len(positives)) // per_word), counts.size), dtype=np.int64)
    fields = [divmod(f, per_word) for f in range(1 + len(positives))]
    for (word, slot), values in zip(fields, (counts, *positives)):
        words[word] += values << (bits * slot)
    return words, [(word, bits * slot) for word, slot in fields[1:]]


class _TreeGrower:
    """Grows one tree over a slice-partitioned buffer of presorted record indices.

    ``order`` has one row per entry of ``columns``: the tree's drawn records,
    each once, sorted by that column's value, then by index. A node owns the
    columns ``lo:hi`` of every row; it also knows its draw count ``n`` and
    the positive draws ``s`` among them. ``words`` are ``_pack``'s words and
    ``field`` names the target that ``grow`` follows; ``best_splits`` scores
    whichever targets it is given. Given a ``spare`` buffer of ``order``'s
    shape, the first partition copies ``order`` into it and works there, so
    the caller's buffer stays as it was.
    """

    def __init__(
        self,
        columns: np.ndarray,
        names: tuple[str, ...],
        order: np.ndarray,
        params: ForestParams,
        words: np.ndarray,
        bits: int,
        field: tuple[int, int] = (0, 0),
        spare: np.ndarray | None = None,
    ):
        self.values = columns.ravel()
        self.offsets = np.arange(0, columns.size, columns.shape[1])[:, None]
        self.names = names
        self.order = order
        self.params = params
        self.words = words
        self.mask = (1 << bits) - 1
        self.field = field
        self.spare = spare
        self.n_root = columns.shape[1]

    def is_leaf(self, n: int, s: int, depth: int) -> bool:
        return depth >= self.params.max_depth or n < 2 * self.params.min_samples_leaf or s in (0, n)

    def grow(self, lo: int, hi: int, depth: int, n: int, s: int) -> TreeNode:
        best = None if self.is_leaf(n, s, depth) else self.best_splits(lo, hi, n, [self.field], [s])[0]
        return self.node(lo, hi, depth, n, s, best)

    def node(self, lo: int, hi: int, depth: int, n: int, s: int, best: tuple | None) -> TreeNode:
        """The node of ``grow(lo, hi, depth, n, s)`` once its best split is known."""
        if best is None:
            return Leaf(value=s / n, sample_count=n)

        reduction, column, threshold, m_left, n_left, s_left = best
        mid = lo + m_left
        n_right, s_right = n - n_left, s - s_left
        if not (self.is_leaf(n_left, s_left, depth + 1) and self.is_leaf(n_right, s_right, depth + 1)):
            self._partition(lo, hi, column, m_left)
        return Split(
            feature=self.names[column],
            threshold=threshold,
            left=self.grow(lo, mid, depth + 1, n_left, s_left),
            right=self.grow(mid, hi, depth + 1, n_right, s_right),
            weighted_mse_reduction=reduction / self.n_root,
        )

    def best_splits(
        self, lo: int, hi: int, n: int, fields: list[tuple[int, int]], totals: list[int]
    ) -> list[tuple | None]:
        """For each target, given by its field and its positive draws in
        ``totals``, return (sse_reduction, column, threshold, records_left,
        n_left, s_left) of the node's best split, or None.

        Boundary i puts records [0..i] of a row left and the rest right; it is
        admissible when the values differ across it and both sides hold at
        least min_samples_leaf draws. The gather, the boundaries, the prefix
        sums and the admissibility test serve every target at once.
        """
        m = hi - lo
        min_leaf = self.params.min_samples_leaf
        total_n = float(n)
        best: list[tuple | None] = [None] * len(fields)
        step = max(1, CHUNK_ELEMENTS // m)
        # Array methods rather than np.take and np.flatnonzero, whose Python
        # wrappers cost about a microsecond a call in a fit's thousands of steps.
        for r0 in range(0, self.order.shape[0], step):
            rows = self.order[r0 : r0 + step, lo:hi]
            vs = self.values.take(rows + self.offsets[r0 : r0 + step])
            at = (vs[:, :-1] < vs[:, 1:]).ravel().nonzero()[0]  # boundaries between distinct values, row-major
            ends = at + at // (m - 1)
            prefix = [word.take(rows).cumsum(axis=1).ravel()[ends] for word in self.words]
            n_left = prefix[0] & self.mask
            admissible = (n_left >= min_leaf) & (n_left <= n - min_leaf)
            at, n_left = at[admissible], n_left[admissible]
            if at.size == 0:
                continue
            prefix = [p[admissible] for p in prefix]
            nl = n_left.astype(np.float64)
            nr = total_n - nl
            for i, ((word, shift), s) in enumerate(zip(fields, totals)):
                # The per-feature search's expressions over float cumsums of a
                # 0/1 target, where sum(y * y) == sum(y): whole-number draw
                # counts give every operand exactly, so each reduction is the
                # same float.
                total = float(s)
                sse_total = total - (total * total) / total_n
                s_left = (prefix[word] >> shift) & self.mask
                sl = s_left.astype(np.float64)
                sr = total - sl
                reductions = sse_total - (sl - (sl * sl) / nl) - (sr - (sr * sr) / nr)
                # The first maximum in row-major order is the lower registry
                # index, then the smaller threshold.
                j = int(reductions.argmax())
                if best[i] is None or reductions[j] > best[i][0]:
                    r, c = divmod(int(at[j]), m - 1)
                    threshold = float((vs[r, c] + vs[r, c + 1]) / 2.0)
                    if threshold >= vs[r, c + 1]:  # rounded onto the upper value
                        threshold = float(vs[r, c])
                    best[i] = (float(reductions[j]), r0 + r, threshold, c + 1, int(n_left[j]), int(s_left[j]))
        return [None if b is None or b[0] <= 0.0 else b for b in best]

    def _partition(self, lo: int, hi: int, column: int, m_left: int) -> None:
        """Move the node's first m_left records of row ``column`` to the front
        of every row, keeping each side's order."""
        if self.spare is not None:
            self.spare[...] = self.order
            self.order, self.spare = self.spare, None
        m = hi - lo
        left = np.zeros(self.n_root, dtype=bool)
        left[self.order[column, lo : lo + m_left]] = True
        step = max(1, CHUNK_ELEMENTS // m)
        for r0 in range(0, self.order.shape[0], step):
            rows = self.order[r0 : r0 + step, lo:hi]
            goes_left = left.take(rows)
            k = rows.shape[0]
            ahead = rows.take(goes_left.ravel().nonzero()[0]).reshape(k, m_left)
            rows[:, m_left:] = rows.take((~goes_left).ravel().nonzero()[0]).reshape(k, m - m_left)
            rows[:, :m_left] = ahead


def fit_forest(
    table: FlowTable,
    target: list[float] | np.ndarray,
    params: ForestParams = ForestParams(),
    seed: int = 0,
) -> Forest:
    """Train a forest of regression trees on the registry features for each
    0/1 indicator target: ``target`` is one indicator of shape (n,) or a
    (k, n) stack of them.

    The forest lists its trees target-major: ``trees[i * num_trees + t]`` is
    tree t of target i, and every tree equals the one a fit on target i alone
    grows. Deterministic for a fixed (row order, params, seed); each tree sees
    a bootstrap resample of the same size when params.bootstrap is set.
    """
    if len(table) < 2:
        raise ValueError("need at least 2 records to fit a forest")
    X = table.X
    n = X.shape[0]
    y = np.atleast_2d(np.asarray(target, dtype=np.float64))
    if y.ndim != 2 or y.shape[1] != n or y.shape[0] == 0:
        raise ValueError("target must be defined for every record")
    positive = y == 1.0
    if not (positive | (y == 0.0)).all():
        raise ValueError("target must be a 0/1 indicator")
    varying = np.flatnonzero((X != X[0]).any(axis=0))
    if varying.size == 0:
        raise ValueError("need at least 2 distinct records to fit a forest")

    k = y.shape[0]
    columns = np.ascontiguousarray(X[:, varying].T)
    names = tuple(FEATURES[j] for j in varying)
    # Each varying column's rows by (value, index), as int32: half the memory of numpy's index type.
    presorted = np.argsort(columns, axis=1, kind="stable").astype(np.int32).ravel()
    bits = n.bit_length()
    # A tree's rows, and the copy that every target but the last partitions,
    # live in two buffers that last the fit and grow to the largest tree.
    buffers = np.empty((2, 0), dtype=np.intp)
    trees: list[list[TreeNode]] = [[] for _ in range(k)]
    for t in range(params.num_trees):
        if params.bootstrap:
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, t))))
            counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
        else:
            counts = np.ones(n, dtype=np.int64)
        # Each row keeps its drawn records, as numpy's index type (no cast per
        # gather), compressed CHUNK_ELEMENTS at a time straight into place.
        drawn = counts > 0
        m = np.count_nonzero(drawn)
        if buffers.shape[1] < varying.size * m:
            buffers = None  # the last tree's views are gone, so its buffers are freed first
            buffers = np.empty((2, varying.size * m), dtype=np.intp)
        flat, spare = buffers[:, : varying.size * m]
        step = max(1, CHUNK_ELEMENTS // n)
        for r0 in range(0, varying.size, step):
            ranked = presorted[r0 * n : (r0 + step) * n]
            flat[r0 * m : (r0 + step) * m] = ranked.compress(drawn.take(ranked))
        order = flat.reshape(varying.size, m)
        positives = counts * positive
        totals = positives.sum(axis=1).tolist()
        # One root scan serves every target that is not a leaf at the root.
        words, fields = _pack(counts, positives, bits)
        root = _TreeGrower(columns, names, order, params, words, bits)
        searched = [i for i in range(k) if not root.is_leaf(n, totals[i], 0)]
        found = root.best_splits(0, m, n, [fields[i] for i in searched], [totals[i] for i in searched])
        bests = dict(zip(searched, found))
        for i in range(k):
            # Below the root a target needs only its own field. Every target
            # but the last partitions a copy of the shared rows.
            words, (field,) = _pack(counts, positives[i : i + 1], bits)
            copy = spare.reshape(order.shape) if i < k - 1 else None
            grower = _TreeGrower(columns, names, order, params, words, bits, field, copy)
            trees[i].append(grower.node(0, m, 0, n, totals[i], bests.get(i)))
        del flat, spare, order, copy, root, grower
    return Forest(trees=tuple(tree for per_target in trees for tree in per_target), params=params, seed=seed)


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


def feature_importance(forest: Forest, target: int = 0) -> ImportanceReport:
    """Average per-tree MSE reductions per feature over the trees of one
    target, normalized to sum to one.

    A feature's per-tree score is the sum over its split nodes of the node's
    sample-fraction-weighted MSE reduction; the forest score is the mean over
    trees. All-zero scores (constant target) are left unnormalized.
    """
    t = forest.params.num_trees
    if not 0 <= target < len(forest.trees) // t:
        raise IndexError(f"the forest has no target {target}")
    totals = {name: 0.0 for name in FEATURES}
    for tree in forest.trees[target * t : (target + 1) * t]:
        per_tree: dict[str, float] = {}
        _accumulate_tree_importance(tree, per_tree)
        for name, value in per_tree.items():
            totals[name] += value
    scores = {name: value / t for name, value in totals.items()}
    total = sum(scores.values())
    if total > 0.0:
        scores = {name: value / total for name, value in scores.items()}
    return ImportanceReport.from_scores(scores)


def rank_features_for_attack(
    table: FlowTable,
    attacks: Sequence[AttackLabel],
    params: ForestParams = ForestParams(),
    seed: int = 0,
) -> dict[AttackLabel, ImportanceReport]:
    """One-vs-rest feature rankings: regress each attack's indicator on all
    features, every attack in one forest fit."""
    y = np.array([table.has_label(attack) for attack in attacks], dtype=np.float64)
    for attack, row in zip(attacks, y):
        if not row.any():
            raise ValueError(f"no records labeled {attack.render()}")
        if row.all():
            raise ValueError(f"no records labeled other than {attack.render()}")
    forest = fit_forest(table, y, params=params, seed=seed)
    return {attack: feature_importance(forest, i) for i, attack in enumerate(attacks)}


def write_report(report: ImportanceReport, json_path: str | Path, csv_path: str | Path) -> None:
    json_path = Path(json_path)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(report.to_json(), encoding="utf-8")
    Path(csv_path).write_text(report.to_csv(), encoding="utf-8")
