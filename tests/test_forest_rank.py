from __future__ import annotations

import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbforge import forest_rank
from kbforge.cli import main
from kbforge.flow_data import ATTACK_LABELS, FEATURES, LABEL_CODES, AttackLabel, FlowRecord, write_dataset
from kbforge.forest_rank import (
    Forest,
    ForestParams,
    ImportanceReport,
    Leaf,
    Split,
    TreeNode,
    feature_importance,
    fit_forest,
    rank_features_for_attack,
)
from kbforge.synth_traffic import default_spec, generate_dataset

from conftest import make_record, table_of


def two_class_records(n=40, seed=0, informative="Min", low=1.0, high=9.0):
    """Records where `informative` alone determines the label."""
    rng = np.random.Generator(np.random.PCG64(seed))
    records, targets = [], []
    for i in range(n):
        positive = i % 2 == 0
        noise = {name: float(rng.uniform(0, 5)) for name in ("Std", "Number")}
        records.append(
            make_record(
                AttackLabel.ICMP_FLOOD if positive else AttackLabel.UDP_FLOOD,
                **{informative: high if positive else low},
                **noise,
            )
        )
        targets.append(1.0 if positive else 0.0)
    return table_of(records), targets


def brute_force_single_split(records, targets):
    """Enumerate every (feature, threshold) pair; return the best SSE reduction."""
    X = np.array([[r.features[f] for f in FEATURES] for r in records])
    y = np.asarray(targets, dtype=float)
    sse_total = float(((y - y.mean()) ** 2).sum())
    best = (0.0, None, None)
    for j, feature in enumerate(FEATURES):
        values = np.unique(X[:, j])
        for lo, hi in zip(values[:-1], values[1:]):
            threshold = (lo + hi) / 2
            mask = X[:, j] <= threshold
            left, right = y[mask], y[~mask]
            sse = float(((left - left.mean()) ** 2).sum()) + float(
                ((right - right.mean()) ** 2).sum()
            )
            reduction = sse_total - sse
            if reduction > best[0]:
                best = (reduction, feature, threshold)
    return best


# Per-feature exact split search: one stable argsort and cumsum per feature at
# every node. fit_forest must return the very same Forest, float for float.


def reference_best_split_for_feature(
    values: np.ndarray, y: np.ndarray, min_leaf: int
) -> tuple[float, float] | None:
    """Return (sse_reduction, threshold) for the best admissible split, or None."""
    order = np.argsort(values, kind="stable")
    vs = values[order]
    ys = y[order]
    n = vs.size
    # boundary i means left = samples [0..i], right = [i+1..n-1]
    boundaries = np.nonzero(vs[:-1] < vs[1:])[0]
    if boundaries.size == 0:
        return None
    counts_left = boundaries + 1
    admissible = (counts_left >= min_leaf) & (n - counts_left >= min_leaf)
    boundaries = boundaries[admissible]
    if boundaries.size == 0:
        return None
    cum_y = np.cumsum(ys)
    cum_y2 = np.cumsum(ys * ys)
    total_y = cum_y[-1]
    total_y2 = cum_y2[-1]
    n_left = (boundaries + 1).astype(np.float64)
    n_right = n - n_left
    sum_left = cum_y[boundaries]
    sum2_left = cum_y2[boundaries]
    sse_left = sum2_left - (sum_left * sum_left) / n_left
    sum_right = total_y - sum_left
    sse_right = (total_y2 - sum2_left) - (sum_right * sum_right) / n_right
    sse_total = total_y2 - (total_y * total_y) / n
    reductions = sse_total - sse_left - sse_right
    best = int(np.argmax(reductions))  # first maximum <=> smaller threshold on ties
    reduction = float(reductions[best])
    if reduction <= 0.0:
        return None
    i = boundaries[best]
    threshold = float((vs[i] + vs[i + 1]) / 2.0)
    if threshold >= vs[i + 1]:  # the midpoint rounded onto the upper value
        threshold = float(vs[i])
    return reduction, threshold


def reference_grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    indices: np.ndarray,
    depth: int,
    params: ForestParams,
    n_root: int,
) -> TreeNode:
    y_node = y[indices]
    n = indices.size
    mean = float(y_node.mean())
    if depth >= params.max_depth or n < 2 * params.min_samples_leaf or np.all(y_node == y_node[0]):
        return Leaf(value=mean, sample_count=n)

    best: tuple[float, int, float] | None = None  # (reduction, feature_idx, threshold)
    for j in range(X.shape[1]):
        found = reference_best_split_for_feature(X[indices, j], y_node, params.min_samples_leaf)
        if found is None:
            continue
        reduction, threshold = found
        if best is None or reduction > best[0]:
            best = (reduction, j, threshold)
    if best is None:
        return Leaf(value=mean, sample_count=n)

    reduction, j, threshold = best
    mask = X[indices, j] <= threshold
    left = reference_grow_tree(X, y, indices[mask], depth + 1, params, n_root)
    right = reference_grow_tree(X, y, indices[~mask], depth + 1, params, n_root)
    return Split(
        feature=FEATURES[j],
        threshold=threshold,
        left=left,
        right=right,
        weighted_mse_reduction=reduction / n_root,
    )


def reference_fit_forest(records, targets, params, seed):
    X = np.array([[r.features[name] for name in FEATURES] for r in records], dtype=np.float64)
    if np.unique(X, axis=0).shape[0] < 2:
        raise ValueError("need at least 2 distinct records to fit a forest")
    y = np.asarray(targets, dtype=np.float64)
    n = X.shape[0]
    trees = []
    for t in range(params.num_trees):
        if params.bootstrap:
            rng = np.random.Generator(np.random.PCG64(seed ^ t))
            indices = np.sort(rng.integers(0, n, size=n))
        else:
            indices = np.arange(n)
        trees.append(reference_grow_tree(X, y, indices, depth=0, params=params, n_root=n))
    return Forest(trees=tuple(trees), params=params, seed=seed)


def leaves(node):
    if isinstance(node, Leaf):
        return [node]
    return leaves(node.left) + leaves(node.right)


def count_splits(node):
    if isinstance(node, Leaf):
        return 0
    return 1 + count_splits(node.left) + count_splits(node.right)


@st.composite
def forest_cases(draw):
    """Small matrices: few distinct values per column, the other registry
    columns constant, some columns copied under another name (exact ties
    between features), and a 0/1 indicator target."""
    n = draw(st.integers(2, 60))
    names = draw(st.lists(st.sampled_from(FEATURES), min_size=1, max_size=6, unique=True))
    eighths = st.integers(-80, 80).map(lambda v: v / 8)
    columns = {}
    for name in names:
        if columns and draw(st.booleans()):
            columns[name] = list(columns[draw(st.sampled_from(sorted(columns)))])
        else:
            pool = draw(st.lists(eighths, min_size=1, max_size=8))
            columns[name] = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    records = table_of([make_record(None, **{name: col[i] for name, col in columns.items()}) for i in range(n)])
    targets = draw(st.lists(st.sampled_from((0.0, 1.0)), min_size=n, max_size=n))
    params = ForestParams(
        num_trees=draw(st.integers(1, 3)),
        max_depth=draw(st.integers(1, 12)),
        min_samples_leaf=draw(st.integers(1, 6)),
        bootstrap=draw(st.booleans()),
    )
    return records, targets, params, draw(st.integers(0, 2**16))


@st.composite
def stacked_cases(draw):
    """A forest case with k = 1..4 indicator targets stacked as (k, n): either
    one-vs-rest rows (each record in at most one class) or arbitrary 0/1 rows
    that may overlap."""
    records, _, params, seed = draw(forest_cases())
    n, k = len(records), draw(st.integers(1, 4))
    if draw(st.booleans()):
        classes = draw(st.lists(st.integers(0, k), min_size=n, max_size=n))  # k is "the rest"
        targets = [[float(c == i) for c in classes] for i in range(k)]
    else:
        indicator = st.lists(st.sampled_from((0.0, 1.0)), min_size=n, max_size=n)
        targets = draw(st.lists(indicator, min_size=k, max_size=k))
    return records, targets, params, seed


class TestAgainstPerFeatureSearch:
    @settings(max_examples=150, deadline=None)
    @given(case=forest_cases(), chunk=st.sampled_from([1, 7, 64, forest_rank.CHUNK_ELEMENTS]))
    def test_fit_forest_equals_reference(self, case, chunk):
        records, targets, params, seed = case
        try:
            expected = reference_fit_forest(records, targets, params, seed)
        except ValueError:
            with pytest.raises(ValueError, match="distinct"):
                fit_forest(records, targets, params, seed)
            return
        with mock.patch.object(forest_rank, "CHUNK_ELEMENTS", chunk):
            assert fit_forest(records, targets, params, seed) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        case=stacked_cases(),
        chunk=st.sampled_from([1, 7, 64, forest_rank.CHUNK_ELEMENTS]),
        # In 6 bits a word holds one to three fields of n <= 60 draws, so
        # most cases pack the root, and some a subtree, into several words.
        word_bits=st.sampled_from([6, forest_rank._WORD_BITS]),
    )
    def test_stacked_targets_equal_per_target_fits(self, case, chunk, word_bits):
        records, targets, params, seed = case
        try:
            expected = [reference_fit_forest(records, row, params, seed) for row in targets]
        except ValueError:
            with pytest.raises(ValueError, match="distinct"):
                fit_forest(records, targets, params, seed)
            return
        with mock.patch.object(forest_rank, "CHUNK_ELEMENTS", chunk), \
                mock.patch.object(forest_rank, "_WORD_BITS", word_bits):
            forest = fit_forest(records, np.array(targets), params, seed)
            singles = [fit_forest(records, row, params, seed) for row in targets]
        assert forest.trees == tuple(tree for single in singles for tree in single.trees)
        assert forest.trees == tuple(tree for reference in expected for tree in reference.trees)
        for i, single in enumerate(singles):
            assert feature_importance(forest, i) == feature_importance(single)

    @pytest.fixture(scope="class")
    def deep_case(self):
        rng = np.random.Generator(np.random.PCG64(3))
        X = rng.normal(size=(600, len(FEATURES))).round(2)
        records = table_of([make_record(None, **dict(zip(FEATURES, map(float, row)))) for row in X])
        targets = (rng.random(600) < 0.5).astype(np.float64)  # a noisy indicator: deep trees
        params = ForestParams(num_trees=2, max_depth=12, min_samples_leaf=2)
        return records, targets, params, reference_fit_forest(records, targets, params, seed=5)

    @pytest.mark.parametrize("chunk", [forest_rank.CHUNK_ELEMENTS, 1000])
    def test_deep_noise_forest_equals_reference(self, deep_case, chunk):
        records, targets, params, expected = deep_case
        assert all(count_splits(tree) >= 50 for tree in expected.trees)
        with mock.patch.object(forest_rank, "CHUNK_ELEMENTS", chunk):
            forest = fit_forest(records, targets, params, seed=5)
        assert forest == expected
        assert feature_importance(forest).to_json() == feature_importance(expected).to_json()

    @pytest.fixture(scope="class")
    def deep_four_case(self, deep_case):
        records, _, params, _ = deep_case
        classes = np.random.Generator(np.random.PCG64(4)).integers(0, 4, size=len(records))
        targets = np.array([classes == i for i in range(4)], dtype=np.float64)  # one-vs-rest noise
        return records, targets, params, [reference_fit_forest(records, row, params, seed=5) for row in targets]

    def test_deep_noise_four_targets_equal_reference(self, deep_four_case):
        records, targets, params, expected = deep_four_case
        assert all(count_splits(tree) >= 30 for reference in expected for tree in reference.trees)
        forest = fit_forest(records, targets, params, seed=5)
        assert forest.trees == tuple(tree for reference in expected for tree in reference.trees)

    @pytest.mark.parametrize("bootstrap", [False, True])
    def test_midpoint_rounding_onto_the_upper_value(self, bootstrap):
        # Adjacent doubles whose midpoint rounds up to the larger one: the
        # split at that boundary takes the lower value as its threshold, so
        # `<= threshold` still sends the larger one right.
        low = 1.0 + 2.0**-52
        high = float(np.nextafter(low, 2.0))
        assert (low + high) / 2.0 == high
        records = [make_record(None, Min=v, Std=float(i % 3))
                   for i, v in enumerate([low, low, low, high, high, high, 2.0, 2.0])]
        targets = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0]
        params = ForestParams(num_trees=3, max_depth=4, min_samples_leaf=1, bootstrap=bootstrap)
        forest = fit_forest(table_of(records), targets, params, seed=1)
        assert forest.trees[0].threshold == low
        assert all(leaf.sample_count > 0 for tree in forest.trees for leaf in leaves(tree))
        assert forest == reference_fit_forest(records, targets, params, seed=1)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ForestParams(num_trees=0)
        with pytest.raises(ValueError):
            ForestParams(max_depth=0)
        with pytest.raises(ValueError):
            ForestParams(min_samples_leaf=0)


class TestFitForest:
    def test_rejects_empty_and_degenerate(self):
        with pytest.raises(ValueError):
            fit_forest(table_of([]), [], ForestParams())
        dup = table_of([make_record(None, Min=1.0), make_record(None, Min=1.0)])
        with pytest.raises(ValueError, match="distinct"):
            fit_forest(dup, [0.0, 1.0], ForestParams())

    def test_two_records_split_on_the_only_feature(self):
        records = table_of([make_record(None, Min=1.0), make_record(None, Min=9.0)])
        params = ForestParams(num_trees=3, max_depth=3, min_samples_leaf=1, bootstrap=False)
        forest = fit_forest(records, [0.0, 1.0], params, seed=1)
        reduction, feature, threshold = brute_force_single_split(records, [0.0, 1.0])
        assert feature == "Min"
        for tree in forest.trees:
            assert isinstance(tree, Split)
            assert tree.feature == "Min"
            assert tree.threshold == threshold
            assert isinstance(tree.left, Leaf) and isinstance(tree.right, Leaf)

    def test_constant_target_gives_single_leaves(self):
        records, _ = two_class_records(20)
        forest = fit_forest(records, [0.0] * 20, ForestParams(num_trees=5), seed=0)
        assert all(isinstance(tree, Leaf) for tree in forest.trees)

    @pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, float("nan")])
    def test_rejects_targets_other_than_an_indicator(self, bad):
        records, targets = two_class_records(20)
        targets[3] = bad
        with pytest.raises(ValueError, match="0/1"):
            fit_forest(records, targets, ForestParams(num_trees=1))

    def test_rejects_target_of_the_wrong_length(self):
        records, targets = two_class_records(20)
        with pytest.raises(ValueError, match="every record"):
            fit_forest(records, targets[:-1], ForestParams(num_trees=1))

    def test_deterministic_for_fixed_seed(self):
        records, targets = two_class_records(60, seed=3)
        params = ForestParams(num_trees=10, max_depth=4)
        assert fit_forest(records, targets, params, seed=9) == fit_forest(
            records, targets, params, seed=9
        )

    def test_split_reductions_nonnegative(self):
        records, targets = two_class_records(60, seed=5)
        forest = fit_forest(records, targets, ForestParams(num_trees=5), seed=2)

        def walk(node):
            if isinstance(node, Split):
                assert node.weighted_mse_reduction > 0
                walk(node.left)
                walk(node.right)

        for tree in forest.trees:
            walk(tree)


class TestImportance:
    def test_constant_target_all_zero_alphabetical(self):
        records, _ = two_class_records(20)
        forest = fit_forest(records, [1.0] * 20, ForestParams(num_trees=3), seed=0)
        report = feature_importance(forest)
        assert all(v == 0.0 for v in report.scores.values())
        assert report.ranking == tuple(sorted(FEATURES))

    def test_single_informative_feature_scores_one(self):
        records, targets = two_class_records(40, seed=2, informative="Rate")
        # only Rate varies informatively; Std/Number are noise
        params = ForestParams(num_trees=10, max_depth=4, min_samples_leaf=2)
        forest = fit_forest(records, targets, params, seed=4)
        report = feature_importance(forest)
        assert report.ranking[0] == "Rate"
        assert report.scores["Rate"] == pytest.approx(1.0)
        reduction, feature, _ = brute_force_single_split(records, targets)
        assert feature == "Rate" and reduction > 0

    def test_duplicated_informative_feature_scores_sum_to_one(self):
        rng = np.random.Generator(np.random.PCG64(0))
        records, targets = [], []
        for i in range(40):
            positive = i % 2 == 0
            value = 9.0 if positive else 1.0
            records.append(
                make_record(None, Min=value, Max=value, Std=float(rng.uniform(0, 4)))
            )
            targets.append(float(positive))
        forest = fit_forest(table_of(records), targets, ForestParams(num_trees=10), seed=1)
        report = feature_importance(forest)
        assert report.scores["Min"] + report.scores["Max"] == pytest.approx(1.0)
        # Both split perfectly at the root; the tie breaks by alphabetical name.
        assert report.scores["Max"] == 1.0
        assert report.scores["Min"] == 0.0

    def test_normalized_scores_sum_to_one(self):
        records, targets = two_class_records(80, seed=6)
        forest = fit_forest(records, targets, ForestParams(num_trees=20), seed=3)
        report = feature_importance(forest)
        assert sum(report.scores.values()) == pytest.approx(1.0)
        assert all(v >= 0 for v in report.scores.values())

    def test_constant_feature_importance_exactly_zero(self):
        records, targets = two_class_records(40, seed=7)
        forest = fit_forest(records, targets, ForestParams(num_trees=10), seed=5)
        report = feature_importance(forest)
        assert report.scores["CWR Flag Number"] == 0.0  # constant 0 across records

    def test_reads_the_trees_of_one_target(self):
        records, targets = two_class_records(40, seed=3)
        params = ForestParams(num_trees=4, max_depth=3)
        forest = fit_forest(records, [[1.0 - v for v in targets], targets], params, seed=1)
        assert len(forest.trees) == 8
        assert feature_importance(forest, 1) == feature_importance(fit_forest(records, targets, params, seed=1))
        with pytest.raises(IndexError):
            feature_importance(forest, 2)

    def test_depth_one_single_admissible_split_importance_one(self):
        records = table_of([make_record(None, IAT=float(v)) for v in (1, 2, 3, 4)])
        targets = [0.0, 0.0, 1.0, 1.0]
        params = ForestParams(num_trees=1, max_depth=1, min_samples_leaf=2, bootstrap=False)
        forest = fit_forest(records, targets, params, seed=0)
        report = feature_importance(forest)
        reduction, feature, threshold = brute_force_single_split(records, targets)
        assert feature == "IAT"
        assert report.scores["IAT"] == 1.0
        root = forest.trees[0]
        assert isinstance(root, Split) and root.threshold == threshold


class TestRankForAttack:
    def test_requires_both_classes(self):
        records = table_of([make_record(AttackLabel.ICMP_FLOOD, Min=float(i)) for i in range(4)])
        with pytest.raises(ValueError, match="other than"):
            rank_features_for_attack(records, [AttackLabel.ICMP_FLOOD])
        with pytest.raises(ValueError, match="labeled"):
            rank_features_for_attack(records, [AttackLabel.UDP_FLOOD])

    def test_one_vs_rest_recovers_discriminator(self):
        records, _ = two_class_records(60, seed=8, informative="Tot size")
        params = ForestParams(num_trees=10, max_depth=4)
        report = rank_features_for_attack(records, [AttackLabel.ICMP_FLOOD], params, seed=2)[AttackLabel.ICMP_FLOOD]
        assert report.ranking[0] == "Tot size"


class TestReportSerialization:
    def test_json_round_trip(self):
        report = ImportanceReport.from_scores({"Min": 0.75, "Max": 1 / 3})
        payload = json.loads(report.to_json())
        assert list(payload["scores"]) == ["Max", "Min"]  # sorted by name
        assert payload == {"scores": report.scores, "ranking": ["Min", "Max"]}

    def test_csv_is_ranked(self):
        report = ImportanceReport.from_scores({"Min": 0.25, "Max": 0.75})
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "feature,importance"
        assert lines[1].startswith("Max,")


GOLDEN_RANK = Path(__file__).parent / "goldens" / "rank_noisy_sha256.json"


#: One of the few seeds at which a tie between two thresholds of one feature
#: decides a split that shows in the artifacts: breaking ties toward the
#: larger threshold changes the golden bytes.
RANK_SEED = 0


def noisy_csv(tmp_path: Path, seed: int) -> Path:
    """A seeded 400-row CSV at full jitter with 30 % of labels redrawn."""
    table, _ = generate_dataset(default_spec(n_per_attack=100, jitter=1.0, seed=seed))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xDEE9))))
    drawn = rng.random(len(table)) < 0.3
    redrawn = rng.integers(0, 4, size=len(table))
    codes = np.array([LABEL_CODES[attack] for attack in ATTACK_LABELS[:4]], dtype=np.int8)
    table.codes[drawn] = codes[redrawn[drawn]]
    path = tmp_path / "flows.csv"
    write_dataset(table, path)
    return path


def run_rank(tmp_path: Path, dataset: Path | None = None) -> Path:
    """`rank` with 2 trees per attack on `dataset`, by default `noisy_csv`; they
    grow 23-37 splits each."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"forest": {"num_trees": 2, "min_samples_leaf": 2}}), encoding="utf-8")
    out = tmp_path / "out"
    dataset = dataset or noisy_csv(tmp_path, RANK_SEED)
    assert main(["rank", "--dataset", str(dataset), "--config", str(config),
                 "--seed", str(RANK_SEED), "--out", str(out)]) == 0
    (rank_dir,) = out.glob("run-*/rank")
    return rank_dir


class TestRankGolden:
    def test_noisy_rank_artifacts_match_golden(self, tmp_path):
        expected = json.loads(GOLDEN_RANK.read_text(encoding="utf-8"))
        assert len(expected) == 8
        rank_dir = run_rank(tmp_path)
        assert {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(rank_dir.iterdir())
        } == expected


class TestPresort:
    def test_four_attack_rank_sorts_the_columns_once(self, tmp_path):
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            rank_dir = run_rank(tmp_path)
        assert len(list(rank_dir.glob("importance_*.json"))) == 4
        assert argsort.call_count == 1

    def test_four_attack_rank_fits_one_forest_and_draws_each_bootstrap_once(self, tmp_path):
        dataset = noisy_csv(tmp_path, RANK_SEED)
        with mock.patch.object(forest_rank, "fit_forest", wraps=forest_rank.fit_forest) as fit, \
                mock.patch.object(np.random, "PCG64", wraps=np.random.PCG64) as pcg64:
            rank_dir = run_rank(tmp_path, dataset)
        assert len(list(rank_dir.glob("importance_*.json"))) == 4
        assert fit.call_count == 1
        assert pcg64.call_count == 2  # num_trees of run_rank's config

    def test_row_write_between_fits_matches_a_fresh_table(self):
        table, targets = two_class_records(40, seed=1)
        params = ForestParams(num_trees=3, max_depth=6, min_samples_leaf=1)
        fit_forest(table, targets, params, seed=2)
        record = table[0]  # a positive: Min no longer separates the classes alone
        table[0] = FlowRecord({**record.features, "Min": 0.0}, record.label)
        fresh = table_of(list(table))
        assert fit_forest(table, targets, params, seed=2) == fit_forest(fresh, targets, params, seed=2)
