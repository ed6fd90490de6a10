"""The kbforge API that the benchmark drives: ``benchmarks/run.py`` builds its
inputs with it and ``benchmarks/traced.py`` wraps it on its modules. These
checks run at tier-1 speed; ``benchmarks/test_smoke.py`` runs the benchmark
itself."""

from __future__ import annotations

import collections
import importlib
import json
import statistics
from pathlib import Path

import pytest

from kbforge import cli
from kbforge.flow_data import ATTACK_LABELS, FlowRecord, load_dataset, stratified_sample, write_dataset
from kbforge.forest_rank import Forest, ForestParams, fit_forest
from kbforge.kb_builder import KbVariant, canonical_kb
from kbforge.prompting import build_prompt, record_digest
from kbforge.synth_traffic import default_spec, generate_dataset

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_deep_csv_inputs_relabel_write_and_fit(tmp_path):
    # As run.py's deep-csv setup: synth, relabel rows in place, write, fit one tree.
    table, summary = generate_dataset(default_spec(n_per_attack=30, jitter=1.0, seed=3))
    assert summary.record_count == len(table) == 120
    for i in (0, 7, 119):
        record = table[i]
        table[i] = FlowRecord(features=record.features, label=ATTACK_LABELS[i % 4])
        assert table[i].features.tobytes() == record.features.tobytes()
        assert table[i].label is ATTACK_LABELS[i % 4]
    path = tmp_path / "flows.csv"
    write_dataset(table, path)
    loaded, _ = load_dataset(path)
    assert [(r.features.tobytes(), r.label) for r in loaded] == [(r.features.tobytes(), r.label) for r in table]
    target = [1.0 if r.label is ATTACK_LABELS[0] else 0.0 for r in table]
    params = ForestParams(num_trees=1, max_depth=12, min_samples_leaf=5, bootstrap=True)
    forest = fit_forest(table, target, params=params, seed=3)
    assert isinstance(forest, Forest) and len(forest.trees) == 1


def test_sample_feeds_prompts_and_digests():
    # As run.py's llm-stub expectations and traced.py's micro metrics, which
    # iterate the sample more than once.
    table, _ = generate_dataset(default_spec(n_per_attack=10, jitter=0.3, seed=2))
    sample = stratified_sample(table, n_per_class=4, seed=2)
    assert len(sample) == 16
    kb = canonical_kb(KbVariant.LONG)
    prompts = [build_prompt(record, kb).text for record in sample]
    digests = [record_digest(record) for record in sample]
    assert len(set(prompts)) == len(set(digests)) == 16
    assert collections.Counter(r.label for r in sample) == {a: 4 for a in ATTACK_LABELS[:4]}


@pytest.fixture
def traced(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))  # traced.py imports stub_llm from there
    return importlib.import_module("traced")


def test_traced_cli_runs_reach_every_traced_call(tmp_path, traced):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"forest": {"num_trees": 2}}), encoding="utf-8")
    common = ["--seed", "4", "--config", str(config)]
    synth = traced.traced_run(["synth", "--n-per-attack", "20", "--out", str(tmp_path / "s"), *common], "s")
    assert synth.returncode == 0, synth.cli_output
    (csv_path,) = (tmp_path / "s").glob("run-*/synth/synth.csv")
    runs = {"synth": synth}
    for name, argv in {
        "rank": ["rank", "--dataset", str(csv_path)],
        "eval": ["eval", "--synth", "--n-per-attack", "20", "--n-per-class", "5", "--kb-source", "generated"],
        "kb-generated": ["kb", "build", "--generated", "--synth", "--n-per-attack", "20"],
        "kb-canonical": ["kb", "build", "--canonical"],
    }.items():
        runs[name] = traced.traced_run([*argv, "--out", str(tmp_path / name), *common], name)
        assert runs[name].returncode == 0, runs[name].cli_output

    spans = {span.name for run in runs.values() for span in run.tracer.spans}
    wrapped = {f"{module.__name__.rpartition('.')[2]}.{attr}" for module, attr in traced.TRACED_CALLS}
    assert wrapped <= spans, sorted(wrapped - spans)
    rank = traced.layer_metrics(runs["rank"], None)
    assert (rank["ingest.rows"], rank["ingest.rows_skipped"], rank["forest.trees"]) == (80, 0, 8)
    # The one forest of all attacks has the trees of the per-attack fits.
    table, _ = load_dataset(csv_path)
    stats = [traced.tree_stats(tree) for attack in ATTACK_LABELS if table.has_label(attack).any()
             for tree in fit_forest(table, table.has_label(attack), ForestParams(num_trees=2), seed=4).trees]
    assert rank["forest.splits_per_tree"] == statistics.fmean(splits for splits, _ in stats)
    assert rank["forest.max_depth_reached"] == max(depth for _, depth in stats)
    evaluated = traced.layer_metrics(runs["eval"], None)
    assert evaluated["synth.flows"] == 80 and evaluated["forest.trees"] == 8
    # evaluate makes one classify call per sampled row and KB configuration.
    assert sum(span.name == traced.CLASSIFY for span in runs["eval"].tracer.spans) == 3 * 20
    assert evaluated["prompt.us_per_call"] > 0 and evaluated["digest.us_per_record"] > 0


def test_traced_oracle_eval_writes_the_bytes_of_a_plain_run(tmp_path, traced):
    # The traced run wraps the detector, so its evaluate classifies row by
    # row; a plain run scores the whole table at once. The eval/ files agree.
    argv = ["eval", "--synth", "--n-per-attack", "30", "--n-per-class", "30", "--jitter", "1.0",
            "--kb-source", "generated", "--seed", "5"]
    run = traced.traced_run([*argv, "--out", str(tmp_path / "traced")], "t")
    assert run.returncode == 0, run.cli_output
    assert sum(span.name == traced.CLASSIFY for span in run.tracer.spans) == 3 * 120
    assert cli.main([*argv, "--out", str(tmp_path / "plain")]) == 0

    def eval_files(root):
        (eval_dir,) = root.glob("run-*/eval")
        return {p.relative_to(eval_dir): p.read_bytes() for p in sorted(eval_dir.rglob("*")) if p.is_file()}

    traced_files = eval_files(tmp_path / "traced")
    assert len(traced_files) == 6  # grid.{txt,csv,json} and one confusion file per KB config
    assert traced_files == eval_files(tmp_path / "plain")
