from __future__ import annotations

import fcntl
import gc
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import kbforge
from kbforge import detectors, evaluation, forest_rank, kb_builder, params, prompting, synth_traffic
from kbforge import profile as profile_mod
from kbforge.canonical import REFERENCE_PROFILES
from kbforge.cli import (
    OVERRIDES, BackendSection, DataSection, RunConfig, SynthSection, artifact_dir, build_parser, load, main,
)
from kbforge.detectors import RuleOracleConfig, RuleOracleDetector
from kbforge.flow_data import LABEL_CODES, AttackLabel, FlowTable, stratified_sample, write_dataset
from kbforge.profile import profiles_to_json
from kbforge.prompting import record_digest
from kbforge.synth_traffic import default_spec, generate_dataset

from conftest import make_record

GOLDEN_DIR = Path(__file__).parent / "goldens"
README = Path(__file__).parents[1] / "README.md"


def readme_example() -> dict:
    """The example config of the README's "Config file" section."""
    section = README.read_text(encoding="utf-8").split("### Config file", 1)[1]
    return json.loads(section.split("```json", 1)[1].split("```", 1)[0])


@pytest.fixture
def no_env_overrides(monkeypatch):
    for _, name, _, _, _ in OVERRIDES:
        if name is not None:
            monkeypatch.delenv(name, raising=False)


def grid_of(**cell) -> str:
    """A grid.json text of one short_kb cell, with `cell`'s values in place of its own."""
    row = {"attack": "DDoS-UDP_Flood", "kb_config": "short_kb", "backend_id": "m", "accuracy": 0.9, "n": 5}
    return json.dumps({"cells": [{**row, **cell}]})


#: A profiles-file feature entry, and one per-entry problem for each rule of the profiles file.
RATE = {"feature": "Rate", "min": 0.0, "median": 1.0, "max": 2.0}
BAD_PROFILE_ENTRIES = {
    "missing-key": ({"attack": "DDoS-ICMP_Flood", "k": 1}, "missing key 'features'"),
    "unknown-attack": ({"attack": "Bogus", "k": 1, "features": []}, "'Bogus' matches no attack label"),
    "unknown-feature": ({"attack": "DDoS-ICMP_Flood", "k": 1, "features": [{**RATE, "feature": "Bogus"}]},
                        "['Bogus']"),
    "no-features": ({"attack": "DDoS-SYN_Flood", "k": 1, "features": []}, "lists no features"),
    "repeated-attack": ({"attack": "UDP_Flood", "k": 1, "features": [RATE]},
                        "DDoS-UDP_Flood is named by an earlier entry"),
    "k-float": ({"attack": "DDoS-ICMP_Flood", "k": 10.5, "features": [RATE]}, "k must be a JSON integer"),
    "k-bool": ({"attack": "DDoS-ICMP_Flood", "k": True, "features": [RATE]}, "k must be a JSON integer"),
    "min-bool": ({"attack": "DDoS-ICMP_Flood", "k": 1, "features": [{**RATE, "min": True}]},
                 "must be JSON numbers (no booleans) for ['Rate']"),
    "max-past-float-range": ({"attack": "DDoS-ICMP_Flood", "k": 1, "features": [{**RATE, "max": 10 ** 400}]},
                             "too large"),
}


def run_cli(*argv: str) -> int:
    return main(list(argv))


def artifact_root(out_dir: Path) -> Path:
    runs = [p for p in out_dir.iterdir() if p.name.startswith("run-")]
    assert len(runs) == 1, f"expected one run dir, found {runs}"
    return runs[0]


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestHelp:
    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        for name in ("rank", "profile", "kb", "synth", "detect", "eval", "select"):
            assert name in text

    def test_help_lists_documented_flags(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["eval", "--help"])
        text = capsys.readouterr().out
        for flag in ("--config", "--seed", "--out", "--backend", "--kb", "--kb-source",
                     "--n-per-class", "--base-url", "--model"):
            assert flag in text


class TestKbBuild:
    def test_canonical_long_matches_goldens(self, tmp_path):
        assert run_cli("kb", "build", "--canonical", "--variant", "long",
                       "--out", str(tmp_path)) == 0
        kb_dir = artifact_root(tmp_path) / "kb" / "long"
        for golden in (GOLDEN_DIR / "long").glob("*.txt"):
            assert (kb_dir / golden.name).read_bytes() == golden.read_bytes()

    def test_canonical_short_matches_golden(self, tmp_path):
        assert run_cli("kb", "build", "--canonical", "--variant", "short",
                       "--out", str(tmp_path)) == 0
        combined = artifact_root(tmp_path) / "kb" / "short" / "combined.txt"
        assert combined.read_bytes() == (GOLDEN_DIR / "short" / "combined.txt").read_bytes()

    def test_canonical_layout_and_bytes(self, tmp_path):
        assert run_cli("kb", "build", "--canonical", "--variant", "both", "--out", str(tmp_path)) == 0
        expected = {}
        for variant in kb_builder.KbVariant:
            kb = kb_builder.canonical_kb(variant)
            texts = {f"{attack.render()}.txt": text for attack, text in kb.entries.items()}
            texts["combined.txt"] = kb.combined_text()
            expected.update({f"{variant.value}/{name}": (text + "\n").encode() for name, text in texts.items()})
        tree = read_tree(artifact_root(tmp_path) / "kb")
        assert tree.pop("structured.json")
        assert tree == expected

    def test_generated_build_runs(self, tmp_path):
        assert run_cli("kb", "build", "--generated", "--variant", "both", "--out", str(tmp_path),
                       "--n-per-attack", "60", "--seed", "3") == 0
        kb_dir = artifact_root(tmp_path) / "kb"
        assert (kb_dir / "long" / "DDoS-ICMP_Flood.txt").exists()
        assert (kb_dir / "short" / "combined.txt").exists()
        assert (kb_dir / "structured.json").exists()

    def test_kb_that_cannot_be_built_fails_before_any_kb_file(self, tmp_path, capsys):
        # One flood class profiles one attack, and the short KB needs two to compare.
        table, _ = generate_dataset(default_spec(n_per_attack=20, jitter=0.3, seed=1))
        unknown = table.codes != LABEL_CODES[AttackLabel.ICMP_FLOOD]
        table.codes[unknown] = LABEL_CODES[AttackLabel.UNKNOWN]
        dataset = tmp_path / "one_flood.csv"
        write_dataset(table, dataset)
        out = tmp_path / "out"
        assert run_cli("kb", "build", "--generated", "--dataset", str(dataset), "--out", str(out)) == 1
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["error"]["message"] == "need at least two profiles to compare"
        assert not out.exists()


class TestValidation:
    def test_missing_dataset_path_exit_2_no_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("rank", "--dataset", str(tmp_path / "missing.csv"), "--out", str(out))
        assert code == 2
        report = json.loads(capsys.readouterr().err.strip().splitlines()[0])
        assert report["error"]["kind"] == "config"
        assert not out.exists()

    def test_bad_config_json_exit_2(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text("{not json", encoding="utf-8")
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes('{"out": "caf\u00e9"}'.encode("latin-1"))
        for path in (config, latin1, tmp_path):  # not JSON, not UTF-8, a directory
            assert run_cli("synth", "--config", str(path), "--out", str(tmp_path / "o")) == 2
            report = json.loads(capsys.readouterr().err.strip().splitlines()[0])
            assert report["error"]["kind"] == "config"
        assert not (tmp_path / "o").exists()

    def test_unknown_backend_in_config_exit_2(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"backend": {"kind": "oracle9000"}}), encoding="utf-8")
        assert run_cli("synth", "--config", str(config), "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize(
        "file_config,argv",
        [
            ({"forest": {"num_trees": 0}}, ("rank", "--synth")),
            (None, ("synth", "--jitter", "2")),
            (None, ("eval", "--n-per-class", "0")),
            ({"backend": {"llm": {"max_retries": -1}}}, ("eval", "--backend", "llm")),
            ({"forest": {"num_treez": 3}}, ("rank", "--synth")),
            ({"backend": {"llm": {"backoff_base_s": 0.0}}}, ("eval", "--backend", "llm")),
            ({"eval": {"mode": "Numeric"}}, ("eval", "--backend", "rule-oracle")),
            ({"forest": {"bootstrap": "no"}}, ("rank", "--synth")),
            (None, ("synth", "--dataset", __file__)),
            ({"eval": {"kb_configs": []}}, ("eval", "--n-per-class", "5")),
            ({"backend": {"llm": {"base_url": "localhost:11434"}}}, ("eval", "--backend", "llm")),
            (None, ("detect", "--input", "nope.csv")),
            (None, ("select", "--grid", "nope.json")),
            ({"eval": {"workers": -3}}, ("eval",)),
            ({"eval": {"kb_configs": ["no_kb", "no_kb"]}}, ("eval",)),
            (None, ("synth", "--profiles", "empty.json")),
            (None, ("eval", "--profiles", "empty.json")),
            (None, ("eval", "--backend", "replay")),
            ({"kb": {"variant": "short"}}, ("detect", "--backend", "replay")),
            (None, ("select",)),
        ],
        ids=["num-trees-0", "jitter-2", "n-per-class-0", "max-retries-neg", "unknown-key",
             "backoff-not-a-key", "mode-case", "bootstrap-string", "synth-from-dataset",
             "no-kb-configs", "base-url-no-scheme", "detect-input-missing", "select-grid-missing",
             "workers-neg", "kb-configs-repeated", "synth-profiles-empty", "eval-profiles-empty",
             "eval-replay-store-missing", "detect-replay-store-missing", "select-no-grid"],
    )
    def test_invalid_config_exit_2_before_any_work(self, tmp_path, monkeypatch, capsys, file_config, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.json").write_text("[]", encoding="utf-8")
        out = tmp_path / "out"
        flags = ["--n-per-attack", "20", "--out", str(out)]
        if file_config is not None:
            config = tmp_path / "c.json"
            config.write_text(json.dumps(file_config), encoding="utf-8")
            flags += ["--config", str(config)]
        assert run_cli(*argv, *flags) == 2
        report = json.loads(capsys.readouterr().err.strip().splitlines()[0])
        assert report["error"]["kind"] == "config"
        assert not out.exists()


    @pytest.mark.parametrize(
        "text,problem",
        [("{not json", "JSONDecodeError"),
         (json.dumps({"cells": [{"attack": "DDoS-UDP_Flood", "backend_id": "m", "accuracy": 1.0, "n": 5}]}),
          "KeyError: 'kb_config'"),
         ('{"cells": []}', "it lists no cells"),
         (grid_of(accuracy=True), "TypeError: accuracy must be of type float, not True"),
         (grid_of(n=2.5), "TypeError: n must be of type int, not 2.5"),
         (grid_of(n=True), "TypeError: n must be of type int, not True"),
         (grid_of(backend_id=7), "TypeError: backend_id must be of type str, not 7")],
        ids=["not-json", "cell-without-kb-config", "no-cells", "accuracy-bool", "n-float", "n-bool",
             "backend-id-number"],
    )
    def test_malformed_select_grid_exit_2_before_the_run_dir(self, tmp_path, capsys, text, problem):
        grid = tmp_path / "grid.json"
        grid.write_text(text, encoding="utf-8")
        assert run_cli("select", "--grid", str(grid), "--out", str(tmp_path)) == 2
        report = json.loads(capsys.readouterr().err.strip().splitlines()[0])
        assert report["error"]["kind"] == "config"
        assert f"bad grid file {grid}: {problem}" in report["error"]["message"]
        assert not list(tmp_path.glob("run-*"))

    @pytest.mark.parametrize("entry,problem", BAD_PROFILE_ENTRIES.values(), ids=BAD_PROFILE_ENTRIES.keys())
    @pytest.mark.parametrize("argv", [("synth",), ("eval",), ("kb", "build", "--generated"), ("rank", "--synth")])
    def test_bad_profiles_entry_exit_2_before_any_work(self, tmp_path, capsys, entry, problem, argv):
        profiles = tmp_path / "profiles.json"
        good = json.loads(profiles_to_json([REFERENCE_PROFILES[AttackLabel.UDP_FLOOD]]))
        profiles.write_text(json.dumps(good + [entry]), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(*argv, "--profiles", str(profiles), "--n-per-attack", "5", "--out", str(out)) == 2
        report = json.loads(capsys.readouterr().err.strip().splitlines()[0])
        assert report["error"]["kind"] == "config"
        assert f"{profiles}: entry 1: " in report["error"]["message"]
        assert problem in report["error"]["message"]
        assert not out.exists()


class TestNoRunDirBeforeTheWrites:
    """A run computes every artifact before it takes the run lock to write
    them, so a failure before the writes leaves no <out> directory."""

    @pytest.mark.parametrize(
        "argv,module,name",
        [
            (("rank", "--synth"), forest_rank, "rank_features_for_attack"),
            (("profile", "--synth"), profile_mod, "build_attack_profile"),
            (("kb", "build", "--generated", "--synth"), kb_builder, "structured_kb_to_json"),
            (("synth",), synth_traffic, "generate_dataset"),
            (("detect", "--record", '{"Rate": 5000.0}'), prompting, "record_digest"),
            (("eval", "--synth", "--n-per-class", "5"), evaluation, "per_class_cells"),
            (("select", "--reference"), evaluation, "select_best_kb"),
        ],
        ids=["rank", "profile", "kb-build", "synth", "detect", "eval", "select"],
    )
    def test_a_late_runtime_failure_leaves_no_out_dir(self, tmp_path, monkeypatch, capsys, argv, module, name):
        def fail(*args, **kwargs):
            raise RuntimeError("late failure")

        monkeypatch.setattr(module, name, fail)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"forest": {"num_trees": 2}}), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(*argv, "--n-per-attack", "20", "--config", str(config), "--out", str(out)) == 1
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["error"] == {"kind": "RuntimeError", "message": "late failure"}
        assert not out.exists()

    def test_select_on_a_malformed_run_grid_exit_2(self, tmp_path, capsys):
        argv = ["select", "--out", str(tmp_path / "out")]
        grid = artifact_dir(load(build_parser().parse_args(argv))) / "eval" / "grid.json"
        grid.parent.mkdir(parents=True)
        grid.write_text('{"cells": [{"attack": "DDoS-UDP_Flood"}]}', encoding="utf-8")
        assert run_cli(*argv) == 2
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["error"]["kind"] == "config"
        assert report["error"]["message"].startswith(f"bad grid file {grid}: ")
        assert sorted(p.name for p in grid.parents[1].iterdir()) == ["eval"]

    @pytest.mark.parametrize(
        "argv",
        [("detect", "--input"), ("rank", "--dataset"), ("eval", "--dataset")],
        ids=["detect-input", "rank-dataset", "eval-dataset"],
    )
    def test_csv_without_registry_columns_exit_1_and_no_out_dir(self, tmp_path, capsys, argv):
        flows = tmp_path / "flows.csv"
        flows.write_text("Rate,label\n1.0,DDoS-UDP_Flood\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(*argv, str(flows), "--kb-source", "canonical", "--out", str(out)) == 1
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["error"]["kind"] == "DatasetError"
        assert not out.exists()


class TestConfigPrecedence:
    @pytest.mark.parametrize(
        "flags,flows",
        [((), 28), (("--synth",), 28), (("--synth", "--n-per-attack", "3"), 12)],
        ids=["file", "synth-flag-keeps-file", "flag-beats-file"],
    )
    def test_synth_sizes_flag_then_file(self, tmp_path, flags, flows):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"data": {"synth": {"n_per_attack": 7}}}), encoding="utf-8")
        assert run_cli("synth", "--config", str(config), *flags, "--out", str(tmp_path / "o")) == 0
        summary = artifact_root(tmp_path / "o") / "synth" / "summary.json"
        assert json.loads(summary.read_text(encoding="utf-8"))["record_count"] == flows

    def test_dataset_from_file_equals_dataset_flag(self, tmp_path):
        csv_path = tmp_path / "flows.csv"
        csv_path.write_text("", encoding="utf-8")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"data": {"dataset": {"path": str(csv_path)}}}), encoding="utf-8")
        from_file = load(build_parser().parse_args(["rank", "--config", str(config)]))
        from_flag = load(build_parser().parse_args(["rank", "--dataset", str(csv_path)]))
        assert from_file == from_flag

    # Run-directory names of earlier releases: a config refactor must not move them.
    # "c.json" holds the case's file config; the bench-* configs are those
    # benchmarks/run.py writes at seed 7, with out and base_url fixed.
    @pytest.mark.parametrize(
        "env,file_config,argv,run_dir",
        [
            ({}, None, "synth --out out", "run-e7daee8ce0b3"),
            ({}, None, "eval --backend rule-oracle --synth --n-per-attack 60 --seed 11 --jitter 0.3 "
                       "--n-per-class 40 --out out", "run-f221f1739089"),
            ({"KBFORGE_SEED": "99", "KBFORGE_BACKEND": "llm", "KBFORGE_MODEL": "phi3:mini"}, None,
             "eval --out out", "run-2a8397d4d2ac"),
            ({}, None, "rank --dataset flows.csv --seed 7 --out out", "run-4515a5e8d6d4"),
            ({}, None, "kb build --canonical --variant long --out out", "run-f7fe5d4c17e2"),
            ({}, "readme", "eval --config c.json", "run-c5597b4f8a41"),
            ({}, {"seed": 7, "out": "out", "eval": {"workers": 1},
                  "forest": {"num_trees": 30, "max_depth": 12, "min_samples_leaf": 5, "bootstrap": True}},
             "eval --config c.json --backend rule-oracle --kb-source generated --synth "
             "--n-per-attack 500 --jitter 0.3 --n-per-class 500", "run-155ff321b3ff"),
            ({}, {"seed": 7, "out": "out",
                  "forest": {"num_trees": 2, "max_depth": 12, "min_samples_leaf": 5, "bootstrap": True}},
             "rank --config c.json --dataset flows.csv", "run-886d13e6f782"),
            ({}, {"seed": 7, "out": "out", "eval": {"workers": 2},
                  "backend": {"llm": {"base_url": "http://127.0.0.1:8765", "max_in_flight": 2,
                                      "request_timeout_s": 30.0, "max_retries": 2}}},
             "eval --config c.json --backend llm --kb-source canonical --synth --n-per-attack 50 "
             "--jitter 0.3 --n-per-class 50", "run-4e0113764055"),
            ({}, {"data": {"synth": {"jitter": 1}}}, "synth --config c.json", "run-55c3520168dc"),
            ({}, None, "synth --profiles profiles.json --n-per-attack 20 --out out", "run-19a62068769b"),
            ({}, {"data": {"dataset": {"path": "flows.csv", "label_column": "Label"}}},
             "rank --config c.json", "run-741d05a3d991"),
            ({"KBFORGE_OUT": "env-out", "KBFORGE_KB": "short", "KBFORGE_KB_SOURCE": "generated",
              "KBFORGE_N_PER_CLASS": "30", "KBFORGE_BASE_URL": "http://10.0.0.2:8080"}, None,
             "eval --backend llm", "run-d7b414d73c43"),
        ],
        ids=["synth", "eval-synth-flags", "eval-env", "rank-dataset", "kb-build", "readme-example",
             "bench-shallow-synth", "bench-deep-csv", "bench-llm-stub", "int-for-float", "profiles",
             "dataset-label-column", "env-overrides"],
    )
    def test_run_dir_names_are_pinned(self, tmp_path, monkeypatch, no_env_overrides, env, file_config, argv,
                                      run_dir):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "flows.csv").write_text("", encoding="utf-8")
        (tmp_path / "profiles.json").write_text(profiles_to_json(list(REFERENCE_PROFILES.values())),
                                                encoding="utf-8")
        if file_config is not None:
            config = readme_example() if file_config == "readme" else file_config
            (tmp_path / "c.json").write_text(json.dumps(config), encoding="utf-8")
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        config = load(build_parser().parse_args(argv.split()))
        assert artifact_dir(config).name == run_dir

    def test_kb_build_run_dir_through_main(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("kb", "build", "--canonical", "--variant", "long", "--out", "out") == 0
        assert (tmp_path / "out" / "run-f7fe5d4c17e2" / "kb" / "long").is_dir()


class TestConfigDrift:
    def test_readme_example_shows_every_key_and_its_default(self, tmp_path, monkeypatch, no_env_overrides):
        # to_dict() gives every key, so a key the example lacks, or one whose
        # type or default the example misstates, fails here.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(json.dumps(readme_example()), encoding="utf-8")
        config = load(build_parser().parse_args(["eval", "--config", "c.json"]))
        assert config.to_dict() == readme_example()
        assert config == RunConfig(seed=7, backend=BackendSection(kind="llm"))

    def test_readme_lists_the_override_variables(self):
        readme = README.read_text(encoding="utf-8")
        paragraph = readme.split("Environment overrides:", 1)[1].split("\n\n", 1)[0]
        listed = re.findall(r"KBFORGE_[A-Z_]+", paragraph)
        assert listed == [env for _, env, _, _, _ in OVERRIDES if env is not None]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("rank",),
            ("profile",),
            ("kb", "build", "--generated", "--variant", "both"),
            ("synth",),
            ("eval", "--backend", "rule-oracle", "--n-per-class", "40"),
            ("detect", "--backend", "rule-oracle"),
        ],
        ids=["rank", "profile", "kb-generated", "synth", "eval-rule-oracle", "detect-rule-oracle"],
    )
    def test_two_runs_byte_identical(self, tmp_path, argv):
        common = ("--synth", "--n-per-attack", "60", "--seed", "11", "--jitter", "0.3")
        first_out = tmp_path / "a"
        second_out = tmp_path / "b"
        assert run_cli(*argv, *common, "--out", str(first_out)) == 0
        assert run_cli(*argv, *common, "--out", str(second_out)) == 0
        first = read_tree(artifact_root(first_out))
        second = read_tree(artifact_root(second_out))
        assert first.keys() == second.keys()
        assert first == second

    def test_rerun_same_out_dir_overwrites_identically(self, tmp_path):
        argv = ("synth", "--synth", "--n-per-attack", "25", "--seed", "4",
                "--out", str(tmp_path))
        assert run_cli(*argv) == 0
        before = read_tree(artifact_root(tmp_path))
        assert run_cli(*argv) == 0
        after = read_tree(artifact_root(tmp_path))
        assert before == after


class TestPipelines:
    def test_synth_round_trips_through_rank(self, tmp_path):
        assert run_cli("synth", "--n-per-attack", "50", "--seed", "2",
                       "--out", str(tmp_path / "s")) == 0
        csv_path = artifact_root(tmp_path / "s") / "synth" / "synth.csv"
        assert run_cli("rank", "--dataset", str(csv_path), "--out", str(tmp_path / "r"),
                       "--seed", "2") == 0
        rank_dir = artifact_root(tmp_path / "r") / "rank"
        reports = list(rank_dir.glob("importance_*.json"))
        assert len(reports) == 4

    def _eval_llm(self, tmp_path, server, file_config: dict) -> None:
        """One llm eval over 3 KB configs x 4 attacks x 2 records; its
        connections are closed once it returns."""
        config = tmp_path / "c.json"
        config.write_text(json.dumps(file_config), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert run_cli("eval", "--backend", "llm", "--synth", "--kb-source", "canonical",
                           "--n-per-attack", "5", "--n-per-class", "2", "--config", str(config),
                           "--base-url", server.base_url, "--out", str(tmp_path / "out")) == 0
            gc.collect()
        assert len(server.requests) == 3 * 4 * 2
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_eval_llm_closes_its_keep_alive_connections(self, tmp_path, keep_alive_server):
        # One detector serves every KB config, so a sequential run needs one connection.
        self._eval_llm(tmp_path, keep_alive_server, {})
        assert keep_alive_server.connections_opened == 1

    def test_threaded_eval_llm_opens_at_most_max_in_flight_connections(
        self, tmp_path, keep_alive_server
    ):
        self._eval_llm(tmp_path, keep_alive_server,
                       {"eval": {"workers": 2}, "backend": {"llm": {"max_in_flight": 2}}})
        assert 1 <= keep_alive_server.connections_opened <= 2

    def test_eval_llm_model_id_with_a_slash_names_flat_confusion_files(self, tmp_path, stub_server):
        out = tmp_path / "out"
        assert run_cli("eval", "--backend", "llm", "--synth", "--kb-source", "canonical", "--n-per-attack", "2",
                       "--n-per-class", "1", "--model", "meta-llama/Llama-3.1-8B-Instruct",
                       "--base-url", stub_server.base_url, "--out", str(out)) == 0
        confusion = artifact_root(out) / "eval" / "confusion"
        assert sorted((p.name, p.is_file()) for p in confusion.iterdir()) == [
            (f"llm_meta-llama_Llama-3.1-8B-Instruct_{kb_config}.json", True)
            for kb_config in ("long_kb", "no_kb", "short_kb")
        ]

    def _replay_eval(self, tmp_path) -> tuple[list[str], dict]:
        """An `eval --backend replay` argv whose store directory holds one
        store per KB config, each with its own verdicts over the sample the
        run draws, and the grid accuracies those verdicts give."""
        store_dir = tmp_path / "stores"
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"backend": {"replay": {"store_dir": str(store_dir)}}}),
                          encoding="utf-8")
        argv = ["eval", "--backend", "replay", "--config", str(config), "--synth", "--n-per-attack", "12",
                "--n-per-class", "6", "--seed", "4", "--out", str(tmp_path / "out")]
        run = load(build_parser().parse_args(argv))
        records, _ = generate_dataset(run.data.synth.spec(run.seed))
        sample = stratified_sample(records, run.eval.n_per_class, seed=run.seed)
        verdicts = {
            "no_kb": lambda i, r: r.label,
            "long_kb": lambda i, r: AttackLabel.UDP_FLOOD,
            "short_kb": lambda i, r: r.label if i % 3 else AttackLabel.UNKNOWN,
        }
        hits: dict = {}
        store_dir.mkdir()
        for kb_config, verdict in verdicts.items():
            rows = []
            for i, record in enumerate(sample):
                label = verdict(i, record)
                rows.append(json.dumps({"digest": record_digest(record), "label": label.render()}) + "\n")
                hits.setdefault((record.label.render(), kb_config), []).append(label is record.label)
            (store_dir / f"{kb_config}.jsonl").write_text("".join(rows), encoding="utf-8")
        return argv, {key: sum(h) / len(h) for key, h in hits.items()}

    def test_eval_replay_grid_equals_stored_labels(self, tmp_path):
        argv, expected = self._replay_eval(tmp_path)
        assert len(expected) == 4 * 3 and len(set(expected.values())) > 2
        assert run_cli(*argv) == 0
        grid_path = artifact_root(tmp_path / "out") / "eval" / "grid.json"
        cells = json.loads(grid_path.read_text(encoding="utf-8"))["cells"]
        assert {(c["attack"], c["kb_config"]): c["accuracy"] for c in cells} == expected
        assert {c["backend_id"] for c in cells} == {"replay"}

    def test_eval_replay_missing_store_fails_before_any_eval_artifact(self, tmp_path, capsys):
        argv, _ = self._replay_eval(tmp_path)
        missing = tmp_path / "stores" / "short_kb.jsonl"
        missing.unlink()
        assert run_cli(*argv) == 2
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["error"] == {"kind": "config", "message": f"replay store not found: {missing}"}
        assert not (tmp_path / "out").exists()

    def test_eval_on_a_dataset_without_records_fails_before_any_eval_artifact(self, tmp_path, capsys):
        dataset = tmp_path / "header_only.csv"
        table, _ = generate_dataset(default_spec(n_per_attack=1, jitter=0.0, seed=1))
        write_dataset(table, dataset)
        dataset.write_text(dataset.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("eval", "--dataset", str(dataset), "--kb-source", "canonical", "--out", str(out)) == 1
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["error"] == {"kind": "RuntimeError", "message": f"no records to evaluate in {dataset}"}
        assert not out.exists()

    def test_eval_rule_oracle_jitter_zero_all_cells_100(self, tmp_path, capsys):
        assert run_cli("eval", "--backend", "rule-oracle", "--synth",
                       "--n-per-attack", "30", "--jitter", "0.0",
                       "--n-per-class", "25", "--seed", "6", "--out", str(tmp_path)) == 0
        grid_json = json.loads(
            (artifact_root(tmp_path) / "eval" / "grid.json").read_text(encoding="utf-8")
        )
        assert grid_json["cells"], "grid should be populated"
        assert all(cell["accuracy"] == 1.0 for cell in grid_json["cells"])
        assert all(cell["n"] == 25 for cell in grid_json["cells"])

    def test_select_from_reference_grid(self, tmp_path, capsys):
        assert run_cli("select", "--reference", "--out", str(tmp_path)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gemma2:9b"]["DDoS-UDP_Flood"] == "long_kb"
        assert payload["llama3.2:3b"]["DDoS-UDP_Flood"] == "short_kb"
        assert (artifact_root(tmp_path) / "select" / "best_kb.json").exists()

    def test_select_from_eval_grid_file(self, tmp_path):
        assert run_cli("eval", "--backend", "rule-oracle", "--synth", "--n-per-attack", "20",
                       "--jitter", "0.0", "--n-per-class", "15", "--seed", "1",
                       "--out", str(tmp_path)) == 0
        grid_path = artifact_root(tmp_path) / "eval" / "grid.json"
        assert run_cli("select", "--grid", str(grid_path), "--out", str(tmp_path / "sel")) == 0

    def test_profiles_json_feeds_synth_and_kb(self, tmp_path):
        assert run_cli("profile", "--synth", "--n-per-attack", "60", "--seed", "5",
                       "--out", str(tmp_path / "p")) == 0
        profiles = artifact_root(tmp_path / "p") / "profile" / "profiles.json"
        assert run_cli("synth", "--profiles", str(profiles), "--n-per-attack", "20",
                       "--seed", "5", "--out", str(tmp_path / "s")) == 0
        assert (artifact_root(tmp_path / "s") / "synth" / "synth.csv").exists()
        assert run_cli("kb", "build", "--generated", "--variant", "long",
                       "--profiles", str(profiles), "--out", str(tmp_path / "k")) == 0
        assert (artifact_root(tmp_path / "k") / "kb" / "long" / "combined.txt").exists()

    def test_profiles_file_drives_the_synth_data_of_rank_and_eval(self, tmp_path):
        profiles = tmp_path / "profiles.json"
        two = [REFERENCE_PROFILES[AttackLabel.ICMP_FLOOD], REFERENCE_PROFILES[AttackLabel.UDP_FLOOD]]
        profiles.write_text(profiles_to_json(two), encoding="utf-8")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"forest": {"num_trees": 2}}), encoding="utf-8")
        flags = ("--synth", "--profiles", str(profiles), "--n-per-attack", "20", "--config", str(config))
        assert run_cli("rank", *flags, "--out", str(tmp_path / "r")) == 0
        assert sorted(p.name for p in (artifact_root(tmp_path / "r") / "rank").iterdir()) == [
            f"importance_{attack}.{ext}" for attack in ("DDoS-ICMP_Flood", "DDoS-UDP_Flood") for ext in ("csv", "json")
        ]
        assert run_cli("eval", *flags, "--n-per-class", "5", "--out", str(tmp_path / "e")) == 0
        grid = json.loads((artifact_root(tmp_path / "e") / "eval" / "grid.json").read_text(encoding="utf-8"))
        assert {cell["attack"] for cell in grid["cells"]} == {"DDoS-ICMP_Flood", "DDoS-UDP_Flood"}

    def test_detect_single_record(self, tmp_path, capsys):
        record = {"Protocol Type": 1.0, "ICMP": 1.0, "Min": 42.0, "Magnitude": 9.17,
                  "AVG": 42.0, "Tot sum": 441.0, "Max": 42.0, "Tot size": 42.0,
                  "IAT": 8.3e7}
        code = run_cli("detect", "--record", json.dumps(record), "--backend", "rule-oracle",
                       "--out", str(tmp_path))
        assert code == 0
        line = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert line["predicted"] == "DDoS-ICMP_Flood"
        assert line["backend_id"] == "rule-oracle"

    def test_detect_llm_latency_spans_retry_and_backoff(self, tmp_path, capsys, stub_server):
        stub_server.set_script(
            [{"status": 503, "raw": "busy"}, {"status": 200, "json": {"response": "DDoS-UDP_Flood"}}]
        )
        code = run_cli("detect", "--record", '{"Rate": 5000.0}', "--backend", "llm",
                       "--base-url", stub_server.base_url, "--out", str(tmp_path))
        assert code == 0
        line = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert line["predicted"] == "DDoS-UDP_Flood"
        assert line["backend_id"] == "llm:llama3.1:8b"
        assert len(stub_server.requests) == 2

    def test_detect_replay_serves_the_stored_label(self, tmp_path, capsys):
        store_dir = tmp_path / "stores"
        store_dir.mkdir()
        digest = record_digest(make_record(Rate=5000.0))
        row = {"digest": digest, "response": "ignored", "label": "DDoS-SYN_Flood"}
        (store_dir / "long_kb.jsonl").write_text(json.dumps(row) + "\n", encoding="utf-8")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"backend": {"replay": {"store_dir": str(store_dir)}}}),
                          encoding="utf-8")
        argv = ["detect", "--backend", "replay", "--config", str(config), "--out", str(tmp_path / "o")]
        assert run_cli(*argv, "--record", '{"Rate": 5000.0}') == 0
        line = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert line["digest"] == digest
        assert line["predicted"] == "DDoS-SYN_Flood"
        assert line["backend_id"] == "replay"
        assert line["kb_config"] == "long_kb"  # the first configuration of the default "both"
        assert run_cli(*argv, "--record", '{"Rate": 5001.0}') == 1
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["error"]["kind"] == "ReplayMissError"
        # --kb short reads short_kb.jsonl alone.
        (store_dir / "long_kb.jsonl").rename(store_dir / "short_kb.jsonl")
        assert run_cli(*argv, "--kb", "short", "--record", '{"Rate": 5000.0}') == 0
        line = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert (line["predicted"], line["kb_config"]) == ("DDoS-SYN_Flood", "short_kb")

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
    def test_detect_input_gives_the_oracle_per_row_verdicts(self, tmp_path, capsys, strict):
        table, _ = generate_dataset(default_spec(n_per_attack=25, jitter=1.0, seed=9))
        # Zero about 30 % of the values, so that verdicts spread over several labels.
        zeroed = np.random.Generator(np.random.PCG64(9)).random(table.X.shape) < 0.3
        table = FlowTable(np.where(zeroed, 0.0, table.X), table.codes)
        flows = tmp_path / "flows.csv"
        write_dataset(table, flows)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"backend": {"rule_oracle": {"mandatory_strict": strict}}}), encoding="utf-8")
        assert run_cli("detect", "--input", str(flows), "--backend", "rule-oracle", "--kb-source", "canonical",
                       "--config", str(config), "--out", str(tmp_path / "out")) == 0
        text = (artifact_root(tmp_path / "out") / "detect" / "results.jsonl").read_text(encoding="utf-8")
        assert capsys.readouterr().out == text  # printed as written
        oracle = RuleOracleDetector(kb_builder.structured_kb(tuple(REFERENCE_PROFILES.values())),
                                    RuleOracleConfig(mandatory_strict=strict))
        expected = [oracle.classify(record).render() for record in table]
        assert [json.loads(line)["predicted"] for line in text.splitlines()] == expected
        assert len(set(expected)) > 2

    def test_detect_record_and_input_together_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("detect", "--record", '{"Rate": 5000.0}', "--input", str(tmp_path / "flows.csv"),
                    "--out", str(tmp_path / "out"))
        assert info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_select_grid_and_reference_together_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("select", "--reference", "--grid", str(tmp_path / "grid.json"), "--out", str(tmp_path / "out"))
        assert info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_detect_on_zero_rows_writes_an_empty_results_file(self, tmp_path):
        table, _ = generate_dataset(default_spec(n_per_attack=1, jitter=0.0, seed=1))
        flows = tmp_path / "flows.csv"
        write_dataset(table, flows)
        header = flows.read_text(encoding="utf-8").splitlines()[0]
        flows.write_text(header + "\n", encoding="utf-8")
        assert run_cli("detect", "--input", str(flows), "--backend", "rule-oracle", "--kb-source", "canonical",
                       "--out", str(tmp_path / "out")) == 0
        assert (artifact_root(tmp_path / "out") / "detect" / "results.jsonl").read_bytes() == b""

    @pytest.mark.parametrize(
        "record",
        ['[1]', 'not json', '{"Rate": "abc"}', '{"Rate": "nan"}', '{"Rate": null}', '{"nonsense": 1.0}',
         '{"IAT": "5"}', '{"Rate": true}', '{"Rate": 1' + "0" * 400 + '}', '{"Rate": 1, "Rate": 500}'],
        ids=["not-an-object", "not-json", "string-value", "nan-value", "null-value", "unknown-feature",
             "numeric-string", "bool-value", "int-past-float-range", "repeated-key"],
    )
    def test_detect_rejects_malformed_record(self, tmp_path, capsys, record):
        code = run_cli("detect", "--record", record, "--backend", "rule-oracle", "--out", str(tmp_path))
        assert code == 2
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["error"]["kind"] == "config"
        assert "--record" in report["error"]["message"]
        assert not list(tmp_path.glob("run-*"))  # rejected before the run lock is taken

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_detect_names_the_non_finite_record_value(self, tmp_path, capsys, value):
        record = '{"Rate": 450.0, "IAT": ' + value + "}"
        assert run_cli("detect", "--record", record, "--backend", "rule-oracle", "--out", str(tmp_path)) == 2
        message = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]["message"]
        assert "'IAT'" in message and "finite" in message

    @pytest.mark.parametrize(
        "line,problem",
        [
            ("not json", "not valid JSON"),
            ("[1, 2]", "not a JSON object"),
            ('{"response": null, "label": "Normal"}', "string 'digest'"),
            ('{"digest": "d", "response": null}', "string 'label'"),
            ('{"digest": "d", "response": null, "label": 3}', "string 'label'"),
        ],
        ids=["invalid-json", "not-an-object", "no-digest", "no-label", "label-not-string"],
    )
    def test_eval_replay_malformed_store_row_names_file_and_line(self, tmp_path, capsys, line, problem):
        argv, _ = self._replay_eval(tmp_path)
        store = tmp_path / "stores" / "long_kb.jsonl"
        rows = store.read_text(encoding="utf-8").splitlines()
        store.write_text("\n".join([rows[0], "", line, *rows[1:]]) + "\n", encoding="utf-8")
        assert run_cli(*argv) == 1
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["error"]["kind"] == "DetectorError"
        assert report["error"]["message"].startswith(f"{store}:3: ")
        assert problem in report["error"]["message"]


class TestSkippedRows:
    @pytest.fixture
    def csvs(self, tmp_path) -> tuple[Path, Path]:
        """A clean CSV of 80 flows, and the same CSV with one short row and one
        row holding a non-numeric feature cell inserted."""
        table, _ = generate_dataset(default_spec(n_per_attack=20, jitter=0.3, seed=3))
        clean = tmp_path / "clean.csv"
        write_dataset(table, clean)
        header, *rows = clean.read_text(encoding="utf-8").splitlines()
        short = ",".join(rows[0].split(",")[:-3])
        non_numeric = ",".join(["abc", *rows[1].split(",")[1:]])
        dirty = tmp_path / "dirty.csv"
        dirty.write_text("\n".join([header, rows[0], short, rows[1], non_numeric, *rows[2:]]) + "\n",
                         encoding="utf-8")
        return clean, dirty

    @staticmethod
    def skipped_reports(err: str) -> list[dict]:
        lines = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        return [line["warning"] for line in lines if "warning" in line]

    def test_rank_reports_skipped_rows_and_writes_the_clean_artifacts(self, tmp_path, capsys, csvs):
        trees, reports = [], []
        for path in csvs:
            out = tmp_path / path.stem
            assert run_cli("rank", "--dataset", str(path), "--seed", "3", "--out", str(out)) == 0
            trees.append(read_tree(artifact_root(out) / "rank"))
            reports.append(self.skipped_reports(capsys.readouterr().err))
        assert reports == [[], [{"kind": "rows_skipped", "file": str(csvs[1]), "rows_kept": 80, "rows_skipped": 2}]]
        assert len(trees[0]) == 8 and trees[0] == trees[1]

    def test_detect_input_reports_skipped_rows(self, tmp_path, capsys, csvs):
        results, reports = [], []
        for path in csvs:
            out = tmp_path / path.stem
            assert run_cli("detect", "--input", str(path), "--backend", "rule-oracle", "--kb-source", "canonical",
                           "--out", str(out)) == 0
            reports.append(self.skipped_reports(capsys.readouterr().err))
            lines = (artifact_root(out) / "detect" / "results.jsonl").read_text(encoding="utf-8").splitlines()
            results.append(lines)
        assert reports == [[], [{"kind": "rows_skipped", "file": str(csvs[1]), "rows_kept": 80, "rows_skipped": 2}]]
        assert len(results[0]) == 80 and results[0] == results[1]


class TestEnvAndLock:
    def test_env_override_applies(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KBFORGE_SEED", "99")
        monkeypatch.setenv("KBFORGE_OUT", str(tmp_path / "enved"))
        assert run_cli("synth", "--n-per-attack", "10") == 0
        assert (tmp_path / "enved").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KBFORGE_OUT", str(tmp_path / "enved"))
        assert run_cli("synth", "--n-per-attack", "10", "--out", str(tmp_path / "flagged")) == 0
        assert (tmp_path / "flagged").exists()
        assert not (tmp_path / "enved").exists()

    def _run_dir(self, tmp_path) -> Path:
        config = RunConfig(out=str(tmp_path), data=DataSection(synth=SynthSection(n_per_attack=10)))
        directory = artifact_dir(config)
        directory.mkdir(parents=True)
        return directory

    @pytest.mark.parametrize("command", ["synth", "detect"])
    def test_lockfile_blocks_concurrent_run(self, tmp_path, capsys, command):
        lock = self._run_dir(tmp_path) / ".lock"
        # flock treats each open file description apart, even in one process.
        fd = os.open(lock, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert run_cli(command, "--n-per-attack", "10", "--out", str(tmp_path)) == 1
            assert not (lock.parent / command).exists()
            assert capsys.readouterr().out == ""  # a blocked run prints no result either
        finally:
            os.close(fd)
        assert run_cli(command, "--n-per-attack", "10", "--out", str(tmp_path)) == 0

    def test_lock_of_a_killed_run_does_not_block(self, tmp_path):
        directory = self._run_dir(tmp_path)
        holder = subprocess.Popen(
            [sys.executable, "-c",
             "import sys, time; from pathlib import Path; from kbforge.cli import RunLock\n"
             "with RunLock(Path(sys.argv[1])):\n    print('held', flush=True); time.sleep(60)",
             str(directory)],
            stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(kbforge.__file__).resolve().parents[1])},
        )
        try:
            assert holder.stdout.readline() == "held\n"
            assert run_cli("synth", "--n-per-attack", "10", "--out", str(tmp_path)) == 1
        finally:
            holder.kill()
            holder.wait()
            holder.stdout.close()
        assert (directory / ".lock").exists()  # SIGKILL left the file behind
        assert run_cli("synth", "--n-per-attack", "10", "--out", str(tmp_path)) == 0


class TestDependencies:
    """`import kbforge.cli` loads the standard library and the config's value
    types (`kbforge.params`) only, and each subcommand loads the pipeline
    modules it runs: numpy, a pipeline module, an HTTP library, or the stdlib
    HTTP client and thread pool that only an LLM run uses, imported at start-up
    would cost every run, `--help` and a rejected config too. Each check runs
    in a fresh interpreter, since this one has loaded every module."""

    #: Runs the CLI on sys.argv[1:], then prints its exit code, the kbforge
    #: modules loaded and whether numpy is, as the last line of stdout.
    RUN_MAIN = (
        "import json, sys\n"
        "from kbforge import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "loaded = sorted(name for name in sys.modules if name.startswith('kbforge.'))\n"
        "print(json.dumps([code, loaded, 'numpy' in sys.modules]))"
    )

    @staticmethod
    def fresh_python(code: str, *args: str, cwd: Path | None = None):
        """The JSON value on the last stdout line of `python -c code args`."""
        env = {**os.environ, "PYTHONPATH": str(Path(kbforge.__file__).resolve().parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", code, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout.splitlines()[-1])

    def test_cli_import_loads_no_http_library(self):
        unused = {"requests", "urllib3", "http.client", "ssl", "email", "concurrent.futures"}
        code = f"import json, kbforge.cli, sys; print(json.dumps(sorted({unused!r} & set(sys.modules))))"
        assert self.fresh_python(code) == []

    def test_cli_import_parse_and_load_leave_numpy_unloaded(self, tmp_path, no_env_overrides):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(readme_example()), encoding="utf-8")
        code = (
            "import json, sys\n"
            "from kbforge import cli\n"
            "config = cli.load(cli.build_parser().parse_args(['eval', '--config', sys.argv[1]]))\n"
            "loaded = sorted(name for name in sys.modules if name.startswith('kbforge.'))\n"
            "print(json.dumps([config.to_dict(), loaded, 'numpy' in sys.modules]))"
        )
        assert self.fresh_python(code, str(config)) == [readme_example(), ["kbforge.cli", "kbforge.params"], False]

    def test_rank_loads_only_the_data_and_forest_modules(self, tmp_path):
        table, _ = generate_dataset(default_spec(n_per_attack=10, jitter=0.3, seed=1))
        write_dataset(table, tmp_path / "flows.csv")
        (tmp_path / "c.json").write_text(json.dumps({"forest": {"num_trees": 2}}), encoding="utf-8")
        argv = ["rank", "--dataset", "flows.csv", "--config", "c.json", "--out", "out"]
        modules = ["kbforge.cli", "kbforge.flow_data", "kbforge.forest_rank", "kbforge.params"]
        assert self.fresh_python(self.RUN_MAIN, *argv, cwd=tmp_path) == [0, modules, True]

    def test_select_reference_loads_no_forest(self, tmp_path):
        code, loaded, _ = self.fresh_python(self.RUN_MAIN, "select", "--reference", "--out", "out", cwd=tmp_path)
        assert code == 0
        assert "kbforge.evaluation" in loaded
        stack = {"kbforge.forest_rank", "kbforge.detectors", "kbforge.prompting", "kbforge.kb_builder"}
        assert stack.isdisjoint(loaded)

    @pytest.mark.parametrize(
        "file_config", [{"forest": {"num_trees": 0}}, {"eval": {"mode": "Numeric"}}, {"kb": {"nope": 1}}],
        ids=["out-of-range", "bad-enum", "unknown-key"],
    )
    def test_bad_config_exits_2_before_numpy_loads(self, tmp_path, file_config):
        (tmp_path / "c.json").write_text(json.dumps(file_config), encoding="utf-8")
        argv = ["eval", "--config", "c.json", "--out", "out"]
        assert self.fresh_python(self.RUN_MAIN, *argv, cwd=tmp_path) == [2, ["kbforge.cli", "kbforge.params"], False]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "module,name",
        [(forest_rank, "ForestParams"), (detectors, "LlmEndpointConfig"), (detectors, "RuleOracleConfig"),
         (kb_builder, "KbSource"), (evaluation, "KbConfig"), (prompting, "DescribeMode")],
    )
    def test_config_types_keep_their_old_paths(self, module, name):
        assert getattr(module, name) is getattr(params, name)

    def test_runtime_dependencies_are_numpy_only(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        dependencies = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
        assert [re.split(r"[<>=!~ ;\[]", d, maxsplit=1)[0] for d in dependencies] == ["numpy"]
