"""Command-line pipeline: rank, profile, kb build, synth, detect, eval, select.

All subcommands share one JSON config. Each value comes from its flag, else
its KBFORGE_* environment variable, else the config file, else its default;
OVERRIDES lists every value a flag or a variable can set. The types that own
a value validate it (the dataclass of its section, or its enum), so a bad
config exits before any data is loaded. Artifacts land under
<out>/run-<config digest>/ so a re-run with identical config and seed
overwrites identical bytes, while a changed config gets a fresh directory.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import fcntl
import hashlib
import json
import os
import sys
from pathlib import Path

from . import canonical, detectors, evaluation, flow_data, forest_rank, kb_builder, profile as profile_mod
from . import prompting, synth_traffic


class ConfigError(ValueError):
    pass


BACKENDS = ("rule-oracle", "llm", "replay")

#: kb.variant -> the KB configurations it names; `kb build` writes each one's
#: text, `detect` classifies with the first.
KB_VARIANTS = {
    "none": (evaluation.KbConfig.NO_KB,),
    "long": (evaluation.KbConfig.LONG_KB,),
    "short": (evaluation.KbConfig.SHORT_KB,),
    "both": (evaluation.KbConfig.LONG_KB, evaluation.KbConfig.SHORT_KB),
}

DEFAULT_CONFIG: dict = {
    "seed": 0,
    "out": "out",
    "k": 10,
    "data": {"synth": {"n_per_attack": 500, "jitter": 0.3}},
    "forest": dataclasses.asdict(forest_rank.ForestParams()),
    "kb": {"variant": "both", "source": "canonical"},
    "backend": {
        "kind": "rule-oracle",
        # Literal: LlmEndpointConfig.backoff_base_s is not a config key.
        "llm": {
            "base_url": "http://localhost:11434",
            "model_name": "llama3.1:8b",
            "request_timeout_s": 60.0,
            "max_retries": 2,
            "temperature": 0.0,
            "api": "generate",
            "max_in_flight": 4,
        },
        "rule_oracle": dataclasses.asdict(detectors.RuleOracleConfig()),
        "replay": {"store_dir": "replays"},
    },
    "eval": {
        "n_per_class": 500,
        "kb_configs": ["no_kb", "long_kb", "short_kb"],
        "best_effort": False,
        "mode": "qualitative",
        "workers": 1,
    },
}

#: Every config value a flag or an environment variable sets:
#: (dotted config key, KBFORGE_* variable or None, argparse dest, type, help).
#: The flag is --<dest with dashes>.
OVERRIDES = (
    ("seed", "KBFORGE_SEED", "seed", int, "seed for all pseudo-random choices"),
    ("out", "KBFORGE_OUT", "out", str, "artifact output directory"),
    ("backend.kind", "KBFORGE_BACKEND", "backend", str, "detector backend: " + ", ".join(BACKENDS)),
    ("kb.variant", "KBFORGE_KB", "kb", str, "KB variant: " + ", ".join(KB_VARIANTS)),
    ("kb.source", "KBFORGE_KB_SOURCE", "kb_source", str,
     "KB source: " + ", ".join(s.value for s in kb_builder.KbSource)),
    ("eval.n_per_class", "KBFORGE_N_PER_CLASS", "n_per_class", int, "eval sample size per class"),
    ("backend.llm.base_url", "KBFORGE_BASE_URL", "base_url", str, "LLM endpoint base URL"),
    ("backend.llm.model_name", "KBFORGE_MODEL", "model", str, "LLM model name"),
    ("data.dataset.path", None, "dataset", str, "use a CSV dataset as the data source"),
    ("data.synth.n_per_attack", None, "n_per_attack", int, "synthetic flows per attack"),
    ("data.synth.jitter", None, "jitter", float, "synthetic jitter in [0, 1]"),
    ("profiles_path", None, "profiles", str,
     "attack-profiles JSON to drive synth/kb instead of the bundled table"),
)


def _set_path(config: dict, dotted: str, value) -> None:
    node = config
    *parents, leaf = dotted.split(".")
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = value


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


#: Every key a config may hold, with its default. The keys beyond
#: DEFAULT_CONFIG's stay out of it, so that configs without them keep their
#: digest; a data.dataset section takes its label_column from here.
SCHEMA: dict = _merge(
    DEFAULT_CONFIG, {"profiles_path": "", "data": {"dataset": {"path": "", "label_column": "label"}}}
)


def _check_keys(given: dict, known: dict, prefix: str = "") -> None:
    """Reject a config-file key the program does not read, or a value of
    another JSON type than its default (an integer may stand for a float)."""
    for key, value in given.items():
        name = prefix + key
        if key not in known:
            raise ConfigError(f"unknown config key: {name}")
        default = known[key]
        if isinstance(default, dict) and isinstance(value, dict):
            _check_keys(value, default, name + ".")
        elif type(value) is not type(default) and not (type(default) is float and type(value) is int):
            raise ConfigError(f"config {name} must be of type {type(default).__name__}")


def build_config(args: argparse.Namespace) -> dict:
    """The run config: each value from its flag, else its KBFORGE_* variable,
    else the config file, else its default. The data source is the one a flag
    selects (--synth over --dataset), else the one the file names, else synth;
    the file's values for that source are kept."""
    given: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            given = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(given, dict):
            raise ConfigError("config file must hold a JSON object")
        _check_keys(given, SCHEMA)
    config = _merge(DEFAULT_CONFIG, given)

    data = given.get("data") or {"synth": {}}
    chosen = "synth" if args.synth else "dataset" if args.dataset is not None else None
    if chosen is not None:
        data = {chosen: data.get(chosen, {})}
    config["data"] = {name: _merge(SCHEMA["data"][name], section) for name, section in data.items()}

    for dotted, env, dest, cast, _ in OVERRIDES:
        value = getattr(args, dest)
        if value is None and env is not None and env in os.environ:
            try:
                value = cast(os.environ[env])
            except ValueError as exc:
                raise ConfigError(f"bad value for {env}: {exc}") from exc
        keys = dotted.split(".")
        # A data source's values apply only when that source is in use.
        if value is not None and (keys[0] != "data" or keys[1] in config["data"]):
            _set_path(config, dotted, value)

    if args.command == "synth" and "synth" not in config["data"]:
        raise ConfigError("synth subcommand needs a data.synth source")
    validate_config(config)
    return config


def validate_config(config: dict) -> None:
    """Raise ConfigError for a config the run cannot use. Each typed section
    is built from its values and each enum-valued key goes through its enum,
    so the types that own a value are the ones that check it."""
    data = config["data"]
    if len(data) != 1:
        raise ConfigError("config must name exactly one data source (data.synth or data.dataset)")
    if "dataset" in data and not Path(data["dataset"]["path"]).is_file():
        raise ConfigError(f"dataset path does not exist: {data['dataset']['path']!r}")
    if config.get("profiles_path") and not Path(config["profiles_path"]).exists():
        raise ConfigError(f"profiles path does not exist: {config['profiles_path']}")
    if config["backend"]["kind"] not in BACKENDS:
        raise ConfigError(f"unknown backend kind: {config['backend']['kind']!r}")
    if config["kb"]["variant"] not in KB_VARIANTS:
        raise ConfigError(f"unknown kb variant: {config['kb']['variant']!r}")
    if config["seed"] < 0 or config["k"] < 1 or config["eval"]["n_per_class"] < 1:
        raise ConfigError("seed must be >= 0, and k and eval.n_per_class >= 1")
    if not config["eval"]["kb_configs"]:
        raise ConfigError("eval.kb_configs must name at least one KB configuration")
    try:
        if "synth" in data:
            synth_traffic.default_spec(seed=config["seed"], **data["synth"])
        forest_rank.ForestParams(**config["forest"])
        detectors.RuleOracleConfig(**config["backend"]["rule_oracle"])
        detectors.LlmEndpointConfig(**config["backend"]["llm"])
        kb_builder.KbSource(config["kb"]["source"])
        prompting.DescribeMode(config["eval"]["mode"])
        for name in config["eval"]["kb_configs"]:
            evaluation.KbConfig(name)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def config_digest(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def artifact_dir(config: dict) -> Path:
    return Path(config["out"]) / f"run-{config_digest(config)}"


class RunLock:
    """Guards an artifact directory against concurrent CLI runs with an
    exclusive flock on its .lock file. The OS drops the lock when its holder
    exits, so a killed run never blocks the next one; the file stays."""

    def __init__(self, directory: Path):
        self.path = directory / ".lock"
        self.fd: int | None = None

    def __enter__(self) -> "RunLock":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.fd = os.open(self.path, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(self.fd)
            raise RuntimeError(f"another run holds {self.path}") from None
        return self

    def __exit__(self, *exc_info) -> None:
        os.close(self.fd)  # releases the lock


# ---------------------------------------------------------------------------
# Data and pipeline helpers.
# ---------------------------------------------------------------------------


def _load_table(config: dict) -> flow_data.FlowTable:
    data = config["data"]
    if "synth" in data:
        spec = synth_traffic.default_spec(seed=config["seed"], **data["synth"])
        table, _ = synth_traffic.generate_dataset(spec)
        return table
    dataset = data["dataset"]
    table, _ = flow_data.load_dataset(dataset["path"], label_column=dataset["label_column"])
    return table


def _rank_all(config: dict, table) -> dict[flow_data.AttackLabel, forest_rank.ImportanceReport]:
    params = forest_rank.ForestParams(**config["forest"])
    reports = {}
    for attack in flow_data.ATTACK_LABELS:
        if table.has_label(attack).any():
            reports[attack] = forest_rank.rank_features_for_attack(
                table, attack, params=params, seed=config["seed"]
            )
    if not reports:
        raise RuntimeError("no attack-labeled records to rank")
    return reports


def _build_profiles(config: dict, table) -> list[profile_mod.AttackProfile]:
    reports = _rank_all(config, table)
    return [
        profile_mod.build_attack_profile(table, attack, report, k=config["k"])
        for attack, report in reports.items()
    ]


def _resolve_profiles(config: dict, table=None) -> list[profile_mod.AttackProfile]:
    profiles_path = config.get("profiles_path")
    if profiles_path:
        return profile_mod.profiles_from_json(
            Path(profiles_path).read_text(encoding="utf-8")
        )
    if config["kb"]["source"] == "canonical":
        return list(canonical.REFERENCE_PROFILES.values())
    if table is None:
        table = _load_table(config)
    return _build_profiles(config, table)


def _text_kb(config: dict, kb_config: evaluation.KbConfig, profiles) -> kb_builder.KnowledgeBase | None:
    """The KB text a KB configuration names: the bundled one, or one rendered
    from the profiles, as kb.source says."""
    if kb_config is evaluation.KbConfig.NO_KB:
        return None
    long = kb_config is evaluation.KbConfig.LONG_KB
    if config["kb"]["source"] == "canonical":
        return kb_builder.canonical_kb(kb_builder.KbVariant.LONG if long else kb_builder.KbVariant.SHORT)
    if long:
        return kb_builder.render_long_kb(profiles)
    return kb_builder.render_short_kb(kb_builder.derive_key_features(profiles))


@contextlib.contextmanager
def _detector(config: dict, profiles):
    """The run's one detector, closed when the run is done with it."""
    backend = config["backend"]
    if backend["kind"] == "rule-oracle":
        oracle_cfg = detectors.RuleOracleConfig(**backend["rule_oracle"])
        detector = detectors.RuleOracleDetector(kb_builder.structured_kb(profiles), oracle_cfg)
    elif backend["kind"] == "llm":
        detector = detectors.LlmDetector(
            detectors.LlmEndpointConfig(**backend["llm"]),
            mode=prompting.DescribeMode(config["eval"]["mode"]),
        )
    else:
        detector = detectors.ReplayDetector()
    try:
        yield detector
    finally:
        if isinstance(detector, detectors.LlmDetector):
            detector.close()  # its idle keep-alive connections


def _kb_input(config: dict, kb_config: evaluation.KbConfig, profiles):
    """What the detector classifies with under a KB configuration: nothing for
    the rule oracle, which reads the structured KB it was built on; the KB
    text for the LLM; <store_dir>/<kb_config>.jsonl for replay."""
    backend = config["backend"]
    if backend["kind"] == "rule-oracle":
        return None
    if backend["kind"] == "llm":
        return _text_kb(config, kb_config, profiles)
    store_path = Path(backend["replay"]["store_dir"]) / f"{kb_config.value}.jsonl"
    if not store_path.exists():
        raise RuntimeError(f"replay store not found: {store_path}")
    return detectors.ReplayStore.load(store_path)


def _parse_record(text: str) -> flow_data.FlowRecord:
    """The flow a detect --record JSON object gives; unlisted registry features are 0."""
    try:
        given = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--record is not valid JSON: {exc}") from None
    if not isinstance(given, dict):
        raise ConfigError("--record must be a JSON object of feature values")
    unknown = given.keys() - flow_data.FEATURE_SET
    if unknown:
        raise ConfigError(f"unknown features in --record: {sorted(unknown)}")
    features = dict.fromkeys(flow_data.FEATURES, 0.0)
    try:
        features.update((name, float(value)) for name, value in given.items())
        return flow_data.FlowRecord(features=features)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad feature value in --record: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_rank(config: dict, args: argparse.Namespace) -> Path:
    reports = _rank_all(config, _load_table(config))
    out = artifact_dir(config) / "rank"
    for attack, report in reports.items():
        stem = attack.render()
        forest_rank.write_report(report, out / f"importance_{stem}.json", out / f"importance_{stem}.csv")
    return out


def cmd_profile(config: dict, args: argparse.Namespace) -> Path:
    profiles = _build_profiles(config, _load_table(config))
    out = artifact_dir(config) / "profile"
    profile_mod.write_profiles(profiles, out / "profiles.json")
    return out


def cmd_kb_build(config: dict, args: argparse.Namespace) -> Path:
    out = artifact_dir(config) / "kb"
    profiles = _resolve_profiles(config)
    for kb_config in KB_VARIANTS[config["kb"]["variant"]]:
        kb = _text_kb(config, kb_config, profiles)
        if kb is not None:
            kb_builder.write_kb(kb, out)
    structured = kb_builder.structured_kb(profiles)
    (out / "structured.json").parent.mkdir(parents=True, exist_ok=True)
    (out / "structured.json").write_text(
        kb_builder.structured_kb_to_json(structured), encoding="utf-8"
    )
    return out


def cmd_synth(config: dict, args: argparse.Namespace) -> Path:
    spec = synth_traffic.default_spec(seed=config["seed"], **config["data"]["synth"])
    if config.get("profiles_path"):
        spec = dataclasses.replace(spec, profiles=tuple(_resolve_profiles(config)))
    table, summary = synth_traffic.generate_dataset(spec)
    out = artifact_dir(config) / "synth"
    flow_data.write_dataset(table, out / "synth.csv")
    (out / "summary.json").write_text(
        json.dumps(summary.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
    return out


def cmd_detect(config: dict, args: argparse.Namespace) -> Path:
    if args.record:
        records = [args.record]  # parsed by main before the run lock
    elif args.input:
        records, _ = flow_data.load_dataset(args.input, require_labels=False)
    else:
        records = _load_table(config)
    profiles = _resolve_profiles(config)
    kb = _kb_input(config, KB_VARIANTS[config["kb"]["variant"]][0], profiles)

    out = artifact_dir(config) / "detect"
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    with _detector(config, profiles) as detector:
        for record in records:
            result = detector.classify(record, kb)
            row = {
                "digest": prompting.record_digest(record),
                "true": record.label.render() if record.label else None,
                "predicted": result.predicted.render(),
                "latency_ms": round(result.latency_ms, 3),
                "backend_id": result.backend_id,
            }
            lines.append(json.dumps(row))
            print(json.dumps(row))
    (out / "results.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def cmd_eval(config: dict, args: argparse.Namespace) -> Path:
    table = _load_table(config)
    sample = flow_data.stratified_sample(
        table, n_per_class=config["eval"]["n_per_class"], seed=config["seed"]
    )
    profiles = _resolve_profiles(config, table)
    # Every KB configuration's input first, so a missing replay store fails
    # before any artifact is written.
    kb_configs = [evaluation.KbConfig(name) for name in config["eval"]["kb_configs"]]
    kb_inputs = [_kb_input(config, kb_config, profiles) for kb_config in kb_configs]
    grid = evaluation.EvaluationGrid()
    out = artifact_dir(config) / "eval"
    confusion_dir = out / "confusion"
    confusion_dir.mkdir(parents=True, exist_ok=True)

    with _detector(config, profiles) as detector:
        stem = detector.backend_id.replace(":", "_")
        for kb_config, kb in zip(kb_configs, kb_inputs):
            cm = evaluation.evaluate(
                detector,
                sample,
                kb,
                strict=not config["eval"]["best_effort"],
                workers=config["eval"]["workers"],
            )
            (confusion_dir / f"{stem}_{kb_config.value}.json").write_text(
                json.dumps(cm.to_dict(), indent=2) + "\n", encoding="utf-8"
            )
            for attack, cell in evaluation.per_class_cells(cm).items():
                grid.set(attack, kb_config, detector.backend_id, cell)

    evaluation.write_grid_artifacts(grid, out)
    text, _, _ = evaluation.render_table(grid)
    print(text, end="")
    return out


def cmd_select(config: dict, args: argparse.Namespace) -> Path:
    if args.grid:
        grid = evaluation.EvaluationGrid.from_json(Path(args.grid).read_text(encoding="utf-8"))
    elif args.reference:
        grid = evaluation.grid_from_reference(canonical.REFERENCE_ACCURACY)
    else:
        default = artifact_dir(config) / "eval" / "grid.json"
        if not default.exists():
            raise ConfigError(f"no grid found at {default}; pass --grid or --reference")
        grid = evaluation.EvaluationGrid.from_json(default.read_text(encoding="utf-8"))

    out = artifact_dir(config) / "select"
    out.mkdir(parents=True, exist_ok=True)
    payload = {}
    for backend_id in grid.backends():
        best = evaluation.select_best_kb(grid, backend_id)
        payload[backend_id] = {
            attack.render(): cfg.value for attack, cfg in sorted(
                best.items(), key=lambda kv: kv[0].render()
            )
        }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (out / "best_kb.json").write_text(text, encoding="utf-8")
    print(text, end="")
    return out


# ---------------------------------------------------------------------------
# Argument parsing and entry point.
# ---------------------------------------------------------------------------


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument(
        "--synth", action="store_true", help="use the synthetic data source (sizes: flags, then the file)"
    )
    for _, _, dest, cast, help_text in OVERRIDES:
        parser.add_argument("--" + dest.replace("_", "-"), dest=dest, type=cast, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbforge",
        description="Rank flow features, build knowledge bases, and classify DDoS flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("rank", "rank features per attack with the forest regressor"),
        ("profile", "compute per-attack feature profiles from ranked features"),
        ("synth", "generate a synthetic labeled flow CSV"),
        ("eval", "run the detector grid across KB configurations"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)

    kb = sub.add_parser("kb", help="knowledge-base commands")
    kb_sub = kb.add_subparsers(dest="kb_command", required=True)
    build = kb_sub.add_parser("build", help="write long/short KB files")
    _add_common_flags(build)
    source = build.add_mutually_exclusive_group()
    source.add_argument("--canonical", dest="kb_source", action="store_const", const="canonical",
                        help="use the bundled KB texts")
    source.add_argument("--generated", dest="kb_source", action="store_const", const="generated",
                        help="render KBs from the data")
    build.add_argument("--variant", dest="kb", help="KB variant to build, as --kb")

    detect = sub.add_parser("detect", help="classify one record or a CSV of records")
    _add_common_flags(detect)
    detect.add_argument("--input", help="CSV file of flows to classify")
    detect.add_argument(
        "--record",
        help="inline JSON object of feature values; unlisted registry features default to 0",
    )

    select = sub.add_parser("select", help="pick the best KB configuration per attack")
    _add_common_flags(select)
    select.add_argument("--grid", help="path to a grid.json produced by eval")
    select.add_argument(
        "--reference", action="store_true", help="use the bundled reference accuracy grid"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "rank": cmd_rank,
        "profile": cmd_profile,
        "synth": cmd_synth,
        "detect": cmd_detect,
        "eval": cmd_eval,
        "select": cmd_select,
        "kb": cmd_kb_build,
    }
    try:
        config = build_config(args)
        if getattr(args, "record", None):
            # Before the lock, so a malformed record leaves no run directory.
            args.record = _parse_record(args.record)
        with RunLock(artifact_dir(config)):
            out = handlers[args.command](config, args)
        print(f"artifacts: {out}", file=sys.stderr)
        return 0
    except ConfigError as exc:
        print(json.dumps({"error": {"kind": "config", "message": str(exc)}}), file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: report and exit nonzero
        print(
            json.dumps({"error": {"kind": type(exc).__name__, "message": str(exc)}}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
