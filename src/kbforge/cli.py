"""Command-line pipeline: rank, profile, kb build, synth, detect, eval, select.

All subcommands share one run config, a tree of frozen dataclasses rooted at
RunConfig. Each value comes from its flag, else its KBFORGE_* environment
variable, else the config file, else its field's default; OVERRIDES lists
every value a flag or a variable can set. A field's annotation is the JSON
type its value must have and its section's __post_init__ checks its range, so
a bad config exits before any data is loaded.

main names the run: its artifacts land under <out>/run-<digest>/<command>/,
where the digest hashes the config and the command's input flags
(INPUT_FLAGS), so a re-run with identical config, seed and inputs overwrites
identical bytes, while a changed config or input gets a fresh directory. Each
subcommand reads its inputs and computes every artifact, then returns the
calls that write them there; main takes the run lock only around those calls,
so a run that fails before its writes leaves no run directory.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import fcntl
import functools
import hashlib
import json
import math
import os
import re
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

from . import params

# Each subcommand imports the pipeline modules it runs, so start-up, --help and
# a rejected config load no numpy; these imports serve the annotations only.
if typing.TYPE_CHECKING:
    from . import evaluation, flow_data, forest_rank, kb_builder, profile as profile_mod, synth_traffic


class ConfigError(ValueError):
    pass


BACKENDS = ("rule-oracle", "llm", "replay")

#: kb.variant -> the KB configurations it names; `kb build` writes each one's
#: text, `detect` classifies with the first.
KB_VARIANTS = {
    "none": (params.KbConfig.NO_KB,),
    "long": (params.KbConfig.LONG_KB,),
    "short": (params.KbConfig.SHORT_KB,),
    "both": (params.KbConfig.LONG_KB, params.KbConfig.SHORT_KB),
}


@dataclass(frozen=True)
class SynthSection:
    n_per_attack: int = 500
    jitter: float = 0.3

    def __post_init__(self) -> None:
        if self.n_per_attack < 1:
            raise ValueError("data.synth.n_per_attack must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("data.synth.jitter must lie in [0, 1]")

    def spec(self, seed: int) -> synth_traffic.SynthSpec:
        from . import synth_traffic
        return synth_traffic.default_spec(self.n_per_attack, self.jitter, seed)


@dataclass(frozen=True)
class DatasetSection:
    path: str
    label_column: str = "label"

    def __post_init__(self) -> None:
        if not Path(self.path).is_file():
            raise ValueError(f"dataset path does not exist: {self.path!r}")


@dataclass(frozen=True)
class DataSection:
    """The run's one data source; the other one stays None."""

    synth: SynthSection | None = None
    dataset: DatasetSection | None = None

    def __post_init__(self) -> None:
        if (self.synth is None) == (self.dataset is None):
            raise ValueError("config must name exactly one data source (data.synth or data.dataset)")


@dataclass(frozen=True)
class KbSection:
    variant: str = "both"
    source: params.KbSource = params.KbSource.CANONICAL

    def __post_init__(self) -> None:
        if self.variant not in KB_VARIANTS:
            raise ValueError(f"unknown kb variant: {self.variant!r}")


@dataclass(frozen=True)
class ReplaySection:
    store_dir: str = "replays"


@dataclass(frozen=True)
class BackendSection:
    kind: str = "rule-oracle"
    llm: params.LlmEndpointConfig = params.LlmEndpointConfig()
    rule_oracle: params.RuleOracleConfig = params.RuleOracleConfig()
    replay: ReplaySection = ReplaySection()

    def __post_init__(self) -> None:
        if self.kind not in BACKENDS:
            raise ValueError(f"unknown backend kind: {self.kind!r}")


@dataclass(frozen=True)
class EvalSection:
    n_per_class: int = 500
    kb_configs: tuple[params.KbConfig, ...] = tuple(params.KbConfig)
    best_effort: bool = False
    mode: params.DescribeMode = params.DescribeMode.QUALITATIVE
    workers: int = 1

    def __post_init__(self) -> None:
        if self.n_per_class < 1 or self.workers < 1:
            raise ValueError("eval.n_per_class and eval.workers must be >= 1")
        if not self.kb_configs:
            raise ValueError("eval.kb_configs must name at least one KB configuration")
        if len(set(self.kb_configs)) < len(self.kb_configs):
            raise ValueError("eval.kb_configs names a KB configuration more than once")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    out: str = "out"
    k: int = 10
    data: DataSection = DataSection(synth=SynthSection())
    forest: params.ForestParams = params.ForestParams()
    kb: KbSection = KbSection()
    backend: BackendSection = BackendSection()
    eval: EvalSection = EvalSection()
    profiles_path: str | None = None

    def __post_init__(self) -> None:
        if self.seed < 0 or self.k < 1:
            raise ValueError("seed must be >= 0 and k >= 1")

    def to_dict(self) -> dict:
        """The config as JSON values, which its digest hashes; a None field is no key."""
        return _to_json(self)


def _to_json(value):
    if dataclasses.is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in dataclasses.fields(value)
                if f.metadata.get("config", True) and getattr(value, f.name) is not None}
    if isinstance(value, tuple):
        return [_to_json(item) for item in value]
    return value.value if isinstance(value, enum.Enum) else value


def from_dict(cls, raw, prefix: str = ""):
    """The dataclass `cls` built from a JSON object. Each key names a field,
    whose annotation gives the JSON type of its value (an integer may stand
    for a float, and stays an integer); a field left out keeps its default,
    and the class's __post_init__ checks the values' ranges."""
    if not isinstance(raw, dict):
        raise TypeError(f"{prefix.rstrip('.')} must be a JSON object")
    hints = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls) if f.metadata.get("config", True)}
    unknown = sorted(raw.keys() - names)
    if unknown:
        raise ValueError(f"unknown config key: {prefix}{unknown[0]}")
    return cls(**{key: _from_json(hints[key], value, prefix + key) for key, value in raw.items()})


def _from_json(tp, value, name: str):
    options = typing.get_args(tp)
    if type(None) in options:  # X | None: the key may be left out, but is never null
        (tp,) = (option for option in options if option is not type(None))
    if dataclasses.is_dataclass(tp):
        return from_dict(tp, value, name + ".")
    if typing.get_origin(tp) is tuple:  # tuple[X, ...], from a JSON list
        if type(value) is not list:
            raise TypeError(f"{name} must be a list")
        return tuple(_from_json(options[0], item, name) for item in value)
    if issubclass(tp, enum.Enum):
        try:
            return tp(value)
        except ValueError:
            raise ValueError(f"{name} must be one of {[member.value for member in tp]}") from None
    if type(value) is tp or (tp is float and type(value) is int):
        if type(value) is float and not math.isfinite(value):  # JSON's NaN and Infinity
            raise ValueError(f"{name} must be a finite number")
        return value
    raise TypeError(f"{name} must be of type {tp.__name__}")


#: Every config value a flag or an environment variable sets:
#: (dotted config key, KBFORGE_* variable or None, argparse dest, type, help).
#: The flag is --<dest with dashes>.
OVERRIDES = (
    ("seed", "KBFORGE_SEED", "seed", int, "seed for all pseudo-random choices"),
    ("out", "KBFORGE_OUT", "out", str, "artifact output directory"),
    ("backend.kind", "KBFORGE_BACKEND", "backend", str, "detector backend: " + ", ".join(BACKENDS)),
    ("kb.variant", "KBFORGE_KB", "kb", str, "KB variant: " + ", ".join(KB_VARIANTS)),
    ("kb.source", "KBFORGE_KB_SOURCE", "kb_source", str,
     "KB source: " + ", ".join(s.value for s in params.KbSource)),
    ("eval.n_per_class", "KBFORGE_N_PER_CLASS", "n_per_class", int, "eval sample size per class"),
    ("backend.llm.base_url", "KBFORGE_BASE_URL", "base_url", str, "LLM endpoint base URL"),
    ("backend.llm.model_name", "KBFORGE_MODEL", "model", str, "LLM model name"),
    ("data.dataset.path", None, "dataset", str, "use a CSV dataset as the data source"),
    ("data.synth.n_per_attack", None, "n_per_attack", int, "synthetic flows per attack"),
    ("data.synth.jitter", None, "jitter", float, "synthetic jitter in [0, 1]"),
    ("profiles_path", None, "profiles", str,
     "attack-profiles JSON to use instead of the bundled table (synthetic data, KBs, oracle)"),
)


def _set_path(raw: dict, dotted: str, value) -> None:
    *parents, leaf = dotted.split(".")
    for depth, key in enumerate(parents):
        raw = raw.setdefault(key, {})
        if not isinstance(raw, dict):
            raise ConfigError(f"config {'.'.join(parents[:depth + 1])} must be a JSON object")
    raw[leaf] = value


def load(args: argparse.Namespace) -> RunConfig:
    """The run config: each value from its flag, else its KBFORGE_* variable,
    else the config file, else its field's default. The data source is the one
    a flag selects (--synth over --dataset), else the one the file names, else
    synth; the file's values for that source are kept. A rank or profile of a
    dataset has no profiles_path, so the file is neither read nor hashed."""
    raw: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found, or not a file: {path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=params.unique_keys)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file is not UTF-8 text: {exc}") from exc
        except ValueError as exc:  # not JSON, or a repeated key
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")

    data = raw.get("data") or {"synth": {}}
    if not isinstance(data, dict):
        raise ConfigError("config data must be a JSON object")
    chosen = "synth" if args.synth else "dataset" if args.dataset is not None else None
    if chosen is not None:
        data = {chosen: data.get(chosen, {})}
    raw["data"] = data

    for dotted, env, dest, cast, _ in OVERRIDES:
        value = getattr(args, dest)
        if value is None and env is not None and env in os.environ:
            try:
                value = cast(os.environ[env])
            except ValueError as exc:
                raise ConfigError(f"bad value for {env}: {exc}") from exc
        keys = dotted.split(".")
        # A data source's values apply only when that source is in use.
        if value is not None and (keys[0] != "data" or keys[1] in data):
            _set_path(raw, dotted, value)
    # rank and profile read a profiles file only to draw synthetic data.
    if args.command in ("rank", "profile") and "dataset" in data:
        raw.pop("profiles_path", None)

    try:
        config = from_dict(RunConfig, raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    if args.command == "synth" and config.data.synth is None:
        raise ConfigError("synth subcommand needs a data.synth source")
    return config


def build_config(args: argparse.Namespace) -> dict:
    """The run config of `args` as JSON values."""
    return load(args).to_dict()


#: The flags that name a command's own input, which the run directory's name hashes.
INPUT_FLAGS = ("input", "record", "grid", "reference")


def artifact_dir(config: RunConfig, inputs: dict | None = None) -> Path:
    """<out>/run-<digest>, the digest hashing the config and, if any are
    given, the command's input flags (a path as given)."""
    named = config.to_dict()
    if inputs:
        named["inputs"] = inputs  # RunConfig has no field of that name
    blob = json.dumps(named, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return Path(config.out) / f"run-{hashlib.sha256(blob).hexdigest()[:12]}"


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


def _read_csv(path: str | Path, **options) -> flow_data.FlowTable:
    """The rows of a dataset CSV; if any row was skipped, one JSON line on
    stderr names the file and counts the rows kept and skipped."""
    from . import flow_data
    table, summary = flow_data.load_dataset(path, **options)
    if summary.skipped_count:
        report = {"file": str(path), "rows_kept": summary.record_count, "rows_skipped": summary.skipped_count}
        print(json.dumps({"warning": {"kind": "rows_skipped", **report}}), file=sys.stderr)
    return table


def _load_table(config: RunConfig) -> flow_data.FlowTable:
    """The dataset's flows, else synthetic ones from the profiles file's (else the bundled) profiles."""
    dataset = config.data.dataset
    if dataset is None:
        from . import synth_traffic
        spec = config.data.synth.spec(config.seed)
        if config.profiles_path:
            spec = dataclasses.replace(spec, profiles=tuple(_read_profiles(config.profiles_path)))
        table, _ = synth_traffic.generate_dataset(spec)
        return table
    return _read_csv(dataset.path, label_column=dataset.label_column)


def _rank_all(config: RunConfig, table) -> dict[flow_data.AttackLabel, forest_rank.ImportanceReport]:
    from . import flow_data, forest_rank
    attacks = [attack for attack in flow_data.ATTACK_LABELS if table.has_label(attack).any()]
    if not attacks:
        raise RuntimeError("no attack-labeled records to rank")
    return forest_rank.rank_features_for_attack(table, attacks, params=config.forest, seed=config.seed)


def _build_profiles(config: RunConfig, table) -> list[profile_mod.AttackProfile]:
    from . import profile as profile_mod
    reports = _rank_all(config, table)
    return [
        profile_mod.build_attack_profile(table, attack, report, k=config.k)
        for attack, report in reports.items()
    ]


def _read_profiles(path: str) -> list[profile_mod.AttackProfile]:
    """The profiles a profiles file lists; a bad or empty file is a ConfigError."""
    from . import profile as profile_mod
    try:
        profiles = profile_mod.profiles_from_json(Path(path).read_text(encoding="utf-8"))
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad profiles file {path}: {exc}") from None
    if not profiles:
        raise ConfigError(f"profiles file {path} lists no profiles")
    return profiles


def _resolve_profiles(config: RunConfig, table=None) -> list[profile_mod.AttackProfile]:
    """The profiles file's profiles, else the bundled ones or ones built from
    the data, as kb.source says."""
    from . import canonical
    if config.profiles_path:
        return _read_profiles(config.profiles_path)
    if config.kb.source is params.KbSource.CANONICAL:
        return list(canonical.REFERENCE_PROFILES.values())
    if table is None:
        table = _load_table(config)
    return _build_profiles(config, table)


def _text_kb(config: RunConfig, kb_config: params.KbConfig, profiles) -> kb_builder.KnowledgeBase | None:
    """The KB text a KB configuration names: the bundled one, or one rendered
    from the profiles, as kb.source says."""
    from . import kb_builder
    if kb_config is params.KbConfig.NO_KB:
        return None
    long = kb_config is params.KbConfig.LONG_KB
    if config.kb.source is params.KbSource.CANONICAL:
        return kb_builder.canonical_kb(kb_builder.KbVariant.LONG if long else kb_builder.KbVariant.SHORT)
    if long:
        return kb_builder.render_long_kb(profiles)
    return kb_builder.render_short_kb(kb_builder.derive_key_features(profiles))


@contextlib.contextmanager
def _detector(config: RunConfig, profiles, kb_configs):
    """The run's one detector, closed when the run is done with it, and what
    it classifies with under each KB configuration: nothing for the rule
    oracle, which reads the structured KB it was built on; the KB text for the
    LLM; <store_dir>/<kb_config>.jsonl for replay, each read before the
    detector is built."""
    from . import detectors, kb_builder
    backend = config.backend
    if backend.kind == "rule-oracle":
        kbs = [None] * len(kb_configs)
        detector = detectors.RuleOracleDetector(kb_builder.structured_kb(profiles), backend.rule_oracle)
    elif backend.kind == "llm":
        kbs = [_text_kb(config, kb_config, profiles) for kb_config in kb_configs]
        detector = detectors.LlmDetector(backend.llm, mode=config.eval.mode)
    else:
        stores = [Path(backend.replay.store_dir) / f"{kb_config.value}.jsonl" for kb_config in kb_configs]
        for path in stores:
            if not path.is_file():
                raise ConfigError(f"replay store not found: {path}")
        kbs = [detectors.load_replay_store(path) for path in stores]
        detector = detectors.ReplayDetector()
    try:
        yield detector, dict(zip(kb_configs, kbs))
    finally:
        if isinstance(detector, detectors.LlmDetector):
            detector.close()  # its idle keep-alive connections


def _read_grid(path: Path) -> evaluation.EvaluationGrid:
    """The grid a grid.json file holds; a missing, malformed or empty one is a ConfigError."""
    from . import evaluation
    if not path.is_file():
        raise ConfigError(f"no grid file at {path}; pass --grid or --reference")
    try:
        grid = evaluation.EvaluationGrid.from_json(path.read_text(encoding="utf-8"))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid file {path}: {type(exc).__name__}: {exc}") from None
    if not grid.cells:
        raise ConfigError(f"bad grid file {path}: it lists no cells")
    return grid


def _parse_record(text: str) -> flow_data.FlowTable:
    """The one-row table a detect --record JSON object of feature numbers
    gives; unlisted registry features are 0."""
    import numpy as np
    from . import flow_data
    try:
        # An integer reads as float() reads its digits, so one past float's
        # range is inf, and "+ 0.0" keeps "-0" the 0.0 its integer is.
        given = json.loads(text, parse_int=lambda digits: float(digits) + 0.0, object_pairs_hook=params.unique_keys)
    except ValueError as exc:  # not JSON, or a repeated key
        raise ConfigError(f"--record is not valid JSON: {exc}") from None
    if not isinstance(given, dict):
        raise ConfigError("--record must be a JSON object of feature values")
    unknown = given.keys() - flow_data.FEATURE_SET
    if unknown:
        raise ConfigError(f"unknown features in --record: {sorted(unknown)}")
    row = np.zeros((1, len(flow_data.FEATURES)))
    for name, value in given.items():
        if type(value) is not float or not np.isfinite(value):
            raise ConfigError(f"bad feature value in --record: {name!r} must be a finite number, not {value!r}")
        row[0, flow_data.FEATURE_INDEX[name]] = value
    return flow_data.FlowTable(row, np.full(1, -1, dtype=np.int8))


# ---------------------------------------------------------------------------
# Subcommands. Each gets the output directory main named and returns the
# calls, made under the run lock, that write its artifacts and print its result.
# ---------------------------------------------------------------------------


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def cmd_rank(config: RunConfig, args: argparse.Namespace, out: Path) -> list:
    from . import forest_rank
    reports = _rank_all(config, _load_table(config))
    return [
        functools.partial(forest_rank.write_report, report, out / f"importance_{attack.render()}.json",
                          out / f"importance_{attack.render()}.csv")
        for attack, report in reports.items()
    ]


def cmd_profile(config: RunConfig, args: argparse.Namespace, out: Path) -> list:
    from . import profile as profile_mod
    profiles = _build_profiles(config, _load_table(config))
    return [functools.partial(_write_text, out / "profiles.json", profile_mod.profiles_to_json(profiles))]


def cmd_kb_build(config: RunConfig, args: argparse.Namespace, out: Path) -> list:
    from . import flow_data, kb_builder
    profiles = _resolve_profiles(config)
    kbs = [_text_kb(config, kb_config, profiles) for kb_config in KB_VARIANTS[config.kb.variant]]
    structured = kb_builder.structured_kb_to_json(kb_builder.structured_kb(profiles))
    texts = {out / "structured.json": structured}
    for kb in filter(None, kbs):
        texts.update((out / kb.variant.value / f"{attack.render()}.txt", kb.entries[attack] + "\n")
                     for attack in flow_data.ATTACK_LABELS if attack in kb.entries)
        texts[out / kb.variant.value / "combined.txt"] = kb.combined_text() + "\n"
    return [functools.partial(_write_text, path, text) for path, text in texts.items()]


def cmd_synth(config: RunConfig, args: argparse.Namespace, out: Path) -> list:
    from . import flow_data
    table = _load_table(config)
    summary = json.dumps(flow_data.DatasetSummary.of(table).to_dict(), indent=2) + "\n"
    return [
        functools.partial(flow_data.write_dataset, table, out / "synth.csv"),
        functools.partial(_write_text, out / "summary.json", summary),
    ]


def cmd_detect(config: RunConfig, args: argparse.Namespace, out: Path) -> list:
    from . import evaluation, flow_data, prompting
    if args.record:
        table = _parse_record(args.record)
    elif args.input:
        if not Path(args.input).is_file():
            raise ConfigError(f"--input file does not exist: {args.input!r}")
        table = _read_csv(args.input, require_labels=False)
    else:
        table = _load_table(config)
    # Flows drawn from the run's data source are the data kb.source generated reads too.
    profiles = _resolve_profiles(config, None if args.record or args.input else table)
    kb_config = KB_VARIANTS[config.kb.variant][0]
    with _detector(config, profiles, (kb_config,)) as (detector, kbs):
        predicted = evaluation.predict(detector, table, kbs[kb_config])
    text = "".join(
        json.dumps({
            "digest": prompting.record_digest(record),
            "true": record.label.render() if record.label else None,
            "predicted": flow_data.LABELS[code].render(),
            "backend_id": detector.backend_id,
            "kb_config": kb_config.value,
        }) + "\n"
        for record, code in zip(table, predicted.tolist())
    )
    return [functools.partial(_write_text, out / "results.jsonl", text), functools.partial(print, text, end="")]


def cmd_eval(config: RunConfig, args: argparse.Namespace, out: Path) -> list:
    from . import evaluation, flow_data
    table = _load_table(config)
    sample = flow_data.stratified_sample(table, n_per_class=config.eval.n_per_class, seed=config.seed)
    if len(sample) == 0:
        source = config.data.dataset.path if config.data.dataset else "the synthetic dataset"
        raise RuntimeError(f"no records to evaluate in {source}")
    profiles = _resolve_profiles(config, table)
    grid = evaluation.EvaluationGrid()
    writes = []
    with _detector(config, profiles, config.eval.kb_configs) as (detector, kbs):
        # A file-name stem: a model id may hold ':' or '/'.
        stem = re.sub(r"[^A-Za-z0-9._-]", "_", detector.backend_id)
        for kb_config, kb in kbs.items():
            cm = evaluation.evaluate(
                detector,
                sample,
                kb,
                strict=not config.eval.best_effort,
                workers=config.eval.workers,
            )
            writes.append(functools.partial(_write_text, out / "confusion" / f"{stem}_{kb_config.value}.json",
                                            json.dumps(cm.to_dict(), indent=2) + "\n"))
            for attack, cell in evaluation.per_class_cells(cm).items():
                grid.set(attack, kb_config, detector.backend_id, cell)
    writes.append(lambda: print(evaluation.write_grid_artifacts(grid, out), end=""))
    return writes


def cmd_select(config: RunConfig, args: argparse.Namespace, out: Path) -> list:
    from . import canonical, evaluation
    if args.reference:
        grid = evaluation.grid_from_reference(canonical.REFERENCE_ACCURACY)
    else:
        grid = _read_grid(Path(args.grid or artifact_dir(config) / "eval" / "grid.json"))
    best = {backend_id: evaluation.select_best_kb(grid, backend_id) for backend_id in grid.backends()}
    payload = {backend_id: {attack.render(): cfg.value for attack, cfg in choice.items()}
               for backend_id, choice in best.items()}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return [
        functools.partial(_write_text, out / "best_kb.json", text),
        functools.partial(print, text, end=""),
    ]


# ---------------------------------------------------------------------------
# Argument parsing and entry point.
# ---------------------------------------------------------------------------


def _add_command(parent, name: str, handler, help_text: str) -> argparse.ArgumentParser:
    """A subcommand's parser, with the flags every subcommand takes; main runs `handler`."""
    parser = parent.add_parser(name, help=help_text)
    parser.set_defaults(handler=handler)
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument(
        "--synth", action="store_true", help="use the synthetic data source (sizes: flags, then the file)"
    )
    for _, _, dest, cast, flag_help in OVERRIDES:
        parser.add_argument("--" + dest.replace("_", "-"), dest=dest, type=cast, help=flag_help)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbforge",
        description="Rank flow features, build knowledge bases, and classify DDoS flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, help_text in (
        ("rank", cmd_rank, "rank features per attack with the forest regressor"),
        ("profile", cmd_profile, "compute per-attack feature profiles from ranked features"),
        ("synth", cmd_synth, "generate a synthetic labeled flow CSV"),
        ("eval", cmd_eval, "run the detector grid across KB configurations"),
    ):
        _add_command(sub, name, handler, help_text)

    kb = sub.add_parser("kb", help="knowledge-base commands")
    kb_sub = kb.add_subparsers(dest="kb_command", required=True)
    build = _add_command(kb_sub, "build", cmd_kb_build, "write long/short KB files")
    source = build.add_mutually_exclusive_group()
    source.add_argument("--canonical", dest="kb_source", action="store_const", const="canonical",
                        help="use the bundled KB texts")
    source.add_argument("--generated", dest="kb_source", action="store_const", const="generated",
                        help="render KBs from the data")
    build.add_argument("--variant", dest="kb", help="KB variant to build, as --kb")

    detect = _add_command(sub, "detect", cmd_detect, "classify one record or a CSV of records")
    flows = detect.add_mutually_exclusive_group()
    flows.add_argument("--input", help="CSV file of flows to classify")
    flows.add_argument(
        "--record",
        help="inline JSON object of feature values; unlisted registry features default to 0",
    )

    select = _add_command(sub, "select", cmd_select, "pick the best KB configuration per attack")
    grid = select.add_mutually_exclusive_group()
    grid.add_argument("--grid", help="path to a grid.json produced by eval")
    grid.add_argument("--reference", action="store_true", help="use the bundled reference accuracy grid")
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        # Run as a program (the console script, python -m kbforge): once numpy
        # loads, its OpenBLAS starts one worker thread per extra CPU, and
        # kbforge's one BLAS call, the rule oracle's 128-row product, is too
        # small to use them. numpy is not loaded yet, since this module loads
        # none. A caller's own setting stands; main([...]) changes no environment.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        config = load(args)
        inputs = {flag: getattr(args, flag) for flag in INPUT_FLAGS if getattr(args, flag, None)}
        out = artifact_dir(config, inputs) / args.command
        writes = args.handler(config, args, out)
        with RunLock(out.parent):
            for write in writes:
                write()
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
