"""kbforge benchmark: timed CLI runs per workload, plus a traced per-module run.

Run from the repository root:

    python3 benchmarks/run.py --workload shallow-synth --seed 1 --seconds 30 --trace 0

Every input (config JSON, and the noisy CSV of ``deep-csv``) is generated from
``--seed`` before timing starts; the program receives only those files and
flags. Each workload is a closed loop: this process spawns one
``python -m kbforge ...`` at a time, waits for it with ``os.wait4`` (which
gives that child's own peak RSS and CPU time), checks its artifacts and
starts the next, until ``--seconds`` is spent.

``--trace 0`` reports the end-to-end metrics over the runs that passed every
check: wall_s, setup_s and peak_rss_mb are medians.
``--trace 1`` also runs the same CLI command once in this process, with the
public functions it calls wrapped on their modules; it writes one span per
call to ``.bench_work/<workload>/spans.jsonl``, checks that its artifacts
match the timed runs' bytes, and reports the per-layer metrics.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
Exit code 2 means the benchmark could not run at all (for example, no
``src/kbforge`` next to it).
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("shallow-synth", "deep-csv", "llm-stub")
ATTACKS = ("DDoS-ICMP_Flood", "DDoS-UDP_Flood", "DDoS-TCP_Flood", "DDoS-PSHACK_Flood")
KB_CONFIGS = ("no_kb", "long_kb", "short_kb")
#: Fresh interpreters timed for setup_s before the first CLI run, and after each
#: CLI run, so that the samples cover the whole measured window.
SETUP_SAMPLES_FIRST = 3
SETUP_SAMPLES_PER_RUN = 1
#: A CLI run that takes longer than this is killed and counted as failed.
CLI_TIMEOUT_S = 120.0
#: deep-csv trees must stay deep: at full size they have about 125 splits.
DEEP_MIN_SPLITS_PER_TREE = 50

#: Sizes at --scale 1. Why each workload exists is in BENCHMARK.json.
#: The eval workloads synthesise n flows per attack and sample n per class.
SHALLOW = {"n": 500, "jitter": 0.3, "num_trees": 30}
DEEP = {"rows": 4000, "jitter": 1.0, "label_noise": 0.3, "num_trees": 2}
LLM = {"n": 50, "jitter": 0.3, "workers": 2, "max_in_flight": 2, "stub_delay_ms": 10.0}
FOREST_DEFAULTS = {"max_depth": 12, "min_samples_leaf": 5, "bootstrap": True}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


@dataclass
class Prepared:
    """Inputs of one workload, generated from the seed before timing."""

    argv: list[str]
    flows: int
    artifacts: set[str]
    meta: dict
    problems: list[str] = field(default_factory=list)
    expected_accuracy: dict | None = None


@dataclass
class CliRun:
    wall_s: float
    rss_mb: float
    cpu_s: float
    returncode: int
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    stub: dict | None = None


# ---------------------------------------------------------------------------
# Inputs.
# ---------------------------------------------------------------------------


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale))


def _write_config(work: Path, config: dict) -> Path:
    path = work / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def prepare(workload: str, seed: int, scale: float, work: Path, base_url: str | None) -> Prepared:
    out = str(work / "out")
    if workload == "shallow-synth":
        n = _scaled(SHALLOW["n"], scale, 20)
        trees = _scaled(SHALLOW["num_trees"], scale, 2)
        config = {"seed": seed, "out": out, "forest": {"num_trees": trees, **FOREST_DEFAULTS},
                  "eval": {"workers": 1}}
        argv = ["eval", "--config", str(_write_config(work, config)), "--backend", "rule-oracle",
                "--kb-source", "generated", *_synth_flags(n, SHALLOW["jitter"])]
        return Prepared(
            argv=argv, flows=4 * n, artifacts=_eval_artifacts("rule-oracle"),
            meta={"n_per_attack": n, "n_per_class": n, "jitter": SHALLOW["jitter"],
                  "forest": config["forest"], "eval_workers": 1, "oracle_records": 3 * 4 * n},
        )
    if workload == "deep-csv":
        return _prepare_deep(seed, scale, work, out)
    if workload == "llm-stub":
        n = _scaled(LLM["n"], scale, 5)
        config = {"seed": seed, "out": out, "eval": {"workers": LLM["workers"]},
                  "backend": {"llm": {"base_url": base_url, "max_in_flight": LLM["max_in_flight"],
                                      "request_timeout_s": 30.0, "max_retries": 2}}}
        argv = ["eval", "--config", str(_write_config(work, config)), "--backend", "llm",
                "--kb-source", "canonical", *_synth_flags(n, LLM["jitter"])]
        prepared = Prepared(
            argv=argv, flows=4 * n, artifacts=_eval_artifacts("llm_llama3.1_8b"),
            meta={"n_per_attack": n, "n_per_class": n, "jitter": LLM["jitter"],
                  "eval_workers": LLM["workers"], "max_in_flight": LLM["max_in_flight"],
                  "stub_delay_ms": LLM["stub_delay_ms"], "requests_per_run": 3 * 4 * n},
        )
        prepared.expected_accuracy = _expected_stub_accuracy(seed, n)
        return prepared
    raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _synth_flags(n: int, jitter: float) -> list[str]:
    # Sizes go as flags: --synth resets data.synth in the config file to the CLI defaults.
    return ["--synth", "--n-per-attack", str(n), "--jitter", str(jitter), "--n-per-class", str(n)]


def _eval_artifacts(confusion_stem: str) -> set[str]:
    return {"eval/grid.txt", "eval/grid.csv", "eval/grid.json"} | {
        f"eval/confusion/{confusion_stem}_{c}.json" for c in KB_CONFIGS
    }


def _prepare_deep(seed: int, scale: float, work: Path, out: str) -> Prepared:
    """Synth at full jitter with a seeded share of labels reassigned at random."""
    import numpy as np
    import traced
    from kbforge import flow_data, forest_rank, synth_traffic

    rows = _scaled(DEEP["rows"], scale, 200) // 4 * 4
    records, _ = synth_traffic.generate_dataset(
        synth_traffic.default_spec(n_per_attack=rows // 4, jitter=DEEP["jitter"], seed=seed)
    )
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xDEE9))))
    drawn = rng.random(len(records)) < DEEP["label_noise"]
    new_labels = rng.integers(0, 4, size=len(records))
    changed = 0
    for i in np.flatnonzero(drawn):
        label = flow_data.ATTACK_LABELS[new_labels[i]]
        changed += label is not records[i].label
        records[i] = flow_data.FlowRecord(features=records[i].features, label=label)
    csv_path = work / "flows.csv"
    flow_data.write_dataset(records, csv_path)

    problems = []
    # One tree on the first attack, to hold the depth floor on every run.
    params = forest_rank.ForestParams(num_trees=1, **FOREST_DEFAULTS)
    target = [1.0 if r.label is flow_data.ATTACK_LABELS[0] else 0.0 for r in records]
    tree = forest_rank.fit_forest(records, target, params=params, seed=seed).trees[0]
    splits, _ = traced.tree_stats(tree)
    if splits < _split_floor(scale):
        problems.append(f"deep-csv tree has {splits} splits, below the floor of {_split_floor(scale):g}")

    config = {"seed": seed, "out": out, "forest": {"num_trees": DEEP["num_trees"], **FOREST_DEFAULTS}}
    argv = ["rank", "--config", str(_write_config(work, config)), "--dataset", str(csv_path)]
    artifacts = {f"rank/importance_{a}.{ext}" for a in ATTACKS for ext in ("json", "csv")}
    return Prepared(
        argv=argv, flows=rows, artifacts=artifacts, problems=problems,
        meta={"rows": rows, "jitter": DEEP["jitter"], "label_noise_draw": DEEP["label_noise"],
              "labels_drawn": int(drawn.sum()), "labels_changed": changed,
              "label_noise_changed_fraction": changed / rows, "forest": config["forest"],
              "setup_tree_splits": splits},
    )


def _split_floor(scale: float) -> float:
    return DEEP_MIN_SPLITS_PER_TREE * min(1.0, scale)


def _expected_stub_accuracy(seed: int, n: int) -> dict:
    """Per (attack, kb_config) accuracy the llm-stub grid must show, computed in
    this process from the same sample, prompts and stub answers."""
    from kbforge import flow_data, kb_builder, prompting, synth_traffic
    from stub_llm import answer_for

    records, _ = synth_traffic.generate_dataset(
        synth_traffic.default_spec(n_per_attack=n, jitter=LLM["jitter"], seed=seed)
    )
    sample = flow_data.stratified_sample(records, n_per_class=n, seed=seed)
    kbs = {"no_kb": None,
           "long_kb": kb_builder.canonical_kb(kb_builder.KbVariant.LONG),
           "short_kb": kb_builder.canonical_kb(kb_builder.KbVariant.SHORT)}
    expected = {}
    for name, kb in kbs.items():
        hits: dict[str, int] = {}
        for record in sample:
            reply = answer_for(prompting.build_prompt(record, kb).text)
            hit = prompting.parse_response(reply) is record.label
            hits[record.label.render()] = hits.get(record.label.render(), 0) + hit
        for attack, count in hits.items():
            expected[(attack, name)] = count / n
    return expected


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------


def _run_dir(out: Path) -> Path | None:
    runs = sorted(out.glob("run-*")) if out.exists() else []
    return runs[0] if len(runs) == 1 else None


def artifact_digest(run_dir: Path) -> tuple[set[str], str]:
    """Relative artifact paths and one sha256 over their names and bytes."""
    h = hashlib.sha256()
    names = set()
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file() and p.name != ".lock"):
        rel = path.relative_to(run_dir).as_posix()
        names.add(rel)
        h.update(rel.encode() + b"\0" + path.read_bytes() + b"\0")
    return names, h.hexdigest()


def check_grid(eval_dir: Path, n: int, expected: dict | None) -> list[str]:
    cells = json.loads((eval_dir / "grid.json").read_text(encoding="utf-8"))["cells"]
    problems = []
    got = {(c["attack"], c["kb_config"]): c for c in cells}
    want = {(a, k) for a in ATTACKS for k in KB_CONFIGS}
    if set(got) != want or len(cells) != len(want):
        problems.append(f"grid cells {sorted(got)} are not 4 attacks x 3 KB configs")
        return problems
    for key, cell in got.items():
        if cell["n"] != n:
            problems.append(f"grid cell {key} has n={cell['n']}, expected {n}")
        if expected is not None and abs(cell["accuracy"] - expected[key]) > 1e-12:
            problems.append(f"grid cell {key} accuracy {cell['accuracy']} != expected {expected[key]}")
    if expected is None:
        for attack in ATTACKS:  # the rule oracle reads only the structured KB
            if len({got[(attack, k)]["accuracy"] for k in KB_CONFIGS}) != 1:
                problems.append(f"rule-oracle accuracies differ across KB configs for {attack}")
    return problems


def check_importance(rank_dir: Path) -> list[str]:
    problems = []
    for attack in ATTACKS:
        report = json.loads((rank_dir / f"importance_{attack}.json").read_text(encoding="utf-8"))
        total = sum(report["scores"].values())
        if abs(total - 1.0) > 1e-9:
            problems.append(f"{attack} importance scores sum to {total!r}, not 1")
        if sorted(report["ranking"]) != sorted(report["scores"]):
            problems.append(f"{attack} ranking does not list every scored feature")
    return problems


def check_run(workload: str, prepared: Prepared, run: CliRun, out: Path, first_digest: str | None) -> None:
    if run.returncode != 0:
        run.problems.append(f"exit code {run.returncode}")
        return
    run_dir = _run_dir(out)
    if run_dir is None:
        run.problems.append(f"expected one run-* directory under {out}")
        return
    names, run.digest = artifact_digest(run_dir)
    if names != prepared.artifacts:
        run.problems.append(f"artifact set differs: missing {sorted(prepared.artifacts - names)}, "
                            f"extra {sorted(names - prepared.artifacts)}")
        return
    if first_digest is not None and run.digest != first_digest:
        run.problems.append("artifact sha256 differs from the first run of this seed")
    run.problems += check_outputs(workload, prepared, run_dir / ("rank" if workload == "deep-csv" else "eval"))
    if run.stub is not None:
        run.problems += check_stub(run.stub, prepared)


def check_outputs(workload: str, prepared: Prepared, directory: Path) -> list[str]:
    if workload == "deep-csv":
        return check_importance(directory)
    return check_grid(directory, prepared.meta["n_per_class"], prepared.expected_accuracy)


def check_stub(stats: dict, prepared: Prepared) -> list[str]:
    problems = []
    want = prepared.meta["requests_per_run"]
    if stats["requests"] != want:
        problems.append(f"stub saw {stats['requests']} requests, expected exactly {want}")
    if stats["non_200"]:
        problems.append(f"stub sent {stats['non_200']} non-200 replies")
    if stats["max_concurrent"] > LLM["max_in_flight"]:
        problems.append(f"stub saw {stats['max_concurrent']} concurrent requests")
    return problems


# ---------------------------------------------------------------------------
# Processes: the CLI, interpreter start-up, the LLM stub.
# ---------------------------------------------------------------------------


def isolate_env() -> None:
    """Give the CLI children and the in-process traced run the same environment:
    no KBFORGE_* overrides, this checkout's sources, no proxy for the local stub."""
    for key in [k for k in os.environ if k.startswith("KBFORGE_")]:
        del os.environ[key]
    os.environ["PYTHONPATH"] = str(SRC)
    no_proxy = ",".join(filter(None, ["127.0.0.1,localhost", os.environ.get("NO_PROXY")]))
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = no_proxy


def spawn_python(args: list[str], work: Path, cpu: int | None = None) -> CliRun:
    """One child interpreter, timed from spawn to exit; rusage is this child's own.
    The wait blocks in wait4: ``Popen.wait(timeout)`` polls in steps of up to 50 ms.
    With `cpu` set, the child is pinned to that CPU."""
    with (work / "cli.stderr").open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=work,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        if cpu is not None:
            try:
                os.sched_setaffinity(proc.pid, {cpu})
            except ProcessLookupError:  # already gone; wait4 still reaps it
                pass
        killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no CLI running behind us
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0,
                  cpu_s=usage.ru_utime + usage.ru_stime, returncode=proc.returncode)


def import_seconds(work: Path) -> float:
    """Wall time for a fresh interpreter to run ``import kbforge.cli``."""
    run = spawn_python(["-c", "import kbforge.cli"], work)
    if run.returncode != 0:
        raise BenchError("import kbforge.cli failed:\n" + (work / "cli.stderr").read_text(errors="replace"))
    return run.wall_s


class Stub:
    """The stub LLM endpoint, in its own process."""

    def __init__(self, delay_ms: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("stub_llm.py")), "--delay-ms", str(delay_ms)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise BenchError(f"stub did not start: {line!r}")
        self.port = int(line.split()[1])
        self.base_url = f"http://127.0.0.1:{self.port}"

    def _call(self, method: str, path: str) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            connection.request(method, path, body=b"" if method == "POST" else None)
            response = connection.getresponse()
            if response.status != 200:
                raise BenchError(f"stub {method} {path} answered {response.status}")
            return json.loads(response.read())
        finally:
            connection.close()

    def reset(self) -> None:
        self._call("POST", "/reset")

    def stats(self) -> dict:
        return self._call("GET", "/stats")

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------


def measure_cli(workload: str, prepared: Prepared, work: Path, stub: Stub | None,
                deadline: float, min_runs: int, setup: list[float]) -> list[CliRun]:
    """Closed loop of CLI runs until the next one would pass the deadline; after
    each, adds interpreter start-up samples to `setup`."""
    runs: list[CliRun] = []
    out = work / "out"
    # Single-threaded CLI runs take the CPUs in turn. On a shared host each CPU
    # slows down and speeds up on its own as neighbours load it, and the kernel
    # keeps placing a lone child on the same one; taking turns spreads a
    # window's runs over all of them. llm-stub runs 2 client threads beside the
    # stub process, so it stays unpinned.
    cpus = sorted(os.sched_getaffinity(0)) if stub is None else []
    while len(runs) < min_runs or time.perf_counter() + _run_estimate(runs) <= deadline:
        shutil.rmtree(out, ignore_errors=True)
        if stub is not None:
            stub.reset()
        run = spawn_python(["-m", "kbforge", *prepared.argv], work,
                           cpus[len(runs) % len(cpus)] if cpus else None)
        if stub is not None:
            run.stub = stub.stats()
        check_run(workload, prepared, run, out, next((r.digest for r in runs if r.digest), None))
        if run.problems:
            err = (work / "cli.stderr").read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"run {len(runs) + 1} failed: {'; '.join(run.problems)}\n{err}", file=sys.stderr)
        runs.append(run)
        setup += [import_seconds(work) for _ in range(SETUP_SAMPLES_PER_RUN)]
        if run.returncode != 0 and time.perf_counter() > deadline:
            break
    return runs


def _run_estimate(runs: list[CliRun]) -> float:
    """Expected length of the next run: the median passed run, else the longest run."""
    passed = [r.wall_s for r in runs if not r.problems]
    return statistics.median(passed) if passed else max(r.wall_s for r in runs)


def end_to_end(prepared: Prepared, runs: list[CliRun], setup: list[float]) -> dict:
    # Only runs that passed every check: a crash is fast and small, not a gain.
    passed = [r for r in runs if not r.problems]
    if not passed:
        raise BenchError("no CLI run passed its checks; nothing to report")
    wall = statistics.median(r.wall_s for r in passed)
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "flows_per_s": {"value": prepared.flows / wall, "unit": "flows/s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r.rss_mb for r in passed), "unit": "MB"},
    }


def per_layer(workload: str, prepared: Prepared, work: Path, stub: Stub | None, seed: int,
              first_digest: str | None) -> tuple[dict, list[str]]:
    """Per-layer metrics from one traced in-process run of the CLI, whose
    artifacts must match those of the timed runs byte for byte."""
    import traced

    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    if stub is not None:
        stub.reset()
    run = traced.traced_run(prepared.argv, run_id=f"{workload}-seed{seed}-pid{os.getpid()}")
    stats = stub.stats() if stub is not None else None
    spans_path = work / "spans.jsonl"
    run.tracer.write_jsonl(spans_path)
    print(f"spans: {spans_path} ({len(run.tracer.spans)} spans)")

    checked = CliRun(wall_s=0.0, rss_mb=0.0, cpu_s=0.0, returncode=run.returncode, stub=stats)
    check_run(workload, prepared, checked, out, first_digest)
    problems = [f"traced run: {p}" for p in checked.problems]
    if problems:
        print(run.cli_output[-2000:], file=sys.stderr)
    metrics = traced.layer_metrics(run, stats)
    if workload == "deep-csv" and metrics["forest.splits_per_tree"] < _split_floor(prepared.meta["scale"]):
        problems.append(f"forest.splits_per_tree {metrics['forest.splits_per_tree']:.1f} is below the floor")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}, problems


def machine_meta(seed: int) -> dict:
    import numpy
    import requests

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = result.stdout.strip() or None
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "requests": requests.__version__, "git_commit": commit, "seed": seed}


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="kbforge benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time spent on timed CLI runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input-size multiplier; below 1 only for quick checks of the benchmark")
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    if not (SRC / "kbforge" / "cli.py").is_file():
        raise BenchError(f"no kbforge sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    isolate_env()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    stub = Stub(LLM["stub_delay_ms"]) if args.workload == "llm-stub" else None
    try:
        prepared = prepare(args.workload, args.seed, args.scale, work, stub.base_url if stub else None)
        prepared.meta["scale"] = args.scale
        meta = {"workload": args.workload, **machine_meta(args.seed), "inputs": prepared.meta}
        (work / "meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
        print("meta: " + json.dumps(meta, sort_keys=True))

        import_seconds(work)  # warm the bytecode cache once; every timed start-up reuses it
        setup = [import_seconds(work) for _ in range(SETUP_SAMPLES_FIRST)]
        # A traced run gives half its time to timed CLI runs, then runs the CLI
        # once in process.
        deadline = time.perf_counter() + args.seconds * (0.5 if args.trace else 1.0)
        runs = measure_cli(args.workload, prepared, work, stub, deadline,
                           min_runs=1 if args.trace else 3, setup=setup)
        problems = list(prepared.problems)
        if args.trace:
            first_digest = next((r.digest for r in runs if r.digest), None)
            metrics, traced_problems = per_layer(args.workload, prepared, work, stub, args.seed, first_digest)
            problems += traced_problems
        else:
            metrics = end_to_end(prepared, runs, setup)
    finally:
        if stub is not None:
            stub.close()

    attempted = len(runs)
    failed = sum(1 for r in runs if r.problems)
    if stub is not None:
        attempted += sum(r.stub["requests"] for r in runs if r.stub)
        failed += sum(r.stub["non_200"] for r in runs if r.stub)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    digests = sorted({r.digest for r in runs if r.digest})
    print(f"{args.workload} seed {args.seed}: {len(runs)} CLI runs, artifacts sha256 {', '.join(digests)}")
    print(f"  wall s (median {statistics.median(r.wall_s for r in runs):.3f}): "
          + " ".join(f"{r.wall_s:.3f}" for r in runs))
    print("  CPU s:  " + " ".join(f"{r.cpu_s:.3f}" for r in runs))
    print("  setup s: " + " ".join(f"{x:.3f}" for x in setup))
    if not args.trace:
        for name, metric in metrics.items():
            print(f"  {name:<14} {metric['value']:>12.4f} {metric['unit']}")
    print(f"  {'failed_ratio':<14} {failed / attempted:>12.4f} ratio ({failed}/{attempted})")
    return {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # On SIGTERM unwind normally, so the CLI child and the stub are stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
