"""Traced in-process run of one benchmark workload.

Runs ``kbforge.cli.main`` in this process with the public functions it calls
wrapped on their modules, and records one span per call from outside the
program: name, start, end, parent span and run id. Spans stay in memory and
are written as JSON lines when the run ends. Tracing inside kbforge itself is
left to the program.

Imported by ``run.py`` after it has put the checkout's ``src`` on
``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from kbforge import cli, evaluation, flow_data, forest_rank, kb_builder, profile, prompting, synth_traffic

from stub_llm import answer_for

CLI = "cli.main"
CLASSIFY = "detector.classify"
KB_RENDER = "micro.kb_render"

#: Public functions the CLI calls through their modules; each call becomes a span.
TRACED_CALLS = (
    (synth_traffic, "generate_dataset"),
    (flow_data, "load_dataset"),
    (flow_data, "write_dataset"),
    (flow_data, "stratified_sample"),
    (forest_rank, "rank_features_for_attack"),
    (forest_rank, "fit_forest"),
    (forest_rank, "write_report"),
    (profile, "build_attack_profile"),
    (kb_builder, "canonical_kb"),
    (kb_builder, "render_long_kb"),
    (kb_builder, "derive_key_features"),
    (kb_builder, "render_short_kb"),
    (kb_builder, "structured_kb"),
    (evaluation, "write_grid_artifacts"),
)


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; safe to use from several threads."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Time the block as a child of `parent`, or of this thread's open span."""
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, parent, name, start, end))

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the part of it that its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent_id is not None:
                children.setdefault(s.parent_id, []).append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for start, end in sorted(children.get(s.span_id, ())):
                start, end = max(start, cursor), min(end, s.end)
                if end > start:
                    covered += end - start
                    cursor = end
            out[s.span_id] = s.duration - covered
        return out

    def write_jsonl(self, path: Path) -> None:
        self_times = self.self_times()
        origin = min((s.start for s in self.spans), default=0.0)
        with path.open("w", encoding="utf-8") as handle:
            for s in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps({
                    "run_id": self.run_id,
                    "span_id": s.span_id,
                    "parent_id": s.parent_id,
                    "name": s.name,
                    "start_s": s.start - origin,
                    "end_s": s.end - origin,
                    "self_s": self_times[s.span_id],
                }) + "\n")

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)


class TracedDetector:
    """Wraps a detector so that each classify call is a child span of `parent`."""

    def __init__(self, inner, tracer: Tracer, parent: int):
        self.inner = inner
        self.tracer = tracer
        self.parent = parent
        self.backend_id = inner.backend_id

    def classify(self, record, kb=None):
        with self.tracer.span(CLASSIFY, parent=self.parent):
            return self.inner.classify(record, kb)


@dataclass
class TracedRun:
    tracer: Tracer
    kb_configs: list[str]
    returncode: int | None = None
    cli_output: str = ""
    #: Span name -> return value of each call, in call order.
    results: dict[str, list] = field(default_factory=dict)
    #: KB config name -> (detector, kb) the CLI passed to evaluate.
    evaluated: dict[str, tuple] = field(default_factory=dict)
    micro: dict = field(default_factory=dict)

    def returned(self, name: str) -> list:
        return self.results.get(name, [])


@contextmanager
def traced_modules(run: TracedRun):
    """Swap each public function in TRACED_CALLS, and ``evaluation.evaluate``,
    for a wrapper that records a span and keeps what the call returned."""
    t = run.tracer
    saved = []

    def install(module, attr: str, wrapper) -> None:
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def spanned(name: str, fn):
        def wrapper(*args, **kwargs):
            result = t.call(name, fn, *args, **kwargs)
            run.results.setdefault(name, []).append(result)
            return result
        return wrapper

    evaluate = evaluation.evaluate

    def traced_evaluate(backend, records, kb=None, **kwargs):
        # The CLI evaluates the configs of eval.kb_configs in order, one call each.
        name = run.kb_configs[len(run.evaluated)]
        run.evaluated[name] = (backend, kb)
        with t.span(f"evaluation.evaluate:{name}") as span_id:
            return evaluate(TracedDetector(backend, t, span_id), records, kb, **kwargs)

    try:
        for module, attr in TRACED_CALLS:
            install(module, attr, spanned(f"{module.__name__.rpartition('.')[2]}.{attr}", getattr(module, attr)))
        install(evaluation, "evaluate", traced_evaluate)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def micro_metrics(run: TracedRun) -> dict[str, float]:
    """Cost of rendering every KB form from the profiles the run built, and
    per-call costs of prompt build, parse and digest on the run's sample, with
    the long KB the CLI sent (or, for backends that take no text KB, the
    rendered one) and the stub's replies."""
    t = run.tracer
    out = {"kb.render_s": 0.0, "kb.long_chars": 0, "prompt.us_per_call": 0.0, "prompt.chars_mean": 0.0,
           "parse.us_per_call": 0.0, "digest.us_per_record": 0.0}
    detector, long_kb = run.evaluated.get("long_kb", (None, None))
    profiles = run.returned("profile.build_attack_profile")
    if profiles:
        with t.span(KB_RENDER):
            rendered = t.call("kb_builder.render_long_kb", kb_builder.render_long_kb, profiles)
            keys = t.call("kb_builder.derive_key_features", kb_builder.derive_key_features, profiles)
            t.call("kb_builder.render_short_kb", kb_builder.render_short_kb, keys)
            t.call("kb_builder.structured_kb", kb_builder.structured_kb, profiles)
        out["kb.render_s"] = t.total(KB_RENDER)
        long_kb = long_kb or rendered
    samples = run.returned("flow_data.stratified_sample")
    if long_kb is None or not samples:
        return out
    out["kb.long_chars"] = len(long_kb.combined_text())
    sample = samples[0]
    n = len(sample)
    mode = getattr(detector, "mode", prompting.DescribeMode.QUALITATIVE)
    with t.span("prompting.build_prompt"):
        prompts = [prompting.build_prompt(r, long_kb, mode) for r in sample]
    replies = [answer_for(p.text) for p in prompts]
    with t.span("prompting.parse_response"):
        for reply in replies:
            prompting.parse_response(reply)
    with t.span("prompting.record_digest"):
        for r in sample:
            prompting.record_digest(r)
    out["prompt.us_per_call"] = t.total("prompting.build_prompt") / n * 1e6
    out["prompt.chars_mean"] = statistics.fmean(len(p.text) for p in prompts)
    out["parse.us_per_call"] = t.total("prompting.parse_response") / n * 1e6
    out["digest.us_per_record"] = t.total("prompting.record_digest") / n * 1e6
    return out


def tree_stats(node, depth: int = 0) -> tuple[int, int]:
    """(split count, deepest split level reached) of one tree."""
    if isinstance(node, forest_rank.Leaf):
        return 0, depth
    left_splits, left_depth = tree_stats(node.left, depth + 1)
    right_splits, right_depth = tree_stats(node.right, depth + 1)
    return 1 + left_splits + right_splits, max(left_depth, right_depth)


def _percentile_ms(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1000.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000.0


def traced_run(argv: list[str], run_id: str) -> TracedRun:
    """Run ``python -m kbforge <argv>`` as ``cli.main(argv)`` in this process, traced.
    The CLI's stdout and stderr are kept in ``cli_output``."""
    config = cli.build_config(cli.build_parser().parse_args(argv))
    run = TracedRun(Tracer(run_id), kb_configs=list(config["eval"]["kb_configs"]))
    output = io.StringIO()
    with traced_modules(run), contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        run.returncode = run.tracer.call(CLI, cli.main, argv)
    run.cli_output = output.getvalue()
    run.micro = micro_metrics(run)
    return run


def layer_metrics(run: TracedRun, stub_stats: dict | None) -> dict[str, float]:
    """Per-layer metrics from the spans and return values of one traced run and
    the stub's counters over that run."""
    t = run.tracer
    metrics: dict[str, float] = {}
    synth_s = t.total("synth_traffic.generate_dataset")
    flows = sum(summary.record_count for _, summary in run.returned("synth_traffic.generate_dataset"))
    metrics["synth.s"] = synth_s
    metrics["synth.flows"] = flows
    metrics["synth.us_per_flow"] = synth_s / flows * 1e6 if flows else 0.0

    ingest_s = t.total("flow_data.load_dataset")
    ingested = [summary for _, summary in run.returned("flow_data.load_dataset")]
    rows = sum(s.record_count for s in ingested)
    metrics["ingest.s"] = ingest_s
    metrics["ingest.rows"] = rows
    metrics["ingest.rows_skipped"] = sum(s.skipped_count for s in ingested)
    metrics["ingest.us_per_row"] = ingest_s / rows * 1e6 if rows else 0.0
    metrics["sample.s"] = t.total("flow_data.stratified_sample")

    trees = [tree for forest in run.returned("forest_rank.fit_forest") for tree in forest.trees]
    stats = [tree_stats(tree) for tree in trees]
    fit_s = t.total("forest_rank.fit_forest")
    metrics["forest.fit_s"] = fit_s
    metrics["forest.trees"] = len(trees)
    metrics["forest.s_per_tree"] = fit_s / len(trees) if trees else 0.0
    metrics["forest.splits_per_tree"] = statistics.fmean(s for s, _ in stats) if stats else 0.0
    metrics["forest.max_depth_reached"] = max((d for _, d in stats), default=0)

    metrics["profile.s"] = t.total("profile.build_attack_profile")
    metrics.update(run.micro)

    durations = [s.duration for s in t.spans if s.name == CLASSIFY]
    backend_ids = {detector.backend_id for detector, _ in run.evaluated.values()}
    oracle = any(b.startswith("rule-oracle") for b in backend_ids)
    metrics["oracle.us_per_record"] = statistics.fmean(durations) * 1e6 if oracle and durations else 0.0
    llm_durations = durations if any(b.startswith("llm") for b in backend_ids) else []
    metrics["llm.classify_p50_ms"] = _percentile_ms(llm_durations, 50)
    metrics["llm.classify_p99_ms"] = _percentile_ms(llm_durations, 99)
    stats = stub_stats or {"requests": 0, "connections_opened": 0, "non_200": 0, "max_concurrent": 0}
    metrics["llm.requests"] = stats["requests"]
    metrics["llm.retries"] = stats["requests"] - len(llm_durations)
    metrics["llm.failed"] = stats["non_200"]
    metrics["llm.connections_opened"] = stats["connections_opened"]
    metrics["stub.max_concurrent"] = stats["max_concurrent"]
    for name in ("no_kb", "long_kb", "short_kb"):
        metrics[f"evaluate.{name}.s"] = t.total(f"evaluation.evaluate:{name}")
    metrics["grid.write_s"] = t.total("evaluation.write_grid_artifacts")
    # CLI glue no public call covers: the CLI's own time less its top-level spans.
    (cli_span,) = (s for s in t.spans if s.name == CLI)
    metrics["cli.unaccounted_s"] = cli_span.duration - sum(
        s.duration for s in t.spans if s.parent_id == cli_span.span_id)
    return metrics
