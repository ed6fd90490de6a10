"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime so the whole gate can be read at a glance.

Run with ``pytest tests/test_acceptance.py -s``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from kbforge.canonical import REFERENCE_ACCURACY, REFERENCE_PROFILES
from kbforge.cli import main as cli_main
from kbforge.detectors import (
    EndpointStatusError,
    LlmEndpointConfig,
    RuleOracleDetector,
)
from kbforge.evaluation import (
    Cell,
    ConfusionMatrix,
    EvaluationGrid,
    KbConfig,
    accuracy,
    evaluate,
    grid_from_reference,
    per_class_cells,
    select_best_kb,
)
from kbforge.flow_data import ATTACK_LABELS, FEATURE_INDEX, FEATURES, LABEL_CODES, LABELS, AttackLabel, FlowRecord
from kbforge.forest_rank import ForestParams, rank_features_for_attack
from kbforge.kb_builder import structured_kb
from kbforge.profile import compute_profile
from kbforge.synth_traffic import SynthSpec, default_spec, generate_dataset

from conftest import make_record, table_of

GOLDEN_DIR = Path(__file__).parent / "goldens"

ICMP = AttackLabel.ICMP_FLOOD
UDP = AttackLabel.UDP_FLOOD
TCP = AttackLabel.TCP_FLOOD


class _Gate:
    """Times a criterion and prints its PASS/FAIL line."""

    def __init__(self, name: str, budget_s: float | None = None):
        self.name = name
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {verdict} ({elapsed:.2f}s)")
        if exc_type is None and self.budget_s is not None:
            assert elapsed < self.budget_s, (
                f"{self.name} exceeded its runtime budget: {elapsed:.2f}s >= {self.budget_s}s"
            )
        return False


def test_01_canonical_kb_goldens(tmp_path):
    with _Gate("01 canonical-kb-goldens", budget_s=1.0):
        assert cli_main(
            ["kb", "build", "--canonical", "--variant", "both", "--out", str(tmp_path)]
        ) == 0
        run_dir = next(tmp_path.glob("run-*"))
        for golden in sorted((GOLDEN_DIR / "long").glob("*.txt")):
            written = run_dir / "kb" / "long" / golden.name
            assert written.read_bytes() == golden.read_bytes(), f"long KB mismatch: {golden.name}"
        short_combined = run_dir / "kb" / "short" / "combined.txt"
        golden_short = (GOLDEN_DIR / "short" / "combined.txt").read_bytes()
        assert short_combined.read_bytes() == golden_short


def test_02_profile_oracle_equivalence():
    with _Gate("02 profile-oracle-equivalence", budget_s=10.0):
        rng = np.random.Generator(np.random.PCG64(20240901))
        for i in range(1000):
            length = int(rng.integers(1, 10_001))
            values = rng.uniform(-1e9, 1e9, size=length)
            if i % 3 == 0:  # mix in heavy ties so medians land on repeated values
                values = np.round(values / 1e7)
            profile = compute_profile("IAT", values)
            ordered = sorted(float(v) for v in values)
            assert profile.min == ordered[0]
            assert profile.max == ordered[-1]
            assert profile.median == ordered[(length - 1) // 2]


def test_03_accuracy_identities():
    with _Gate("03 accuracy-identities"):
        def empty():
            return np.zeros((len(LABELS), len(LABELS)), dtype=np.int64)

        counts = empty()
        for true, predicted in [(ICMP, ICMP), (ICMP, UDP), (ICMP, ICMP)]:
            counts[LABEL_CODES[true], LABEL_CODES[predicted]] += 1
        cm = ConfusionMatrix(counts)
        assert accuracy(cm) == pytest.approx(2 / 3, abs=0)

        counts = empty()
        counts[LABEL_CODES[ICMP], LABEL_CODES[ICMP]] = 7
        all_right = ConfusionMatrix(counts)
        assert accuracy(all_right) == 1.0

        rng = np.random.Generator(np.random.PCG64(7))
        labels = [*ATTACK_LABELS, AttackLabel.NORMAL, AttackLabel.UNKNOWN]
        for _ in range(100):
            counts = empty()
            for true in labels:
                for predicted in labels:
                    counts[LABEL_CODES[true], LABEL_CODES[predicted]] = rng.integers(0, 50)
            random_cm = ConfusionMatrix(counts)
            per_class = per_class_cells(random_cm)
            weights = {LABELS[code]: n for code, n in enumerate(counts.sum(axis=1).tolist()) if n}
            assert {c: cell.n for c, cell in per_class.items()} == weights
            weighted_mean = sum(cell.accuracy * cell.n for cell in per_class.values()) / random_cm.total
            assert abs(accuracy(random_cm) - weighted_mean) < 1e-12


def test_04_importance_recovery():
    with _Gate("04 importance-recovery", budget_s=30.0):
        for seed in range(5):
            rng = np.random.Generator(np.random.PCG64(seed))
            records = []
            for i in range(2000):
                positive = i % 2 == 0
                features = rng.uniform(0.0, 100.0, len(FEATURES))
                # informative column is an exact function of the class indicator
                features[FEATURE_INDEX["Header Length"]] = 200.0 + 80.0 * (1.0 if positive else 0.0)
                records.append(FlowRecord(features=features, label=ICMP if positive else UDP))
            report = rank_features_for_attack(table_of(records), [ICMP], ForestParams(), seed=seed)[ICMP]
            assert report.ranking[0] == "Header Length", f"seed {seed}: {report.ranking[:3]}"
            assert report.scores["Header Length"] >= 0.9


def _lone_separators(spec: SynthSpec, attack: AttackLabel) -> set[str]:
    """Features whose value window for `attack` is disjoint from every other
    class's window in `spec`.

    A profiled feature draws from ``median ± jitter·min(median−min, max−median)``
    (see ``generate_dataset``); an unprofiled one from its background band
    [lo, hi]. Each such feature splits `attack` from the rest on its own.
    """

    def window(profile, name: str) -> tuple[float, float]:
        fp = profile.get(name)
        if fp is None:
            band = spec.background[name]
            return band.lo, band.hi
        half = spec.jitter * min(fp.median - fp.min, fp.max - fp.median)
        return fp.median - half, fp.median + half

    own = next(p for p in spec.profiles if p.attack is attack)
    others = [p for p in spec.profiles if p.attack is not attack]
    lone = set()
    for name in FEATURES:
        lo, hi = window(own, name)
        if all(hi < o_lo or o_hi < lo for o_lo, o_hi in (window(p, name) for p in others)):
            lone.add(name)
    return lone


def _positive_top3(report) -> list[str]:
    return [name for name in report.ranking if report.scores[name] > 0.0][:3]


def test_05_ranking_recovery_desk_scale():
    # Every expectation follows from the spec ranked here. ICMP has no lone
    # separator, so its importance spreads over several splits that still
    # put Min and Protocol Type on top. UDP's Rate and Srate windows
    # [5238, 9723] each clear the background band [0.5, 5000] every other
    # class draws from, so each bootstrap tree splits UDP off perfectly at
    # the root; the exact tie breaks alphabetically (forest_rank docstring)
    # and all of UDP's importance lands on Rate. (The UDP indicator, pinned
    # at 1.0 against a background that never draws exactly 1.0, also splits
    # perfectly; the closed windows here do not count it as lone, and it
    # sorts after Rate.) UDP's IAT window overlaps ICMP's and PSHACK's (all
    # near 8.3e7), so IAT cannot rank for UDP. TCP's profile has no IAT
    # entry: TCP draws IAT from the background band [1e3, 1e6], far below
    # the three floods that pin it, which makes IAT TCP's only lone
    # separator and its top feature.
    with _Gate("05 ranking-recovery-desk-scale", budget_s=60.0):
        spec = default_spec(n_per_attack=500, jitter=0.3, seed=7)
        records, _ = generate_dataset(spec)

        reports = rank_features_for_attack(records, [ICMP, UDP, TCP], ForestParams(), seed=7)
        icmp_report, udp_report, tcp_report = reports[ICMP], reports[UDP], reports[TCP]

        icmp_top3 = _positive_top3(icmp_report)
        udp_top3 = _positive_top3(udp_report)
        udp_lone = _lone_separators(spec, UDP)
        udp_positive = {name for name, score in udp_report.scores.items() if score > 0.0}
        failures = []
        if "Min" not in icmp_top3:
            failures.append(f"Min not in ICMP positive-score top-3 {icmp_top3}")
        if "Protocol Type" not in icmp_top3:
            failures.append(f"Protocol Type not in ICMP positive-score top-3 {icmp_top3}")
        if "Rate" not in udp_top3:
            failures.append(f"Rate not in UDP positive-score top-3 {udp_top3}")
        if not udp_positive <= udp_lone:
            failures.append(
                f"UDP scores {sorted(udp_positive - udp_lone)} above 0, "
                f"but its lone separators are {sorted(udp_lone)}"
            )
        if tcp_report.ranking[0] != "IAT" or tcp_report.scores["IAT"] <= 0.0:
            failures.append(
                f"IAT not first for TCP with a positive score: top-3 "
                f"{list(tcp_report.ranking[:3])}, IAT score {tcp_report.scores['IAT']:.6f}, "
                f"TCP lone separators {sorted(_lone_separators(spec, TCP))}"
            )
        assert not failures, "; ".join(failures)


def test_06_rule_oracle_round_trip():
    with _Gate("06 rule-oracle-round-trip", budget_s=5.0):
        kb = structured_kb(tuple(REFERENCE_PROFILES.values()))
        backend = RuleOracleDetector(kb)

        exact, _ = generate_dataset(default_spec(n_per_attack=200, jitter=0.0, seed=31))
        cm = evaluate(backend, exact)
        for label, cell in per_class_cells(cm).items():
            assert cell.accuracy == 1.0, f"jitter 0: {label.render()} at {cell.accuracy}"

        jittered, _ = generate_dataset(default_spec(n_per_attack=200, jitter=0.3, seed=31))
        cm = evaluate(backend, jittered)
        assert cm.total == 800
        assert accuracy(cm) >= 0.99


def test_07_wire_protocol_conformance(stub_server, llm_detector):
    with _Gate("07 wire-protocol-conformance"):
        record = make_record(None, **{"Protocol Type": 6.0, "Rate": 450.0})
        config = LlmEndpointConfig(
            base_url=stub_server.base_url,
            model_name="llama3.1:8b",
            request_timeout_s=1.0,
            max_retries=2,
            temperature=0.0,
            backoff_base_s=0.01,
        )

        # request schema, field for field
        stub_server.set_script([{"status": 200, "json": {"response": "DDoS-ICMP_Flood"}}])
        result = llm_detector(config).classify(record)
        assert result is ICMP
        body = stub_server.requests[0]["body"]
        assert stub_server.requests[0]["path"] == "/api/generate"
        assert set(body) == {"model", "prompt", "stream", "options"}
        assert body["model"] == "llama3.1:8b"
        assert body["stream"] is False
        assert set(body["options"]) == {"temperature"}
        assert body["options"]["temperature"] == 0.0

        # scripted 500-500-200: succeeds with two retries, fails with one
        scripted = [
            {"status": 500, "raw": "err"},
            {"status": 500, "raw": "err"},
            {"status": 200, "json": {"response": "DDoS-UDP_Flood"}},
        ]
        stub_server.set_script(scripted)
        assert llm_detector(config).classify(record) is UDP
        stub_server.set_script(scripted)
        one_retry = LlmEndpointConfig(
            base_url=stub_server.base_url,
            request_timeout_s=1.0,
            max_retries=1,
            backoff_base_s=0.01,
        )
        with pytest.raises(EndpointStatusError):
            llm_detector(one_retry).classify(record)

        # timeout honored
        from kbforge.detectors import EndpointTimeout

        stub_server.set_script([{"status": 200, "json": {"response": "x"}, "delay": 0.8}])
        tight = LlmEndpointConfig(
            base_url=stub_server.base_url,
            request_timeout_s=0.15,
            max_retries=0,
            backoff_base_s=0.01,
        )
        with pytest.raises(EndpointTimeout):
            llm_detector(tight).classify(record)

        # fixture responses parse to the expected labels
        fixtures = [
            ("The most likely attack type is DDoS-TCP_Flood.", AttackLabel.TCP_FLOOD),
            ("Answer: DDoS-PSHACK_Flood", AttackLabel.PSHACK_FLOOD),
            ("this is benign, Normal traffic", AttackLabel.NORMAL),
            ("hard to say", AttackLabel.UNKNOWN),
        ]
        for text, expected in fixtures:
            stub_server.set_script([{"status": 200, "json": {"response": text}}])
            assert llm_detector(config).classify(record) is expected


def test_08_artifact_determinism(tmp_path):
    with _Gate("08 artifact-determinism"):
        commands = [
            ("rank",),
            ("profile",),
            ("kb", "build", "--generated", "--variant", "both"),
            ("synth",),
            ("eval", "--backend", "rule-oracle", "--n-per-class", "40"),
        ]
        common = ("--synth", "--n-per-attack", "60", "--seed", "11", "--jitter", "0.3")
        for i, argv in enumerate(commands):
            dirs = []
            for attempt in ("a", "b"):
                out = tmp_path / f"{i}-{attempt}"
                assert cli_main([*argv, *common, "--out", str(out)]) == 0
                dirs.append(next(out.glob("run-*")))
            first = {
                p.relative_to(dirs[0]): p.read_bytes() for p in sorted(dirs[0].rglob("*")) if p.is_file()
            }
            second = {
                p.relative_to(dirs[1]): p.read_bytes() for p in sorted(dirs[1].rglob("*")) if p.is_file()
            }
            assert first == second, f"{argv} artifacts differ between identical runs"


def test_09_best_kb_selection_on_reference_rows():
    with _Gate("09 best-kb-selection"):
        grid = grid_from_reference(REFERENCE_ACCURACY)
        expectations = [
            ("llama3.1:8b", ICMP, KbConfig.LONG_KB),
            ("llama3.1:8b", AttackLabel.TCP_FLOOD, KbConfig.SHORT_KB),
            ("llama3.1:8b", AttackLabel.PSHACK_FLOOD, KbConfig.LONG_KB),
            ("phi3:medium", UDP, KbConfig.SHORT_KB),
            ("gemma2:9b", ICMP, KbConfig.LONG_KB),
            ("gemma2:9b", UDP, KbConfig.LONG_KB),
            ("gemma2:9b", AttackLabel.TCP_FLOOD, KbConfig.SHORT_KB),  # 0/0/0 tie
            ("llama3.2:3b", UDP, KbConfig.SHORT_KB),
            ("phi3:mini", AttackLabel.PSHACK_FLOOD, KbConfig.SHORT_KB),
        ]
        for backend, attack, expected in expectations:
            chosen = select_best_kb(grid, backend)[attack]
            assert chosen is expected, f"{backend}/{attack.render()}: {chosen} != {expected}"
        # sanity on the two headline cells
        assert grid.cells[(UDP, KbConfig.LONG_KB, "gemma2:9b")].accuracy == 1.0
        assert grid.cells[(UDP, KbConfig.SHORT_KB, "llama3.2:3b")].accuracy == 0.538


LIVE_URL = os.environ.get("KBFORGE_LIVE_BASE_URL")


@pytest.mark.skipif(
    not LIVE_URL,
    reason="live integration runs only when KBFORGE_LIVE_BASE_URL points at an endpoint",
)
def test_10_live_endpoint_integration(tmp_path):
    with _Gate("10 live-endpoint-integration"):
        model = os.environ.get("KBFORGE_LIVE_MODEL", "llama3.2:3b")
        code = cli_main(
            [
                "eval", "--backend", "llm", "--synth",
                "--n-per-attack", "10", "--n-per-class", "5",
                "--base-url", LIVE_URL, "--model", model,
                "--seed", "1", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        grid_path = next(tmp_path.glob("run-*")) / "eval" / "grid.json"
        grid = EvaluationGrid.from_json(grid_path.read_text(encoding="utf-8"))
        configs = {config for (_, config, _) in grid.cells}
        attacks = {attack for (attack, _, _) in grid.cells}
        assert configs == {KbConfig.NO_KB, KbConfig.LONG_KB, KbConfig.SHORT_KB}
        assert attacks == set(REFERENCE_PROFILES)
        for cell in grid.cells.values():
            assert isinstance(cell, Cell) and 0.0 <= cell.accuracy <= 1.0
