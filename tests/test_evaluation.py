from __future__ import annotations

import collections
import itertools
import sys
import threading
import time

import numpy as np
import pytest

from kbforge.canonical import REFERENCE_ACCURACY, REFERENCE_PROFILES
from kbforge.detectors import (
    EndpointStatusError,
    LlmDetector,
    LlmEndpointConfig,
    ReplayMissError,
    RuleOracleConfig,
    RuleOracleDetector,
    TransportError,
)
from kbforge.evaluation import (
    Cell,
    ConfusionMatrix,
    EvaluationError,
    EvaluationGrid,
    KbConfig,
    accuracy,
    evaluate,
    grid_from_reference,
    per_class_cells,
    predict,
    render_table,
    select_best_kb,
)
from kbforge.flow_data import ATTACK_LABELS, LABEL_CODES, LABELS, AttackLabel, FlowTable
from kbforge.kb_builder import structured_kb
from kbforge.synth_traffic import default_spec, generate_dataset

from conftest import make_record, table_of

ICMP = AttackLabel.ICMP_FLOOD
UDP = AttackLabel.UDP_FLOOD
TCP = AttackLabel.TCP_FLOOD
PSHACK = AttackLabel.PSHACK_FLOOD


class PerRow:
    """A backend that offers only classify, so evaluate takes the per-row path."""

    def __init__(self, inner):
        self.inner = inner
        self.backend_id = inner.backend_id

    def classify(self, record, kb=None):
        return self.inner.classify(record, kb)


def cm_of(*pairs):
    counts = np.zeros((len(LABELS), len(LABELS)), dtype=np.int64)
    for true, predicted in pairs:
        counts[LABEL_CODES[true], LABEL_CODES[predicted]] += 1
    return ConfusionMatrix(counts)


def off_diagonal(cm):
    return cm.counts * (1 - np.eye(len(LABELS), dtype=np.int64))


class TestAccuracy:
    def test_hand_counted_two_thirds(self):
        cm = cm_of((ICMP, ICMP), (ICMP, UDP), (ICMP, ICMP))
        assert accuracy(cm) == pytest.approx(2 / 3)

    def test_all_correct(self):
        cm = cm_of((ICMP, ICMP), (UDP, UDP))
        assert accuracy(cm) == 1.0

    def test_fraction_formats_as_table_percentage(self):
        grid = EvaluationGrid()
        grid.set(ICMP, KbConfig.NO_KB, "m", Cell(0.978, 500))
        text, _, _ = render_table(grid)
        assert "97.80%" in text

    def test_empty_matrix_rejected(self):
        with pytest.raises(EvaluationError):
            accuracy(cm_of())

    def test_accuracy_one_iff_diagonal(self):
        diag = cm_of((ICMP, ICMP), (UDP, UDP))
        off = cm_of((ICMP, ICMP), (UDP, ICMP))
        assert accuracy(diag) == 1.0
        assert accuracy(off) < 1.0


class TestPerClassAccuracy:
    def test_diagonal_only(self):
        cm = cm_of((ICMP, ICMP), (UDP, UDP), (UDP, UDP))
        assert per_class_cells(cm) == {ICMP: Cell(1.0, 1), UDP: Cell(1.0, 2)}

    def test_partial(self):
        pairs = [(ICMP, ICMP)] * 489 + [(ICMP, UDP)] * 11
        cm = cm_of(*pairs)
        assert per_class_cells(cm)[ICMP].accuracy == pytest.approx(0.978)
        assert per_class_cells(cm)[ICMP] == Cell(489 / 500, 500)

    def test_absent_class_omitted(self):
        cm = cm_of((ICMP, ICMP))
        assert TCP not in per_class_cells(cm)

    def test_overall_is_weighted_mean_of_per_class(self):
        rng = np.random.Generator(np.random.PCG64(0))
        labels = [*ATTACK_LABELS, AttackLabel.NORMAL, AttackLabel.UNKNOWN]
        for _ in range(100):
            counts = np.zeros((len(LABELS), len(LABELS)), dtype=np.int64)
            for true in labels:
                for predicted in labels:
                    counts[LABEL_CODES[true], LABEL_CODES[predicted]] = rng.integers(0, 40)
            cm = ConfusionMatrix(counts)
            per_class = per_class_cells(cm)
            weights = {LABELS[code]: n for code, n in enumerate(counts.sum(axis=1).tolist()) if n}
            assert {c: cell.n for c, cell in per_class.items()} == weights
            weighted = sum(cell.accuracy * cell.n for cell in per_class.values()) / cm.total
            assert abs(accuracy(cm) - weighted) < 1e-12


class TestConfusionJson:
    def test_every_cell_serialises_in_rendered_name_order(self):
        counts = np.arange(1, len(LABELS) ** 2 + 1).reshape(len(LABELS), len(LABELS))
        payload = ConfusionMatrix(counts, error_count=3).to_dict()
        code_of = {label.render(): LABEL_CODES[label] for label in LABELS}
        names = [(row["true"], row["predicted"]) for row in payload["counts"]]
        assert names == sorted((true.render(), predicted.render()) for true in LABELS for predicted in LABELS)
        assert [row["count"] for row in payload["counts"]] == [counts[code_of[t], code_of[p]] for t, p in names]
        assert (payload["total"], payload["error_count"]) == (counts.sum(), 3)

    def test_zero_cells_are_left_out(self):
        payload = cm_of((ICMP, ICMP), (ICMP, UDP), (ICMP, ICMP)).to_dict()
        assert payload == {
            "total": 3,
            "error_count": 0,
            "counts": [
                {"true": "DDoS-ICMP_Flood", "predicted": "DDoS-ICMP_Flood", "count": 2},
                {"true": "DDoS-ICMP_Flood", "predicted": "DDoS-UDP_Flood", "count": 1},
            ],
        }


class TestEvaluate:
    def test_rule_oracle_on_jitter_zero_is_diagonal(self):
        records, _ = generate_dataset(default_spec(n_per_attack=30, jitter=0.0, seed=2))
        backend = RuleOracleDetector(structured_kb(tuple(REFERENCE_PROFILES.values())))
        cm = evaluate(backend, records)
        assert accuracy(cm) == 1.0
        assert not off_diagonal(cm).any()

    def test_all_normal_responses_zero_diagonal(self):
        class AlwaysNormal:
            backend_id = "stub"

            def classify(self, record, kb=None):
                return AttackLabel.NORMAL

        records, _ = generate_dataset(default_spec(n_per_attack=5, jitter=0.0, seed=1))
        cm = evaluate(AlwaysNormal(), records)
        assert accuracy(cm) == 0.0

    def test_empty_record_list(self):
        backend = RuleOracleDetector(structured_kb(tuple(REFERENCE_PROFILES.values())))
        cm = evaluate(backend, table_of([]))
        assert cm.total == 0

    def test_unlabeled_record_rejected(self):
        backend = RuleOracleDetector(structured_kb(tuple(REFERENCE_PROFILES.values())))
        with pytest.raises(EvaluationError):
            evaluate(backend, table_of([make_record(None)]))

    def test_strict_aborts_on_transport_error_best_effort_counts(self):
        class Flaky:
            backend_id = "flaky"

            def __init__(self):
                self.calls = itertools.count(1)

            def classify(self, record, kb=None):
                from kbforge.detectors import EndpointTimeout

                if next(self.calls) == 1:
                    raise EndpointTimeout("slow")
                return record.label

        records, _ = generate_dataset(default_spec(n_per_attack=2, jitter=0.0, seed=3))
        for workers in (1, 4):
            with pytest.raises(TransportError):
                evaluate(Flaky(), records, strict=True, workers=workers)
            cm = evaluate(Flaky(), records, strict=False, workers=workers)
            assert cm.error_count == 1
            assert cm.total == len(records) - 1

    def test_threaded_strict_run_stops_requesting_at_first_transport_error(self, stub_server):
        stub_server.set_script([{"status": 400, "raw": "bad request", "delay": 0.2}])
        workers = 4
        detector = LlmDetector(LlmEndpointConfig(
            base_url=stub_server.base_url, request_timeout_s=2.0, max_in_flight=workers,
        ))
        records = table_of([make_record(AttackLabel.UDP_FLOOD) for _ in range(100)])
        with pytest.raises(EndpointStatusError):
            evaluate(detector, records, strict=True, workers=workers)
        assert len(stub_server.requests) <= workers

    @pytest.mark.parametrize("error", [ReplayMissError("no such digest"), KeyboardInterrupt()],
                             ids=["replay-miss", "interrupt"])
    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "best-effort"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_uncounted_error_on_any_thread_stops_the_run_and_reaches_the_caller(self, error, strict, workers):
        class Failing:
            backend_id = "failing"

            def __init__(self):
                self.calls = itertools.count(1)

            def classify(self, record, kb=None):
                if next(self.calls) > 1:
                    time.sleep(0.05)  # still classifying when the first call fails
                    return record.label
                raise error

        backend = Failing()
        records, _ = generate_dataset(default_spec(n_per_attack=5, jitter=0.0, seed=3))
        with pytest.raises(type(error)):
            evaluate(backend, records, strict=strict, workers=workers)
        assert next(backend.calls) - 1 <= workers  # no thread takes a record after the failure

    def test_many_threads_on_few_cores_classify_every_record_exactly_once(self):
        oracle = RuleOracleDetector(structured_kb(tuple(REFERENCE_PROFILES.values())))

        class Recording:
            """The oracle's per-row verdicts, noting every record it is handed."""

            backend_id = "recording"

            def __init__(self):
                self.lock = threading.Lock()
                self.seen = collections.Counter()

            def classify(self, record, kb=None):
                with self.lock:
                    self.seen[tuple(record.features.values())] += 1
                return oracle.classify(record, kb)

        records, _ = generate_dataset(default_spec(n_per_attack=150, jitter=0.3, seed=6))
        every_record_once = collections.Counter(tuple(record.features.values()) for record in records)
        expected = evaluate(PerRow(oracle), records, workers=1).counts
        runs = []

        def run_repeatedly():  # a lost update shows in some runs, not in every one
            for _ in range(10):
                backend = Recording()
                runs.append((backend.seen, evaluate(backend, records, workers=8).counts))

        runner = threading.Thread(target=run_repeatedly, daemon=True)  # a hung run cannot hold up exit
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive() and len(runs) == 10
        for seen, counts in runs:
            assert seen == every_record_once
            assert np.array_equal(counts, expected)

    def test_worker_count_does_not_change_counts(self):
        records, _ = generate_dataset(default_spec(n_per_attack=20, jitter=0.3, seed=4))
        backend = PerRow(RuleOracleDetector(structured_kb(tuple(REFERENCE_PROFILES.values()))))
        sequential = evaluate(backend, records, workers=1)
        threaded = evaluate(backend, records, workers=4)
        assert np.array_equal(sequential.counts, threaded.counts)

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
    def test_table_path_equals_per_row_path(self, strict):
        table, _ = generate_dataset(default_spec(n_per_attack=40, jitter=1.0, seed=5))
        # Zero about 30 % of the values, so that verdicts spread off the diagonal.
        zeroed = np.random.Generator(np.random.PCG64(5)).random(table.X.shape) < 0.3
        records = FlowTable(np.where(zeroed, 0.0, table.X), table.codes)
        oracle = RuleOracleDetector(
            structured_kb(tuple(REFERENCE_PROFILES.values())), RuleOracleConfig(mandatory_strict=strict)
        )
        cm = evaluate(oracle, records)
        assert cm.to_dict() == evaluate(PerRow(oracle), records).to_dict()
        assert np.count_nonzero(off_diagonal(cm).sum(axis=1)) > 1  # several true classes misread


class TestPredict:
    @pytest.mark.parametrize("workers", [1, 8])
    def test_per_row_backend_gives_the_reference_codes_in_row_order(self, workers):
        table, _ = generate_dataset(default_spec(n_per_attack=30, jitter=1.0, seed=8))
        zeroed = np.random.Generator(np.random.PCG64(8)).random(table.X.shape) < 0.3
        unlabeled = FlowTable(np.where(zeroed, 0.0, table.X), np.full(len(table), -1, dtype=np.int8))
        oracle = RuleOracleDetector(structured_kb(tuple(REFERENCE_PROFILES.values())))
        reference = [LABEL_CODES[oracle.classify(record)] for record in unlabeled]
        assert predict(PerRow(oracle), unlabeled, workers=workers).tolist() == reference
        assert predict(oracle, unlabeled).tolist() == reference  # the table path
        assert len(set(reference)) > 2

    @pytest.mark.parametrize("workers", [1, 4])
    def test_best_effort_marks_the_row_whose_transport_failed(self, workers):
        class FailsOnRate7:
            backend_id = "flaky"

            def classify(self, record, kb=None):
                if record.features["Rate"] == 7.0:
                    raise TransportError("timed out")
                return AttackLabel.NORMAL

        table = table_of([make_record(Rate=float(rate)) for rate in range(10)])
        normal = LABEL_CODES[AttackLabel.NORMAL]
        predicted = predict(FailsOnRate7(), table, strict=False, workers=workers)
        assert predicted.tolist() == [normal] * 7 + [-1] + [normal] * 2


class TestGrid:
    def test_json_round_trip_lossless(self):
        grid = grid_from_reference(REFERENCE_ACCURACY)
        again = EvaluationGrid.from_json(grid.to_json())
        assert again.cells == grid.cells
        assert EvaluationGrid.from_json(again.to_json()).to_json() == grid.to_json()

    def test_render_layout(self):
        grid = grid_from_reference({"m": REFERENCE_ACCURACY["llama3.1:8b"]})
        text, csv_text, json_text = render_table(grid)
        lines = text.strip().split("\n")
        assert len(lines) == 2 + 4  # header, divider, four attack rows
        assert lines[0].startswith("Attack Type")
        assert "100.00%" in text
        assert csv_text.splitlines()[0] == "attack,kb_config,backend_id,accuracy,n"

    def test_empty_grid_rejected(self):
        with pytest.raises(EvaluationError):
            render_table(EvaluationGrid())
        with pytest.raises(EvaluationError):
            select_best_kb(EvaluationGrid(), "m")


class TestSelectBestKb:
    def test_reference_rows(self):
        grid = grid_from_reference(REFERENCE_ACCURACY)
        gemma = select_best_kb(grid, "gemma2:9b")
        assert gemma[UDP] is KbConfig.LONG_KB
        llama_small = select_best_kb(grid, "llama3.2:3b")
        assert llama_small[UDP] is KbConfig.SHORT_KB

    def test_tie_prefers_short_then_long(self):
        grid = EvaluationGrid()
        for config in KbConfig:
            grid.set(ICMP, config, "m", Cell(0.5, 10))
        assert select_best_kb(grid, "m")[ICMP] is KbConfig.SHORT_KB
        grid2 = EvaluationGrid()
        grid2.set(ICMP, KbConfig.NO_KB, "m", Cell(0.5, 10))
        grid2.set(ICMP, KbConfig.LONG_KB, "m", Cell(0.5, 10))
        assert select_best_kb(grid2, "m")[ICMP] is KbConfig.LONG_KB

    def test_argmax_invariant_under_positive_scaling(self):
        grid = grid_from_reference(REFERENCE_ACCURACY)
        scaled = EvaluationGrid()
        for (attack, config, backend), cell in grid.cells.items():
            scaled.set(attack, config, backend, Cell(cell.accuracy * 0.5, cell.n))
        for backend in grid.backends():
            assert select_best_kb(grid, backend) == select_best_kb(scaled, backend)
