"""Accuracy accounting: confusion matrices, per-class accuracy, the
attack-by-KB-configuration grid, and best-KB selection."""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .flow_data import (
    ATTACK_LABELS,
    LABEL_CODES,
    LABELS,
    AttackLabel,
    FlowTable,
    canonicalize_label,
)
from .params import KbConfig, unique_keys

if TYPE_CHECKING:
    from .detectors import Detector


#: Tie-break precedence for select_best_kb: the smaller KB wins equal accuracy.
KB_PRECEDENCE: tuple[KbConfig, ...] = (KbConfig.SHORT_KB, KbConfig.LONG_KB, KbConfig.NO_KB)


class EvaluationError(Exception):
    pass


@dataclass(eq=False)
class ConfusionMatrix:
    counts: np.ndarray  # (true, predicted) counts, both indexed by flow_data.LABEL_CODES
    error_count: int = 0  # transport failures excluded from total (best-effort runs)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def to_dict(self) -> dict:
        """The nonzero cells, sorted by rendered (true, predicted) names."""
        names = [label.render() for label in LABELS]
        cells = ((names[true], names[predicted], int(n)) for (true, predicted), n in np.ndenumerate(self.counts) if n)
        rows = [{"true": true, "predicted": predicted, "count": n} for true, predicted, n in sorted(cells)]
        return {"total": self.total, "error_count": self.error_count, "counts": rows}


def accuracy(cm: ConfusionMatrix) -> float:
    """Fraction of exact label matches (the delta-function average)."""
    if cm.total == 0:
        raise EvaluationError("cannot compute accuracy of an empty matrix")
    return int(np.trace(cm.counts)) / cm.total


def per_class_cells(cm: ConfusionMatrix) -> dict[AttackLabel, Cell]:
    """Recall and sample count per true class; classes with no samples are omitted."""
    totals = cm.counts.sum(axis=1).tolist()
    return {LABELS[code]: Cell(int(cm.counts[code, code]) / n, n) for code, n in enumerate(totals) if n}


def predict(backend: Detector, table: FlowTable, kb=None, *, strict: bool = True, workers: int = 1) -> np.ndarray:
    """Each row's verdict as a label code, in row order; -1 marks a row whose
    transport failed in a best-effort run.

    A backend with `classify_table` (the rule oracle) labels the whole matrix
    in one call. Any other backend gets one `classify(record, kb)` per row:
    `workers` threads, the caller's among them, take row indices from one
    iterator; with one worker no thread starts and the caller classifies the
    rows in order. In strict mode a transport failure aborts the run. The
    first exception the run does not count stops every thread from taking
    another row, and is raised once all threads have joined."""
    if hasattr(backend, "classify_table"):
        return backend.classify_table(table.X)
    from .detectors import TransportError  # here, so that `select` loads no detector stack

    predicted = np.full(len(table), -1, dtype=np.intp)
    rows = iter(range(len(table)))
    lock = threading.Lock()
    failures: list[BaseException] = []

    def work(helpers: list[threading.Thread]) -> None:
        try:
            for thread in helpers:
                thread.start()
            while True:
                with lock:
                    i = None if failures else next(rows, None)
                if i is None:
                    return
                try:
                    predicted[i] = LABEL_CODES[backend.classify(table[i], kb)]
                except TransportError:
                    if strict:
                        raise  # a best-effort run leaves the row at -1
        except BaseException as exc:  # KeyboardInterrupt too: raised below, after the joins
            with lock:
                failures.append(exc)

    threads = [threading.Thread(target=work, args=([],)) for _ in range(workers - 1)]
    work(threads)  # the caller classifies too, once it has started the others
    for thread in threads:
        if thread.is_alive():  # a thread that failed to start has nothing to join
            thread.join()
    if failures:
        raise failures[0]
    return predicted


def evaluate(
    backend: Detector,
    table: FlowTable,
    kb=None,
    *,
    strict: bool = True,
    workers: int = 1,
) -> ConfusionMatrix:
    """Tally the (true, predicted) label codes of `predict`'s verdicts. A
    best-effort run counts each row whose transport failed in error_count
    and leaves it out of the total; worker count never changes the result."""
    if (table.codes < 0).any():
        raise EvaluationError("evaluate requires every record to be labeled")
    predicted = predict(backend, table, kb, strict=strict, workers=workers)
    done = predicted >= 0
    n = len(LABELS)
    cells = table.codes[done].astype(np.intp) * n + predicted[done]
    return ConfusionMatrix(np.bincount(cells, minlength=n * n).reshape(n, n), len(table) - int(done.sum()))


@dataclass(frozen=True)
class Cell:
    accuracy: float
    n: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy must lie in [0, 1]")
        if self.n < 0:
            raise ValueError("cell sample count must be >= 0")


@dataclass
class EvaluationGrid:
    cells: dict[tuple[AttackLabel, KbConfig, str], Cell] = field(default_factory=dict)

    def set(self, attack: AttackLabel, config: KbConfig, backend_id: str, cell: Cell) -> None:
        self.cells[(attack, config, backend_id)] = cell

    def backends(self) -> list[str]:
        return sorted({backend for (_, _, backend) in self.cells})

    def attacks(self) -> list[AttackLabel]:
        present = {attack for (attack, _, _) in self.cells}
        return [a for a in ATTACK_LABELS if a in present] + sorted(
            (a for a in present if a not in ATTACK_LABELS), key=lambda l: l.render()
        )

    def sorted_cells(self) -> list[tuple[tuple[AttackLabel, KbConfig, str], Cell]]:
        """The cells by attack name, KB configuration, then backend: the row
        order of grid.json and grid.csv."""
        return sorted(self.cells.items(), key=lambda kv: (kv[0][0].render(), kv[0][1].value, kv[0][2]))

    def to_json(self) -> str:
        rows = [
            {
                "attack": attack.render(),
                "kb_config": config.value,
                "backend_id": backend,
                "accuracy": cell.accuracy,
                "n": cell.n,
            }
            for (attack, config, backend), cell in self.sorted_cells()
        ]
        return json.dumps({"cells": rows}, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "EvaluationGrid":
        """The grid of a to_json text. A cell value of another JSON type than
        to_json's raises TypeError; an object that repeats a key, an attack
        that matches no label (Normal and Unknown are labels) or a cell an
        earlier row gave, ValueError."""
        grid = EvaluationGrid()
        for row in json.loads(text, object_pairs_hook=unique_keys)["cells"]:
            for key, types in (("accuracy", (int, float)), ("n", (int,)), ("backend_id", (str,))):
                if type(row[key]) not in types:
                    raise TypeError(f"{key} must be of type {types[-1].__name__}, not {row[key]!r}")
            key = (canonicalize_label(row["attack"], strict=True), KbConfig(row["kb_config"]), row["backend_id"])
            if key in grid.cells:
                raise ValueError(f"cell ({key[0].render()}, {key[1].value}, {key[2]}) is repeated")
            grid.set(*key, Cell(accuracy=row["accuracy"], n=row["n"]))
        return grid


def grid_from_reference(table: dict[str, dict[AttackLabel, tuple[float, float, float]]]) -> EvaluationGrid:
    """Build a grid from a {model: {attack: (no, long, short)}} table; every cell reports n = 500."""
    grid = EvaluationGrid()
    for backend_id, per_attack in table.items():
        for attack, accuracies in per_attack.items():
            for config, accuracy in zip((KbConfig.NO_KB, KbConfig.LONG_KB, KbConfig.SHORT_KB), accuracies):
                grid.set(attack, config, backend_id, Cell(accuracy, 500))
    return grid


def select_best_kb(grid: EvaluationGrid, backend_id: str) -> dict[AttackLabel, KbConfig]:
    """Per attack, the KB configuration with maximal accuracy for the backend;
    exact ties prefer the smaller KB (Short over Long over None)."""
    if not grid.cells:
        raise EvaluationError("grid is empty")
    out: dict[AttackLabel, KbConfig] = {}
    for attack in grid.attacks():
        best: tuple[float, KbConfig] | None = None
        for config in KB_PRECEDENCE:
            cell = grid.cells.get((attack, config, backend_id))
            if cell is None:
                continue
            if best is None or cell.accuracy > best[0]:
                best = (cell.accuracy, config)
        if best is not None:
            out[attack] = best[1]
    if not out:
        raise EvaluationError(f"grid has no cells for backend {backend_id!r}")
    return out


def _percent(fraction: float) -> str:
    return f"{fraction * 100:.2f}%"


def render_table(grid: EvaluationGrid) -> tuple[str, str, str]:
    """(text table, CSV, JSON); text shows percentages, CSV/JSON raw fractions."""
    if not grid.cells:
        raise EvaluationError("grid is empty")
    backends = grid.backends()
    attacks = grid.attacks()
    configs = (KbConfig.NO_KB, KbConfig.LONG_KB, KbConfig.SHORT_KB)

    header = ["Attack Type"]
    for backend in backends:
        header.extend(f"{backend} {config.display()}" for config in configs)
    body: list[list[str]] = []
    for attack in attacks:
        row = [attack.render()]
        for backend in backends:
            for config in configs:
                cell = grid.cells.get((attack, config, backend))
                row.append(_percent(cell.accuracy) if cell is not None else "-")
        body.append(row)

    widths = [max(len(header[i]), *(len(r[i]) for r in body)) for i in range(len(header))]
    divider = "-+-".join("-" * w for w in widths)
    lines = [" | ".join(h.ljust(w) for h, w in zip(header, widths)), divider]
    lines.extend(" | ".join(v.ljust(w) for v, w in zip(row, widths)) for row in body)
    text = "\n".join(lines) + "\n"

    csv_lines = ["attack,kb_config,backend_id,accuracy,n"]
    for (attack, config, backend), cell in grid.sorted_cells():
        csv_lines.append(f"{attack.render()},{config.value},{backend},{cell.accuracy!r},{cell.n}")
    csv_text = "\n".join(csv_lines) + "\n"

    return text, csv_text, grid.to_json()


def write_grid_artifacts(grid: EvaluationGrid, out_dir: str | Path) -> str:
    """Write grid.txt, grid.csv and grid.json; return the text table."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    text, csv_text, json_text = render_table(grid)
    (out_dir / "grid.txt").write_text(text, encoding="utf-8")
    (out_dir / "grid.csv").write_text(csv_text, encoding="utf-8")
    (out_dir / "grid.json").write_text(json_text, encoding="utf-8")
    return text
