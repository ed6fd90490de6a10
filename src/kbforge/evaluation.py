"""Accuracy accounting: confusion matrices, per-class accuracy, the
attack-by-KB-configuration grid, and best-KB selection."""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .detectors import Detector, TransportError
from .flow_data import (
    ATTACK_LABELS,
    LABEL_CODES,
    LABELS,
    AttackLabel,
    FlowRecord,
    FlowTable,
    canonicalize_label,
)


class KbConfig(Enum):
    NO_KB = "no_kb"
    LONG_KB = "long_kb"
    SHORT_KB = "short_kb"

    def display(self) -> str:
        return {"no_kb": "No KB", "long_kb": "Long KB", "short_kb": "Short KB"}[self.value]


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


def _classified(classify, table: FlowTable, workers: int):
    """One zero-argument call per record that returns classify(record) or
    raises what it raised. workers <= 1 classifies inline, in record order;
    more classify on a pool, in completion order, with at most 2 x workers
    records submitted ahead of the tally, so a strict run stops classifying
    soon after its first transport error. Closing the generator cancels the
    records still queued."""
    if workers <= 1:
        yield from (functools.partial(classify, record) for record in table)
        return
    # Imported here: only a threaded run needs the pool.
    from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

    queue = iter(table)
    pool = ThreadPoolExecutor(max_workers=workers)

    def submit(n: int) -> set:
        return {pool.submit(classify, record) for record in itertools.islice(queue, n)}

    try:
        pending = submit(2 * workers)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                yield future.result
            pending |= submit(2 * workers - len(pending))
    finally:
        pool.shutdown(cancel_futures=True)


def _classify_rows(backend: Detector, table: FlowTable, kb, strict: bool, workers: int):
    """(true codes, predicted codes) of the records classified, and the number
    of records whose transport failed in a best-effort run."""

    def one(record: FlowRecord) -> tuple[int, int]:
        return LABEL_CODES[record.label], LABEL_CODES[backend.classify(record, kb)]

    pairs: list[tuple[int, int]] = []
    errors = 0
    with contextlib.closing(_classified(one, table, workers)) as outcomes:
        for outcome in outcomes:
            try:
                pairs.append(outcome())
            except TransportError:
                if strict:
                    raise
                errors += 1
    true, predicted = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return true, predicted, errors


def evaluate(
    backend: Detector,
    table: FlowTable,
    kb=None,
    *,
    strict: bool = True,
    workers: int = 1,
) -> ConfusionMatrix:
    """Classify every row of the table and tally (true, predicted) pairs.

    A backend with `classify_table` (the rule oracle) labels the whole matrix
    in one call. Any other backend gets one `classify(record, kb)` per row,
    on `workers` threads; in strict mode a transport failure aborts the run,
    and best-effort runs count the failure in error_count and leave the
    record out of the total. Both paths feed one tally of label codes, and
    worker count never changes the result.
    """
    if (table.codes < 0).any():
        raise EvaluationError("evaluate requires every record to be labeled")
    if hasattr(backend, "classify_table"):
        true, predicted, errors = table.codes.astype(np.intp), backend.classify_table(table.X), 0
    else:
        true, predicted, errors = _classify_rows(backend, table, kb, strict, workers)
    n = len(LABELS)
    return ConfusionMatrix(np.bincount(true * n + predicted, minlength=n * n).reshape(n, n), errors)


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
        grid = EvaluationGrid()
        for row in json.loads(text)["cells"]:
            grid.set(
                canonicalize_label(row["attack"]),
                KbConfig(row["kb_config"]),
                row["backend_id"],
                Cell(accuracy=row["accuracy"], n=row["n"]),
            )
        return grid


def grid_from_reference(
    table: dict[str, dict[AttackLabel, tuple[float, float, float]]], n_per_cell: int = 500
) -> EvaluationGrid:
    """Build a grid from a {model: {attack: (no, long, short)}} table."""
    grid = EvaluationGrid()
    for backend_id, per_attack in table.items():
        for attack, (no_kb, long_kb, short_kb) in per_attack.items():
            grid.set(attack, KbConfig.NO_KB, backend_id, Cell(no_kb, n_per_cell))
            grid.set(attack, KbConfig.LONG_KB, backend_id, Cell(long_kb, n_per_cell))
            grid.set(attack, KbConfig.SHORT_KB, backend_id, Cell(short_kb, n_per_cell))
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
