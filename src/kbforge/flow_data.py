"""Flow ingestion, labeling and sampling for CICIoT-2023-style CSVs."""

from __future__ import annotations

import csv
import math
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """A dataset file or record set cannot be used as requested."""


class AttackLabel(Enum):
    ICMP_FLOOD = "DDoS-ICMP_Flood"
    UDP_FLOOD = "DDoS-UDP_Flood"
    TCP_FLOOD = "DDoS-TCP_Flood"
    PSHACK_FLOOD = "DDoS-PSHACK_Flood"
    SYN_FLOOD = "DDoS-SYN_Flood"
    RSTFIN_FLOOD = "DDoS-RSTFIN_Flood"
    SYNONYMOUS_IP_FLOOD = "DDoS-SynonymousIP_Flood"
    NORMAL = "Normal"
    UNKNOWN = "Unknown"

    def render(self) -> str:
        return self.value


#: The seven flood classes, in the fixed order used for tie-breaking everywhere.
ATTACK_LABELS: tuple[AttackLabel, ...] = (
    AttackLabel.ICMP_FLOOD,
    AttackLabel.UDP_FLOOD,
    AttackLabel.TCP_FLOOD,
    AttackLabel.PSHACK_FLOOD,
    AttackLabel.SYN_FLOOD,
    AttackLabel.RSTFIN_FLOOD,
    AttackLabel.SYNONYMOUS_IP_FLOOD,
)

#: Label codes of a FlowTable: code i stands for LABELS[i], -1 for no label.
LABELS: tuple[AttackLabel, ...] = tuple(AttackLabel)
LABEL_CODES: dict[AttackLabel, int] = {label: code for code, label in enumerate(LABELS)}

#: Canonical feature registry, alphabetically ordered (case-sensitive). Every
#: flow carries exactly these features, and a FlowTable's columns follow it.
FEATURES: tuple[str, ...] = (
    "ACK Count",
    "ACK Flag Number",
    "AVG",
    "CWR Flag Number",
    "DNS",
    "ECE Flag Number",
    "FIN Count",
    "FIN Flag Number",
    "Flow Duration",
    "HTTP",
    "Header Length",
    "IAT",
    "ICMP",
    "Magnitude",
    "Max",
    "Min",
    "Number",
    "PSH Flag Number",
    "Protocol Type",
    "RST Count",
    "RST Flag Number",
    "Rate",
    "SSH",
    "SYN Count",
    "SYN Flag Number",
    "Srate",
    "Std",
    "TCP",
    "Tot size",
    "Tot sum",
    "UDP",
    "URG Count",
)

FEATURE_SET = frozenset(FEATURES)
FEATURE_INDEX = {name: i for i, name in enumerate(FEATURES)}

#: Human-readable names used when rendering knowledge bases and prompts.
FEATURE_DISPLAY_NAMES: dict[str, str] = {
    "Min": "Min Packet Size",
    "Max": "Max Packet Size",
    "AVG": "Average Packet Size (AVG)",
    "Std": "Packet Size Std (Std)",
    "Tot sum": "Total Sum of Packets (Tot sum)",
    "Tot size": "Total Size of Packets (Tot size)",
    "IAT": "Inter-Arrival Time (IAT)",
    "Srate": "Source Rate (Srate)",
    "ICMP": "ICMP Indicator",
    "UDP": "UDP Indicator",
    "TCP": "TCP Indicator",
    "HTTP": "HTTP Indicator",
    "DNS": "DNS Indicator",
    "SSH": "SSH Indicator",
}


def display_name(feature: str) -> str:
    return FEATURE_DISPLAY_NAMES.get(feature, feature)


def _normalize(name: str) -> str:
    return re.sub(r"[\s_\-]+", "", name).lower()


#: Normalized header name -> canonical feature name. Lookup ignores case,
#: blanks, "_" and "-", so the CICIoT 2023 spellings "tot_sum", "Tot Sum" and
#: "Tot sum" all resolve to "Tot sum"; the one alias beyond that is the
#: dataset's "Magnitue" misspelling.
_ALIASES: dict[str, str] = {**{_normalize(f): f for f in FEATURES}, "magnitue": "Magnitude"}


_LABEL_LOOKUP: dict[str, AttackLabel] = {}
for _label in AttackLabel:
    _LABEL_LOOKUP[_normalize(_label.value)] = _label
    _LABEL_LOOKUP[_normalize(_label.value).removeprefix("ddos")] = _label
# The label list sometimes circulates with "Unknow"; accept both spellings.
_LABEL_LOOKUP["unknow"] = AttackLabel.UNKNOWN


def canonicalize_label(raw: str) -> AttackLabel:
    """Map a raw label string to an AttackLabel; unmatched input is Unknown."""
    return _LABEL_LOOKUP.get(_normalize(raw), AttackLabel.UNKNOWN)


@dataclass(frozen=True)
class FlowRecord:
    """One flow's feature values plus an optional ground-truth label."""

    features: dict[str, float]
    label: AttackLabel | None = None

    def __post_init__(self) -> None:
        missing = FEATURE_SET - self.features.keys()
        if missing:
            raise ValueError(f"record is missing registry features: {sorted(missing)[:4]}...")
        for name in FEATURES:
            value = self.features[name]
            if not math.isfinite(value):
                raise ValueError(f"non-finite value for {name!r}: {value}")

    @classmethod
    def _checked(cls, features: dict[str, float], label: AttackLabel | None) -> FlowRecord:
        """A record of values already known complete and finite, built without
        re-validating them."""
        record = object.__new__(cls)
        object.__setattr__(record, "features", features)
        object.__setattr__(record, "label", label)
        return record


class FlowTable:
    """A set of flows as one float64 matrix ``X[n, len(FEATURES)]`` in
    registry order and an int8 array ``codes[n]`` of label codes.

    Every value is checked finite once, here, so rows read back as
    FlowRecords are not checked again. Rows read, iterate and assign as
    FlowRecords; write values through ``table[i] = record``, which drops the
    cached ``sorted_rows``.
    """

    def __init__(self, X: np.ndarray, codes: np.ndarray):
        if not np.isfinite(X).all():
            raise ValueError("non-finite feature value in flow table")
        self.X = X
        self.codes = codes
        self._sorted_rows: np.ndarray | None = None

    def __len__(self) -> int:
        return self.X.shape[0]

    def __getitem__(self, i: int) -> FlowRecord:
        code = int(self.codes[i])
        label = LABELS[code] if code >= 0 else None
        return FlowRecord._checked(dict(zip(FEATURES, self.X[i].tolist())), label)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __setitem__(self, i: int, record: FlowRecord) -> None:
        self.X[i] = [record.features[name] for name in FEATURES]
        self.codes[i] = -1 if record.label is None else LABEL_CODES[record.label]
        self._sorted_rows = None

    def sorted_rows(self) -> np.ndarray:
        """Row indices sorted by each registry column, stably: row j of the
        result lists the flows by (X[:, j], index). Computed on first use and
        kept as int32, half the memory of numpy's index type."""
        if self._sorted_rows is None:
            self._sorted_rows = np.argsort(self.X.T, axis=1, kind="stable").astype(np.int32)
        return self._sorted_rows

    def take(self, rows: np.ndarray) -> FlowTable:
        return FlowTable(self.X[rows], self.codes[rows])

    def has_label(self, label: AttackLabel) -> np.ndarray:
        """Boolean mask of the rows labeled `label`."""
        return self.codes == LABEL_CODES[label]


@dataclass
class DatasetSummary:
    record_count: int = 0
    per_label_counts: Counter = field(default_factory=Counter)
    skipped_count: int = 0

    @staticmethod
    def of(table: FlowTable, skipped_count: int = 0) -> DatasetSummary:
        counts = np.bincount(table.codes[table.codes >= 0], minlength=len(LABELS))
        per_label = Counter({LABELS[code]: int(n) for code, n in enumerate(counts) if n})
        return DatasetSummary(len(table), per_label, skipped_count)

    def to_dict(self) -> dict:
        return {
            "record_count": self.record_count,
            "per_label_counts": {
                label.render(): count for label, count in sorted(
                    self.per_label_counts.items(), key=lambda kv: kv[0].render()
                )
            },
            "skipped_count": self.skipped_count,
        }


def load_dataset(
    path: str | Path,
    *,
    label_column: str = "label",
    require_labels: bool = True,
) -> tuple[FlowTable, DatasetSummary]:
    """Read a CSV of flow features into a FlowTable.

    Rows that are short, or hold a value Python's float() rejects or a
    non-finite one in any registry feature, are skipped and counted in the
    summary rather than imputed.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file not found: {path}")

    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"dataset file has no header row: {path}") from None

        columns: dict[str, int] = {}
        label_index: int | None = None
        label_norm = _normalize(label_column)
        for i, raw_name in enumerate(header):
            if _normalize(raw_name) == label_norm:
                label_index = i
                continue
            canonical = _ALIASES.get(_normalize(raw_name))
            if canonical is None:
                continue  # extra dataset columns are allowed and ignored
            if canonical in columns:
                raise DatasetError(f"two header columns resolve to {canonical!r}")
            columns[canonical] = i

        missing = FEATURE_SET - columns.keys()
        if missing:
            raise DatasetError(
                f"header lacks registry features (no alias found): {sorted(missing)}"
            )
        if require_labels and label_index is None:
            raise DatasetError(f"label column {label_column!r} not found in header")

        # One float() per cell, appended flat: no per-row record is built.
        cells = itemgetter(*(columns[name] for name in FEATURES))
        values = array("d")
        codes = array("b")
        skipped = 0
        width = max([*columns.values(), label_index if label_index is not None else 0]) + 1
        for row in reader:
            if not row or len(row) < width:
                skipped += 1
                continue
            mark = len(values)
            try:
                values.extend(map(float, cells(row)))
            except ValueError:
                del values[mark:]
                skipped += 1
                continue
            codes.append(-1 if label_index is None else LABEL_CODES[canonicalize_label(row[label_index])])
    X = np.frombuffer(values, dtype=np.float64).reshape(-1, len(FEATURES))
    labels = np.frombuffer(codes, dtype=np.int8)
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        X, labels = X[finite], labels[finite]
    table = FlowTable(X, labels)
    return table, DatasetSummary.of(table, skipped + int(np.count_nonzero(~finite)))


def write_dataset(table: FlowTable, path: str | Path, *, label_column: str = "label") -> None:
    """Write flows to CSV in registry order; floats use repr so a reload is bit-exact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([*FEATURES, label_column])
        for row, code in zip(table.X, table.codes.tolist()):
            writer.writerow([*map(repr, row.tolist()), LABELS[code].render() if code >= 0 else ""])


def stratified_sample(table: FlowTable, n_per_class: int, seed: int) -> FlowTable:
    """Pick up to n_per_class flows per label, reproducibly for a fixed seed.

    Output is label-major (labels in enum order) then selection order. The
    result depends only on the input multiset, n_per_class and seed: each
    label's rows are put in canonical order (a stable sort by feature vector)
    before the seeded draw, so input order is irrelevant.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    picked = [np.empty(0, dtype=np.intp)]
    for code in range(len(LABELS)):
        rows = np.flatnonzero(table.codes == code)
        if rows.size == 0:
            continue
        rows = rows[np.lexsort(table.X[rows].T[::-1])]  # first registry column is the primary key
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, code))))
        picked.append(rows[rng.permutation(rows.size)[: min(n_per_class, rows.size)]])
    return table.take(np.concatenate(picked))
