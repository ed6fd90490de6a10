"""Flow ingestion, labeling and sampling for CICIoT-2023-style CSVs."""

from __future__ import annotations

import csv
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

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


def canonicalize_label(raw: str, strict: bool = False) -> AttackLabel:
    """Map a raw label string to an AttackLabel; unmatched input is Unknown,
    or with strict a ValueError."""
    label = _LABEL_LOOKUP.get(_normalize(raw))
    if label is None and strict:
        raise ValueError(f"attack {raw!r} matches no label")
    return label or AttackLabel.UNKNOWN


class FlowRecord(NamedTuple):
    """One flow: its float64 feature row in registry order (a copy, not a view
    of a table) and an optional ground-truth label. A FlowTable checks the
    values."""

    features: np.ndarray
    label: AttackLabel | None = None


class FlowTable:
    """A set of flows as one float64 matrix ``X[n, len(FEATURES)]`` in
    registry order and an int8 array ``codes[n]`` of label codes.

    The one place flow values are checked: dtypes, shapes and finite values
    when the table is built, and a finite row of len(FEATURES) values when
    one is assigned. Rows read, iterate and assign as FlowRecords.
    """

    def __init__(self, X: np.ndarray, codes: np.ndarray):
        if (X.dtype != np.float64 or X.shape[1:] != (len(FEATURES),)
                or codes.dtype != np.int8 or codes.shape != X.shape[:1]):
            raise ValueError(f"a flow table's X is float64 of shape (n, {len(FEATURES)}) and its codes int8 of "
                             f"shape (n,), not {X.dtype} {X.shape} and {codes.dtype} {codes.shape}")
        if not np.isfinite(X).all():
            raise ValueError("non-finite feature value in flow table")
        self.X = X
        self.codes = codes

    def __len__(self) -> int:
        return self.X.shape[0]

    def __getitem__(self, i: int) -> FlowRecord:
        code = int(self.codes[i])
        return FlowRecord(self.X[i].copy(), LABELS[code] if code >= 0 else None)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __setitem__(self, i: int, record: FlowRecord) -> None:
        row = np.asarray(record.features, dtype=np.float64)
        if row.shape != (len(FEATURES),) or not np.isfinite(row).all():
            raise ValueError(f"a flow row needs {len(FEATURES)} finite values")
        self.X[i] = row
        self.codes[i] = -1 if record.label is None else LABEL_CODES[record.label]

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


#: Body lines parsed by one np.loadtxt call. A block of 2**8 flow rows (about
#: 330 characters each) keeps its text and parsed copy under glibc's 128 KiB
#: mmap threshold, and ingest's memory beyond the table bounded by one block
#: whatever the file's size; blocks of 2**8 to 2**14 lines parse a
#: 100,000-row file equally fast.
BLOCK_LINES = 1 << 8

#: A block holding any of these goes to the per-row parser: csv.reader gives
#: a quote, a carriage return and NUL meanings np.loadtxt does not, and
#: np.loadtxt strips the separators U+001C to U+001F around a number, where
#: float() rejects it.
_PER_ROW_CHARS = ('"', "\r", "\0", "\x1c", "\x1d", "\x1e", "\x1f")


def _parse_block(block: list[str], usecols: list[int], fields: list[tuple]) -> np.ndarray | None:
    """The block's rows as np.loadtxt reads them, or None where the per-row
    parser might read them otherwise."""
    if "\n" in block:  # a blank line, which np.loadtxt drops and the per-row parser counts
        return None
    text = "".join(block)
    if any(char in text for char in _PER_ROW_CHARS):
        return None
    try:
        parsed = np.loadtxt(block, dtype=fields, delimiter=",", comments=None, usecols=usecols, ndmin=1)
    except ValueError:  # a row that stops short, or a cell float() may read or reject otherwise
        return None
    return parsed if len(parsed) == len(block) else None  # one row per line, as csv.reader reads them


def load_dataset(
    path: str | Path,
    *,
    label_column: str = "label",
    require_labels: bool = True,
) -> tuple[FlowTable, DatasetSummary]:
    """Read a CSV of flow features into a FlowTable.

    Rows that are short, or hold a value Python's float() rejects or a
    non-finite one in any registry feature, are skipped and counted in the
    summary rather than imputed. The body is parsed in blocks of
    BLOCK_LINES lines by np.loadtxt, each distinct raw label canonicalized
    once; a block np.loadtxt rejects, or one whose lines it might read
    otherwise than csv.reader and float() (a quote, a carriage return, a
    blank line), is parsed row by row with csv.reader and float(). So the
    rows kept and skipped are those of a per-row parse, and memory beyond
    the table is bounded by one block.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file not found: {path}")

    with path.open(newline="", encoding="utf-8-sig") as handle:
        try:
            header = next(csv.reader(handle))
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

        usecols = [columns[name] for name in FEATURES]
        fields = [("x", np.float64, (len(FEATURES),))]
        if label_index is not None:
            usecols.append(label_index)
            fields.append(("label", object))
        cells = itemgetter(*usecols[: len(FEATURES)])
        values = array("d")
        codes = array("b")
        label_codes: dict[str, int] = {}
        skipped = 0
        width = max(usecols) + 1
        while block := list(islice(handle, BLOCK_LINES)):
            parsed = _parse_block(block, usecols, fields)
            if parsed is not None:
                values.frombytes(parsed["x"].tobytes())
                if label_index is None:
                    codes.extend([-1] * len(parsed))
                else:
                    raw = parsed["label"].tolist()
                    for label in set(raw).difference(label_codes):
                        label_codes[label] = LABEL_CODES[canonicalize_label(label)]
                    codes.extend(map(label_codes.__getitem__, raw))
                continue
            # One float() per cell, appended flat, until the record that ends
            # the block's last line (a quoted cell may run past it).
            rows = csv.reader(chain(block, handle))
            while rows.line_num < len(block):
                row = next(rows)
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


def write_dataset(table: FlowTable, path: str | Path) -> None:
    """Write flows to CSV in registry order, then "label"; floats use repr so a reload is bit-exact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([*FEATURES, "label"])
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
