"""Flow-record ingestion, labeling and sampling for CICIoT-2023-style CSVs."""

from __future__ import annotations

import csv
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
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

#: Canonical feature registry, alphabetically ordered (case-sensitive). Every
#: FlowRecord carries exactly these features.
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
    """One flow's feature vector plus an optional ground-truth label."""

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

    def vector(self) -> tuple[float, ...]:
        return tuple(self.features[name] for name in FEATURES)


@dataclass
class DatasetSummary:
    record_count: int = 0
    per_label_counts: Counter = field(default_factory=Counter)
    skipped_count: int = 0

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
) -> tuple[list[FlowRecord], DatasetSummary]:
    """Read a CSV of flow features into validated FlowRecords.

    Rows with unparsable or non-finite values in any registry feature are
    skipped and counted in the summary rather than imputed.
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

        records: list[FlowRecord] = []
        summary = DatasetSummary()
        width = max([*columns.values(), label_index if label_index is not None else 0]) + 1
        for row in reader:
            if not row or len(row) < width:
                summary.skipped_count += 1
                continue
            values: dict[str, float] = {}
            ok = True
            for name, index in columns.items():
                try:
                    value = float(row[index])
                except ValueError:
                    ok = False
                    break
                if not math.isfinite(value):
                    ok = False
                    break
                values[name] = value
            if not ok:
                summary.skipped_count += 1
                continue
            label: AttackLabel | None = None
            if label_index is not None:
                label = canonicalize_label(row[label_index])
            records.append(FlowRecord(features=values, label=label))
            summary.record_count += 1
            if label is not None:
                summary.per_label_counts[label] += 1
        return records, summary


def write_dataset(records: list[FlowRecord], path: str | Path, *, label_column: str = "label") -> None:
    """Write records to CSV in registry order; floats use repr so a reload is bit-exact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([*FEATURES, label_column])
        for record in records:
            row = [repr(record.features[name]) for name in FEATURES]
            row.append(record.label.render() if record.label is not None else "")
            writer.writerow(row)


def stratified_sample(
    records: list[FlowRecord], n_per_class: int, seed: int
) -> list[FlowRecord]:
    """Pick up to n_per_class records per label, reproducibly for a fixed seed.

    Output is label-major (labels in enum order) then selection order. The
    result depends only on the input multiset, n_per_class and seed: candidates
    are canonically sorted before the seeded draw, so input order is irrelevant.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    by_label: dict[AttackLabel, list[FlowRecord]] = {}
    for record in records:
        if record.label is None:
            continue
        by_label.setdefault(record.label, []).append(record)

    out: list[FlowRecord] = []
    for ordinal, label in enumerate(AttackLabel):
        group = by_label.get(label)
        if not group:
            continue
        group = sorted(group, key=lambda r: r.vector())
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, ordinal))))
        picks = rng.permutation(len(group))[: min(n_per_class, len(group))]
        out.extend(group[i] for i in picks)
    return out
