"""Prompt construction for LLM-backed detection, and response-to-label parsing."""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

from .canonical import PROFILED_FEATURES
from .flow_data import ATTACK_LABELS, FEATURE_INDEX, FEATURES, AttackLabel, FlowRecord, display_name
from .kb_builder import KnowledgeBase, format_number
from .params import DescribeMode

#: The nine answer options, in fixed order. The corrected spelling "Unknown"
#: is offered; the parser below also accepts the "Unknow" variant.
LABEL_OPTIONS: tuple[AttackLabel, ...] = (*ATTACK_LABELS, AttackLabel.UNKNOWN, AttackLabel.NORMAL)

OPTION_LIST = ", ".join(label.render() for label in LABEL_OPTIONS)

INSTRUCTION = (
    "Based on the knowledge base, determine the most likely attack type from the "
    f"following list: {OPTION_LIST}. Answer with exactly one label."
)


# Qualitative tags for raw feature values. Each rule is total: any real value
# maps to exactly one tag.


def rate_tag(value: float) -> str:
    return "High" if value > 100.0 else "Normal"


def iat_tag(value: float) -> str:
    if value < 1e6:
        return "Low"
    if value > 1e7:
        return "High"
    return "Normal"


def flag_tag(value: float) -> str:
    return "Elevated" if value >= 0.5 else "Normal"


_PROTOCOL_NAMES = {1: "ICMP", 6: "TCP", 17: "UDP"}

_FLAG_ORDER = (
    ("SYN", "SYN Flag Number"),
    ("PSH", "PSH Flag Number"),
    ("ACK", "ACK Flag Number"),
    ("RST", "RST Flag Number"),
    ("FIN", "FIN Flag Number"),
)

#: Features listed in numeric mode: the ones the knowledge bases talk about,
#: in registry order.
KB_RELEVANT_FEATURES: tuple[str, ...] = tuple(
    name for name in FEATURES if name in PROFILED_FEATURES
)


def describe_flow(
    record: FlowRecord,
    mode: DescribeMode = DescribeMode.QUALITATIVE,
) -> str:
    """Render a record as the traffic-data block of a prompt."""
    values = record.features.tolist()
    if mode is DescribeMode.NUMERIC:
        lines = [
            f"- {display_name(name)}: {format_number(values[FEATURE_INDEX[name]])}"
            for name in KB_RELEVANT_FEATURES
        ]
        return "\n".join(lines)

    protocol_value = values[FEATURE_INDEX["Protocol Type"]]
    protocol = _PROTOCOL_NAMES.get(round(protocol_value), format_number(protocol_value))
    rate = values[FEATURE_INDEX["Rate"]]
    lines = [
        f"- Protocol Type: {protocol}",
        f"- Packet Rate: {format_number(rate)} packets/sec ({rate_tag(rate)})",
        f"- Inter-Arrival Time (IAT): {iat_tag(values[FEATURE_INDEX['IAT']])}",
        "- TCP Flags:",
    ]
    for shown, feature in _FLAG_ORDER:
        lines.append(f"    - {shown}: {flag_tag(values[FEATURE_INDEX[feature]])}")
    return "\n".join(lines)


def record_digest(record: FlowRecord) -> str:
    """Stable identity for a record's feature rendering.

    SHA-256 over "name=repr(value)" lines in registry order; the label does
    not participate. repr round-trips floats exactly, so equal renderings
    mean equal vectors.
    """
    body = "\n".join(f"{name}={value!r}" for name, value in zip(FEATURES, record.features.tolist(), strict=True))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Prompt:
    text: str


def build_prompt(
    record: FlowRecord,
    kb: KnowledgeBase | None = None,
    mode: DescribeMode = DescribeMode.QUALITATIVE,
) -> Prompt:
    """KB section (if any) + traffic data + instruction with the option list."""
    sections = []
    if kb is not None:
        sections.append("Knowledge Base:\n" + kb.combined_text())
    sections.append("Network Traffic Data:\n" + describe_flow(record, mode))
    sections.append(INSTRUCTION)
    return Prompt(text="\n\n".join(sections))


def _label_pattern(label: AttackLabel) -> re.Pattern:
    if label is AttackLabel.UNKNOWN:
        return re.compile(r"\bunknown?\b", re.IGNORECASE)
    if label is AttackLabel.NORMAL:
        return re.compile(r"\bnormal\b", re.IGNORECASE)
    # "DDoS-SynonymousIP_Flood" -> optional DDoS prefix, separator-tolerant parts
    body = label.render().removeprefix("DDoS-").removesuffix("_Flood")
    compound = {"SynonymousIP": ["Synonymous", "IP"], "PSHACK": ["PSH", "ACK"], "RSTFIN": ["RST", "FIN"]}
    parts = compound.get(body, [re.escape(p) for p in re.split(r"[_\s-]+", body) if p])
    sep = r"[\s_\-]*"
    return re.compile(
        r"(?:ddos" + sep + r")?" + sep.join(parts) + sep + r"flood", re.IGNORECASE
    )


_LABEL_PATTERNS: tuple[tuple[AttackLabel, re.Pattern], ...] = tuple(
    (label, _label_pattern(label)) for label in LABEL_OPTIONS
)


#: Every label pattern as one alternative, in LABEL_OPTIONS order: a search
#: finds the earliest mention, and at one position the first option.
_ANY_LABEL = re.compile("|".join(f"({pattern.pattern})" for _, pattern in _LABEL_PATTERNS), re.IGNORECASE)


def parse_response(text: str) -> AttackLabel:
    """Find canonical label mentions; earliest by position wins, none is Unknown."""
    match = _ANY_LABEL.search(text)
    return AttackLabel.UNKNOWN if match is None else LABEL_OPTIONS[match.lastindex - 1]
