"""Knowledge-base rendering: long/short text KBs, key feature phrases, and the
structured constraint form consumed by the rule oracle."""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .canonical import LONG_KB_TEXT, SHORT_KB_TEXT
from .flow_data import ATTACK_LABELS, AttackLabel, display_name
from .params import KbSource  # noqa: F401 (importable as kb_builder.KbSource)
from .profile import CONSTANT_TOLERANCE, AttackProfile, FeatureProfile


class KbVariant(Enum):
    LONG = "long"
    SHORT = "short"


@dataclass(frozen=True)
class KnowledgeBase:
    variant: KbVariant
    entries: dict[AttackLabel, str]

    def combined_text(self) -> str:
        ordered = [self.entries[a] for a in ATTACK_LABELS if a in self.entries]
        joiner = "\n\n" if self.variant is KbVariant.LONG else "\n"
        return joiner.join(ordered)


def format_number(value: float) -> str:
    """Up to two fractional digits, trailing zero trimmed but one decimal kept."""
    text = f"{value:.2f}"
    if text.endswith("0"):
        text = text[:-1]
    return text


def _attack_display(attack: AttackLabel) -> str:
    # "DDoS-PSHACK_Flood" -> "DDoS PSHACK flood"
    name = attack.render()
    if name.endswith("_Flood"):
        return name[: -len("_Flood")].replace("-", " ") + " flood"
    return name


def render_long_kb(profiles: list[AttackProfile] | tuple[AttackProfile, ...]) -> KnowledgeBase:
    """Render detailed per-attack entries: one bullet per ranked feature."""
    entries: dict[AttackLabel, str] = {}
    for profile in profiles:
        lines = [
            f"If the attack is {_attack_display(profile.attack)}, "
            "it should exhibit the following characteristics:"
        ]
        for fp in profile.ranked_features:
            shown = display_name(fp.feature)
            if fp.is_constant:
                lines.append(f"- {shown}: Has to be {format_number(fp.median)}.")
            else:
                lines.append(
                    f"- {shown}: Ranges from {format_number(fp.min)} to "
                    f"{format_number(fp.max)}, commonly at {format_number(fp.median)}."
                )
        entries[profile.attack] = "\n".join(lines)
    return KnowledgeBase(variant=KbVariant.LONG, entries=entries)


# --------------------------------------------------------------------------
# Key feature phrases and the short KB.
# --------------------------------------------------------------------------


def _ranges_overlap_fully(a: FeatureProfile, b: FeatureProfile) -> bool:
    return (a.min >= b.min and a.max <= b.max) or (b.min >= a.min and b.max <= a.max)


def _separation(a: FeatureProfile, b: FeatureProfile) -> float:
    if _ranges_overlap_fully(a, b):
        return 0.0
    union = max(a.max, b.max) - min(a.min, b.min)
    if union <= 0.0:
        return 0.0
    mid_a = (a.min + a.max) / 2.0
    mid_b = (b.min + b.max) / 2.0
    return abs(mid_a - mid_b) / union


def derive_key_features(
    profiles: list[AttackProfile] | tuple[AttackProfile, ...],
) -> dict[AttackLabel, tuple[tuple[str, str], ...]]:
    """Pick up to three features per attack whose ranges separate it best, each
    with its short-KB phrase: "has to be" for a pinned feature, else "High" or
    "Low" against the median of the profiled medians, else its range.

    Separation of a feature is the worst-case midpoint gap over the other
    attacks profiling the same feature, normalized by the union range width;
    fully nested ranges score zero, and features no other attack profiles
    cannot be compared so they also score zero. Ties fall back to profile
    rank order.
    """
    if len(profiles) < 2:
        raise ValueError("need at least two profiles to compare")
    medians: dict[str, list[float]] = {}
    for p in profiles:
        for fp in p.ranked_features:
            medians.setdefault(fp.feature, []).append(fp.median)
    per_attack: dict[AttackLabel, tuple[tuple[str, str], ...]] = {}
    for profile in profiles:
        others = [p for p in profiles if p.attack is not profile.attack]
        scored: list[tuple[float, int, str, FeatureProfile]] = []
        for rank, fp in enumerate(profile.ranked_features):
            rivals = [o.get(fp.feature) for o in others]
            rivals = [r for r in rivals if r is not None]
            score = min((_separation(fp, r) for r in rivals), default=0.0)
            scored.append((score, rank, fp.feature, fp))
        scored.sort(key=lambda item: (-item[0], item[1]))

        keys = []
        for score, _rank, feature, fp in scored[:3]:
            shown = display_name(feature)
            peers = sorted(medians[feature])
            center = peers[(len(peers) - 1) // 2]
            if fp.is_constant:
                phrase = f"{shown} has to be {format_number(fp.median)}"
            elif len(peers) > 1 and fp.median > center:
                phrase = f"High {shown}"
            elif len(peers) > 1 and fp.median < center:
                phrase = f"Low {shown}"
            else:
                phrase = f"{shown} between {format_number(fp.min)} and {format_number(fp.max)}"
            keys.append((feature, phrase))
        per_attack[profile.attack] = tuple(keys)
    return per_attack


def render_short_kb(keys: dict[AttackLabel, tuple[tuple[str, str], ...]]) -> KnowledgeBase:
    """One line per attack: label, then the semicolon-joined key phrases.

    Attacks without derived keys fall back to their bundled reference line so
    the short variant always covers all seven flood classes.
    """
    entries = {
        attack: (f"{attack.render()}: {'; '.join(phrase for _, phrase in keys[attack])}."
                 if attack in keys else SHORT_KB_TEXT[attack])
        for attack in ATTACK_LABELS
    }
    return KnowledgeBase(variant=KbVariant.SHORT, entries=entries)


def canonical_kb(variant: KbVariant) -> KnowledgeBase:
    """The bundled reference KB texts, byte-for-byte."""
    text = LONG_KB_TEXT if variant is KbVariant.LONG else SHORT_KB_TEXT
    return KnowledgeBase(variant=variant, entries=dict(text))


# --------------------------------------------------------------------------
# Structured constraint form for the rule oracle.
# --------------------------------------------------------------------------


class ConstraintKind(Enum):
    MANDATORY_EQUALS = "mandatory_equals"
    IN_RANGE = "in_range"
    TYPICAL_NEAR = "typical_near"


class Constraint(NamedTuple):
    """One rule on one feature: (a, b) is (lo, hi) for IN_RANGE, else (value, tolerance)."""

    feature: str
    kind: ConstraintKind
    a: float
    b: float


#: The rule oracle's KB: each profiled attack's constraints, in profile order.
StructuredKb = dict[AttackLabel, tuple[Constraint, ...]]


def _rules(fp: FeatureProfile) -> tuple[Constraint, ...]:
    """The constraints one profiled feature gives, as structured_kb says."""
    if fp.is_constant:
        return (Constraint(fp.feature, ConstraintKind.MANDATORY_EQUALS, fp.median, CONSTANT_TOLERANCE),)
    return (Constraint(fp.feature, ConstraintKind.IN_RANGE, fp.min, fp.max),
            Constraint(fp.feature, ConstraintKind.TYPICAL_NEAR, fp.median, 0.05 * (fp.max - fp.min)))


def structured_kb(profiles: list[AttackProfile] | tuple[AttackProfile, ...]) -> StructuredKb:
    """Mechanical profile-to-constraint translation.

    Pinned features become exact-match constraints; ranged features get a
    range check plus a typical-value check at five percent of the range width.
    """
    return {p.attack: tuple(rule for fp in p.ranked_features for rule in _rules(fp)) for p in profiles}


def structured_kb_to_json(kb: StructuredKb) -> str:
    payload = {
        label.render(): [
            {"feature": c.feature, "kind": c.kind.value,
             **({"lo": c.a, "hi": c.b} if c.kind is ConstraintKind.IN_RANGE else {"value": c.a, "tolerance": c.b})}
            for c in kb[label]
        ]
        for label in ATTACK_LABELS if label in kb
    }
    return json.dumps(payload, indent=2) + "\n"
