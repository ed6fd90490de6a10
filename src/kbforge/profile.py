"""Per-attack descriptive statistics: min / lower-median / max feature profiles."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .flow_data import FEATURE_INDEX, AttackLabel, FlowTable, canonicalize_label

if TYPE_CHECKING:
    from .forest_rank import ImportanceReport

#: A feature whose max - min is within this tolerance is pinned at its median.
CONSTANT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class FeatureProfile:
    feature: str
    min: float
    median: float
    max: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.min) and math.isfinite(self.median) and math.isfinite(self.max)):
            raise ValueError(f"profile for {self.feature!r} has non-finite statistics")
        if not self.min <= self.median <= self.max:
            raise ValueError(
                f"profile for {self.feature!r} violates min <= median <= max: "
                f"{self.min}, {self.median}, {self.max}"
            )

    @property
    def is_constant(self) -> bool:
        """Pinned: synth gives the median, and every KB form says "has to be"."""
        return self.max - self.min <= CONSTANT_TOLERANCE


@dataclass(frozen=True)
class AttackProfile:
    attack: AttackLabel
    ranked_features: tuple[FeatureProfile, ...]
    k: int

    def __post_init__(self) -> None:
        names = [fp.feature for fp in self.ranked_features]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate features in profile for {self.attack.render()}")
        if len(self.ranked_features) > self.k:
            raise ValueError("ranked_features longer than k")

    def get(self, feature: str) -> FeatureProfile | None:
        for fp in self.ranked_features:
            if fp.feature == feature:
                return fp
        return None


def compute_profile(feature: str, values: list[float] | np.ndarray) -> FeatureProfile:
    """Exact min/max plus the lower median (an element of the data, never interpolated)."""
    array = np.asarray(values, dtype=np.float64)
    if array.size == 0:
        raise ValueError("cannot profile an empty value list")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"non-finite values passed for feature {feature!r}")
    mid = (array.size - 1) // 2
    median = float(np.partition(array, mid)[mid])
    return FeatureProfile(
        feature=feature,
        min=float(array.min()),
        median=median,
        max=float(array.max()),
    )


def build_attack_profile(
    table: FlowTable,
    attack: AttackLabel,
    report: ImportanceReport,
    k: int = 10,
) -> AttackProfile:
    """Profile the top-k ranked features over the rows labeled with `attack` only."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = table.has_label(attack)
    if not rows.any():
        raise ValueError(f"no records labeled {attack.render()}")
    top = report.ranking[:k]
    # One contiguous array per feature, in row order: min, max and the median
    # then see the values in the order a per-row value list gives them.
    columns = np.ascontiguousarray(table.X[rows][:, [FEATURE_INDEX[name] for name in top]].T)
    profiles = tuple(compute_profile(name, column) for name, column in zip(top, columns))
    return AttackProfile(attack=attack, ranked_features=profiles, k=k)


def profiles_to_json(profiles: list[AttackProfile] | tuple[AttackProfile, ...]) -> str:
    payload = [
        {
            "attack": p.attack.render(),
            "k": p.k,
            "features": [
                {"feature": fp.feature, "min": fp.min, "median": fp.median, "max": fp.max}
                for fp in p.ranked_features
            ],
        }
        for p in profiles
    ]
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def profiles_from_json(text: str) -> list[AttackProfile]:
    """The profiles of a profiles_to_json list. An entry that lacks a key,
    names no attack label or profiles a feature outside the registry raises
    ValueError naming its index."""
    out = []
    for index, entry in enumerate(json.loads(text)):
        try:
            attack = canonicalize_label(entry["attack"])
            if attack is AttackLabel.UNKNOWN:
                raise ValueError(f"attack {entry['attack']!r} matches no attack label")
            unknown = [f["feature"] for f in entry["features"] if f["feature"] not in FEATURE_INDEX]
            if unknown:
                raise ValueError(f"features outside the registry: {unknown}")
            ranked = tuple(
                FeatureProfile(feature=f["feature"], min=f["min"], median=f["median"], max=f["max"])
                for f in entry["features"]
            )
            out.append(AttackProfile(attack=attack, ranked_features=ranked, k=entry["k"]))
        except KeyError as exc:
            raise ValueError(f"entry {index}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"entry {index}: {exc}") from None
    return out
