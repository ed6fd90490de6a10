"""Per-attack descriptive statistics: min / lower-median / max feature profiles."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .flow_data import FEATURE_INDEX, AttackLabel, FlowTable, canonicalize_label
from .params import unique_keys

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
    """The profiles of a profiles_to_json list, checked here once for every
    consumer. An entry that lacks a key, names no attack label or an earlier
    entry's, lists no features or one outside the registry, or holds a k or
    a statistic of another JSON type than profiles_to_json writes (a boolean
    is no number) raises ValueError naming its index; so does text that holds
    no JSON list, or an object that repeats a key, naming that."""
    entries = json.loads(text, object_pairs_hook=unique_keys)
    if type(entries) is not list:
        raise ValueError(f"profiles must be a JSON list, not {type(entries).__name__}")
    out: list[AttackProfile] = []
    for index, entry in enumerate(entries):
        try:
            attack = canonicalize_label(entry["attack"])
            if attack is AttackLabel.UNKNOWN:
                raise ValueError(f"attack {entry['attack']!r} matches no attack label")
            if any(p.attack is attack for p in out):
                raise ValueError(f"attack {attack.render()} is named by an earlier entry")
            if not entry["features"]:
                raise ValueError("the entry lists no features")
            if type(entry["k"]) is not int:
                raise ValueError(f"k must be a JSON integer, not {entry['k']!r}")
            unknown = [f["feature"] for f in entry["features"] if f["feature"] not in FEATURE_INDEX]
            if unknown:
                raise ValueError(f"features outside the registry: {unknown}")
            bad = [f["feature"] for f in entry["features"]
                   if any(type(f[key]) not in (int, float) for key in ("min", "median", "max"))]
            if bad:
                raise ValueError(f"min, median and max must be JSON numbers (no booleans) for {bad}")
            ranked = tuple(FeatureProfile(f["feature"], f["min"], f["median"], f["max"]) for f in entry["features"])
            out.append(AttackProfile(attack, ranked, entry["k"]))
        except KeyError as exc:
            raise ValueError(f"entry {index}: missing key {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"entry {index}: {exc}") from None
    return out
