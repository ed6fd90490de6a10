"""Deterministic synthetic flow generator driven by attack feature profiles.

Profiled features jitter around the class median inside [min, max]; features a
class does not pin are drawn from per-feature background bands approximating
benign traffic. Background sampling mixes point masses at the band edges with
a uniform interior: aggregated IoT window features pile up at characteristic
exact values (42-byte minimum frames, pure-protocol windows), and those ties
are what keep any single feature from trivially separating the classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .flow_data import ATTACK_LABELS, FEATURES, LABEL_CODES, DatasetSummary, FlowTable
from .canonical import REFERENCE_PROFILES
from .profile import AttackProfile


@dataclass(frozen=True)
class BackgroundBand:
    lo: float
    hi: float
    lo_mass: float = 0.0  # probability of drawing exactly lo
    hi_mass: float = 0.0  # probability of drawing exactly hi

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("background band lo > hi")
        if not 0.0 <= self.lo_mass + self.hi_mass <= 1.0:
            raise ValueError("edge masses must sum to at most 1")


_FLAG_AND_COUNT_FEATURES = (
    "FIN Flag Number",
    "SYN Flag Number",
    "RST Flag Number",
    "PSH Flag Number",
    "ACK Flag Number",
    "ECE Flag Number",
    "CWR Flag Number",
    "ACK Count",
    "SYN Count",
    "FIN Count",
    "URG Count",
    "RST Count",
)

#: Benign-plausible background bands. Flag and count features sit at zero;
#: protocol indicators are mostly-off with occasional pure-protocol windows;
#: size-like features straddle the small-packet regime the floods live in.
DEFAULT_BACKGROUND: dict[str, BackgroundBand] = {
    "Protocol Type": BackgroundBand(1.0, 17.0, lo_mass=0.40, hi_mass=0.15),
    "ICMP": BackgroundBand(0.0, 1.0, lo_mass=0.45, hi_mass=0.25),
    # No exact-1.0 mass for UDP: pure-UDP windows are treated as the attack's
    # own signature, which keeps the UDP indicator's exact-match constraint
    # unsatisfiable by the other classes.
    "UDP": BackgroundBand(0.0, 1.0, lo_mass=0.45, hi_mass=0.0),
    "TCP": BackgroundBand(0.0, 1.0, lo_mass=0.45, hi_mass=0.25),
    "HTTP": BackgroundBand(0.0, 1.0, lo_mass=0.70, hi_mass=0.05),
    "DNS": BackgroundBand(0.0, 1.0, lo_mass=0.70, hi_mass=0.05),
    "SSH": BackgroundBand(0.0, 1.0, lo_mass=0.70, hi_mass=0.05),
    "Min": BackgroundBand(42.0, 90.0, lo_mass=0.15),
    "Max": BackgroundBand(42.0, 300.0, lo_mass=0.55),
    "AVG": BackgroundBand(40.0, 200.0, lo_mass=0.55),
    "Tot size": BackgroundBand(42.0, 200.0, lo_mass=0.55),
    "Tot sum": BackgroundBand(60.0, 1200.0),
    "Magnitude": BackgroundBand(4.0, 10.0, hi_mass=0.15),
    "IAT": BackgroundBand(1e3, 1e6),
    "Rate": BackgroundBand(0.5, 5000.0),
    "Srate": BackgroundBand(0.5, 5000.0),
    "Header Length": BackgroundBand(40.0, 1200.0),
    "Flow Duration": BackgroundBand(0.0, 120.0, lo_mass=0.30),
    "Number": BackgroundBand(1.0, 50.0),
    "Std": BackgroundBand(0.0, 500.0),
    **{name: BackgroundBand(0.0, 0.0) for name in _FLAG_AND_COUNT_FEATURES},
}


@dataclass(frozen=True)
class SynthSpec:
    profiles: tuple[AttackProfile, ...]
    n_per_attack: int = 500
    jitter: float = 0.3
    seed: int = 0
    background: Mapping[str, BackgroundBand] = field(
        default_factory=lambda: dict(DEFAULT_BACKGROUND)
    )

    def __post_init__(self) -> None:
        if self.n_per_attack < 1:
            raise ValueError("n_per_attack must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must lie in [0, 1]")
        missing = set(FEATURES) - set(self.background)
        if missing:
            raise ValueError(f"background bands missing for: {sorted(missing)}")


def default_spec(n_per_attack: int = 500, jitter: float = 0.3, seed: int = 0) -> SynthSpec:
    """A SynthSpec over the bundled reference profiles and background bands."""
    return SynthSpec(
        profiles=tuple(REFERENCE_PROFILES.values()),
        n_per_attack=n_per_attack,
        jitter=jitter,
        seed=seed,
    )


def generate_dataset(spec: SynthSpec) -> tuple[FlowTable, DatasetSummary]:
    """n_per_attack flows per profiled attack, in profile-then-index order.

    Flow ``index`` of an attack is a pure function of (spec, attack, index):
    its numbers are one ``random(m)`` draw from its own PCG64 stream, seeded
    with (seed, attack ordinal, index), taken in registry order as one u per
    profiled, non-constant feature and a (pick, u) pair per background
    feature. A profiled feature sits at ``median + jitter * (2u - 1) *
    min(median-min, max-median)``, clamped to [min, max], so one whose median
    sits at a range edge stays pinned at the median; a constant one is its
    median. A background feature is lo when pick < lo_mass, else hi when
    pick > 1 - hi_mass, else ``lo + (hi - lo) * u``.
    """
    n = spec.n_per_attack
    X = np.empty((n * len(spec.profiles), len(FEATURES)))
    codes = np.empty(X.shape[0], dtype=np.int8)
    for block, profile in enumerate(spec.profiles):
        rows = slice(block * n, (block + 1) * n)
        codes[rows] = LABEL_CODES[profile.attack]
        pinned = {fp.feature: fp for fp in profile.ranked_features}
        m = sum(2 if name not in pinned else int(not pinned[name].is_constant) for name in FEATURES)
        ordinal = ATTACK_LABELS.index(profile.attack) if profile.attack in ATTACK_LABELS else 99
        draws = np.empty((n, m))
        for index in range(n):
            seed = np.random.SeedSequence((spec.seed, ordinal, index))
            np.random.Generator(np.random.PCG64(seed)).random(out=draws[index])
        at = 0
        for j, name in enumerate(FEATURES):
            fp = pinned.get(name)
            if fp is None:
                band = spec.background[name]
                pick, u = draws[:, at], draws[:, at + 1]
                at += 2
                interior = band.lo + (band.hi - band.lo) * u
                X[rows, j] = np.where(
                    pick < band.lo_mass, band.lo, np.where(pick > 1.0 - band.hi_mass, band.hi, interior)
                )
            elif fp.is_constant:
                X[rows, j] = fp.median
            else:
                width = min(fp.median - fp.min, fp.max - fp.median)
                value = fp.median + spec.jitter * (-1.0 + 2.0 * draws[:, at]) * width
                at += 1
                # Python's max(value, min) then min(., max), tie for tie.
                value = np.where(fp.min > value, fp.min, value)
                X[rows, j] = np.where(fp.max < value, fp.max, value)
    table = FlowTable(X, codes)
    return table, DatasetSummary.of(table)
