from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbforge.canonical import REFERENCE_PROFILES
from kbforge.detectors import RuleOracleDetector
from kbforge.flow_data import ATTACK_LABELS, FEATURES, AttackLabel, FlowRecord
from kbforge.kb_builder import structured_kb
from kbforge.profile import AttackProfile, FeatureProfile
from kbforge.synth_traffic import (
    DEFAULT_BACKGROUND,
    BackgroundBand,
    SynthSpec,
    default_spec,
    generate_dataset,
)


def reference_generate_flow(spec: SynthSpec, attack: AttackLabel, index: int) -> FlowRecord:
    """The per-flow generator the columnar one replaced: scalar draws, one
    feature at a time, from the flow's own stream."""
    profile = next(p for p in spec.profiles if p.attack is attack)
    ordinal = ATTACK_LABELS.index(attack) if attack in ATTACK_LABELS else 99
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((spec.seed, ordinal, index))))
    values: dict[str, float] = {}
    for name in FEATURES:
        fp = profile.get(name)
        if fp is not None:
            if fp.is_constant:
                values[name] = fp.median
            else:
                width = min(fp.median - fp.min, fp.max - fp.median)
                u = rng.uniform(-1.0, 1.0)
                value = fp.median + spec.jitter * u * width
                values[name] = float(min(max(value, fp.min), fp.max))
        else:
            band = spec.background[name]
            pick = rng.random()
            interior = rng.uniform(band.lo, band.hi)
            if pick < band.lo_mass:
                values[name] = band.lo
            elif pick > 1.0 - band.hi_mass:
                values[name] = band.hi
            else:
                values[name] = float(interior)
    return FlowRecord(features=values, label=attack)


def reference_dataset(spec: SynthSpec) -> tuple[np.ndarray, list[AttackLabel]]:
    flows = [
        reference_generate_flow(spec, profile.attack, index)
        for profile in spec.profiles
        for index in range(spec.n_per_attack)
    ]
    return np.array([[r.features[name] for name in FEATURES] for r in flows]), [r.label for r in flows]


def flows_of(spec: SynthSpec, attack: AttackLabel) -> list[FlowRecord]:
    table, _ = generate_dataset(spec)
    return [record for record in table if record.label is attack]


@st.composite
def synth_specs(draw):
    """Small specs: random profiles (constant features, medians at a range
    edge, non-flood attacks), edge masses and jitter, seeds."""
    attacks = draw(st.lists(st.sampled_from(list(AttackLabel)), min_size=1, max_size=3, unique=True))
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
    profiles = []
    for attack in attacks:
        names = draw(st.lists(st.sampled_from(FEATURES), min_size=1, max_size=8, unique=True))
        stats = []
        for name in names:
            lo, mid, hi = sorted(draw(st.lists(finite, min_size=3, max_size=3)))
            kind = draw(st.sampled_from(["ranged", "constant", "median-at-min", "median-at-max"]))
            lo, mid, hi = {"ranged": (lo, mid, hi), "constant": (mid, mid, mid),
                           "median-at-min": (lo, lo, hi), "median-at-max": (lo, hi, hi)}[kind]
            stats.append(FeatureProfile(name, lo, mid, hi))
        profiles.append(AttackProfile(attack=attack, ranked_features=tuple(stats), k=len(stats)))
    background = dict(DEFAULT_BACKGROUND)
    for name in draw(st.lists(st.sampled_from(FEATURES), max_size=4, unique=True)):
        lo, hi = sorted(draw(st.lists(finite, min_size=2, max_size=2)))
        lo_mass = draw(st.floats(0.0, 1.0))
        background[name] = BackgroundBand(lo, hi, lo_mass, draw(st.floats(0.0, 1.0 - lo_mass)))
    return SynthSpec(
        profiles=tuple(profiles),
        n_per_attack=draw(st.integers(1, 6)),
        jitter=draw(st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
        background=background,
    )


class TestAgainstPerFlowGenerator:
    @settings(max_examples=150, deadline=None)
    @given(spec=synth_specs())
    def test_generate_dataset_equals_reference(self, spec):
        table, summary = generate_dataset(spec)
        reference, labels = reference_dataset(spec)
        assert table.X.view(np.uint64).tolist() == reference.view(np.uint64).tolist()
        assert [r.label for r in table] == labels
        assert summary.record_count == len(labels)

    @pytest.mark.parametrize("seed,jitter", [(7, 0.3), (0, 0.0), (11, 1.0)])
    def test_reference_profiles_bit_for_bit(self, seed, jitter):
        spec = default_spec(n_per_attack=300, jitter=jitter, seed=seed)
        table, _ = generate_dataset(spec)
        reference, _ = reference_dataset(spec)
        assert (table.X.view(np.uint64) == reference.view(np.uint64)).all()




class TestBackgroundBand:
    def test_validation(self):
        with pytest.raises(ValueError):
            BackgroundBand(5.0, 1.0)
        with pytest.raises(ValueError):
            BackgroundBand(0.0, 1.0, lo_mass=0.7, hi_mass=0.7)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            default_spec(n_per_attack=0)
        with pytest.raises(ValueError):
            default_spec(jitter=1.5)

    def test_background_must_cover_registry(self):
        with pytest.raises(ValueError, match="background"):
            SynthSpec(
                profiles=tuple(REFERENCE_PROFILES.values()),
                background={"Min": BackgroundBand(0.0, 1.0)},
            )


class TestGenerateFlow:
    def test_jitter_zero_is_median_exact(self):
        spec = default_spec(n_per_attack=1, jitter=0.0, seed=1)
        (flow,) = flows_of(spec, AttackLabel.ICMP_FLOOD)
        assert flow.features["Protocol Type"] == 1.0
        assert flow.features["ICMP"] == 1.0
        assert flow.features["Min"] == 42.0
        assert flow.label is AttackLabel.ICMP_FLOOD

    def test_full_jitter_stays_inside_bounds(self):
        spec = default_spec(n_per_attack=200, jitter=1.0, seed=2)
        profile = REFERENCE_PROFILES[AttackLabel.UDP_FLOOD]
        for flow in flows_of(spec, AttackLabel.UDP_FLOOD):
            for fp in profile.ranked_features:
                assert fp.min <= flow.features[fp.feature] <= fp.max

    def test_deterministic_in_seed_attack_index(self):
        # Flow 17 depends on (seed, attack, index) only, not on how many flows are drawn.
        spec = default_spec(n_per_attack=19, jitter=0.4, seed=9)
        a = flows_of(spec, AttackLabel.TCP_FLOOD)
        b = flows_of(dataclasses.replace(spec, n_per_attack=40), AttackLabel.TCP_FLOOD)
        assert a[17] == b[17]
        assert a[17] != a[18]

    def test_background_respects_bands(self):
        spec = default_spec(n_per_attack=100, jitter=0.3, seed=5)
        band = spec.background["Header Length"]
        for flow in flows_of(spec, AttackLabel.ICMP_FLOOD):
            assert band.lo <= flow.features["Header Length"] <= band.hi

    def test_all_values_finite(self):
        table, _ = generate_dataset(default_spec(n_per_attack=5, jitter=1.0, seed=3))
        assert table.X.shape == (20, len(FEATURES))
        assert np.isfinite(table.X).all()


class TestGenerateDataset:
    def test_counts(self):
        records, summary = generate_dataset(default_spec(n_per_attack=200, seed=4))
        assert summary.record_count == 800
        assert all(count == 200 for count in summary.per_label_counts.values())
        assert len(records) == 800

    def test_single_median_exact_record_per_attack(self):
        records, _ = generate_dataset(default_spec(n_per_attack=1, jitter=0.0, seed=0))
        assert len(records) == 4
        by_label = {r.label: r for r in records}
        assert by_label[AttackLabel.UDP_FLOOD].features["Rate"] == 7480.80

    def test_pure_function_of_spec(self):
        spec = default_spec(n_per_attack=25, jitter=0.6, seed=11)
        first, _ = generate_dataset(spec)
        second, _ = generate_dataset(spec)
        assert list(first) == list(second)

    def test_jitter_zero_oracle_round_trip(self):
        records, _ = generate_dataset(default_spec(n_per_attack=50, jitter=0.0, seed=6))
        oracle = RuleOracleDetector(structured_kb(tuple(REFERENCE_PROFILES.values())))
        for record in records:
            assert oracle.classify(record) is record.label

    def test_csv_round_trip_matches_ingest_schema(self, tmp_path):
        from kbforge.flow_data import load_dataset, write_dataset

        records, _ = generate_dataset(default_spec(n_per_attack=10, jitter=0.5, seed=8))
        path = tmp_path / "synth.csv"
        write_dataset(records, path)
        loaded, summary = load_dataset(path)
        assert summary.record_count == 40
        assert list(loaded) == list(records)
