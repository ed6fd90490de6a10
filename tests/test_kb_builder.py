from __future__ import annotations

import json
from pathlib import Path

import pytest

from kbforge.canonical import REFERENCE_PROFILES
from kbforge.flow_data import ATTACK_LABELS, AttackLabel
from kbforge.kb_builder import (
    Descriptor,
    DescriptorKind,
    InRange,
    KbVariant,
    KeyFeatureSet,
    MandatoryEquals,
    TypicalNear,
    canonical_kb,
    derive_key_features,
    format_number,
    render_long_kb,
    render_short_kb,
    StructuredKb,
    structured_kb,
    structured_kb_to_json,
    write_kb,
)
from kbforge.profile import AttackProfile, FeatureProfile

GOLDEN_DIR = Path(__file__).parent / "goldens"


def profile_of(attack, *triples, k=10):
    return AttackProfile(
        attack=attack,
        ranked_features=tuple(FeatureProfile(f, lo, med, hi) for f, lo, med, hi in triples),
        k=k,
    )


class TestFormatNumber:
    @pytest.mark.parametrize(
        "value,expected",
        [(42.0, "42.0"), (42.5, "42.5"), (9.17, "9.17"), (992.72, "992.72"),
         (83128994.35, "83128994.35"), (1885.5, "1885.5"), (0.0, "0.0")],
    )
    def test_examples(self, value, expected):
        assert format_number(value) == expected


class TestCanonicalKb:
    def test_long_has_four_entries(self):
        kb = canonical_kb(KbVariant.LONG)
        assert set(kb.entries) == {
            AttackLabel.ICMP_FLOOD,
            AttackLabel.UDP_FLOOD,
            AttackLabel.TCP_FLOOD,
            AttackLabel.PSHACK_FLOOD,
        }

    def test_short_has_exactly_seven(self):
        kb = canonical_kb(KbVariant.SHORT)
        assert len(kb.entries) == 7
        assert set(kb.entries) == set(ATTACK_LABELS)

    def test_known_lines_present(self):
        long_kb = canonical_kb(KbVariant.LONG)
        assert "Inter-Arrival Time (IAT): Very high" in long_kb.entries[AttackLabel.ICMP_FLOOD]
        assert (
            "URG Count: Typically 1.0 but can reach up to 367.51"
            in long_kb.entries[AttackLabel.PSHACK_FLOOD]
        )

    def test_matches_long_goldens(self):
        kb = canonical_kb(KbVariant.LONG)
        for attack, text in kb.entries.items():
            golden = (GOLDEN_DIR / "long" / f"{attack.render()}.txt").read_text(encoding="utf-8")
            assert text + "\n" == golden

    def test_matches_short_golden(self):
        kb = canonical_kb(KbVariant.SHORT)
        golden = (GOLDEN_DIR / "short" / "combined.txt").read_text(encoding="utf-8")
        assert kb.combined_text() + "\n" == golden


class TestRenderLongKb:
    def test_bullet_shapes(self):
        profile = profile_of(
            AttackLabel.ICMP_FLOOD,
            ("Protocol Type", 1.0, 1.0, 1.0),
            ("Min", 42.0, 42.0, 992.72),
        )
        kb = render_long_kb([profile])
        text = kb.entries[AttackLabel.ICMP_FLOOD]
        lines = text.split("\n")
        assert lines[0] == (
            "If the attack is DDoS ICMP flood, it should exhibit the following characteristics:"
        )
        assert "- Protocol Type: Has to be 1.0." in lines
        assert "- Min Packet Size: Ranges from 42.0 to 992.72, commonly at 42.0." in lines

    def test_idempotent(self):
        profiles = tuple(REFERENCE_PROFILES.values())
        assert render_long_kb(profiles).entries == render_long_kb(profiles).entries

    def test_reference_profiles_reproduce_canonical_structure(self):
        # same header line and one bullet per profiled feature, in order
        generated = render_long_kb(tuple(REFERENCE_PROFILES.values()))
        reference = canonical_kb(KbVariant.LONG)
        for attack, text in generated.entries.items():
            gen_lines = text.split("\n")
            ref_lines = reference.entries[attack].split("\n")
            assert gen_lines[0] == ref_lines[0]
            profile = REFERENCE_PROFILES[attack]
            assert len(gen_lines) == 1 + len(profile.ranked_features)
            for line, fp in zip(gen_lines[1:], profile.ranked_features):
                assert line.startswith("- ")

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            render_long_kb([])


class TestDeriveKeyFeatures:
    def test_icmp_vs_udp_includes_protocol_type_must_equal(self):
        profiles = (
            REFERENCE_PROFILES[AttackLabel.ICMP_FLOOD],
            REFERENCE_PROFILES[AttackLabel.UDP_FLOOD],
        )
        keys = derive_key_features(profiles)
        icmp = dict(keys.per_attack[AttackLabel.ICMP_FLOOD])
        assert "Protocol Type" in icmp
        assert icmp["Protocol Type"] == Descriptor(DescriptorKind.MUST_EQUAL, (1.0,))

    def test_identical_profiles_fall_back_to_rank_order(self):
        shared = (("Min", 0.0, 1.0, 2.0), ("Max", 0.0, 1.0, 2.0), ("IAT", 0.0, 1.0, 2.0),
                  ("Rate", 0.0, 1.0, 2.0))
        a = profile_of(AttackLabel.ICMP_FLOOD, *shared)
        b = profile_of(AttackLabel.UDP_FLOOD, *shared)
        keys = derive_key_features((a, b))
        assert [f for f, _ in keys.per_attack[AttackLabel.ICMP_FLOOD]] == ["Min", "Max", "IAT"]

    def test_disjoint_ranges_key_each_attack_by_its_own_feature(self):
        a = profile_of(
            AttackLabel.ICMP_FLOOD, ("Min", 0.0, 1.0, 2.0), ("Max", 50.0, 55.0, 60.0),
            ("IAT", 50.0, 55.0, 60.0),
        )
        b = profile_of(
            AttackLabel.UDP_FLOOD, ("Min", 50.0, 55.0, 60.0), ("Max", 0.0, 1.0, 2.0),
            ("IAT", 50.0, 55.0, 60.0),
        )
        c = profile_of(
            AttackLabel.TCP_FLOOD, ("Min", 50.0, 55.0, 60.0), ("Max", 50.0, 55.0, 60.0),
            ("IAT", 0.0, 1.0, 2.0),
        )
        keys = derive_key_features((a, b, c))
        assert keys.per_attack[AttackLabel.ICMP_FLOOD][0][0] == "Min"
        assert keys.per_attack[AttackLabel.UDP_FLOOD][0][0] == "Max"
        assert keys.per_attack[AttackLabel.TCP_FLOOD][0][0] == "IAT"

    def test_needs_two_profiles(self):
        with pytest.raises(ValueError):
            derive_key_features((REFERENCE_PROFILES[AttackLabel.ICMP_FLOOD],))


class TestRenderShortKb:
    def test_line_shape(self):
        keys = KeyFeatureSet(
            per_attack={
                AttackLabel.ICMP_FLOOD: (
                    ("Protocol Type", Descriptor(DescriptorKind.MUST_EQUAL, (1.0,))),
                    ("Rate", Descriptor(DescriptorKind.HIGH)),
                    ("IAT", Descriptor(DescriptorKind.LOW)),
                ),
            }
        )
        kb = render_short_kb(keys)
        assert kb.entries[AttackLabel.ICMP_FLOOD] == (
            "DDoS-ICMP_Flood: Protocol Type has to be 1.0; High Rate; "
            "Low Inter-Arrival Time (IAT)."
        )

    def test_covers_all_seven_with_reference_fallback(self):
        keys = derive_key_features(tuple(REFERENCE_PROFILES.values()))
        kb = render_short_kb(keys)
        assert set(kb.entries) == set(ATTACK_LABELS)
        # classes without derived keys reuse their bundled line
        assert kb.entries[AttackLabel.SYN_FLOOD] == "DDoS-SYN_Flood Elevated SYN flag."

    def test_empty_descriptor_list_rejected(self):
        keys = KeyFeatureSet(per_attack={AttackLabel.ICMP_FLOOD: ()})
        with pytest.raises(ValueError):
            render_short_kb(keys)


class TestStructuredKb:
    def test_translation_of_reference_profiles(self):
        kb = structured_kb(tuple(REFERENCE_PROFILES.values()))
        icmp = kb.per_attack[AttackLabel.ICMP_FLOOD]
        by_feature = {}
        for constraint in icmp:
            by_feature.setdefault(constraint.feature, []).append(constraint)
        assert by_feature["Protocol Type"] == [MandatoryEquals("Protocol Type", 1.0)]
        kinds = {type(c) for c in by_feature["Min"]}
        assert kinds == {InRange, TypicalNear}

    def test_example_rate_constraint(self):
        profile = profile_of(AttackLabel.UDP_FLOOD, ("Rate", 6.0, 7480.80, 1569352.1))
        kb = structured_kb([profile])
        in_range = [c for c in kb.per_attack[AttackLabel.UDP_FLOOD] if isinstance(c, InRange)]
        typical = [c for c in kb.per_attack[AttackLabel.UDP_FLOOD] if isinstance(c, TypicalNear)]
        assert in_range == [InRange("Rate", 6.0, 1569352.1)]
        assert typical[0].value == 7480.80
        assert typical[0].tolerance == pytest.approx(0.05 * (1569352.1 - 6.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            structured_kb([])

    def test_json_round_trip(self):
        # Attacks in registry order, constraints in KB order, floats exact.
        kb = StructuredKb(per_attack={
            AttackLabel.UDP_FLOOD: (InRange("Rate", 6.0, 1 / 3), TypicalNear("Rate", 0.1, 2.5e-7)),
            AttackLabel.ICMP_FLOOD: (MandatoryEquals("Protocol Type", 1.0),),
        })
        payload = json.loads(structured_kb_to_json(kb))
        assert list(payload) == ["DDoS-ICMP_Flood", "DDoS-UDP_Flood"]
        assert payload == {
            "DDoS-ICMP_Flood": [
                {"feature": "Protocol Type", "kind": "mandatory_equals", "value": 1.0, "tolerance": 1e-6},
            ],
            "DDoS-UDP_Flood": [
                {"feature": "Rate", "kind": "in_range", "lo": 6.0, "hi": 1 / 3},
                {"feature": "Rate", "kind": "typical_near", "value": 0.1, "tolerance": 2.5e-7},
            ],
        }

    def test_profile_rows_satisfy_their_ranges(self):
        # every record used to build a profile stays inside its InRange constraints
        from kbforge.synth_traffic import default_spec, generate_dataset

        records, _ = generate_dataset(default_spec(n_per_attack=50, jitter=1.0, seed=3))
        kb = structured_kb(tuple(REFERENCE_PROFILES.values()))
        for record in records:
            for constraint in kb.per_attack[record.label]:
                if isinstance(constraint, InRange):
                    value = record.features[constraint.feature]
                    assert constraint.lo <= value <= constraint.hi


class TestWriteKb:
    def test_layout_and_bytes(self, tmp_path):
        kb = canonical_kb(KbVariant.LONG)
        paths = write_kb(kb, tmp_path)
        icmp = tmp_path / "long" / "DDoS-ICMP_Flood.txt"
        assert icmp in paths
        assert icmp.read_text(encoding="utf-8") == kb.entries[AttackLabel.ICMP_FLOOD] + "\n"
        assert (tmp_path / "long" / "combined.txt").exists()
