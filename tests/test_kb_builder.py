from __future__ import annotations

import json
from pathlib import Path

import pytest

from kbforge.canonical import REFERENCE_PROFILES
from kbforge.flow_data import ATTACK_LABELS, FEATURE_INDEX, AttackLabel
from kbforge.kb_builder import (
    Constraint,
    ConstraintKind,
    KbVariant,
    canonical_kb,
    derive_key_features,
    format_number,
    render_long_kb,
    render_short_kb,
    structured_kb,
    structured_kb_to_json,
)
from kbforge.profile import AttackProfile, FeatureProfile
from kbforge.synth_traffic import SynthSpec, default_spec, generate_dataset

from conftest import feature_value

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


class TestDeriveKeyFeatures:
    def test_icmp_vs_udp_includes_protocol_type_must_equal(self):
        profiles = (
            REFERENCE_PROFILES[AttackLabel.ICMP_FLOOD],
            REFERENCE_PROFILES[AttackLabel.UDP_FLOOD],
        )
        keys = derive_key_features(profiles)
        icmp = dict(keys[AttackLabel.ICMP_FLOOD])
        assert "Protocol Type" in icmp
        assert icmp["Protocol Type"] == "Protocol Type has to be 1.0"

    def test_identical_profiles_fall_back_to_rank_order(self):
        shared = (("Min", 0.0, 1.0, 2.0), ("Max", 0.0, 1.0, 2.0), ("IAT", 0.0, 1.0, 2.0),
                  ("Rate", 0.0, 1.0, 2.0))
        a = profile_of(AttackLabel.ICMP_FLOOD, *shared)
        b = profile_of(AttackLabel.UDP_FLOOD, *shared)
        keys = derive_key_features((a, b))
        assert [f for f, _ in keys[AttackLabel.ICMP_FLOOD]] == ["Min", "Max", "IAT"]

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
        assert keys[AttackLabel.ICMP_FLOOD][0][0] == "Min"
        assert keys[AttackLabel.UDP_FLOOD][0][0] == "Max"
        assert keys[AttackLabel.TCP_FLOOD][0][0] == "IAT"

    def test_needs_two_profiles(self):
        with pytest.raises(ValueError):
            derive_key_features((REFERENCE_PROFILES[AttackLabel.ICMP_FLOOD],))


class TestRenderShortKb:
    def test_line_shape(self):
        # Pinned features, medians above, below and at the peers' median.
        icmp = profile_of(AttackLabel.ICMP_FLOOD, ("Protocol Type", 1.0, 1.0, 1.0),
                          ("Rate", 900.0, 1000.0, 1100.0), ("IAT", 1.0, 2.0, 3.0))
        udp = profile_of(AttackLabel.UDP_FLOOD, ("Protocol Type", 17.0, 17.0, 17.0),
                         ("Rate", 0.0, 10.0, 20.0), ("IAT", 50.0, 60.0, 70.0))
        tcp = profile_of(AttackLabel.TCP_FLOOD, ("Protocol Type", 6.0, 6.0, 6.0),
                         ("Rate", 300.0, 400.0, 500.0), ("IAT", 20.0, 30.0, 40.0))
        kb = render_short_kb(derive_key_features((icmp, udp, tcp)))
        assert kb.entries[AttackLabel.ICMP_FLOOD] == (
            "DDoS-ICMP_Flood: Protocol Type has to be 1.0; High Rate; "
            "Low Inter-Arrival Time (IAT)."
        )
        assert kb.entries[AttackLabel.TCP_FLOOD] == (
            "DDoS-TCP_Flood: Protocol Type has to be 6.0; Rate between 300.0 and 500.0; "
            "Inter-Arrival Time (IAT) between 20.0 and 40.0."
        )

    def test_covers_all_seven_with_reference_fallback(self):
        keys = derive_key_features(tuple(REFERENCE_PROFILES.values()))
        kb = render_short_kb(keys)
        assert set(kb.entries) == set(ATTACK_LABELS)
        # classes without derived keys reuse their bundled line
        assert kb.entries[AttackLabel.SYN_FLOOD] == "DDoS-SYN_Flood Elevated SYN flag."


class TestStructuredKb:
    def test_translation_of_reference_profiles(self):
        kb = structured_kb(tuple(REFERENCE_PROFILES.values()))
        icmp = kb[AttackLabel.ICMP_FLOOD]
        by_feature = {}
        for constraint in icmp:
            by_feature.setdefault(constraint.feature, []).append(constraint)
        assert by_feature["Protocol Type"] == [
            Constraint("Protocol Type", ConstraintKind.MANDATORY_EQUALS, 1.0, 1e-6)
        ]
        kinds = {c.kind for c in by_feature["Min"]}
        assert kinds == {ConstraintKind.IN_RANGE, ConstraintKind.TYPICAL_NEAR}

    def test_example_rate_constraint(self):
        profile = profile_of(AttackLabel.UDP_FLOOD, ("Rate", 6.0, 7480.80, 1569352.1))
        kb = structured_kb([profile])
        in_range, typical = kb[AttackLabel.UDP_FLOOD]
        assert in_range == Constraint("Rate", ConstraintKind.IN_RANGE, 6.0, 1569352.1)
        assert typical.kind is ConstraintKind.TYPICAL_NEAR
        assert typical.a == 7480.80
        assert typical.b == pytest.approx(0.05 * (1569352.1 - 6.0))

    def test_json_round_trip(self):
        # Attacks in registry order, constraints in KB order, floats exact.
        kb = {
            AttackLabel.UDP_FLOOD: (Constraint("Rate", ConstraintKind.IN_RANGE, 6.0, 1 / 3),
                                    Constraint("Rate", ConstraintKind.TYPICAL_NEAR, 0.1, 2.5e-7)),
            AttackLabel.ICMP_FLOOD: (Constraint("Protocol Type", ConstraintKind.MANDATORY_EQUALS, 1.0, 1e-6),),
        }
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
        # every record used to build a profile stays inside its range constraints
        records, _ = generate_dataset(default_spec(n_per_attack=50, jitter=1.0, seed=3))
        kb = structured_kb(tuple(REFERENCE_PROFILES.values()))
        for record in records:
            for constraint in kb[record.label]:
                if constraint.kind is ConstraintKind.IN_RANGE:
                    assert constraint.a <= feature_value(record, constraint.feature) <= constraint.b


class TestOnePinnedRule:
    def test_range_within_tolerance_is_pinned_in_every_form(self):
        # max - min = 6e-7 <= 1e-6, though min, median and max all differ.
        pinned = profile_of(AttackLabel.ICMP_FLOOD, ("Min", 1.0, 1.0 + 3e-7, 1.0 + 6e-7))
        rival = profile_of(AttackLabel.UDP_FLOOD, ("Min", 40.0, 50.0, 60.0))
        assert pinned.ranked_features[0].is_constant

        table, _ = generate_dataset(SynthSpec(profiles=(pinned,), n_per_attack=50, jitter=1.0, seed=4))
        assert (table.X[:, FEATURE_INDEX["Min"]] == 1.0 + 3e-7).all()

        long_kb = render_long_kb([pinned]).entries[AttackLabel.ICMP_FLOOD]
        assert "- Min Packet Size: Has to be 1.0." in long_kb.split("\n")
        keys = derive_key_features((pinned, rival))
        assert keys[AttackLabel.ICMP_FLOOD] == (("Min", "Min Packet Size has to be 1.0"),)
        assert structured_kb([pinned])[AttackLabel.ICMP_FLOOD] == (
            Constraint("Min", ConstraintKind.MANDATORY_EQUALS, 1.0 + 3e-7, 1e-6),
        )
