from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbforge.flow_data import FEATURES, AttackLabel
from kbforge.forest_rank import ImportanceReport
from kbforge.profile import (
    AttackProfile,
    FeatureProfile,
    build_attack_profile,
    compute_profile,
    profiles_from_json,
    profiles_to_json,
)

from conftest import feature_value, make_record, table_of


def reference_build_attack_profile(records, attack, report, k):
    """The per-record profile builder the columnar one replaced."""
    rows = [r for r in records if r.label is attack]
    return AttackProfile(
        attack=attack,
        ranked_features=tuple(
            compute_profile(name, [feature_value(r, name) for r in rows]) for name in report.ranking[:k]
        ),
        k=k,
    )


def oracle_profile(values):
    """Independent reference: full sort plus direct indexing."""
    ordered = sorted(values)
    return min(ordered), ordered[(len(ordered) - 1) // 2], max(ordered)


class TestComputeProfile:
    def test_constant_list(self):
        assert compute_profile("Min", [42.0, 42.0, 42.0]) == FeatureProfile(
            "Min", 42.0, 42.0, 42.0
        )

    def test_even_length_lower_median(self):
        assert compute_profile("Min", [1.0, 2.0, 3.0, 4.0]).median == 2.0

    def test_mostly_repeated_minimum(self):
        # a column dominated by one small value keeps that value as the median
        values = [42.0] * 99 + [992.72]
        profile = compute_profile("Min", values)
        assert (profile.min, profile.median, profile.max) == (42.0, 42.0, 992.72)

    def test_median_is_a_data_element_for_timing_columns(self):
        values = [4.3e-06, 83102993.46, 83102993.46, 99748506.4]
        profile = compute_profile("IAT", values)
        assert profile.median == 83102993.46
        assert profile.min == 4.3e-06
        assert profile.max == 99748506.4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_profile("Min", [])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            compute_profile("Min", [1.0, float("inf")])

    @given(
        st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), min_size=1, max_size=400
        )
    )
    @settings(max_examples=200)
    def test_matches_oracle(self, values):
        profile = compute_profile("IAT", values)
        assert (profile.min, profile.median, profile.max) == oracle_profile(values)

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60),
        st.randoms(),
    )
    @settings(max_examples=100)
    def test_permutation_invariant(self, values, rand):
        shuffled = list(values)
        rand.shuffle(shuffled)
        a = compute_profile("Rate", values)
        b = compute_profile("Rate", shuffled)
        assert (a.min, a.median, a.max) == (b.min, b.median, b.max)


class TestFeatureProfileInvariants:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            FeatureProfile("Min", 5.0, 1.0, 9.0)

    def test_finite_enforced(self):
        with pytest.raises(ValueError):
            FeatureProfile("Min", 0.0, 0.0, float("inf"))


class TestBuildAttackProfile:
    def _report(self):
        scores = {"PSH Flag Number": 0.5, "ACK Flag Number": 0.3, "IAT": 0.2}
        return ImportanceReport.from_scores(scores)

    def _records(self):
        out = []
        for ack in (0.0, 1.0, 1.0):
            out.append(
                make_record(
                    AttackLabel.PSHACK_FLOOD,
                    **{"PSH Flag Number": 1.0, "ACK Flag Number": ack, "IAT": 8.33e7},
                )
            )
        out.append(make_record(AttackLabel.TCP_FLOOD))
        return table_of(out)

    def test_top_k_profiles_attack_rows_only(self):
        profile = build_attack_profile(self._records(), AttackLabel.PSHACK_FLOOD, self._report(), k=2)
        assert [fp.feature for fp in profile.ranked_features] == ["PSH Flag Number", "ACK Flag Number"]
        psh = profile.get("PSH Flag Number")
        ack = profile.get("ACK Flag Number")
        assert psh.median == 1.0
        assert ack.median == 1.0
        assert ack.min == 0.0

    def test_k_larger_than_features_clamps(self):
        profile = build_attack_profile(
            self._records(), AttackLabel.PSHACK_FLOOD, self._report(), k=100
        )
        assert len(profile.ranked_features) == len(self._report().ranking)

    def test_no_attack_rows_is_error(self):
        with pytest.raises(ValueError, match="no records"):
            build_attack_profile(self._records(), AttackLabel.UDP_FLOOD, self._report(), k=2)

    def test_min_le_median_le_max_everywhere(self):
        profile = build_attack_profile(self._records(), AttackLabel.PSHACK_FLOOD, self._report(), k=3)
        for fp in profile.ranked_features:
            assert fp.min <= fp.median <= fp.max


    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([AttackLabel.PSHACK_FLOOD, AttackLabel.TCP_FLOOD, None]),
                st.lists(
                    st.sampled_from([0.0, -0.0, 1.0, 54.0]) | st.floats(-1e9, 1e9, allow_nan=False),
                    min_size=3, max_size=3,
                ),
            ),
            min_size=1, max_size=60,
        ),
        ranking=st.permutations(FEATURES),
        k=st.integers(1, len(FEATURES)),
    )
    def test_equals_per_record_reference(self, rows, ranking, k):
        records = [
            make_record(label, **dict(zip(("PSH Flag Number", "ACK Flag Number", "IAT"), values)))
            for label, values in rows
        ]
        report = ImportanceReport(scores={}, ranking=tuple(ranking))
        attack = AttackLabel.PSHACK_FLOOD
        if all(r.label is not attack for r in records):
            with pytest.raises(ValueError, match="no records"):
                build_attack_profile(table_of(records), attack, report, k=k)
            return
        got = build_attack_profile(table_of(records), attack, report, k=k)
        expected = reference_build_attack_profile(records, attack, report, k)
        assert got == expected
        # Signed zeros too: equality alone lets -0.0 stand for 0.0.
        assert [tuple(map(repr, (fp.min, fp.median, fp.max))) for fp in got.ranked_features] == [
            tuple(map(repr, (fp.min, fp.median, fp.max))) for fp in expected.ranked_features
        ]


class TestProfileSerialization:
    def test_json_round_trip(self):
        profile = AttackProfile(
            attack=AttackLabel.UDP_FLOOD,
            ranked_features=(
                FeatureProfile("IAT", 4.39e-06, 83102993.47, 99748506.47),
                FeatureProfile("Rate", 6.01, 7480.80, 1569352.19),
            ),
            k=10,
        )
        again = profiles_from_json(profiles_to_json([profile]))
        assert again == [profile]

    @pytest.mark.parametrize("text", ['{"attack": "DDoS-ICMP_Flood", "k": 1, "features": []}', '"DDoS"', "3"],
                             ids=["object", "string", "number"])
    def test_a_file_that_holds_no_list_is_named_as_such(self, text):
        with pytest.raises(ValueError, match="profiles must be a JSON list"):
            profiles_from_json(text)

    def test_duplicate_features_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AttackProfile(
                attack=AttackLabel.UDP_FLOOD,
                ranked_features=(
                    FeatureProfile("IAT", 0.0, 1.0, 2.0),
                    FeatureProfile("IAT", 0.0, 1.0, 2.0),
                ),
                k=10,
            )
