from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kbforge.flow_data import (
    ATTACK_LABELS,
    FEATURES,
    AttackLabel,
    DatasetError,
    FlowRecord,
    canonicalize_label,
    load_dataset,
    stratified_sample,
    write_dataset,
)

from conftest import make_record


class TestLabels:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("DDoS-ICMP_Flood", AttackLabel.ICMP_FLOOD),
            ("DDoS-UDP_Flood", AttackLabel.UDP_FLOOD),
            ("ddos-pshack_flood", AttackLabel.PSHACK_FLOOD),
            ("DDoS SynonymousIP Flood", AttackLabel.SYNONYMOUS_IP_FLOOD),
            ("Unknow", AttackLabel.UNKNOWN),
            ("Unknown", AttackLabel.UNKNOWN),
            ("normal", AttackLabel.NORMAL),
            ("Mirai-greeth_flood", AttackLabel.UNKNOWN),
            ("", AttackLabel.UNKNOWN),
        ],
    )
    def test_canonicalize(self, raw, expected):
        assert canonicalize_label(raw) is expected

    def test_render_round_trip(self):
        for label in (*ATTACK_LABELS, AttackLabel.NORMAL):
            assert canonicalize_label(label.render()) is label


class TestRegistry:
    def test_registry_is_sorted_and_unique(self):
        # split tie-breaking relies on registry order being alphabetical
        assert list(FEATURES) == sorted(FEATURES)
        assert len(set(FEATURES)) == len(FEATURES)

    def test_registry_contains_required_features(self):
        required = {
            "Protocol Type", "ICMP", "UDP", "TCP", "HTTP", "DNS", "SSH",
            "Min", "Max", "AVG", "Std", "Tot sum", "Tot size", "IAT",
            "Rate", "Srate", "Header Length", "Magnitude", "Flow Duration", "Number",
            "FIN Flag Number", "SYN Flag Number", "RST Flag Number", "PSH Flag Number",
            "ACK Flag Number", "ECE Flag Number", "CWR Flag Number",
            "ACK Count", "SYN Count", "FIN Count", "URG Count", "RST Count",
        }
        assert required <= set(FEATURES)


class TestAliases:
    """Header spellings resolve to registry features through load_dataset."""

    def _assert_resolves(self, tmp_path, spellings: dict[str, str]) -> None:
        # Registry-ordered header, each feature spelled as given; column i holds i.
        header = [spellings.get(name, name) for name in FEATURES]
        row = [str(i) for i in range(len(FEATURES))]
        path = tmp_path / "aliases.csv"
        path.write_text(
            ",".join([*header, "label"]) + "\n" + ",".join([*row, "Normal"]) + "\n", encoding="utf-8"
        )
        (record,), _ = load_dataset(path)
        assert record.features == {name: float(i) for i, name in enumerate(FEATURES)}

    def test_display_spellings_resolve(self, tmp_path):
        self._assert_resolves(tmp_path, {})

    def test_dataset_spellings(self, tmp_path):
        self._assert_resolves(tmp_path, {
            "Magnitude": "Magnitue", "Flow Duration": "flow_duration",
            "SYN Flag Number": "syn_flag_number", "Tot sum": "tot_sum",
        })

    def test_case_and_separator_insensitive(self, tmp_path):
        self._assert_resolves(tmp_path, {"Tot sum": "TOT_SUM", "Header Length": "header length"})


class TestFlowRecord:
    def test_rejects_missing_feature(self):
        features = {name: 0.0 for name in FEATURES[:-1]}
        with pytest.raises(ValueError, match="missing registry features"):
            FlowRecord(features=features)

    def test_rejects_non_finite(self):
        features = {name: 0.0 for name in FEATURES}
        features["IAT"] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            FlowRecord(features=features)


class TestLoadDataset:
    def _write_csv(self, path, rows, header=None):
        header = header or [*FEATURES, "label"]
        lines = [",".join(header)]
        lines.extend(",".join(str(v) for v in row) for row in rows)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_dataset(tmp_path / "nope.csv")

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        self._write_csv(path, [])
        records, summary = load_dataset(path)
        assert records == []
        assert summary.record_count == 0
        assert summary.skipped_count == 0

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DatasetError, match="header"):
            load_dataset(path)

    def test_nan_row_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        good = [0.0] * len(FEATURES) + ["DDoS-ICMP_Flood"]
        bad = [0.0] * len(FEATURES) + ["DDoS-ICMP_Flood"]
        bad[FEATURES.index("IAT")] = "NaN"
        self._write_csv(path, [good, bad])
        records, summary = load_dataset(path)
        assert len(records) == 1
        assert summary.record_count == 1
        assert summary.skipped_count == 1

    def test_missing_registry_column(self, tmp_path):
        path = tmp_path / "d.csv"
        header = [f for f in FEATURES if f != "Magnitude"] + ["label"]
        self._write_csv(path, [], header=header)
        with pytest.raises(DatasetError, match="Magnitude"):
            load_dataset(path)

    def test_label_column_required(self, tmp_path):
        path = tmp_path / "d.csv"
        self._write_csv(path, [], header=list(FEATURES))
        with pytest.raises(DatasetError, match="label"):
            load_dataset(path)
        records, _ = load_dataset(path, require_labels=False)
        assert records == []

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "d.csv"
        header = [*FEATURES, "Drate", "label"]
        row = [1.0] * len(FEATURES) + [99.0, "DDoS-UDP_Flood"]
        self._write_csv(path, [row], header=header)
        records, _ = load_dataset(path)
        assert len(records) == 1
        assert records[0].label is AttackLabel.UDP_FLOOD

    def test_round_trip_bit_exact(self, tmp_path):
        records = [
            make_record(AttackLabel.ICMP_FLOOD, **{"IAT": 83128994.35, "Min": 42.0}),
            make_record(AttackLabel.UDP_FLOOD, **{"Rate": 1 / 3, "Srate": 1e-12}),
        ]
        path = tmp_path / "round.csv"
        write_dataset(records, path)
        loaded, summary = load_dataset(path)
        assert summary.record_count == 2
        for original, reloaded in zip(records, loaded):
            assert original.label is reloaded.label
            for name in FEATURES:
                assert original.features[name] == reloaded.features[name]


class TestStratifiedSample:
    def _records(self, n_icmp, n_udp, seed=0):
        import numpy as np

        rng = np.random.Generator(np.random.PCG64(seed))
        out = []
        for _ in range(n_icmp):
            out.append(make_record(AttackLabel.ICMP_FLOOD, **{"IAT": float(rng.random())}))
        for _ in range(n_udp):
            out.append(make_record(AttackLabel.UDP_FLOOD, **{"IAT": float(rng.random())}))
        return out

    def test_reproducible_and_balanced(self):
        records = self._records(1000, 1000)
        a = stratified_sample(records, 500, seed=7)
        b = stratified_sample(records, 500, seed=7)
        assert a == b
        assert len(a) == 1000
        assert sum(1 for r in a if r.label is AttackLabel.ICMP_FLOOD) == 500

    def test_clamps_to_available(self):
        records = self._records(100, 0)
        out = stratified_sample(records, 500, seed=7)
        assert len(out) == 100

    def test_different_seeds_differ(self):
        records = self._records(1000, 1000)
        assert stratified_sample(records, 500, seed=7) != stratified_sample(records, 500, seed=8)

    def test_input_order_irrelevant(self):
        records = self._records(50, 50)
        shuffled = list(reversed(records))
        assert stratified_sample(records, 10, seed=3) == stratified_sample(shuffled, 10, seed=3)

    def test_label_major_order(self):
        records = self._records(10, 10)
        out = stratified_sample(records, 5, seed=1)
        labels = [r.label for r in out]
        assert labels == sorted(labels, key=lambda l: list(AttackLabel).index(l))

    def test_empty_input(self):
        assert stratified_sample([], 5, seed=1) == []


@given(st.text(max_size=40))
def test_canonicalize_is_total(raw):
    assert canonicalize_label(raw) in set(AttackLabel)
