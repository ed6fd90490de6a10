from __future__ import annotations

import csv
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kbforge import flow_data
from kbforge.flow_data import (
    ATTACK_LABELS,
    FEATURES,
    AttackLabel,
    DatasetError,
    DatasetSummary,
    FlowRecord,
    FlowTable,
    canonicalize_label,
    load_dataset,
    stratified_sample,
    write_dataset,
)

from conftest import make_record, table_of


def reference_load(path) -> tuple[list[FlowRecord], DatasetSummary]:
    """The per-row parser the columnar ingest replaced, for a header that
    names the registry features and "label" exactly, in any order and among
    other columns: float() per cell into a dict, and the row skipped when it
    stops before a column it uses or at its first unparsable or non-finite
    value."""
    records, summary = [], DatasetSummary()
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        columns = {name: i for i, name in enumerate(header) if name in FEATURES}
        label_index = header.index("label")
        width = max(*columns.values(), label_index) + 1
        for row in reader:
            if not row or len(row) < width:
                summary.skipped_count += 1
                continue
            values: dict[str, float] = {}
            ok = True
            for name, index in columns.items():
                try:
                    value = float(row[index])
                except ValueError:
                    ok = False
                    break
                if not math.isfinite(value):
                    ok = False
                    break
                values[name] = value
            if not ok:
                summary.skipped_count += 1
                continue
            label = canonicalize_label(row[label_index])
            records.append(FlowRecord(np.array([values[name] for name in FEATURES]), label))
            summary.record_count += 1
            summary.per_label_counts[label] += 1
    return records, summary


def reference_stratified_sample(records: list[FlowRecord], n_per_class: int, seed: int) -> list[FlowRecord]:
    """The sampler the columnar one replaced: a stable sort of each label's
    records by their feature tuple, then the seeded draw."""
    by_label: dict[AttackLabel, list[FlowRecord]] = {}
    for record in records:
        if record.label is not None:
            by_label.setdefault(record.label, []).append(record)
    out: list[FlowRecord] = []
    for ordinal, label in enumerate(AttackLabel):
        group = by_label.get(label)
        if not group:
            continue
        group = sorted(group, key=lambda r: tuple(r.features.tolist()))
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, ordinal))))
        picks = rng.permutation(len(group))[: min(n_per_class, len(group))]
        out.extend(group[i] for i in picks)
    return out


def exact(records) -> list[tuple]:
    """Labels and value reprs, so -0.0 and 0.0 count as different."""
    return [(r.label, tuple(map(repr, r.features.tolist()))) for r in records]


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
        assert record.features.tolist() == [float(i) for i in range(len(FEATURES))]

    def test_display_spellings_resolve(self, tmp_path):
        self._assert_resolves(tmp_path, {})

    def test_dataset_spellings(self, tmp_path):
        self._assert_resolves(tmp_path, {
            "Magnitude": "Magnitue", "Flow Duration": "flow_duration",
            "SYN Flag Number": "syn_flag_number", "Tot sum": "tot_sum",
        })

    def test_case_and_separator_insensitive(self, tmp_path):
        self._assert_resolves(tmp_path, {"Tot sum": "TOT_SUM", "Header Length": "header length"})


class TestFlowTable:
    @pytest.mark.parametrize(
        "row",
        [[math.nan] + [0.0] * 31, [0.0] * 31 + [math.inf], [0.0] * 31],
        ids=["nan", "inf", "31-values"],
    )
    def test_assignment_rejects_a_bad_row_before_it_writes(self, row):
        table = table_of([make_record(AttackLabel.UDP_FLOOD, Min=2.5), make_record(None, IAT=1e-3)])
        before = table.X.copy(), table.codes.copy()
        with pytest.raises(ValueError, match="finite values"):
            table[1] = FlowRecord(np.array(row), AttackLabel.ICMP_FLOOD)
        assert table.X.tobytes() == before[0].tobytes()
        assert table.codes.tolist() == before[1].tolist()

    @pytest.mark.parametrize(
        "X,codes",
        [
            (np.zeros((2, 31)), np.zeros(2, np.int8)),
            (np.zeros((2, 32)), np.zeros(3, np.int8)),
            (np.zeros((2, 32)), np.zeros(2)),
            (np.zeros((2, 32), np.float32), np.zeros(2, np.int8)),
            (np.zeros(32), np.zeros(1, np.int8)),
        ],
        ids=["31-columns", "3-codes-for-2-rows", "float-codes", "float32-X", "1-d-X"],
    )
    def test_construction_rejects_a_bad_shape_or_dtype(self, X, codes):
        with pytest.raises(ValueError, match="a flow table's"):
            FlowTable(X, codes)

    def test_rows_read_as_copies(self):
        table = table_of([make_record(AttackLabel.UDP_FLOOD, Min=2.5)])
        record = table[0]
        record.features[:] = 7.0
        assert record.label is AttackLabel.UDP_FLOOD
        assert table.X[0].tolist() == make_record(Min=2.5).features.tolist()


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
        assert len(records) == 0
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
        assert len(records) == 0

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
        write_dataset(table_of(records), path)
        loaded, summary = load_dataset(path)
        assert summary.record_count == 2
        for original, reloaded in zip(records, loaded):
            assert original.label is reloaded.label
            assert original.features.tobytes() == reloaded.features.tobytes()


class TestStratifiedSample:
    def _records(self, n_icmp, n_udp, seed=0):
        import numpy as np

        rng = np.random.Generator(np.random.PCG64(seed))
        out = []
        for _ in range(n_icmp):
            out.append(make_record(AttackLabel.ICMP_FLOOD, **{"IAT": float(rng.random())}))
        for _ in range(n_udp):
            out.append(make_record(AttackLabel.UDP_FLOOD, **{"IAT": float(rng.random())}))
        return table_of(out)

    def test_reproducible_and_balanced(self):
        records = self._records(1000, 1000)
        a = stratified_sample(records, 500, seed=7)
        b = stratified_sample(records, 500, seed=7)
        assert exact(a) == exact(b)
        assert len(a) == 1000
        assert sum(1 for r in a if r.label is AttackLabel.ICMP_FLOOD) == 500

    def test_clamps_to_available(self):
        records = self._records(100, 0)
        out = stratified_sample(records, 500, seed=7)
        assert len(out) == 100

    def test_different_seeds_differ(self):
        records = self._records(1000, 1000)
        assert exact(stratified_sample(records, 500, seed=7)) != exact(stratified_sample(records, 500, seed=8))

    def test_input_order_irrelevant(self):
        records = self._records(50, 50)
        shuffled = records.take(np.arange(len(records))[::-1])
        assert exact(stratified_sample(records, 10, seed=3)) == exact(stratified_sample(shuffled, 10, seed=3))

    def test_label_major_order(self):
        records = self._records(10, 10)
        out = stratified_sample(records, 5, seed=1)
        labels = [r.label for r in out]
        assert labels == sorted(labels, key=lambda l: list(AttackLabel).index(l))

    def test_empty_input(self):
        assert len(stratified_sample(table_of([]), 5, seed=1)) == 0


@given(st.text(max_size=40))
def test_canonicalize_is_total(raw):
    assert canonicalize_label(raw) in set(AttackLabel)


#: Cells the ingest must treat exactly as Python's float() does: np.loadtxt
#: rejects "1_000", "1e5_0" and "١", which float() reads, and strips "\x1c"
#: around a number, which float() rejects. "#" starts a comment for np.loadtxt
#: unless told otherwise; a quote, "\r" and NUL mean something to csv.reader
#: and not to np.loadtxt.
_CELLS = ["0", "1.5", "-3", "1_000", " 2.5 ", "nan", "NaN", "inf", "-inf", "1e400", "-0.0", "", "abc",
          "1e-320", "0x10", "+7", "4.2e1", "1e5_0", "\u0661", "\ufeff1", "\x1c2", "#", "1#2", '"1.5"', '"1,5"',
          '"2\n3"', '"', "\x00"]
#: Cells np.loadtxt reads as float() does, so that some blocks take the fast path.
_CLEAN_CELLS = ["0", "1.5", "-0.0", " 2.5 ", "7e-3"]
_LABELS = ["DDoS-ICMP_Flood", "udp_flood", "Normal", "Unknow", "", "x", '"DDoS-ICMP_Flood"', "#Normal", "x\x00"]


@st.composite
def csv_files(draw) -> str:
    """A CSV text: the registry features in any order, "label", and maybe an
    extra column, then rows of every shape, each with its own line end."""
    header = [*draw(st.permutations(FEATURES)), "label"]
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, len(header))), "Drate")
    label_index = header.index("label")
    cell = st.sampled_from(_CELLS) | st.floats(allow_nan=False, allow_infinity=False).map(repr)
    end = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])
    lines = [",".join(header) + draw(end)]
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(["full", "full", "full", "extra", "short", "blank", "spaces"]))
        if shape in ("blank", "spaces"):
            lines.append(("" if shape == "blank" else draw(st.sampled_from([" ", "\t", "  "]))) + draw(end))
            continue
        width = {"full": len(header), "extra": len(header) + draw(st.integers(1, 3))}.get(shape)
        if width is None:  # stops before the last column, often before the label
            width = draw(st.integers(1, len(header) - 1))
        # Clean rows with at most two other cells, so that many rows survive
        # and many blocks take the fast path unless an odd cell stops them.
        cells = [draw(st.sampled_from(_CLEAN_CELLS)) for _ in range(width)]
        for _ in range(draw(st.integers(0, 2))):
            cells[draw(st.integers(0, width - 1))] = draw(cell)
        if width > label_index:
            cells[label_index] = draw(st.sampled_from(_LABELS))
        lines.append(",".join(cells) + draw(end))
    return "".join(lines)


def outcome(load, path):
    """What a loader returns, or the csv.Error it raises: Python 3.10's
    csv.reader rejects a line that holds NUL."""
    try:
        table, summary = load(path)
    except csv.Error as exc:
        return str(exc)
    return exact(table), summary.to_dict(), summary.per_label_counts


class TestAgainstPerRowReference:
    @settings(max_examples=200, deadline=None)
    @given(text=csv_files(), block=st.sampled_from([1, 3, flow_data.BLOCK_LINES]))
    @example(text=",".join([*FEATURES, "label"]), block=flow_data.BLOCK_LINES)  # header only, no line end
    @example(text=",".join([*FEATURES, "label"]) + "\n\n", block=1)  # a block of one blank line
    def test_ingest_equals_per_row_float_parser(self, tmp_path_factory, text, block):
        # np.loadtxt warns on a block with no rows, and a warning fails the test.
        path = tmp_path_factory.mktemp("ingest") / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with mock.patch.object(flow_data, "BLOCK_LINES", block):
            got = outcome(load_dataset, path)
        assert got == outcome(reference_load, path)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([None, AttackLabel.ICMP_FLOOD, AttackLabel.UDP_FLOOD, AttackLabel.NORMAL]),
                st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.0]), min_size=3, max_size=3),
            ),
            max_size=40,
        ),
        n_per_class=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    def test_sample_equals_stable_sort_by_vector(self, rows, n_per_class, seed):
        # Few distinct values in three columns, so rows tie on many keys.
        records = [make_record(label, **dict(zip(("AVG", "IAT", "Rate"), values))) for label, values in rows]
        got = stratified_sample(table_of(records), n_per_class, seed)
        assert exact(got) == exact(reference_stratified_sample(records, n_per_class, seed))
