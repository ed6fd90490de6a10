from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kbforge.detectors import ReplayDetector, load_replay_store
from kbforge.evaluation import predict
from kbforge.flow_data import FEATURES, LABELS, AttackLabel, FlowTable, display_name
from kbforge.kb_builder import KbVariant, canonical_kb, format_number
from kbforge.prompting import (
    _FLAG_ORDER,
    _LABEL_PATTERNS,
    _PROTOCOL_NAMES,
    INSTRUCTION,
    KB_RELEVANT_FEATURES,
    LABEL_OPTIONS,
    OPTION_LIST,
    DescribeMode,
    build_prompt,
    describe_flow,
    flag_tag,
    iat_tag,
    parse_response,
    rate_tag,
    record_digest,
)
from kbforge.synth_traffic import default_spec, generate_dataset

from conftest import make_record


def reference_describe_flow(features: dict[str, float], mode: DescribeMode) -> str:
    """describe_flow as it read a record's features from a dict of floats."""
    if mode is DescribeMode.NUMERIC:
        return "\n".join(
            f"- {display_name(name)}: {format_number(features[name])}" for name in KB_RELEVANT_FEATURES
        )
    protocol_value = features["Protocol Type"]
    protocol = _PROTOCOL_NAMES.get(round(protocol_value), format_number(protocol_value))
    rate = features["Rate"]
    lines = [
        f"- Protocol Type: {protocol}",
        f"- Packet Rate: {format_number(rate)} packets/sec ({rate_tag(rate)})",
        f"- Inter-Arrival Time (IAT): {iat_tag(features['IAT'])}",
        "- TCP Flags:",
    ]
    for shown, feature in _FLAG_ORDER:
        lines.append(f"    - {shown}: {flag_tag(features[feature])}")
    return "\n".join(lines)


def reference_record_digest(features: dict[str, float]) -> str:
    """record_digest as it hashed a dict of floats."""
    body = "\n".join(f"{name}={features[name]!r}" for name in FEATURES)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def reference_parse_response(text: str) -> AttackLabel:
    """parse_response as one search per label: the earliest mention wins,
    ties go to the first in LABEL_OPTIONS, and none is Unknown."""
    best: tuple[int, int] | None = None
    best_label = AttackLabel.UNKNOWN
    for order, (label, pattern) in enumerate(_LABEL_PATTERNS):
        match = pattern.search(text)
        if match is not None and (best is None or (match.start(), order) < best):
            best, best_label = (match.start(), order), label
    return best_label


#: Feature values: signed zeros, subnormals, the tags' thresholds and the
#: protocol numbers, and finite floats of every magnitude, 1e-8 to 1e8 most.
_VALUES = (
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 0.5, 100.0, 1e6, 1e7, 1.0, 6.0, 17.0, 6.5, 0.005, 0.015])
    | st.floats(-1e8, 1e8)
    | st.floats(1e-8, 1e-6) | st.floats(-1e-6, -1e-8)
    | st.floats(allow_nan=False, allow_infinity=False)
)
_ROWS = st.lists(_VALUES, min_size=len(FEATURES), max_size=len(FEATURES))

#: Pieces of answers: whole labels, their parts, separators, and decoys that
#: hold a label's letters without naming it.
_FRAGMENTS = [
    *(label.render() for label in LABEL_OPTIONS),
    "DDoS", "ddos-", "Flood", "flood", "ICMP", "UDP", "tcp", "PSH", "ACK", "RST", "FIN", "SYN",
    "Synonymous", "IP", "Unknow", "unknown", "Normal", "NORMAL",
    "abnormal", "Unknowns", "PSH ACK flood", "rst_fin", "SynonymousIP",
    " ", "-", "_", "  ", ".", ",", "\n", "x",
]


def tcp_probe_record():
    return make_record(
        None,
        **{
            "Protocol Type": 6.0,
            "Rate": 450.0,
            "IAT": 1000.0,
            "SYN Flag Number": 1.0,
        },
    )


class TestDescribeFlow:
    def test_qualitative_shape(self):
        text = describe_flow(tcp_probe_record(), DescribeMode.QUALITATIVE)
        lines = text.split("\n")
        assert "- Protocol Type: TCP" in lines
        assert "- Packet Rate: 450.0 packets/sec (High)" in lines
        assert "- Inter-Arrival Time (IAT): Low" in lines
        assert "- TCP Flags:" in lines
        assert "    - SYN: Elevated" in lines
        assert "    - PSH: Normal" in lines

    def test_all_zero_flags_render_normal(self):
        text = describe_flow(make_record(None), DescribeMode.QUALITATIVE)
        for flag in ("SYN", "PSH", "ACK", "RST", "FIN"):
            assert f"    - {flag}: Normal" in text

    def test_deterministic(self):
        record = tcp_probe_record()
        assert describe_flow(record) == describe_flow(record)

    def test_numeric_mode_lists_values(self):
        record = make_record(None, **{"Min": 42.0, "IAT": 83128994.35})
        text = describe_flow(record, DescribeMode.NUMERIC)
        assert "- Min Packet Size: 42.0" in text
        assert "- Inter-Arrival Time (IAT): 83128994.35" in text

    def test_thresholds_total(self):
        for value in (-1e12, 0.0, 1e-9, 1e12):
            assert rate_tag(value) in ("High", "Normal")
            assert iat_tag(value) in ("High", "Low", "Normal")
            assert flag_tag(value) in ("Elevated", "Normal")


class TestAgainstDictReference:
    @settings(max_examples=300, deadline=None)
    @given(row=_ROWS)
    @example(row=[-0.0] * len(FEATURES))
    @example(row=[5e-324] * len(FEATURES))
    def test_prompt_and_digest_equal_the_dict_reference(self, row):
        (record,) = FlowTable(np.array([row]), np.full(1, -1, dtype=np.int8))
        features = dict(zip(FEATURES, row))
        for mode in DescribeMode:
            assert describe_flow(record, mode) == reference_describe_flow(features, mode)
        assert record_digest(record) == reference_record_digest(features)

    def test_store_of_reference_digests_replays(self, tmp_path):
        table, _ = generate_dataset(default_spec(n_per_attack=5, jitter=1.0, seed=4))
        store = tmp_path / "long_kb.jsonl"
        store.write_text("".join(
            json.dumps({"digest": reference_record_digest(dict(zip(FEATURES, row))), "label": LABELS[code].render()})
            + "\n" for row, code in zip(table.X.tolist(), table.codes.tolist())
        ), encoding="utf-8")
        assert predict(ReplayDetector(), table, load_replay_store(store)).tolist() == table.codes.tolist()


class TestBuildPrompt:
    def test_short_kb_prompt_tail(self):
        kb = canonical_kb(KbVariant.SHORT)
        prompt = build_prompt(tcp_probe_record(), kb)
        assert prompt.text.count(OPTION_LIST) == 1
        assert prompt.text.rstrip().endswith("Answer with exactly one label.")
        assert "DDoS-SynonymousIP_Flood, Unknown, Normal" in prompt.text

    def test_no_kb_omits_kb_section_only(self):
        prompt = build_prompt(tcp_probe_record(), None)
        assert "Knowledge Base:" not in prompt.text
        assert INSTRUCTION in prompt.text
        assert "Network Traffic Data:" in prompt.text

    def test_long_kb_embeds_all_entries(self):
        kb = canonical_kb(KbVariant.LONG)
        prompt = build_prompt(tcp_probe_record(), kb)
        for entry in kb.entries.values():
            assert entry in prompt.text

    def test_option_labels_each_appear_in_list(self):
        prompt = build_prompt(tcp_probe_record(), None)
        options_line = [l for l in prompt.text.split("\n") if OPTION_LIST in l][0]
        for label in LABEL_OPTIONS:
            assert options_line.count(label.render()) == 1

    def test_deterministic_and_digest_stable(self):
        record = tcp_probe_record()
        a = build_prompt(record, None)
        b = build_prompt(record, None)
        assert a == b
        other = make_record(None, **{"Min": 1.0})
        assert record_digest(record) != record_digest(other)


class TestParseResponse:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("The most likely attack type is DDoS-SYN_Flood.", AttackLabel.SYN_FLOOD),
            ("Could be DDoS-UDP_Flood or DDoS-TCP_Flood", AttackLabel.UDP_FLOOD),
            ("I cannot determine this.", AttackLabel.UNKNOWN),
            ("ddos icmp_flood!", AttackLabel.ICMP_FLOOD),
            ("DDoS-SynonymousIP_Flood", AttackLabel.SYNONYMOUS_IP_FLOOD),
            ("Answer: PSH-ACK flood", AttackLabel.PSHACK_FLOOD),
            ("this is rst fin flood traffic", AttackLabel.RSTFIN_FLOOD),
            ("Unknow", AttackLabel.UNKNOWN),
            ("looks Normal to me", AttackLabel.NORMAL),
            ("abnormality detected", AttackLabel.UNKNOWN),
        ],
    )
    def test_examples(self, text, expected):
        assert parse_response(text) is expected

    def test_round_trip_over_all_options(self):
        for label in LABEL_OPTIONS:
            sentence = f"The most likely attack type is {label.render()}."
            assert parse_response(sentence) is label

    def test_synonymousip_not_mistaken_for_syn(self):
        assert parse_response("DDoS-SynonymousIP_Flood it is") is AttackLabel.SYNONYMOUS_IP_FLOOD

    def test_first_occurrence_wins(self):
        text = "Either DDoS-PSHACK_Flood or DDoS-ICMP_Flood"
        assert parse_response(text) is AttackLabel.PSHACK_FLOOD

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map("".join))
    @example("Unknown or Normal")
    @example("PSH ACK flood, or abnormal")
    def test_one_alternation_equals_a_search_per_label(self, text):
        assert parse_response(text) is reference_parse_response(text)
