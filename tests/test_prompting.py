from __future__ import annotations

import pytest

from kbforge.flow_data import AttackLabel
from kbforge.kb_builder import KbVariant, canonical_kb
from kbforge.prompting import (
    INSTRUCTION,
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

from conftest import make_record


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
