from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import socket
import time
from email.utils import formatdate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbforge.canonical import REFERENCE_PROFILES
from kbforge.detectors import (
    EndpointConnectionError,
    EndpointProtocolError,
    EndpointStatusError,
    EndpointTimeout,
    LlmDetector,
    LlmEndpointConfig,
    ReplayDetector,
    ReplayMissError,
    RuleOracleConfig,
    RuleOracleDetector,
    load_replay_store,
)
from kbforge.evaluation import evaluate
from kbforge.flow_data import ATTACK_LABELS, FEATURE_INDEX, LABELS, AttackLabel
from kbforge.kb_builder import Constraint, ConstraintKind, KbVariant, canonical_kb, structured_kb
from kbforge.profile import AttackProfile, FeatureProfile
from kbforge.prompting import record_digest

from conftest import feature_value, make_record, table_of

KB = structured_kb(tuple(REFERENCE_PROFILES.values()))


def oracle_verdict(record, kb, config=RuleOracleConfig()):
    return RuleOracleDetector(kb, config).classify(record)


def reference_credit(record, constraint) -> float:
    value = feature_value(record, constraint.feature)
    if constraint.kind is ConstraintKind.MANDATORY_EQUALS:
        return 1.0 if abs(value - constraint.a) <= constraint.b else 0.0
    if constraint.kind is ConstraintKind.IN_RANGE:
        return 1.0 if constraint.a <= value <= constraint.b else 0.0
    delta = abs(value - constraint.a)
    if delta <= constraint.b:
        return 1.0
    return 0.5 if delta <= 2.0 * constraint.b else 0.0


def reference_scores(record, kb, config):
    """The per-record, per-constraint oracle, one constraint at a time."""
    scores = {}
    for attack, constraints in kb.items():
        if not constraints:
            continue
        credit = 0.0
        zeroed = False
        for constraint in constraints:
            c = reference_credit(record, constraint)
            if config.mandatory_strict and constraint.kind is ConstraintKind.MANDATORY_EQUALS and c == 0.0:
                zeroed = True
                break
            credit += c
        scores[attack] = 0.0 if zeroed else credit / len(constraints)
    return scores


def reference_classify(record, kb, config):
    scores = reference_scores(record, kb, config)
    best_label, best_score = AttackLabel.UNKNOWN, -1.0
    for attack in ATTACK_LABELS:
        score = scores.get(attack)
        if score is not None and score > best_score:
            best_score, best_label = score, attack
    return AttackLabel.UNKNOWN if best_score < config.min_score else best_label


@st.composite
def oracle_cases(draw, rows: int = 1):
    """A structured KB (the reference one, or one built from random profiles
    over a few features), `rows` records whose values sit on and around its
    constraint edges (features no constraint reads stay 0.0), and an oracle
    config."""
    if draw(st.booleans()):
        kb = KB
    else:
        names = ("Protocol Type", "Rate", "IAT", "Min")
        profiles = []
        for attack in draw(st.lists(st.sampled_from(list(AttackLabel)), min_size=1, max_size=4, unique=True)):
            stats = []
            for name in draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True)):
                lo, mid, hi = sorted(draw(st.lists(st.sampled_from([0.0, 1.0, 6.0, 17.0, 50.0, 100.0]),
                                                   min_size=3, max_size=3)))
                stats.append(FeatureProfile(name, lo, mid, hi))
            profiles.append(AttackProfile(attack, tuple(stats), k=len(stats)))
        kb = structured_kb(profiles)
    edges = {0.0}
    for constraints in kb.values():
        for c in constraints:
            if c.kind is ConstraintKind.IN_RANGE:
                edges |= {c.a, c.b}
            else:
                edges |= {c.a, c.a + c.b, c.a - 2.0 * c.b, c.a + 1.5 * c.b, c.a + 3.0 * c.b}
    value = st.sampled_from(sorted(edges)) | st.floats(-1e8, 1e8, allow_nan=False)
    read = sorted({c.feature for constraints in kb.values() for c in constraints})
    records = [make_record(None, **{name: draw(value) for name in read}) for _ in range(rows)]
    config = RuleOracleConfig(min_score=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)))
    return records, kb, config


def icmp_flow():
    return make_record(
        AttackLabel.ICMP_FLOOD,
        **{
            "Protocol Type": 1.0, "ICMP": 1.0, "Min": 42.0, "Magnitude": 9.17,
            "AVG": 42.0, "Tot sum": 441.0, "Max": 42.0, "Tot size": 42.0,
            "IAT": 8.3e7,
        },
    )


def pshack_flow():
    return make_record(
        AttackLabel.PSHACK_FLOOD,
        **{
            "PSH Flag Number": 1.0, "ACK Flag Number": 1.0, "URG Count": 1.0,
            "RST Count": 1.0, "IAT": 8.33e7, "Tot size": 54.0, "Magnitude": 10.39,
            "AVG": 54.0, "Max": 54.0,
        },
    )


class TestRuleOracle:
    def test_icmp_typical_flow(self):
        assert oracle_verdict(icmp_flow(), KB) is AttackLabel.ICMP_FLOOD

    def test_pshack_typical_flow(self):
        assert oracle_verdict(pshack_flow(), KB) is AttackLabel.PSHACK_FLOOD

    def test_all_zero_flow_is_unknown(self):
        assert oracle_verdict(make_record(None), KB) is AttackLabel.UNKNOWN

    def test_kb_without_flood_attacks_classifies_unknown(self):
        assert oracle_verdict(icmp_flow(), {}) is AttackLabel.UNKNOWN

    @staticmethod
    def broken_icmp_flow():
        """The ICMP flow with its mandatory protocol rule failed."""
        flow = icmp_flow()
        flow.features[FEATURE_INDEX["Protocol Type"]] = 2.0
        return flow

    def test_mandatory_failure_zeroes_attack(self):
        icmp_only = {AttackLabel.ICMP_FLOOD: KB[AttackLabel.ICMP_FLOOD]}
        flow = self.broken_icmp_flow()
        # Scored exactly 0: it meets a threshold of 0 and misses the least one above.
        assert oracle_verdict(flow, icmp_only, RuleOracleConfig(min_score=0.0)) is AttackLabel.ICMP_FLOOD
        above_zero = RuleOracleConfig(min_score=math.nextafter(0.0, 1.0))
        assert oracle_verdict(flow, icmp_only, above_zero) is AttackLabel.UNKNOWN
        assert oracle_verdict(flow, KB) is AttackLabel.UNKNOWN

    def test_mandatory_lenient_mode_keeps_partial_credit(self):
        rules = KB[AttackLabel.ICMP_FLOOD]
        # Every rule but the failed one holds: the score is (n - 1) / n.
        partial = (len(rules) - 1) / len(rules)
        flow = self.broken_icmp_flow()
        lenient = RuleOracleConfig(min_score=partial, mandatory_strict=False)
        assert oracle_verdict(flow, KB, lenient) is AttackLabel.ICMP_FLOOD
        above = RuleOracleConfig(min_score=math.nextafter(partial, 1.0), mandatory_strict=False)
        assert oracle_verdict(flow, KB, above) is AttackLabel.UNKNOWN
        strict = RuleOracleConfig(min_score=partial)
        assert oracle_verdict(flow, KB, strict) is AttackLabel.UNKNOWN

    def test_typical_near_half_credit(self):
        kb = {
            AttackLabel.UDP_FLOOD: (
                Constraint("Rate", ConstraintKind.IN_RANGE, 0.0, 100.0),
                Constraint("Rate", ConstraintKind.TYPICAL_NEAR, 50.0, 10.0),
            )
        }
        # 65 lies within twice the tolerance of 50, 95 beyond it. Each score is
        # met as a threshold, and the next threshold up is missed.
        for rate, score in ((50.0, 1.0), (65.0, 0.75), (95.0, 0.5)):
            record = make_record(None, Rate=rate)
            assert oracle_verdict(record, kb, RuleOracleConfig(min_score=score)) is AttackLabel.UDP_FLOOD
            if score < 1.0:
                above = RuleOracleConfig(min_score=math.nextafter(score, 1.0))
                assert oracle_verdict(record, kb, above) is AttackLabel.UNKNOWN

    def test_determinism(self):
        flow = pshack_flow()
        assert all(
            oracle_verdict(flow, KB) is AttackLabel.PSHACK_FLOOD for _ in range(5)
        )

    def test_detector_wrapper(self):
        detector = RuleOracleDetector(KB)
        assert detector.classify(icmp_flow()) is AttackLabel.ICMP_FLOOD
        assert detector.backend_id == "rule-oracle"

    def test_pshack_sparse_flow_with_zeros_elsewhere(self):
        # only the push/ack signature plus size and timing are set
        flow = make_record(
            None,
            **{"PSH Flag Number": 1.0, "ACK Flag Number": 1.0, "Tot size": 54.0, "IAT": 8.33e7},
        )
        assert oracle_verdict(flow, KB) is AttackLabel.PSHACK_FLOOD

    def test_argmax_invariant_under_positive_scaling(self):
        # min_score only gates Unknown: at every threshold the best score meets,
        # the winner stays the same attack.
        for min_score in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert oracle_verdict(pshack_flow(), KB, RuleOracleConfig(min_score=min_score)) is AttackLabel.PSHACK_FLOOD

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
    @settings(max_examples=200, deadline=None)
    @given(case=oracle_cases())
    def test_compiled_oracle_equals_per_constraint_reference(self, strict, case):
        (record,), kb, config = case
        config = RuleOracleConfig(min_score=config.min_score, mandatory_strict=strict)
        expected = reference_classify(record, kb, config)
        assert oracle_verdict(record, kb, config) is expected

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
    @settings(max_examples=100, deadline=None)
    @given(case=oracle_cases(rows=4))
    def test_table_verdicts_equal_per_row_reference(self, strict, case):
        records, kb, config = case
        config = RuleOracleConfig(min_score=config.min_score, mandatory_strict=strict)
        codes = RuleOracleDetector(kb, config).classify_table(table_of(records).X)
        assert [LABELS[code] for code in codes] == [reference_classify(r, kb, config) for r in records]


class TestLlmDetector:
    def _config(self, stub, **overrides):
        defaults = dict(
            base_url=stub.base_url,
            model_name="llama3.1:8b",
            request_timeout_s=2.0,
            max_retries=2,
            temperature=0.0,
            backoff_base_s=0.01,
        )
        defaults.update(overrides)
        return LlmEndpointConfig(**defaults)

    def test_generate_wire_format(self, stub_server, llm_detector):
        stub_server.set_script([{"status": 200, "json": {"response": "DDoS-ICMP_Flood"}}])
        detector = llm_detector(self._config(stub_server))
        assert detector.classify(icmp_flow()) is AttackLabel.ICMP_FLOOD
        assert detector.backend_id == "llm:llama3.1:8b"
        request = stub_server.requests[0]
        assert request["path"] == "/api/generate"
        body = request["body"]
        assert set(body) == {"model", "prompt", "stream", "options"}
        assert body["model"] == "llama3.1:8b"
        assert body["stream"] is False
        assert isinstance(body["prompt"], str) and body["prompt"]
        assert set(body["options"]) == {"temperature"}
        assert body["options"]["temperature"] == 0.0

    def test_chat_wire_format(self, stub_server, llm_detector):
        stub_server.set_script(
            [{"status": 200,
              "json": {"choices": [{"message": {"content": "DDoS-UDP_Flood"}}]}}]
        )
        config = self._config(stub_server, api="chat")
        assert llm_detector(config).classify(icmp_flow()) is AttackLabel.UDP_FLOOD
        request = stub_server.requests[0]
        assert request["path"] == "/v1/chat/completions"
        body = request["body"]
        assert set(body) == {"model", "messages", "temperature"}
        assert body["messages"][0]["role"] == "user"

    @pytest.mark.parametrize(
        "api,kb,prefix,path,sha256,length",
        [
            ("generate", None, "", "/api/generate",
             "425d30ed7583b226f7abd90c3d9f872560243dc6f094bd1c72e9d65c549a6d85", 587),
            ("generate", KbVariant.LONG, "/ollama/", "/ollama/api/generate",
             "97db5db2d681684760fb692073778306d56e945c874f17c76d5da5aed2d74f00", 4093),
            ("chat", None, "", "/v1/chat/completions",
             "2da4cbd06f9e81f8ec43a4d5737a40cda1e37fe89fd74f0fe764e5f83867ca96", 590),
            ("chat", KbVariant.LONG, "/proxy", "/proxy/v1/chat/completions",
             "cddbdb4848ae5e536cfbfff1126e8f5a80bcc939fc8a402c8011960021c9af45", 4096),
        ],
        ids=["generate-no-kb", "generate-long-kb-prefix", "chat-no-kb", "chat-long-kb-prefix"],
    )
    def test_request_bytes_are_pinned(
        self, stub_server, llm_detector, api, kb, prefix, path, sha256, length
    ):
        # One reply that both APIs can read.
        stub_server.set_script([{"status": 200, "json": {
            "response": "Normal", "choices": [{"message": {"content": "Normal"}}]}}])
        config = self._config(stub_server, base_url=stub_server.base_url + prefix, api=api)
        knowledge = None if kb is None else canonical_kb(kb)
        assert llm_detector(config).classify(icmp_flow(), knowledge) is AttackLabel.NORMAL
        (request,) = stub_server.requests
        host, port = stub_server.server.server_address
        assert request["path"] == path
        assert request["headers"] == [
            ("Host", f"{host}:{port}"),
            ("Accept-Encoding", "identity"),
            ("Content-Length", str(length)),
            ("Content-Type", "application/json"),
        ]
        assert len(request["raw"]) == length
        assert hashlib.sha256(request["raw"]).hexdigest() == sha256

    def test_a_retry_sends_the_same_bytes(self, stub_server, llm_detector):
        stub_server.set_script(
            [{"status": 503, "raw": "busy"}, {"status": 200, "json": {"response": "Normal"}}]
        )
        assert llm_detector(self._config(stub_server)).classify(icmp_flow()) is AttackLabel.NORMAL
        first, second = stub_server.requests
        assert first["raw"] == second["raw"]
        assert (first["path"], first["headers"]) == (second["path"], second["headers"])

    def test_retry_succeeds_after_two_transient_failures(self, stub_server, llm_detector):
        stub_server.set_script(
            [
                {"status": 500, "raw": "boom"},
                {"status": 500, "raw": "boom"},
                {"status": 200, "json": {"response": "Normal"}},
            ]
        )
        result = llm_detector(self._config(stub_server, max_retries=2)).classify(icmp_flow())
        assert result is AttackLabel.NORMAL
        assert len(stub_server.requests) == 3

    def test_insufficient_retries_fail(self, stub_server, llm_detector):
        stub_server.set_script(
            [
                {"status": 500, "raw": "boom"},
                {"status": 500, "raw": "boom"},
                {"status": 200, "json": {"response": "Normal"}},
            ]
        )
        with pytest.raises(EndpointStatusError):
            llm_detector(self._config(stub_server, max_retries=1)).classify(icmp_flow())
        assert len(stub_server.requests) == 2

    def test_client_error_is_not_retried(self, stub_server, llm_detector):
        for status in (400, 404):
            stub_server.set_script([{"status": status, "raw": "nope"}])
            with pytest.raises(EndpointStatusError) as info:
                llm_detector(self._config(stub_server, max_retries=3)).classify(icmp_flow())
            assert info.value.status == status
            assert len(stub_server.requests) == 1

    @pytest.mark.parametrize(
        "retry_after,overrides",
        [("0", {"backoff_base_s": 5.0}), ("3600", {"request_timeout_s": 0.3})],
        ids=["header-beats-backoff", "capped-at-timeout"],
    )
    def test_rate_limit_is_retried_as_the_header_asks(
        self, stub_server, llm_detector, retry_after, overrides
    ):
        stub_server.set_script(
            [
                {"status": 429, "raw": "slow down", "headers": {"Retry-After": retry_after}},
                {"status": 200, "json": {"response": "Normal"}},
            ]
        )
        start = time.perf_counter()
        result = llm_detector(self._config(stub_server, **overrides)).classify(icmp_flow())
        assert time.perf_counter() - start < 2.0
        assert result is AttackLabel.NORMAL
        assert len(stub_server.requests) == 2

    def test_rate_limit_http_date_retry_after(self, stub_server, llm_detector):
        # HTTP-dates have whole-second resolution, so the wait is at most 1 s.
        stub_server.set_script(
            [
                {"status": 429, "raw": "slow down",
                 "headers": {"Retry-After": formatdate(time.time() + 1.0, usegmt=True)}},
                {"status": 200, "json": {"response": "Normal"}},
            ]
        )
        start = time.perf_counter()
        result = llm_detector(self._config(stub_server, backoff_base_s=5.0)).classify(icmp_flow())
        assert time.perf_counter() - start < 2.5
        assert result is AttackLabel.NORMAL
        assert len(stub_server.requests) == 2

    def test_connections_are_kept_alive_up_to_max_in_flight(self, keep_alive_server):
        detector = LlmDetector(self._config(keep_alive_server, max_in_flight=2))
        records = [icmp_flow() for _ in range(40)]
        try:
            cm = evaluate(detector, table_of(records), workers=4)
        finally:
            detector.close()
        assert cm.total == 40
        assert len(keep_alive_server.requests) == 40
        assert 1 <= keep_alive_server.connections_opened <= 2

    def test_connection_closed_by_server_while_idle_is_not_a_retry(self, keep_alive_server):
        detector = LlmDetector(self._config(keep_alive_server, backoff_base_s=5.0))
        try:
            detector.classify(icmp_flow())
            (idle,) = detector._idle
            assert idle.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            keep_alive_server.drop_connections()
            start = time.perf_counter()
            result = detector.classify(icmp_flow())
            assert time.perf_counter() - start < 1.0
        finally:
            detector.close()
        assert result is AttackLabel.NORMAL
        assert len(keep_alive_server.requests) == 2
        assert keep_alive_server.connections_opened == 2

    def test_kept_alive_connection_on_a_descriptor_past_1023_is_reused(self, keep_alive_server):
        # select.select takes no descriptor of 1024 or more; the idle check must not use it.
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if hard != resource.RLIM_INFINITY and hard < 1100:
            pytest.skip(f"the hard RLIMIT_NOFILE, {hard}, leaves no room past descriptor 1023")
        if soft != resource.RLIM_INFINITY and soft < 1100:
            resource.setrlimit(resource.RLIMIT_NOFILE, (1100, hard))
        filler: list[int] = []
        detector = LlmDetector(self._config(keep_alive_server))
        try:
            while not filler or filler[-1] < 1023:  # the next descriptor is at least 1024
                filler.append(os.open(os.devnull, os.O_RDONLY))
            assert detector.classify(icmp_flow()) is AttackLabel.NORMAL
            assert detector._idle[0].sock.fileno() >= 1024
            assert detector.classify(icmp_flow()) is AttackLabel.NORMAL
        finally:
            detector.close()
            for fd in filler:
                os.close(fd)
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        assert len(keep_alive_server.requests) == 2
        assert keep_alive_server.connections_opened == 1

    def test_latency_covers_every_attempt_and_backoff(self, stub_server, llm_detector):
        stub_server.set_script(
            [{"status": 503, "raw": "busy"}, {"status": 200, "json": {"response": "Normal"}}]
        )
        detector = llm_detector(self._config(stub_server, backoff_base_s=0.2))
        start = time.perf_counter()
        assert detector.classify(icmp_flow()) is AttackLabel.NORMAL
        assert len(stub_server.requests) == 2
        assert time.perf_counter() - start >= 0.2

    def test_timeout_raises_timeout_kind(self, stub_server, llm_detector):
        stub_server.set_script(
            [{"status": 200, "json": {"response": "Normal"}, "delay": 1.0}] * 2
        )
        config = self._config(stub_server, request_timeout_s=0.2, max_retries=1)
        with pytest.raises(EndpointTimeout):
            llm_detector(config).classify(icmp_flow())

    def test_unreachable_endpoint_is_connection_error(self, llm_detector):
        config = LlmEndpointConfig(
            base_url="http://127.0.0.1:9",  # discard port; nothing listens
            request_timeout_s=0.5,
            max_retries=0,
            backoff_base_s=0.01,
        )
        with pytest.raises(EndpointConnectionError):
            llm_detector(config).classify(icmp_flow())

    def test_malformed_body_is_protocol_error(self, stub_server, llm_detector):
        stub_server.set_script([{"status": 200, "json": {"unexpected": 1}}])
        with pytest.raises(EndpointProtocolError):
            llm_detector(self._config(stub_server)).classify(icmp_flow())

    def test_unparseable_text_maps_to_unknown_not_error(self, stub_server, llm_detector):
        stub_server.set_script([{"status": 200, "json": {"response": "no idea, sorry"}}])
        assert llm_detector(self._config(stub_server)).classify(icmp_flow()) is AttackLabel.UNKNOWN

    def test_temperature_zero_is_reproducible_against_stub(self, stub_server, llm_detector):
        stub_server.set_script([{"status": 200, "json": {"response": "DDoS-TCP_Flood"}}])
        detector = llm_detector(self._config(stub_server))
        first = detector.classify(icmp_flow())
        second = detector.classify(icmp_flow())
        assert first is second is AttackLabel.TCP_FLOOD

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LlmEndpointConfig(request_timeout_s=0)
        with pytest.raises(ValueError):
            LlmEndpointConfig(max_retries=-1)
        with pytest.raises(ValueError):
            LlmEndpointConfig(temperature=-0.1)
        with pytest.raises(ValueError):
            LlmEndpointConfig(api="grpc")
        for base_url in ("localhost:11434", "ftp://localhost", "http://", "http://h:99999"):
            with pytest.raises(ValueError):
                LlmEndpointConfig(base_url=base_url)


class TestReplay:
    def test_round_trip(self, tmp_path):
        records = [icmp_flow(), pshack_flow()]
        path = tmp_path / "store.jsonl"
        path.write_text("".join(
            json.dumps({"digest": record_digest(r), "response": "stored text", "label": r.label.render()})
            + "\n" for r in records
        ))
        loaded = load_replay_store(path)
        for record in records:
            assert ReplayDetector().classify(record, loaded) is record.label

    def test_a_row_repeated_with_its_label_loads(self, tmp_path):
        record = icmp_flow()
        row = json.dumps({"digest": record_digest(record), "label": "DDoS-ICMP_Flood"}) + "\n"
        path = tmp_path / "store.jsonl"
        path.write_text(row + row, encoding="utf-8")
        assert load_replay_store(path) == {record_digest(record): AttackLabel.ICMP_FLOOD}

    def test_missing_digest_fails_closed(self):
        with pytest.raises(ReplayMissError):
            ReplayDetector().classify(icmp_flow(), {})
