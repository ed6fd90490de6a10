"""Detector backends behind one classify contract: a deterministic rule oracle
over structured constraints, an HTTP client for Ollama-style local LLM
endpoints, and a record/replay store for offline tests."""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from pathlib import Path
from typing import Protocol
from urllib.parse import urlsplit

from .flow_data import ATTACK_LABELS, AttackLabel, FlowRecord
from .kb_builder import InRange, KnowledgeBase, MandatoryEquals, StructuredKb, TypicalNear
from .prompting import DescribeMode, build_prompt, parse_response, record_digest


class DetectorError(Exception):
    """Base for all detector failures (distinct from an Unknown verdict)."""


class TransportError(DetectorError):
    """The endpoint could not be used; the classification never happened."""


class EndpointTimeout(TransportError):
    pass


class EndpointConnectionError(TransportError):
    pass


class EndpointStatusError(TransportError):
    def __init__(self, status: int, body: str = "", retry_after_s: float | None = None):
        super().__init__(f"endpoint returned HTTP {status}")
        self.status = status
        self.body = body
        #: Wait the endpoint asked for in a Retry-After header, in seconds from
        #: when the reply arrived (never negative).
        self.retry_after_s = retry_after_s


class EndpointProtocolError(TransportError):
    """The endpoint answered, but not in the documented wire format."""


class ReplayMissError(DetectorError):
    """Replay store has no response for the requested record digest."""


@dataclass(frozen=True)
class DetectionResult:
    predicted: AttackLabel
    raw_response: str | None
    latency_ms: float
    backend_id: str

    def __post_init__(self) -> None:
        if self.latency_ms < 0:
            raise ValueError("latency cannot be negative")


class Detector(Protocol):
    backend_id: str

    def classify(self, record: FlowRecord, kb=None) -> DetectionResult: ...


# ---------------------------------------------------------------------------
# Rule oracle.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuleOracleConfig:
    min_score: float = 0.5
    mandatory_strict: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_score <= 1.0:
            raise ValueError("min_score must lie in [0, 1]")


def _constraint_credit(record: FlowRecord, constraint) -> float:
    value = record.features[constraint.feature]
    if isinstance(constraint, MandatoryEquals):
        return 1.0 if abs(value - constraint.value) <= constraint.tolerance else 0.0
    if isinstance(constraint, InRange):
        return 1.0 if constraint.lo <= value <= constraint.hi else 0.0
    if isinstance(constraint, TypicalNear):
        delta = abs(value - constraint.value)
        if delta <= constraint.tolerance:
            return 1.0
        if delta <= 2.0 * constraint.tolerance:
            return 0.5  # near miss gets half credit
        return 0.0
    raise TypeError(f"unknown constraint type: {type(constraint)!r}")


def rule_oracle_scores(
    record: FlowRecord, kb: StructuredKb, config: RuleOracleConfig = RuleOracleConfig()
) -> dict[AttackLabel, float]:
    """Fraction of satisfied constraints per attack; a failed mandatory
    constraint zeroes the attack outright in strict mode."""
    scores: dict[AttackLabel, float] = {}
    for attack, constraints in kb.per_attack.items():
        if not constraints:
            continue
        credit = 0.0
        zeroed = False
        for constraint in constraints:
            c = _constraint_credit(record, constraint)
            if (
                config.mandatory_strict
                and isinstance(constraint, MandatoryEquals)
                and c == 0.0
            ):
                zeroed = True
                break
            credit += c
        scores[attack] = 0.0 if zeroed else credit / len(constraints)
    return scores


def rule_oracle_classify(
    record: FlowRecord, kb: StructuredKb, config: RuleOracleConfig = RuleOracleConfig()
) -> AttackLabel:
    """Deterministic argmax over constraint-satisfaction scores.

    Below min_score the verdict is Unknown; exact ties resolve in the fixed
    attack order (ICMP, UDP, TCP, PSHACK, SYN, RSTFIN, SynonymousIP).
    """
    if not kb.per_attack:
        raise ValueError("structured KB is empty")
    scores = rule_oracle_scores(record, kb, config)
    best_label = AttackLabel.UNKNOWN
    best_score = -1.0
    for attack in ATTACK_LABELS:
        score = scores.get(attack)
        if score is not None and score > best_score:
            best_score = score
            best_label = attack
    if best_score < config.min_score:
        return AttackLabel.UNKNOWN
    return best_label


class RuleOracleDetector:
    """Scores records against a structured KB; pure and thread-safe."""

    def __init__(self, kb: StructuredKb, config: RuleOracleConfig = RuleOracleConfig()):
        self.kb = kb
        self.config = config
        self.backend_id = "rule-oracle"

    def classify(self, record: FlowRecord, kb=None) -> DetectionResult:
        structured = kb if isinstance(kb, StructuredKb) else self.kb
        start = time.perf_counter()
        verdict = rule_oracle_classify(record, structured, self.config)
        latency = (time.perf_counter() - start) * 1000.0
        return DetectionResult(
            predicted=verdict, raw_response=None, latency_ms=latency,
            backend_id=self.backend_id,
        )


# ---------------------------------------------------------------------------
# LLM endpoint backend (Ollama-style generate API, or chat completions).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LlmEndpointConfig:
    base_url: str = "http://localhost:11434"
    model_name: str = "llama3.1:8b"
    request_timeout_s: float = 60.0
    max_retries: int = 2
    temperature: float = 0.0
    api: str = "generate"  # "generate" (Ollama) or "chat" (chat completions)
    max_in_flight: int = 4
    backoff_base_s: float = 0.25

    def __post_init__(self) -> None:
        url = urlsplit(self.base_url)
        # url.port itself raises ValueError for a port that is not a number in range.
        if url.scheme not in ("http", "https") or not url.hostname or url.port == 0:
            raise ValueError("base_url must be an http:// or https:// URL with a host")
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.api not in ("generate", "chat"):
            raise ValueError("api must be 'generate' or 'chat'")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")


def _retry_after_s(header: str | None) -> float | None:
    """Seconds a Retry-After header asks to wait, as delta-seconds or an
    HTTP-date (RFC 9110 section 10.2.3); None when absent or unreadable."""
    if header is None:
        return None
    header = header.strip()
    if header.isascii() and header.isdigit():
        return float(header)
    try:
        when = parsedate_to_datetime(header)
    except (TypeError, ValueError):
        return None
    if when.tzinfo is None:  # "-0000" zones parse naive; HTTP-dates are UTC
        when = when.replace(tzinfo=timezone.utc)
    return max((when - datetime.now(timezone.utc)).total_seconds(), 0.0)


class LlmDetector:
    """POSTs prompts to a local-LLM endpoint and parses the reply to a label.

    Transient failures (timeouts, connection errors, 429 and 5xx) are retried
    with exponential backoff up to max_retries, or after the Retry-After the
    endpoint sent, capped at request_timeout_s; other failures raise
    immediately.
    At most max_in_flight classify calls reach the endpoint at once, and each
    holds one keep-alive connection, so at most max_in_flight connections are
    open. Call close() to drop the idle ones.
    """

    def __init__(
        self,
        config: LlmEndpointConfig = LlmEndpointConfig(),
        mode: DescribeMode = DescribeMode.QUALITATIVE,
    ):
        self.config = config
        self.mode = mode
        self.backend_id = f"llm:{config.model_name}"
        self._gate = threading.Semaphore(config.max_in_flight)
        url = urlsplit(config.base_url)
        self._connection_class = (
            http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        )
        self._host = url.hostname
        self._port = url.port or self._connection_class.default_port
        endpoint = "/api/generate" if config.api == "generate" else "/v1/chat/completions"
        self._path = url.path.rstrip("/") + endpoint
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()

    def close(self) -> None:
        """Close the idle connections; later calls open new ones."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _connection(self) -> http.client.HTTPConnection:
        """An idle connection the peer has not closed, else a new one.

        An idle keep-alive socket that polls readable has seen the peer's
        close (or bytes sent out of turn), so it is dropped before it can
        fail a request and use up a retry.
        """
        with self._idle_lock:
            while self._idle:
                conn = self._idle.pop()
                if not select.select([conn.sock], [], [], 0)[0]:
                    return conn
                conn.close()
        # http.client sets TCP_NODELAY on connect, so the body it writes after
        # the headers does not wait on the peer's delayed ACK.
        return self._connection_class(self._host, self._port, timeout=self.config.request_timeout_s)

    def _request_once(self, prompt_text: str) -> tuple[str, float]:
        cfg = self.config
        if cfg.api == "generate":
            body = {
                "model": cfg.model_name,
                "prompt": prompt_text,
                "stream": False,
                "options": {"temperature": cfg.temperature},
            }
        else:
            body = {
                "model": cfg.model_name,
                "messages": [{"role": "user", "content": prompt_text}],
                "temperature": cfg.temperature,
            }
        start = time.perf_counter()
        conn = self._connection()
        reusable = False
        try:
            conn.request(
                "POST", self._path, json.dumps(body).encode(), {"Content-Type": "application/json"}
            )
            response = conn.getresponse()
            raw = response.read()
            reusable = not response.will_close
        except TimeoutError as exc:  # an OSError subclass, so it goes first
            raise EndpointTimeout(str(exc)) from exc
        except (OSError, http.client.HTTPException) as exc:
            raise EndpointConnectionError(str(exc) or type(exc).__name__) from exc
        finally:
            if reusable:
                with self._idle_lock:
                    self._idle.append(conn)
            else:
                conn.close()
        latency = (time.perf_counter() - start) * 1000.0
        if response.status != 200:
            raise EndpointStatusError(
                response.status,
                raw.decode("utf-8", "replace")[:500],
                _retry_after_s(response.getheader("Retry-After")),
            )
        try:
            payload = json.loads(raw)
            if cfg.api == "generate":
                text = payload["response"]
            else:
                text = payload["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise EndpointProtocolError(f"malformed response body: {exc}") from exc
        if not isinstance(text, str):
            raise EndpointProtocolError("response text field is not a string")
        return text, latency

    def _request_with_retries(self, prompt_text: str) -> tuple[str, float]:
        cfg = self.config
        last: TransportError | None = None
        for attempt in range(cfg.max_retries + 1):
            try:
                return self._request_once(prompt_text)
            except (EndpointTimeout, EndpointConnectionError) as exc:
                last = exc
            except EndpointStatusError as exc:
                if exc.status < 500 and exc.status != 429:
                    raise  # client errors are not transient; 429 asks for a retry
                last = exc
            if attempt < cfg.max_retries:
                delay = cfg.backoff_base_s * (2**attempt)
                if isinstance(last, EndpointStatusError) and last.retry_after_s is not None:
                    delay = min(last.retry_after_s, cfg.request_timeout_s)
                time.sleep(delay)
        assert last is not None
        raise last

    def classify(self, record: FlowRecord, kb: KnowledgeBase | None = None) -> DetectionResult:
        prompt = build_prompt(record, kb, self.mode)
        with self._gate:
            text, latency = self._request_with_retries(prompt.text)
        return DetectionResult(
            predicted=parse_response(text),
            raw_response=text,
            latency_ms=latency,
            backend_id=self.backend_id,
        )


# ---------------------------------------------------------------------------
# Record / replay.
# ---------------------------------------------------------------------------


@dataclass
class ReplayStore:
    """JSON-lines store of {digest, response, label} rows, keyed by digest."""

    rows: dict[str, tuple[str | None, AttackLabel]] = field(default_factory=dict)

    def record(self, digest: str, response: str | None, label: AttackLabel) -> None:
        self.rows[digest] = (response, label)

    def get(self, digest: str) -> tuple[str | None, AttackLabel]:
        if digest not in self.rows:
            raise ReplayMissError(f"no stored response for digest {digest[:12]}...")
        return self.rows[digest]

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for digest in sorted(self.rows):
                response, label = self.rows[digest]
                handle.write(
                    json.dumps(
                        {"digest": digest, "response": response, "label": label.render()}
                    )
                    + "\n"
                )

    @staticmethod
    def load(path: str | Path) -> "ReplayStore":
        from .flow_data import canonicalize_label

        store = ReplayStore()
        with Path(path).open(encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                store.rows[row["digest"]] = (
                    row.get("response"),
                    canonicalize_label(row["label"]),
                )
        return store


class ReplayDetector:
    """Serves the verdicts of the ReplayStore passed as classify's kb, one
    store per KB configuration. Fail-closed: a digest the store has never
    seen is an error."""

    backend_id = "replay"

    def classify(self, record: FlowRecord, kb: ReplayStore) -> DetectionResult:
        start = time.perf_counter()
        response, label = kb.get(record_digest(record))
        latency = (time.perf_counter() - start) * 1000.0
        return DetectionResult(
            predicted=label, raw_response=response, latency_ms=latency, backend_id=self.backend_id
        )


class RecordingDetector:
    """Wraps another backend and captures its verdicts for later replay."""

    def __init__(self, inner: Detector, store: ReplayStore):
        self.inner = inner
        self.store = store
        self.backend_id = inner.backend_id

    def classify(self, record: FlowRecord, kb=None) -> DetectionResult:
        result = self.inner.classify(record, kb)
        self.store.record(record_digest(record), result.raw_response, result.predicted)
        return result
