"""Detector backends behind one classify contract: a deterministic rule oracle
over structured constraints, an HTTP client for Ollama-style local LLM
endpoints, and a replay of stored verdicts for offline tests."""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Protocol
from urllib.parse import urlsplit

import numpy as np

from .flow_data import ATTACK_LABELS, FEATURE_INDEX, LABEL_CODES, LABELS, AttackLabel, FlowRecord, canonicalize_label
from .kb_builder import ConstraintKind, KnowledgeBase, StructuredKb
from .params import LlmEndpointConfig, RuleOracleConfig
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


class Detector(Protocol):
    backend_id: str

    def classify(self, record: FlowRecord, kb=None) -> AttackLabel: ...


# ---------------------------------------------------------------------------
# Rule oracle.
# ---------------------------------------------------------------------------


#: Rows the rule oracle scores at once: a block bounds its rows x rules
#: temporaries, small enough for the allocator to reuse, not page in afresh.
_BLOCK_ROWS = 128


class RuleOracleDetector:
    """Scores records against a structured KB; pure and thread-safe.

    An attack's score is the fraction of its constraints a record satisfies;
    a failed mandatory constraint zeroes it outright in strict mode. The
    verdict is the best-scoring attack, Unknown below min_score; exact ties
    resolve in the fixed attack order (ICMP, UDP, TCP, PSHACK, SYN, RSTFIN,
    SynonymousIP).
    """

    backend_id = "rule-oracle"

    def __init__(self, kb: StructuredKb, config: RuleOracleConfig = RuleOracleConfig()):
        self.config = config
        # Every rule of the KB's flood attacks, in ATTACK_LABELS order, as five
        # bounds: a hit when lo <= value <= hi and |value - a| <= b, a near miss
        # (half credit) when |value - a| <= near. Bounds a rule's kind does not
        # set always pass (never, for near). `_member` marks each rule's attack:
        # a product with it sums every attack's credits at once.
        bounds = {
            ConstraintKind.IN_RANGE: lambda lo, hi: (lo, hi, 0.0, np.inf, -np.inf),
            ConstraintKind.MANDATORY_EQUALS: lambda a, b: (-np.inf, np.inf, a, b, -np.inf),
            ConstraintKind.TYPICAL_NEAR: lambda a, b: (-np.inf, np.inf, a, b, 2.0 * b),
        }
        attacks = [attack for attack in ATTACK_LABELS if attack in kb]
        rules = [rule for attack in attacks for rule in kb[attack]]
        sizes = [len(kb[attack]) for attack in attacks]
        self._member = np.eye(len(attacks))[np.repeat(np.arange(len(attacks)), sizes)]
        self._size = np.array(sizes, dtype=float)
        self._codes = np.array([LABEL_CODES[attack] for attack in attacks], dtype=np.intp)
        self._column = np.array([FEATURE_INDEX[rule.feature] for rule in rules], dtype=np.intp)
        self._mandatory = np.array([rule.kind is ConstraintKind.MANDATORY_EQUALS for rule in rules], dtype=bool)
        self._lo, self._hi, self._a, self._b, self._near = np.array(
            [bounds[rule.kind](rule.a, rule.b) for rule in rules], dtype=float
        ).reshape(-1, 5).T

    def classify(self, record: FlowRecord, kb=None) -> AttackLabel:
        """Classify with the KB the detector was built on; `kb` is not read."""
        return LABELS[self.classify_table(record.features[None])[0]]

    def classify_table(self, X: np.ndarray) -> np.ndarray:
        """The verdict for every row of a FlowTable matrix, as label codes
        (flow_data.LABEL_CODES). Each block of rows takes a fixed number of
        numpy calls, whatever the number of rules. A rule credits 0, 1/2 or 1,
        so the matrix product sums each attack's credits exactly in any order."""
        verdict = np.full(len(X), LABEL_CODES[AttackLabel.UNKNOWN], dtype=np.intp)
        if not len(self._codes):  # no flood attack in the KB
            return verdict
        for start in range(0, len(X), _BLOCK_ROWS):
            value = X[start:start + _BLOCK_ROWS, self._column]
            delta = np.abs(value - self._a)
            hit = (self._lo <= value) & (value <= self._hi) & (delta <= self._b)
            doubled = np.add(hit, hit | (delta <= self._near), dtype=float)  # twice each rule's credit
            score = doubled @ self._member / 2.0 / self._size
            if self.config.mandatory_strict:
                score[(~hit & self._mandatory).astype(float) @ self._member > 0.0] = 0.0
            met = score.max(axis=1) >= self.config.min_score
            verdict[start:start + _BLOCK_ROWS][met] = self._codes[score.argmax(axis=1)[met]]  # first of equals
        return verdict


# ---------------------------------------------------------------------------
# LLM endpoint backend (Ollama-style generate API, or chat completions).
# ---------------------------------------------------------------------------


def _retry_after_s(header: str | None) -> float | None:
    """Seconds a Retry-After header asks to wait, as delta-seconds or an
    HTTP-date (RFC 9110 section 10.2.3); None when absent or unreadable."""
    if header is None:
        return None
    from datetime import datetime, timezone
    from email.utils import parsedate_to_datetime

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
        # The HTTP client stack loads here, not with the module: the oracle and
        # replay backends, rank and kb never use it.
        import http.client

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
        import select

        with self._idle_lock:
            while self._idle:
                conn = self._idle.pop()
                if not select.select([conn.sock], [], [], 0)[0]:
                    return conn
                conn.close()
        # http.client sets TCP_NODELAY on connect, so the body it writes after
        # the headers does not wait on the peer's delayed ACK.
        return self._connection_class(self._host, self._port, timeout=self.config.request_timeout_s)

    def _request_once(self, prompt_text: str) -> str:
        import http.client

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
        return text

    def _request_with_retries(self, prompt_text: str) -> str:
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

    def classify(self, record: FlowRecord, kb: KnowledgeBase | None = None) -> AttackLabel:
        prompt = build_prompt(record, kb, self.mode)
        with self._gate:
            text = self._request_with_retries(prompt.text)
        return parse_response(text)


# ---------------------------------------------------------------------------
# Replay.
# ---------------------------------------------------------------------------


def load_replay_store(path: str | Path) -> dict[str, AttackLabel]:
    """Read a JSON-lines store of {digest, label} rows into a digest -> label
    map; other keys are ignored. A row that is not a JSON object with a
    string digest and a string label raises DetectorError naming its file
    and line."""
    store: dict[str, AttackLabel] = {}
    with Path(path).open(encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DetectorError(f"{path}:{number}: replay row is not valid JSON: {exc}") from None
            if not isinstance(row, dict):
                raise DetectorError(f"{path}:{number}: replay row is not a JSON object")
            for key in ("digest", "label"):
                if not isinstance(row.get(key), str):
                    raise DetectorError(f"{path}:{number}: replay row needs a string {key!r}")
            store[row["digest"]] = canonicalize_label(row["label"])
    return store


class ReplayDetector:
    """Serves the verdicts of the replay store passed as classify's kb, one
    store per KB configuration. Fail-closed: a digest the store has never
    seen is an error."""

    backend_id = "replay"

    def classify(self, record: FlowRecord, kb: dict[str, AttackLabel]) -> AttackLabel:
        digest = record_digest(record)
        if digest not in kb:
            raise ReplayMissError(f"no stored response for digest {digest[:12]}...")
        return kb[digest]
