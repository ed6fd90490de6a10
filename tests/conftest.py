from __future__ import annotations

import contextlib
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from kbforge.detectors import LlmDetector
from kbforge.flow_data import FEATURE_INDEX, FEATURES, LABEL_CODES, AttackLabel, FlowRecord, FlowTable


def make_record(label: AttackLabel | None = None, **overrides: float) -> FlowRecord:
    """A record of zeros but for the named features."""
    features = np.zeros(len(FEATURES))
    for name, value in overrides.items():
        features[FEATURE_INDEX[name]] = value
    return FlowRecord(features, label)


def table_of(records) -> FlowTable:
    """The FlowTable whose rows are `records`, in order."""
    X = np.array([r.features for r in records], dtype=np.float64)
    codes = np.array([-1 if r.label is None else LABEL_CODES[r.label] for r in records], dtype=np.int8)
    return FlowTable(X.reshape(-1, len(FEATURES)), codes)


def feature_value(record: FlowRecord, name: str) -> float:
    """A record's value of the feature `name`."""
    return float(record.features[FEATURE_INDEX[name]])


@pytest.fixture
def zero_record() -> FlowRecord:
    return make_record()


class _StubHandler(BaseHTTPRequestHandler):
    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections_opened += 1
            self.server.open_connections.add(self.connection)

    def finish(self):
        with self.server.lock:
            self.server.open_connections.discard(self.connection)
        super().finish()

    def do_POST(self):  # noqa: N802 (http.server API)
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError:
            body = raw.decode("utf-8", "replace")
        self.server.requests.append(
            {"path": self.path, "body": body, "raw": raw, "headers": list(self.headers.items())}
        )

        script = self.server.script
        step = script[min(self.server.call_count, len(script) - 1)]
        self.server.call_count += 1

        delay = step.get("delay", 0.0)
        if delay:
            time.sleep(delay)
        status = step.get("status", 200)
        payload = step.get("json")
        text = json.dumps(payload) if payload is not None else step.get("raw", "")
        encoded = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        for name, value in step.get("headers", {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(encoded)

    def log_message(self, *args):  # keep test output clean
        pass


class _KeepAliveStubHandler(_StubHandler):
    protocol_version = "HTTP/1.1"


class StubServer:
    """Scripted HTTP endpoint: each request consumes the next scripted step.

    By default it speaks HTTP/1.0 and closes the connection after each reply;
    with keep_alive=True it speaks HTTP/1.1 and keeps connections open.
    """

    def __init__(self, keep_alive: bool = False):
        handler = _KeepAliveStubHandler if keep_alive else _StubHandler
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self.server.script = [{"status": 200, "json": {"response": "Normal"}}]
        self.server.requests = []
        self.server.call_count = 0
        self.server.lock = threading.Lock()
        self.server.connections_opened = 0
        self.server.open_connections = set()
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def base_url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}"

    @property
    def requests(self) -> list[dict]:
        return self.server.requests

    @property
    def connections_opened(self) -> int:
        return self.server.connections_opened

    def set_script(self, steps: list[dict]) -> None:
        self.server.script = steps
        self.server.call_count = 0
        self.server.requests.clear()

    def drop_connections(self) -> None:
        """Close every open connection from the server side, as an endpoint
        does with keep-alive connections it has let idle too long."""
        with self.server.lock:
            for connection in self.server.open_connections:
                with contextlib.suppress(OSError):  # the client may have gone already
                    connection.shutdown(socket.SHUT_RDWR)

    def close(self) -> None:
        self.server.shutdown()
        self.drop_connections()
        self.server.server_close()


@pytest.fixture
def stub_server():
    server = StubServer()
    yield server
    server.close()


@pytest.fixture
def keep_alive_server():
    server = StubServer(keep_alive=True)
    yield server
    server.close()


@pytest.fixture
def llm_detector():
    """Builds LlmDetectors and closes each one when the test ends."""
    made: list[LlmDetector] = []

    def make(config) -> LlmDetector:
        made.append(LlmDetector(config))
        return made[-1]

    yield make
    for detector in made:
        detector.close()
