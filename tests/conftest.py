from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from kbforge.flow_data import FEATURES, AttackLabel, FlowRecord


def make_record(label: AttackLabel | None = None, **overrides: float) -> FlowRecord:
    features = {name: 0.0 for name in FEATURES}
    features.update(overrides)
    return FlowRecord(features=features, label=label)


@pytest.fixture
def zero_record() -> FlowRecord:
    return make_record()


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 (http.server API)
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError:
            body = raw.decode("utf-8", "replace")
        self.server.requests.append({"path": self.path, "body": body})

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


class StubServer:
    """Scripted HTTP endpoint: each request consumes the next scripted step."""

    def __init__(self):
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        self.server.script = [{"status": 200, "json": {"response": "Normal"}}]
        self.server.requests = []
        self.server.call_count = 0
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def base_url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}"

    @property
    def requests(self) -> list[dict]:
        return self.server.requests

    def set_script(self, steps: list[dict]) -> None:
        self.server.script = steps
        self.server.call_count = 0
        self.server.requests.clear()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def stub_server():
    server = StubServer()
    yield server
    server.close()
