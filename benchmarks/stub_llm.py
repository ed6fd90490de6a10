"""Stub of an Ollama-style LLM endpoint for the kbforge benchmark.

Serves ``POST /api/generate`` over HTTP/1.1 keep-alive with a fixed service
delay. The answer is a pure function of the prompt: the label comes from the
prompt's ``Protocol Type`` and ``PSH`` lines and is worded in one of a few
phrasings, so the client's ``parse_response`` does real matching work.

Counters for the benchmark:
``GET /stats`` returns requests, connections opened, maximum concurrency and
non-200 replies as JSON; ``POST /reset`` zeroes them.

Run: ``python3 benchmarks/stub_llm.py --delay-ms 10``. The server binds an
ephemeral port on 127.0.0.1, prints ``PORT <n>`` on stdout and serves until
its stdin closes or it receives SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import socket
import sys
import threading
import time
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_PROTOCOL_LINE = re.compile(r"^- Protocol Type: (\S+)", re.MULTILINE)

#: label -> loose spelling that parse_response must still recognise.
_LOOSE = {
    "DDoS-ICMP_Flood": "ICMP flood",
    "DDoS-UDP_Flood": "udp Flood",
    "DDoS-TCP_Flood": "DDoS TCP-flood",
    "DDoS-PSHACK_Flood": "PSH-ACK flood",
    "Unknown": "Unknown",
}

_PHRASINGS = (
    "{label}",
    "Answer: {label}",
    "Based on the protocol and flags, the most likely attack type is {label}.",
    "This traffic looks like a {loose} to me.",
)


def answer_for(prompt: str) -> str:
    """The stub's reply to a prompt; deterministic in the prompt text."""
    # Read only the traffic block: KB texts also contain "- Protocol Type:" lines.
    traffic = prompt.rpartition("Network Traffic Data:")[2]
    protocol = _PROTOCOL_LINE.search(traffic)
    if "- PSH: Elevated" in traffic:
        label = "DDoS-PSHACK_Flood"
    elif protocol is not None and protocol.group(1) in ("ICMP", "UDP", "TCP"):
        label = f"DDoS-{protocol.group(1)}_Flood"
    else:
        label = "Unknown"
    phrasing = _PHRASINGS[zlib.crc32(prompt.encode("utf-8")) % len(_PHRASINGS)]
    return phrasing.format(label=label, loose=_LOOSE[label])


class StubStats:
    """Counters shared by all handler threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.connections_opened = 0
        self.non_200 = 0
        self.in_flight = 0
        self.max_concurrent = 0

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "connections_opened": self.connections_opened,
                "non_200": self.non_200,
                "max_concurrent": self.max_concurrent,
            }


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, as Ollama serves

    def setup(self) -> None:
        super().setup()
        # Headers and body go out in one write below; NODELAY also keeps a
        # small reply from waiting on the client's delayed ACK.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.counted = False

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)
        self.log_request(status)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/stats":
            self._reply(200, self.server.stats.snapshot())
        else:
            self._reply(404, {"error": "not found"})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        stats = self.server.stats
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/reset":
            with stats.lock:
                stats.reset()
            self._reply(200, {})
            return
        with stats.lock:
            # Connections are counted at their first model request, so the
            # benchmark's own /stats and /reset calls stay out of the count.
            if not self.counted:
                self.counted = True
                stats.connections_opened += 1
            stats.requests += 1
            stats.in_flight += 1
            stats.max_concurrent = max(stats.max_concurrent, stats.in_flight)
        status, payload = 500, {"error": "stub failure"}
        try:
            status, payload = self._generate(raw)
            time.sleep(self.server.delay_s)
        finally:
            with stats.lock:
                stats.in_flight -= 1
                if status != 200:
                    stats.non_200 += 1
        self._reply(status, payload)

    def _generate(self, raw: bytes) -> tuple[int, dict]:
        if self.path != "/api/generate":
            return 404, {"error": "not found"}
        try:
            prompt = json.loads(raw)["prompt"]
        except (ValueError, KeyError, TypeError):
            return 400, {"error": "body must be JSON with a 'prompt' field"}
        if not isinstance(prompt, str):
            return 400, {"error": "'prompt' must be a string"}
        return 200, {"model": "stub", "response": answer_for(prompt), "done": True}

    def log_message(self, *args) -> None:
        pass


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, delay_s: float):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.delay_s = delay_s
        self.stats = StubStats()


def _shutdown_on_eof(server: StubServer) -> None:
    while sys.stdin.buffer.read1(4096):
        pass
    server.shutdown()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay-ms", type=float, default=10.0, help="fixed service time per request")
    args = parser.parse_args(argv)

    server = StubServer(args.delay_ms / 1000.0)
    signal.signal(signal.SIGTERM, lambda *_: threading.Thread(target=server.shutdown).start())
    # A parent that dies without stopping the stub closes our stdin.
    threading.Thread(target=_shutdown_on_eof, args=(server,), daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
