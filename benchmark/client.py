"""A minimal HTTP/1.1 client for driving `gemini serve` from the benchmark.

One Connection is one keep-alive TCP connection. Every request's exact
bytes can be captured, so the traced run can replay them through the
daemon's own HTTP parser (see probe.cc). Only what the daemon speaks is
supported: Content-Length and chunked bodies.
"""

import json
import socket
import time


class HttpError(Exception):
    pass


class Connection:
    def __init__(self, port, capture=None, timeout=120.0):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        self.capture = capture

    def close(self):
        self.rfile.close()
        self.sock.close()

    def _send(self, method, target, body=b""):
        head = (f"{method} {target} HTTP/1.1\r\n"
                "Host: 127.0.0.1\r\n")
        if body:
            head += ("Content-Type: application/json\r\n"
                     f"Content-Length: {len(body)}\r\n")
        data = (head + "\r\n").encode("ascii") + body
        if self.capture is not None:
            self.capture.append(data.decode("latin-1"))
        self.sock.sendall(data)

    def _head(self):
        line = self.rfile.readline()
        if not line:
            raise HttpError("connection closed by the daemon")
        parts = line.split(b" ", 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/1."):
            raise HttpError(f"bad status line {line!r}")
        status = int(parts[1])
        headers = {}
        while True:
            line = self.rfile.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers

    def _chunks(self):
        while True:
            size = int(self.rfile.readline().split(b";")[0], 16)
            if size == 0:
                self.rfile.readline()  # CRLF after the last chunk
                return
            data = self.rfile.read(size)
            self.rfile.readline()
            yield data

    def request(self, method, target, body=b""):
        """Send one request; return (status, body bytes)."""
        self._send(method, target, body)
        status, headers = self._head()
        if headers.get("transfer-encoding", "").lower() == "chunked":
            return status, b"".join(self._chunks())
        return status, self.rfile.read(int(headers.get("content-length",
                                                       "0")))

    def events(self, target):
        """Follow an NDJSON event stream to its end.

        Returns (status, events, t_first) where t_first is the monotonic
        time the first event line arrived (None when there was none).
        """
        self._send("GET", target)
        status, headers = self._head()
        events, t_first, pending = [], None, b""
        if headers.get("transfer-encoding", "").lower() != "chunked":
            body = self.rfile.read(int(headers.get("content-length", "0")))
            return status, [json.loads(x) for x in body.splitlines() if x], \
                None
        for chunk in self._chunks():
            pending += chunk
            while b"\n" in pending:
                line, pending = pending.split(b"\n", 1)
                if not line:
                    continue
                event = json.loads(line)
                if t_first is None and "kind" in event:
                    t_first = time.monotonic()
                events.append(event)
        return status, events, t_first
