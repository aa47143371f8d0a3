"""A browser-like HTTP/1.1 client over one socket.

It never asks the server to close (no `Connection: close` header), keeps the
socket after a response unless the server said it will close it, and retries
once on a fresh socket when a reused one turns out to be dead, as browsers do.
Every connection it opens is counted, so connections per request shows
whether the server keeps connections alive.
"""

import socket
import threading


class ConnectionCounter:
    def __init__(self):
        self._lock = threading.Lock()
        self.opened = 0

    def add(self):
        with self._lock:
            self.opened += 1


class HttpError(Exception):
    """The exchange failed below HTTP: refused, reset, closed or timed out."""


class HttpClient:
    def __init__(self, port, counter, host="127.0.0.1", timeout_s=30.0):
        self.host = host
        self.port = port
        self.counter = counter
        self.timeout_s = timeout_s
        self._sock = None
        self._buf = b""

    def close(self):
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
                self._buf = b""

    def request(self, method, target):
        """(status, headers, body) of one exchange; raises HttpError."""
        payload = ("%s %s HTTP/1.1\r\nHost: %s:%d\r\nUser-Agent: perfbench\r\n"
                   "Accept: */*\r\n\r\n" % (method, target, self.host,
                                            self.port)).encode("ascii")
        for attempt in (0, 1):
            reused = self._sock is not None
            try:
                if not reused:
                    self._connect()
                self._sock.sendall(payload)
                status, headers, body = self._read_response()
            except (OSError, HttpError) as e:
                self.close()
                if reused and attempt == 0:
                    continue
                raise HttpError(str(e)) from e
            if not _keeps_alive(headers):
                self.close()
            return status, headers, body
        raise HttpError("unreachable")

    def _connect(self):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.settimeout(self.timeout_s)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.connect((self.host, self.port))
        except OSError:
            sock.close()
            raise
        self.counter.add()
        self._sock = sock
        self._buf = b""

    def _recv_more(self):
        chunk = self._sock.recv(65536)
        if not chunk:
            raise HttpError("connection closed by server")
        self._buf += chunk

    def _read_response(self):
        while b"\r\n\r\n" not in self._buf:
            self._recv_more()
        head, _, rest = self._buf.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise HttpError("bad status line %r" % lines[0])
        status = int(parts[1])
        headers = {"_version": parts[0]}
        for line in lines[1:]:
            key, sep, value = line.partition(":")
            if sep:
                headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        self._buf = rest
        while len(self._buf) < length:
            self._recv_more()
        body, self._buf = self._buf[:length], self._buf[length:]
        return status, headers, body


def _keeps_alive(headers):
    connection = headers.get("connection", "").lower()
    if headers.get("_version") == "HTTP/1.0":
        return connection == "keep-alive"
    return connection != "close"
