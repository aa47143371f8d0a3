"""Closed-loop load generation. Every operation becomes one Op record; bodies are kept (deduplicated) and checked after the window, so
checking costs no time inside it."""

import threading
import time

from harness import checker
from harness import httpclient
from harness import workloads


class Op:
    __slots__ = ("kind", "session", "send", "done", "status", "error",
                 "body", "ready")

    def __init__(self, kind, session, send, done, status, error, body,
                 ready=None):
        self.kind = kind          # "route", "rate" or "reload"
        self.session = session    # Session, or the reload's ordinal
        self.send = send          # perf_counter seconds
        self.done = done
        self.status = status      # 0 when the exchange failed below HTTP
        self.error = error        # None, or why the op failed
        self.body = body
        # When the generator could first have sent a route: its client's
        # previous answer.
        self.ready = ready

    def latency_s(self):
        return self.done - self.send

    def lag_s(self):
        """How long the generator itself took between a client's previous
        answer and this route."""
        return self.send - self.ready


class Bodies:
    """Interning store: identical answers (request id aside) share one
    bytes object, so a long run keeps only the distinct bodies."""

    def __init__(self):
        self._lock = threading.Lock()
        self._bodies = {}

    def intern(self, body):
        key = checker.without_request_id(body)
        with self._lock:
            return self._bodies.setdefault(key, key)


def exchange(client, method, target):
    try:
        status, _, body = client.request(method, target)
        return status, None, body
    except httpclient.HttpError as e:
        return 0, "connection: %s" % e, b""


def run_session(client, session, plan, ready, records, bodies):
    """/route, then /rate on the same client. Returns the rate's done."""
    send = time.perf_counter()
    status, error, body = exchange(client, "GET",
                                    workloads.route_target(session, plan))
    done = time.perf_counter()
    records.append(Op("route", session, send, done, status, error,
                      bodies.intern(body), ready))
    send = time.perf_counter()
    status, error, body = exchange(client, "GET",
                                    workloads.rate_target(session))
    rate_done = time.perf_counter()
    records.append(Op("rate", session, send, rate_done, status, error, body))
    return rate_done


def run_closed_loop(port, counter, sessions, plans, clients, t_end, records,
                    bodies, after_one_pass):
    """`clients` clients each send their next session as soon as the last
    one is answered, until t_end; latency is timed from the send.
    `after_one_pass` is called once, by the client that takes the first
    session after a full pass over `sessions`."""
    lock = threading.Lock()
    cursor = [0]

    def worker():
        client = httpclient.HttpClient(port, counter)
        prev_done = None
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                now = time.perf_counter()
                if now >= t_end:
                    return
                if i == len(sessions):
                    after_one_pass()
                s = sessions[i % len(sessions)]
                prev_done = run_session(client, s, plans[s.city],
                                        prev_done or now, records, bodies)
        finally:
            client.close()

    _run_threads([worker] * clients)


def run_routes(port, counter, sessions, plans, parallel):
    """The routes of `sessions`, `parallel` at a time, outside any window.
    Returns [(session, round_trip_s, status, error, body)] in session
    order."""
    results = [None] * len(sessions)
    lock = threading.Lock()
    cursor = [0]

    def worker():
        client = httpclient.HttpClient(port, counter)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(sessions):
                    return
                s = sessions[i]
                send = time.perf_counter()
                status, error, body = exchange(
                    client, "GET", workloads.route_target(s, plans[s.city]))
                results[i] = (s, time.perf_counter() - send, status, error,
                              body)
        finally:
            client.close()

    _run_threads([worker] * parallel)
    return results


def _run_threads(targets):
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
