"""Self-tests of the benchmark harness.

    python3 perfbench/tests/test_harness.py

The OD-list test builds perfbench_tool (as run.py would) when it is not
built yet; every other test runs on the harness alone.
"""

import json
import os
import socket
import sys
import threading
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from harness import build  # noqa: E402
from harness import checker  # noqa: E402
from harness import hostspeed  # noqa: E402
from harness import httpclient  # noqa: E402
from harness import loadgen  # noqa: E402
from harness import stats  # noqa: E402
from harness import trace  # noqa: E402
from harness import workloads  # noqa: E402
import run  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))


def encode_polyline(points):
    """Reference encoder for building test bodies."""
    out = []
    prev = (0, 0)
    for lat, lng in points:
        cur = (int(round(lat * 1e5)), int(round(lng * 1e5)))
        for d in (cur[0] - prev[0], cur[1] - prev[1]):
            v = ~(d << 1) if d < 0 else d << 1
            while v >= 0x20:
                out.append(chr((0x20 | (v & 0x1F)) + 63))
                v >>= 5
            out.append(chr(v + 63))
        prev = cur
    return "".join(out)


BOUNDS = (-37.9, 144.8, -37.7, 145.1)
INSIDE = [(-37.81, 144.96), (-37.80, 144.97), (-37.79, 144.99)]


def route_body(labels="ABCD", polyline=None, minutes=(12, 12, 13, 12),
               statuses=("ok",) * 4, degraded=False):
    """A /route body; an approach whose status is "internal" ships no
    route, as the server does when an engine fails."""
    approaches = []
    for label, m, status in zip(labels, minutes, statuses):
        routes = [] if status == "internal" else [{
            "travel_time_min": m, "length_km": 3.2,
            "polyline": polyline if polyline is not None
            else encode_polyline(INSIDE)}]
        approaches.append({"label": label, "status": status,
                           "routes": routes})
    return json.dumps({"request_id": "r7", "snapped_source": 1,
                       "snapped_target": 2, "degraded": degraded,
                       "approaches": approaches},
                      separators=(",", ":")).encode()


class ScheduleTest(unittest.TestCase):
    def test_same_seed_same_sessions(self):
        for w in workloads.WORKLOADS.values():
            counts = {c: 237 for c in w.cities}
            a = workloads.make_sessions(w, 7, counts)
            b = workloads.make_sessions(w, 7, counts)
            self.assertEqual(a, b, w.name)
            self.assertNotEqual(a, workloads.make_sessions(w, 8, counts))

    def test_every_seed_sends_the_same_trips(self):
        w = workloads.WORKLOADS["study_mix"]
        counts = {c: 237 for c in w.cities}
        trips = None
        for seed in (1, 2, 3):
            sessions = workloads.make_sessions(w, seed, counts)
            self.assertEqual(len(sessions), w.cycle_passes * 3 * 237)
            mine = sorted((s.city, s.od) for s in sessions)
            self.assertEqual(mine, sorted(
                (c, od) for c in w.cities for od in range(237)
                for _ in range(w.cycle_passes)))
            self.assertTrue(trips is None or trips == mine)
            trips = mine
            # The first pass over a city's ODs uses each exactly once.
            mel = [s.od for s in sessions if s.city == "melbourne"][:237]
            self.assertEqual(sorted(mel), list(range(237)))


class OdPlanTest(unittest.TestCase):
    def test_same_seed_same_od_list(self):
        _, tool, _ = build.ensure_built(ROOT)
        w = workloads.WORKLOADS["tiny_city"]
        a = workloads.plan_cities(tool, w, 5)["melbourne"]
        b = workloads.plan_cities(tool, w, 5)["melbourne"]
        c = workloads.plan_cities(tool, w, 6)["melbourne"]
        self.assertEqual(a, b)
        self.assertNotEqual(a.ods, c.ods)
        self.assertEqual(len(a.ods), workloads.OD_COUNT)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        v = [15, 20, 35, 40, 50]
        self.assertEqual(stats.percentile(v, 5), 15)
        self.assertEqual(stats.percentile(v, 30), 20)
        self.assertEqual(stats.percentile(v, 40), 20)
        self.assertEqual(stats.percentile(v, 50), 35)
        self.assertEqual(stats.percentile(v, 100), 50)
        hundred = list(range(100, 0, -1))
        self.assertEqual(stats.percentile(hundred, 50), 50)
        self.assertEqual(stats.percentile(hundred, 99), 99)
        self.assertEqual(stats.percentile(list(range(1, 1001)), 99), 990)
        self.assertEqual(stats.median([3, 1, 2, 10]), 2.5)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


def routes_done_every(gap_s, latencies_ms):
    """Correct route ops answered every `gap_s` from t = 0."""
    ops = []
    for i, ms in enumerate(latencies_ms):
        done = (i + 1) * gap_s
        ops.append(loadgen.Op("route", None, done - ms / 1e3, done, 200,
                              None, b""))
    return ops


class RouteMetricsTest(unittest.TestCase):
    def test_one_slice_is_the_whole_window(self):
        ops = routes_done_every(0.01, range(1, 1501))
        m = run.route_metrics(ops, 0.0, 15.0)
        self.assertAlmostEqual(m["route_p50_ms"], 750)
        self.assertAlmostEqual(m["route_p99_ms"], 1485)
        self.assertAlmostEqual(m["route_goodput_rps"], 100)

    def test_a_burst_moves_one_slice_not_the_figure(self):
        # 11 slices of 1000 routes at 1 ms; the third slice has a burst of
        # 100 ms answers that would be the whole window's p99.
        lat = [1.0] * 11000
        lat[2000:2200] = [100.0] * 200
        m = run.route_metrics(routes_done_every(0.001, lat), 0.0, 11.0)
        self.assertAlmostEqual(m["route_p99_ms"], 1.0)
        self.assertAlmostEqual(m["route_goodput_rps"], 1000, delta=1)
        self.assertEqual(stats.percentile(lat, 99), 100.0)


class ReferenceSpeedTest(unittest.TestCase):
    def test_window_times_scale_and_goodput_scales_inversely(self):
        # The reference ran twice as slow as REFERENCE_S: the host was slow.
        ref = hostspeed.Reference("unused")
        ref.seconds = hostspeed.REFERENCE_S * 2.0
        wall = {"setup_s": 1.0, "route_p50_ms": 20.0, "route_p99_ms": 300.0,
                "rate_p50_ms": 0.3, "reload_s": 0.2,
                "route_goodput_rps": 50.0, "ok_share": 1.0,
                "server_rss_mb": 40.0}
        got = run.at_reference_speed(wall, ref.scale())
        want = dict(wall, route_p50_ms=10.0, route_p99_ms=150.0,
                    rate_p50_ms=0.15, route_goodput_rps=100.0)
        self.assertEqual(set(got), set(want))
        for k, v in want.items():
            self.assertAlmostEqual(got[k], v, msg=k)

    def test_reference_runs_until_its_phase_ends(self):
        _, _, calibrate = build.ensure_built(ROOT)
        with hostspeed.Reference(calibrate) as ref:
            pass
        self.assertGreaterEqual(ref.reps, 1)
        self.assertGreater(ref.seconds, 0.0)


class CheckerTest(unittest.TestCase):
    def test_polyline_reference_vector(self):
        points = checker.decode_polyline("_p~iF~ps|U_ulLnnqC_mqNvxq`@")
        want = [(38.5, -120.2), (40.7, -120.95), (43.252, -126.453)]
        self.assertEqual(len(points), 3)
        for got, exp in zip(points, want):
            self.assertAlmostEqual(got[0], exp[0], places=6)
            self.assertAlmostEqual(got[1], exp[1], places=6)

    def test_accepts_a_good_body(self):
        self.assertIsNone(checker.check_route(200, route_body(), BOUNDS, 12))

    def test_rejects_corrupted_bodies(self):
        bad = {
            "bad polyline": route_body(polyline="_p~iF~ps|U_ulL"),
            "empty polyline": route_body(polyline=""),
            "one point": route_body(polyline=encode_polyline(INSIDE[:1])),
            "outside the city": route_body(polyline=encode_polyline(
                [(-33.0, 151.0), (-33.1, 151.1)])),
            "missing label": route_body(labels="ABC"),
            "wrong order": route_body(labels="ABDC"),
            "negative time": route_body(minutes=(12, 12, -1, 12)),
            "truncated json": route_body()[:-5],
            "failed engine": route_body(
                statuses=("internal", "ok", "ok", "ok"), degraded=True),
            "failed engine, degraded flag unset": route_body(
                statuses=("ok", "ok", "ok", "internal")),
            "timed-out engine with a partial route": route_body(
                statuses=("ok", "ok", "deadline_exceeded", "ok"),
                degraded=True),
            "degraded flag alone": route_body(degraded=True),
            "failed B": route_body(statuses=("ok", "internal", "ok", "ok"),
                                   degraded=True),
        }
        for what, body in bad.items():
            self.assertIsNotNone(checker.check_route(200, body, BOUNDS, 12),
                                 what)
        self.assertIsNotNone(
            checker.check_route(200, route_body(), BOUNDS, 11),
            "B route 0 slower than the optimum")
        self.assertIsNotNone(checker.check_route(500, route_body(), BOUNDS,
                                                 12))

    def test_rate_and_reload(self):
        self.assertIsNone(checker.check_rate(
            200, b'{"stored":true,"total_submissions":3}'))
        self.assertIsNotNone(checker.check_rate(200, b'{"stored":false}'))
        self.assertIsNone(checker.check_reload(
            200, b'{"reloads":{"dhaka":{"outcome":"success"}}}', "dhaka"))
        self.assertIsNotNone(checker.check_reload(
            500, b'{"reloads":{"dhaka":{"outcome":"failed"}}}', "dhaka"))

    def test_request_id_is_ignored_when_deduplicating(self):
        a = route_body()
        b = a.replace(b'"r7"', b'"r12345"')
        self.assertNotEqual(a, b)
        self.assertEqual(checker.without_request_id(a),
                         checker.without_request_id(b))


class PrometheusTest(unittest.TestCase):
    def test_parse_and_delta(self):
        before = stats.parse_prometheus(
            '# TYPE x counter\nx{approach="a",city="m"} 5\n'
            'x{approach="a",city="d"} 1\nx{approach="b",city="m"} 2\n')
        after = stats.parse_prometheus(
            'x{approach="a",city="m"} 9\nx{approach="a",city="d"} 4\n'
            'x{approach="b",city="m"} 2\nx{approach="a",city="c"} 3\n'
            'h_sum{phase="snap"} 0.5\n')
        self.assertEqual(stats.delta(after, before, "x", approach="a"), 10)
        self.assertEqual(stats.delta(after, before, "x"), 10)
        self.assertEqual(stats.delta(after, before, "h_sum", phase="snap"),
                         0.5)


class TraceTest(unittest.TestCase):
    def test_self_time_subtracts_covered_children(self):
        spans, passtimes = trace.parse("\n".join([
            "span\tlayers\t0\t-1\tr1\troot\t0\t10000000\t-",
            "span\tlayers\t1\t0\tr1\tchild\t1000000\t4000000\t-",
            "span\tlayers\t2\t0\tr1\tchild\t3000000\t6000000\tk=2",
            "passtime\tserve_on\t10\t1",
        ]))
        selfs = trace.self_times_ms(spans)
        self.assertAlmostEqual(selfs[0], 5.0)  # children cover 1..6 ms
        self.assertAlmostEqual(selfs[1], 3.0)
        self.assertEqual(spans[2].attrs, {"k": 2})
        self.assertEqual(passtimes["serve_on"], (10, 1))


class LoopbackServer:
    """Answers every request on a connection; closes after each answer only
    when `close` is set (and then says so)."""

    def __init__(self, close):
        self.close = close
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self.asked_to_close = False
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            with conn:
                self._answer(conn)

    def _answer(self, conn):
        buf = b""
        while True:
            while b"\r\n\r\n" not in buf:
                chunk = conn.recv(4096)
                if not chunk:
                    return
                buf += chunk
            head, _, buf = buf.partition(b"\r\n\r\n")
            if b"connection: close" in head.lower():
                self.asked_to_close = True
            extra = b"Connection: close\r\n" if self.close else b""
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n" + extra +
                         b"\r\nok")
            if self.close:
                return

    def stop(self):
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self.thread.join(timeout=5)


class HttpClientTest(unittest.TestCase):
    def connections_for_two_requests(self, close):
        srv = LoopbackServer(close)
        counter = httpclient.ConnectionCounter()
        client = httpclient.HttpClient(srv.port, counter)
        try:
            for _ in range(2):
                status, _, body = client.request("GET", "/x")
                self.assertEqual((status, body), (200, b"ok"))
        finally:
            client.close()
            srv.stop()
        self.assertFalse(srv.asked_to_close)
        return counter.opened

    def test_reuses_a_kept_alive_socket(self):
        self.assertEqual(self.connections_for_two_requests(close=False), 1)

    def test_reconnects_when_the_server_closes(self):
        self.assertEqual(self.connections_for_two_requests(close=True), 2)


if __name__ == "__main__":
    unittest.main()
