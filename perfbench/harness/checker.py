"""Response checker. Each check returns None when the body is correct and a
one-line reason when it is not; a failed check counts as a failed operation.
"""

import json
import re

LABELS = ["A", "B", "C", "D"]
# Polyline coordinates carry five decimals; allow that rounding at the edge
# of the city's bounds.
_BOUNDS_SLACK_DEG = 1e-5
_REQUEST_ID = re.compile(rb'^\{"request_id":"[^"]*",')


def decode_polyline(encoded):
    """Google encoded polyline -> [(lat, lng)]; ValueError when malformed."""
    points = []
    index = lat = lng = 0
    n = len(encoded)
    while index < n:
        deltas = []
        for _ in range(2):
            shift = result = 0
            while True:
                if index >= n:
                    raise ValueError("truncated polyline")
                b = ord(encoded[index]) - 63
                index += 1
                if b < 0 or b > 63:
                    raise ValueError("bad polyline character")
                result |= (b & 0x1F) << shift
                shift += 5
                if b < 0x20:
                    break
                if shift > 30:
                    raise ValueError("polyline value too long")
            deltas.append(~(result >> 1) if result & 1 else result >> 1)
        lat += deltas[0]
        lng += deltas[1]
        points.append((lat * 1e-5, lng * 1e-5))
    return points


def without_request_id(body):
    """The body with its per-request id removed, so identical answers to
    the same query compare equal."""
    return _REQUEST_ID.sub(b"{", body, count=1)


def check_route(status, body, bounds, expected_b_minutes):
    """A /route answer: 200, not degraded, approaches A-D in order, each with
    status "ok" and at least one route, every route a decodable polyline of
    >= 2 points inside `bounds` (min_lat, min_lng, max_lat, max_lng) and a
    travel time >= 0, and route 0 of B (Plateaus) equal to
    `expected_b_minutes`, the plain-Dijkstra optimum in whole minutes.

    Every OD the benchmark sends is reachable, so an engine that failed,
    timed out or was skipped by its breaker makes a failed answer, not a
    fast one."""
    if status != 200:
        return "status %d" % status
    try:
        doc = json.loads(body)
    except ValueError as e:
        return "unparseable JSON: %s" % e
    if not isinstance(doc, dict):
        return "body is not an object"
    if doc.get("degraded") is not False:
        return "degraded %r" % (doc.get("degraded"),)
    approaches = doc.get("approaches")
    if not isinstance(approaches, list):
        return "no approaches array"
    labels = [a.get("label") if isinstance(a, dict) else None
              for a in approaches]
    if labels != LABELS:
        return "labels %r, want A-D in order" % (labels,)
    min_lat, min_lng, max_lat, max_lng = bounds
    for a in approaches:
        if a.get("status") != "ok":
            return "approach %s has status %r" % (a["label"], a.get("status"))
        routes = a.get("routes")
        if not isinstance(routes, list) or not routes:
            return "approach %s has no route" % a["label"]
        for r in routes:
            minutes = r.get("travel_time_min")
            if not isinstance(minutes, int) or minutes < 0:
                return "approach %s: bad travel_time_min %r" % (a["label"],
                                                                minutes)
            try:
                points = decode_polyline(r.get("polyline", ""))
            except (TypeError, ValueError) as e:
                return "approach %s: bad polyline (%s)" % (a["label"], e)
            if len(points) < 2:
                return "approach %s: polyline has %d point(s)" % (
                    a["label"], len(points))
            for lat, lng in points:
                if not (min_lat - _BOUNDS_SLACK_DEG <= lat <=
                        max_lat + _BOUNDS_SLACK_DEG and
                        min_lng - _BOUNDS_SLACK_DEG <= lng <=
                        max_lng + _BOUNDS_SLACK_DEG):
                    return "approach %s: point (%f, %f) outside the city" % (
                        a["label"], lat, lng)
    got = approaches[1]["routes"][0]["travel_time_min"]
    if got != expected_b_minutes:
        return "B route 0 takes %d min, the optimum is %d min" % (
            got, expected_b_minutes)
    return None


def check_rate(status, body):
    if status != 200:
        return "status %d" % status
    try:
        doc = json.loads(body)
    except ValueError as e:
        return "unparseable JSON: %s" % e
    if not isinstance(doc, dict) or doc.get("stored") is not True:
        return "rating not stored"
    return None


def check_reload(status, body, city):
    if status != 200:
        return "status %d" % status
    try:
        doc = json.loads(body)
    except ValueError as e:
        return "unparseable JSON: %s" % e
    outcome = (doc.get("reloads", {}).get(city, {}).get("outcome")
               if isinstance(doc, dict) else None)
    if outcome != "success":
        return "reload outcome %r" % (outcome,)
    return None
