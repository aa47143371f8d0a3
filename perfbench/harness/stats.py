"""Percentiles and Prometheus text parsing."""

import math
import re


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError("p must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p * len(ordered) / 100.0)
    return ordered[max(rank, 1) - 1]


def median(values):
    """Middle value (mean of the two middle ones for an even count)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mean(values):
    if not values:
        raise ValueError("mean of an empty sample")
    return sum(values) / len(values)


_SAMPLE = re.compile(r'^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$')
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text):
    """{(name, ((label, value), ...)): float} for every sample line."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE.match(line)
        if not m:
            raise ValueError("bad exposition line: %r" % line)
        labels = tuple(sorted(_LABEL.findall(m.group(2) or "")))
        samples[(m.group(1), labels)] = float(m.group(3))
    return samples


def delta(after, before, name, **match):
    """Sum over series of `name` whose labels include `match`, after minus
    before."""
    total = 0.0
    for (metric, labels), value in after.items():
        if metric != name:
            continue
        ldict = dict(labels)
        if any(ldict.get(k) != v for k, v in match.items()):
            continue
        total += value - before.get((metric, labels), 0.0)
    return total
