"""Spans written by `perfbench_tool replay`: parsing, self time and the
per-layer aggregates."""

import collections
import dataclasses

from harness import stats


@dataclasses.dataclass
class Span:
    pass_: str
    id: int
    parent: int
    request: str
    name: str
    start: int             # ns
    end: int               # ns
    attrs: dict

    @property
    def ms(self):
        return (self.end - self.start) / 1e6


def parse(text):
    """(spans, passtimes); passtimes maps pass -> (total_ns, requests)."""
    spans = []
    passtimes = {}
    for line in text.splitlines():
        f = line.split("\t")
        if f[0] == "span":
            attrs = {}
            if f[8] != "-":
                for kv in f[8].split(","):
                    k, _, v = kv.partition("=")
                    attrs[k] = int(v)
            spans.append(Span(f[1], int(f[2]), int(f[3]), f[4], f[5],
                              int(f[6]), int(f[7]), attrs))
        elif f[0] == "passtime":
            passtimes[f[1]] = (int(f[2]), int(f[3]))
    return spans, passtimes


def self_times_ms(spans):
    """{span id: self ms}: each span's duration minus the part of it that
    its children's intervals cover."""
    children = collections.defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0
        cursor = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.id] = (s.end - s.start - covered) / 1e6
    return out


def self_time_table(spans):
    """{pass/name: {count, total_ms, self_ms}} for the results file."""
    selfs = self_times_ms(spans)
    table = {}
    for s in spans:
        row = table.setdefault("%s/%s" % (s.pass_, s.name),
                               {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += s.ms
        row["self_ms"] += selfs[s.id]
    return table


def summarize(spans, passtimes, engine_keys):
    """Per-layer figures of the replay. `engine_keys[i]` names approach i's
    metrics. Times are means per request in ms unless named otherwise."""
    selfs = self_times_ms(spans)
    by_request = collections.defaultdict(list)
    for s in spans:
        if s.pass_ == "layers":
            by_request[s.request].append(s)

    acquire, process, to_json, snap, render = [], [], [], [], []
    unattributed = []
    engine_ms = collections.defaultdict(list)
    work = collections.defaultdict(lambda: collections.Counter())
    engine_names = {}
    rating_add = []
    for request, group in by_request.items():
        names = collections.defaultdict(float)
        for s in group:
            names[s.name] += s.ms
            if s.name.startswith("core.") and s.name.endswith(".generate"):
                approach = s.attrs["approach"]
                engine_names[approach] = s.name[len("core."):-len(".generate")]
                engine_ms[approach].append(selfs[s.id])
                for k in ("nodes_settled", "edges_relaxed", "paths_generated",
                          "paths_rejected", "routes"):
                    work[approach][k] += s.attrs.get(k, 0)
            elif s.name == "rating_store.add":
                rating_add.append(s.ms)
            elif s.name == "query_processor.process":
                unattributed.append(s.ms - s.attrs["phases_ns"] / 1e6)
        if "query_processor.process" not in names:
            continue
        acquire.append(names["network_manager.get_snapshot"] +
                       names["query_processor_pool.acquire"])
        process.append(names["query_processor.process"])
        to_json.append(names["query_processor.to_json"])
        snap.append(names["query_processor.snap"])
        render.append(names["query_processor.render"])

    out = {}
    for approach, key in enumerate(engine_keys):
        out["core.%s.ms" % key] = stats.mean(engine_ms[approach])
    out["query_processor.process_ms"] = stats.mean(process)
    out["query_processor.snap_ms"] = stats.mean(snap)
    out["query_processor.render_ms"] = stats.mean(render)
    out["query_processor.serialize_ms"] = stats.mean(to_json)
    # Process() minus the snap, engine and render phases it timed itself in
    # the same call.
    out["query_processor.unattributed_ms"] = stats.mean(unattributed)
    out["network_manager.acquire_ms"] = stats.mean(acquire)
    out["rating_store.add_ms"] = stats.mean(rating_add)
    reloads = [s.ms for s in spans if s.name == "network_manager.reload"]
    out["network_manager.reload_ms"] = stats.median(reloads)

    # Setup layers: the median over repetitions, per city.
    setup = collections.defaultdict(list)
    for s in spans:
        if s.pass_ != "setup" or s.parent < 0:
            continue
        city = s.request.split(":")[1]
        setup[(s.name, city)].append(s)
    for (name, city), group in setup.items():
        key = {"citygen.build_city_network": "citygen.build_ms",
               "graph.load_from_file": "graph.load_ms",
               "graph.validate": "graph.validate_ms",
               "routing.ch_build": "routing.ch_build_ms",
               "network_manager.add_city": None}[name]
        if key is not None:
            out["%s.%s" % (key, city)] = stats.median([s.ms for s in group])
        else:
            out["network_manager.add_city_s.%s" % city] = stats.median(
                [s.ms / 1e3 for s in group])
        if name == "routing.ch_build":
            out["routing.ch_shortcuts.%s" % city] = group[0].attrs["shortcuts"]

    on = passtimes["serve_on"][0]
    off = passtimes["serve_off"][0]
    out["trace.overhead_pct"] = 100.0 * (on - off) / off
    return out, engine_names, {a: dict(c) for a, c in work.items()}
