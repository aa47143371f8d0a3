"""The benchmark's workloads, OD plans and seeded schedules.

Everything the server receives is generated here from the workload and the
seed: the same seed gives the same OD list, the same schedule and the same
ratings, byte for byte.
"""

import dataclasses
import random
import subprocess

CITIES = ("melbourne", "dhaka", "copenhagen")
# ODs planned per city: the paper's 66 + 109 + 62 study responses, which are
# also the proportions of its (0,10], (10,25] and (25,80] minute trip bins.
OD_COUNT = 237
# Seed of the OD plans. It is fixed, so every run measures the same trips:
# which trips a run draws moved the study's route percentiles more than any
# change a bound could catch. The run's own seed draws arrivals, session
# order and ratings.
PLAN_SEED = 1


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cities: tuple
    scale: float
    threads: int          # serve --threads, and as many closed-loop clients
                          # (one connection each), so no request queues
    cycle_passes: int     # passes over every city's ODs in the session cycle
    setup_reps: int       # servers started and reloaded before the window's
                          # own; setup_s is the median over all starts
    reloads: int          # reloads on each; reload_s is their median
    trace_routes: int     # routes in the counter passes and the replay


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="study_mix",
            why="the paper's study traffic on all three cities; the "
                "commercial and dissimilarity engines carry most request "
                "time, so engine and shared-search changes show here",
            cities=CITIES, scale=1.0, threads=3, cycle_passes=2, setup_reps=7,
            reloads=4, trace_routes=60),
        Workload(
            name="tiny_city",
            why="Melbourne at smoke scale, where engine work is tiny and "
                "connection handling, parse, queue handoff, snap, render "
                "and serialize dominate; engine changes should not show",
            cities=("melbourne",), scale=0.05, threads=2, cycle_passes=85,
            setup_reps=30, reloads=7, trace_routes=1500),
    )
}


@dataclasses.dataclass
class CityPlan:
    name: str
    nodes: int
    edges: int
    bounds: tuple          # (min_lat, min_lng, max_lat, max_lng)
    ods: list              # [(slat, slng, tlat, tlng, minutes, bin)]


def parse_plan(text):
    plan = CityPlan(name="", nodes=0, edges=0, bounds=(), ods=[])
    for line in text.splitlines():
        f = line.split("\t")
        if f[0] == "city":
            plan.name, plan.nodes, plan.edges = f[1], int(f[2]), int(f[3])
        elif f[0] == "bounds":
            plan.bounds = tuple(float(x) for x in f[1:5])
        elif f[0] == "od":
            plan.ods.append((f[1], f[2], f[3], f[4], int(f[5]), int(f[6])))
    if not plan.name or len(plan.bounds) != 4 or not plan.ods:
        raise ValueError("incomplete plan output")
    return plan


def plan_cities(tool, workload, seed, count=OD_COUNT):
    """{city: CityPlan} from perfbench_tool plan, one process per city run
    side by side."""
    procs = {
        city: subprocess.Popen(
            [tool, "plan", "--city", city, "--scale", repr(workload.scale),
             "--seed", str(seed), "--count", str(count)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for city in workload.cities}
    try:
        outputs = {city: proc.communicate(timeout=170)
                   for city, proc in procs.items()}
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    for city, proc in procs.items():
        if proc.returncode != 0:
            raise RuntimeError("plan %s failed: %s" %
                               (city, outputs[city][1].strip()))
    return {city: parse_plan(out) for city, (out, _) in outputs.items()}


@dataclasses.dataclass(frozen=True)
class Session:
    """One participant: a /route click, then a /rate of the four sets."""
    index: int
    city: str
    od: int                # index into the city's plan
    ratings: tuple         # (a, b, c, d), each 1-5
    resident: int


def make_sessions(workload, seed, od_counts):
    """The seeded session cycle the clients walk through. `od_counts` maps
    city -> number of ODs.

    The cycle is `cycle_passes` shuffled passes over every city's ODs, each
    OD once per pass, with the cities interleaved in shuffled order. Every
    seed thus sends the same trips, each equally often per cycle; only their
    order and the ratings vary."""
    rng = random.Random("sessions:%s:%d" % (workload.name, seed))
    cities = [city for city in workload.cities
              for _ in range(workload.cycle_passes * od_counts[city])]
    rng.shuffle(cities)
    passes = {city: [] for city in workload.cities}
    sessions = []
    for i, city in enumerate(cities):
        if not passes[city]:
            passes[city] = list(range(od_counts[city]))
            rng.shuffle(passes[city])
        sessions.append(Session(
            index=i, city=city, od=passes[city].pop(),
            ratings=tuple(rng.randint(1, 5) for _ in range(4)),
            resident=rng.randint(0, 1)))
    return sessions


def route_target(session, plan):
    slat, slng, tlat, tlng = plan.ods[session.od][:4]
    return "/route?city=%s&slat=%s&slng=%s&tlat=%s&tlng=%s" % (
        session.city, slat, slng, tlat, tlng)


def rate_target(session):
    a, b, c, d = session.ratings
    return "/rate?a=%d&b=%d&c=%d&d=%d&resident=%d" % (a, b, c, d,
                                                      session.resident)
