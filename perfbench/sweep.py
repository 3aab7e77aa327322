"""The stability-sweep workload: one process, closed loop, one client.

usage: python3 perfbench/sweep.py setup SEED
       python3 perfbench/sweep.py run SEED SECONDS TRACE OUT

One op is ``framed_theta`` + ``is_semistable`` + ``is_cyclic`` on one module
of a seeded population, checked against stable <=> cyclic at gauge
theta = -1.  The population has two parts:

- crystal modules from ``configuration_to_module``: c3 and conifold,
  ``PER_SIZE`` of each size in ``SIZES``; all cyclic, so the subset scan
  runs to the end;
- ``SMALL`` random framed monomial modules with 3-6 basis elements, about
  half of them not cyclic, so the scan exits early.

``setup`` imports crepant and builds the population, then exits: its wall
time is one set-up sample.  ``run`` builds it, runs one untimed warm-up
pass, then timed passes (fresh seeded order each) while the next one still
fits in SECONDS, and writes each module's median calibrated latency over
the passes, checks and peak RSS to OUT as JSON.  With TRACE 1 the set-up
is traced, then one untraced pass and one traced pass run.
"""

import random
import statistics
import sys
from fractions import Fraction
from time import perf_counter

SIZES = (9, 10, 11, 12)
PER_SIZE = 40
SMALL = 4000
ARROW_DENSITY = 0.75
REFERENCE_LOOP_S = 0.010   # reference_loop() on a quiet host; sets the scale


def crystal_modules(crystal, rng):
    mods = []
    for name in ("c3", "conifold"):
        family = crystal.family_for(name)
        by_size = {n: [] for n in SIZES}
        for config in crystal.configurations(family, max(SIZES)):
            if len(config) in by_size:
                by_size[len(config)].append(
                    tuple(sorted(config, key=family.sort_key)))
        for n in SIZES:
            for config in rng.sample(sorted(by_size[n]), PER_SIZE):
                mods.append(crystal.configuration_to_module(family, config))
    return mods


def random_module(reps, framed, rng):
    """A framed monomial module with random partial injections; the arrows
    need not satisfy any relation."""
    q = framed.quiver
    vertex_of = {"f": framed.framing_vertex}
    for i in range(rng.randint(2, 5)):
        vertex_of[f"b{i}"] = rng.choice(framed.gauge_vertices())
    action = {}
    for arrow in q.arrows:
        sources = [b for b, v in vertex_of.items() if v == arrow.tail]
        targets = [b for b, v in vertex_of.items() if v == arrow.head]
        rng.shuffle(targets)
        mapping = {}
        for b in sources:
            if targets and rng.random() < ARROW_DENSITY:
                mapping[b] = targets.pop()
        if arrow.name == framed.framing_arrow and targets and not mapping:
            mapping["f"] = targets.pop()
        if mapping:
            action[arrow.name] = mapping
    return reps.MonomialRepresentation(q, vertex_of, action, framed=framed)


def population(seed: int):
    from crepant import crystal, reps
    rng = random.Random(seed)
    mods = crystal_modules(crystal, rng)
    framings = [crystal.family_for(name).framed for name in ("c3", "conifold")]
    mods += [random_module(reps, framings[i % 2], rng) for i in range(SMALL)]
    return mods


def check_op(reps, rep) -> bool:
    """One op; True when the verdict agrees with cyclicity."""
    framing = rep.framed.framing_vertex
    gauge = {v: -1 for v in rep.framed.gauge_vertices()}
    theta = reps.framed_theta(gauge, rep.dimension_vector(), framing)
    verdict = reps.is_semistable(rep, theta).classification
    return verdict == ("stable" if reps.is_cyclic(rep) else "unstable")


def reference_loop() -> float:
    """Median wall time of three runs of a fixed pure-Python loop that
    shares no code with crepant: the calibration reference for in-process
    timings."""
    times = []
    for _ in range(3):
        start = perf_counter()
        acc = {}
        for i in range(30000):
            k = (i * 7919) % 1009
            acc[k] = acc.get(k, 0) + (i ^ k)
        sorted(str(i * 31 % 10007) for i in range(6000))
        sum(Fraction(i, i + 1) for i in range(1, 300))
        times.append(perf_counter() - start)
    return sorted(times)[1]


class Passes:
    """Timed passes over the population, each calibrated by the reference
    loop run just before and just after it (see ``run.Calibrated``)."""

    def __init__(self, reps, mods, seed):
        self.reps, self.mods = reps, mods
        self.rng = random.Random(seed)
        self.times = [[] for _ in mods]     # calibrated times, per module
        self.failures = []
        self.ref = reference_loop()

    def run(self, trace=None) -> float:
        """One pass in a fresh seeded order; returns its calibrated time."""
        order = list(range(len(self.mods)))
        self.rng.shuffle(order)
        walls = []
        for i in order:
            if trace is not None:
                trace.op += 1
            t0 = perf_counter()
            ok = check_op(self.reps, self.mods[i])
            walls.append(perf_counter() - t0)
            if not ok:
                self.failures.append(i)
        before, self.ref = self.ref, reference_loop()
        factor = 2 * REFERENCE_LOOP_S / (before + self.ref)
        for i, wall in zip(order, walls):
            self.times[i].append(wall * factor)
        return sum(walls) * factor

    def latencies(self) -> list[float]:
        """Each module's median calibrated time over the passes, so that a
        momentary stall of the host does not land in the tail."""
        return [statistics.median(t) for t in self.times]

    def attempted(self) -> int:
        return sum(len(t) for t in self.times)


def main() -> int:
    mode, seed = sys.argv[1], int(sys.argv[2])
    start = perf_counter()
    import crepant  # noqa: F401
    end = perf_counter()
    loaded = len(sys.modules)
    if mode == "setup":
        population(seed)
        return 0
    seconds, traced, out_path = float(sys.argv[3]), sys.argv[4] == "1", sys.argv[5]

    import json
    import resource

    import tracer
    reps = sys.modules["crepant.reps"]
    if traced:
        trace = tracer.Tracer()
        trace.spans.append(["import", start, end, -1, 0])
        trace.add("import.calls")
        trace.add("import.modules_loaded", loaded)
        restore = tracer.instrument(trace)
        mods = population(seed)
        restore()
    else:
        mods = population(seed)
    warm = Passes(reps, mods, seed)
    warm.run()
    passes = Passes(reps, mods, seed)
    extra = {}
    if traced:
        base = passes.run()
        restore = tracer.instrument(trace)
        traced_s = passes.run(trace)
        restore()
        tracer.finish(trace)
        extra = {"trace": trace.dump(), "untraced_s": base, "traced_s": traced_s}
    else:
        elapsed = last = 0.0
        while elapsed == 0 or elapsed + last <= seconds:
            t0 = perf_counter()
            passes.run()
            last = perf_counter() - t0
            elapsed += last
    # crystal modules come first and must all be cyclic, hence stable
    crystal_count = 2 * len(SIZES) * PER_SIZE
    cyclic_crystals = all(reps.is_cyclic(m) for m in mods[:crystal_count])
    result = {
        "latencies": passes.latencies(),
        "attempted": passes.attempted() + len(mods),
        "failed": len(warm.failures) + len(passes.failures)
        + (0 if cyclic_crystals else 1),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **extra,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
