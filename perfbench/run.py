#!/usr/bin/env python3
"""crepant benchmark: run one workload once and print its metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is the checkout's ``src/``.
Load is a closed loop with one client: the next op starts when the last
one has finished, and no op uses more than two worker processes.  A run
starts ops, pass after pass over the workload's ops in fresh seeded
orders, until SECONDS have passed.  Every op
output is checked (exit code, recorded seed-commit digest, oracle) after
the timed window.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See perfbench/README.md for every metric and workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
DIGESTS = HERE / "digests.json"
SETUP_SAMPLES = 5
OP_TIMEOUT_S = 60.0
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
# ops keep their .pyc files, as an installed crepant would
NO_PYC = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s.p50": "s",
                    "op_s.tail": "s", "peak_rss_mb": "MB"}

# The calibration reference: a cold interpreter importing a fixed set of
# stdlib modules, the same kind of work as a cold op and independent of
# crepant.  REFERENCE_S, its wall time on a quiet 2-core host, sets the scale.
REFERENCE = [sys.executable, "-c",
             "import argparse, csv, decimal, email.parser, fractions,"
             " http.client, json, logging, sqlite3, unittest, xml.dom.minidom"]
REFERENCE_S = 0.15
IMPORT = [sys.executable, "-c", "import crepant"]


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout


def spawn(cmd: list[str]) -> tuple[float, int, bytes, int]:
    """Run one process to completion: (wall s, exit code, stdout, max RSS KB).

    ``wait4`` gives the child's peak RSS; a timeout kills the child and
    reports exit code -9."""
    env = {k: v for k, v in os.environ.items() if k not in NO_PYC}
    env["PYTHONPATH"] = str(ROOT / "src")
    with tempfile.TemporaryFile(dir=WORK) as out, \
            tempfile.TemporaryFile(dir=WORK) as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        timed_out = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except OpTimeout:
            timed_out = True
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = perf_counter() - start
        proc.returncode = -9 if timed_out else os.waitstatus_to_exitcode(status)
        out.seek(0)
        return wall, proc.returncode, out.read(), usage.ru_maxrss


class Calibrated:
    """Process wall times calibrated against the reference process.

    This host's speed drifts by up to 2x within seconds to minutes (other
    tenants), far beyond any bound.  The reference runs before the first
    op and after every op; each op's wall time is scaled by REFERENCE_S
    over the mean of the two reference times around it.  A change to
    crepant cannot move the reference."""

    def __init__(self):
        self.walls: list[float] = []
        self.refs = [spawn(REFERENCE)[0]]

    def add(self, wall: float) -> int:
        self.walls.append(wall)
        self.refs.append(spawn(REFERENCE)[0])
        return len(self.walls) - 1

    def values(self) -> list[float]:
        return [wall * 2 * REFERENCE_S / (before + after)
                for wall, before, after in zip(self.walls, self.refs,
                                               self.refs[1:])]


def write_rep() -> str:
    """The representation file that ``{rep}`` in an op's argv stands for."""
    rep = WORK / "rep.json"
    rep.write_text(workloads.REP_JSON)
    return str(rep)


def op_argv(op: workloads.Op, rep: str) -> list[str]:
    return [a.replace("{rep}", rep) for a in op.args]


def setup_samples(cmd: list[str], n: int) -> list[float]:
    """Calibrated wall times of n fresh processes."""
    timing = Calibrated()
    for _ in range(n):
        timing.add(spawn(cmd)[0])
    return timing.values()


def percentile(samples: list[float], weights: list[float], pct: float) -> float:
    """Weighted nearest-rank percentile: the smallest sample at which the
    cumulative weight reaches pct% of the total, or the midpoint of it and
    the next sample when it reaches exactly pct% (so the median of an even
    number of like weights is the mean of the middle two)."""
    pairs = sorted(zip(samples, weights))
    target, acc = pct / 100 * sum(weights), 0.0
    for k, (value, weight) in enumerate(pairs):
        acc += weight
        if acc >= target * (1 - 1e-12):
            if acc <= target * (1 + 1e-12) and k + 1 < len(pairs):
                return (value + pairs[k + 1][0]) / 2
            return value
    return max(samples)


def tail_percentile(n: int) -> float:
    """The highest listed percentile with at least ten of n samples beyond
    it: p50 below 40 samples, as in every cold-CLI run."""
    return max((p for p in PERCENTILES if n * (1 - p / 100) >= 10), default=50)


def end_to_end(setup, latencies, kinds, correct_share, peak_kb) -> dict:
    """End-to-end metrics of a run whose op ``latencies[i]`` is of kind
    ``kinds[i]``.  Each kind weighs the same, as in one whole pass, so a
    run cut short mid-pass reports the workload's mix all the same."""
    counts: dict = {}
    totals: dict = {}
    for kind, value in zip(kinds, latencies):
        counts[kind] = counts.get(kind, 0) + 1
        totals[kind] = totals.get(kind, 0.0) + value
    weights = [1 / counts[kind] for kind in kinds]
    pass_s = sum(totals[k] / counts[k] for k in counts)
    pct = tail_percentile(len(latencies))
    print(f"op_s.tail is p{pct:g} of {len(latencies)} samples")
    return {"setup_s": setup,
            "ops_per_s": len(counts) / pass_s * correct_share,
            "op_s.p50": percentile(latencies, weights, 50),
            "op_s.tail": percentile(latencies, weights, pct),
            "peak_rss_mb": peak_kb / 1024}


# ---------------------------------------------------------------------------
# cold-CLI workloads

class CliRun:
    def __init__(self, name: str, seed: int):
        self.rng = random.Random(seed)
        self.ops = workloads.CLI_WORKLOADS[name](
            lambda: self.rng.choice(workloads.GEOMETRY_SEEDS))
        self.digests = json.loads(DIGESTS.read_text())
        self.rep = write_rep()
        self.results = []      # (op, code, stdout), checked after timing
        self.timed = []        # (op index, timing index, traced)
        self.peak_kb = 0
        self.timing = None

    def warm_up(self):
        spawn(REFERENCE)
        for op in workloads.warm_ops(self.ops):
            spawn([sys.executable, "-m", "crepant", *op_argv(op, self.rep)])
        self.timing = Calibrated()

    def run_op_timed(self, i: int, dumps=None):
        """Op ``i`` timed, traced when ``dumps`` is a list for its trace."""
        op, trace_out = self.ops[i], WORK / "trace.json"
        cmd = [sys.executable, "-m", "crepant"] if dumps is None else \
            [sys.executable, str(HERE / "shim.py"), str(trace_out)]
        wall, code, out, rss = spawn(cmd + op_argv(op, self.rep))
        self.results.append((op, code, out))
        if dumps is None:
            self.peak_kb = max(self.peak_kb, rss)
        else:
            dumps.append(json.loads(trace_out.read_text()))
        self.timed.append((i, self.timing.add(wall), dumps is not None))

    def order(self) -> list[int]:
        """A fresh seeded order of the pass."""
        return self.rng.sample(range(len(self.ops)), len(self.ops))

    def latencies(self, traced=False) -> list[tuple[int, float]]:
        """(op index, calibrated wall time) of every timed op."""
        walls = self.timing.values()
        return [(i, walls[k]) for i, k, t in self.timed if t == traced]

    def failures(self) -> list[str]:
        reasons, verdicts = [], {}
        for op, code, out in self.results:
            key = (op.key(), code, out)
            if key not in verdicts:
                verdicts[key] = self.check(op, code, out)
            if verdicts[key]:
                reasons.append(f"{op.key()}: {verdicts[key]}")
        return reasons

    def check(self, op, code, out) -> str | None:
        """Why the op failed, or None.  The oracle goes before the digest,
        so a changed output is reported with its mathematical reason."""
        if code != 0:
            return f"exit code {code}"
        reason = op.check(out.decode()) if op.check else None
        if reason is None and \
                hashlib.sha256(out).hexdigest() != self.digests.get(op.key()):
            reason = "stdout differs from the seed-commit digest"
        return reason

    def jobs2_over_serial(self) -> float:
        """Calibrated wall time of the --jobs 2 op over its serial twin, in
        the untraced pass."""
        for i, op in enumerate(self.ops):
            if "--jobs" in op.args:
                j = self.ops.index(workloads.Op(op.args[:2] + op.args[4:],
                                                op.check))
                walls = dict(self.latencies())
                return walls[i] / walls[j]
        return 0.0


def run_cli(name: str, seed: int, seconds: float, traced: bool):
    run = CliRun(name, seed)
    run.warm_up()
    if traced:
        for dumps in (None, []):
            for i in run.order():
                run.run_op_timed(i, dumps)
    else:
        # set-up samples are spread evenly over the timed window, so they
        # meet the host in as many states as the ops do; their own time
        # is kept out of the window
        setups, order, paused, start = [], [], 0.0, perf_counter()
        while (elapsed := perf_counter() - start - paused) < seconds:
            if len(setups) < SETUP_SAMPLES and \
                    elapsed >= len(setups) * seconds / SETUP_SAMPLES:
                t0 = perf_counter()
                setups.append(run.timing.add(spawn(IMPORT)[0]))
                paused += perf_counter() - t0
                continue
            order = order or run.order()
            run.run_op_timed(order.pop())
        while len(setups) < SETUP_SAMPLES:
            setups.append(run.timing.add(spawn(IMPORT)[0]))
        times = run.timing.values()
        setup = statistics.median(times[k] for k in setups)
    failures = run.failures()
    if traced:
        metrics = tracer.layer_metrics(dumps)
        metrics["geometry.jobs2_over_serial"] = run.jobs2_over_serial()
        metrics["trace.overhead_ratio"] = \
            sum(w for _, w in run.latencies(traced=True)) / \
            sum(w for _, w in run.latencies())
    else:
        kinds, walls = zip(*run.latencies())
        metrics = end_to_end(setup, list(walls), list(kinds),
                             1 - len(failures) / len(run.results), run.peak_kb)
    return metrics, len(run.results), len(failures), failures


# ---------------------------------------------------------------------------
# the in-process stability sweep

def run_sweep(seed: int, seconds: float, traced: bool):
    worker = [sys.executable, str(HERE / "sweep.py")]
    setup_cmd = worker + ["setup", str(seed)]
    # set-up samples on both sides of the worker meet the host in more
    # states than one burst would
    before = [] if traced else setup_samples(setup_cmd, SETUP_SAMPLES // 2)
    out = WORK / "sweep.json"
    _, code, _, _ = spawn(worker + ["run", str(seed), str(seconds),
                                    str(int(traced)), str(out)])
    if code != 0:
        raise RuntimeError(f"the sweep worker exited with code {code}")
    setup = None if traced else statistics.median(
        before + setup_samples(setup_cmd, SETUP_SAMPLES - len(before)))
    data = json.loads(out.read_text())
    failed = data["failed"]
    reasons = [f"{failed} modules where stable != cyclic"] if failed else []
    if traced:
        metrics = tracer.layer_metrics([data["trace"]])
        metrics["geometry.jobs2_over_serial"] = 0.0
        metrics["trace.overhead_ratio"] = data["traced_s"] / data["untraced_s"]
    else:
        latencies = data["latencies"]
        metrics = end_to_end(setup, latencies, [0] * len(latencies),
                             1 - failed / data["attempted"], data["rss_kb"])
    return metrics, data["attempted"], failed, reasons


# ---------------------------------------------------------------------------

def environment() -> str:
    with open("/proc/loadavg", encoding="ascii") as fh:
        load = fh.read().strip()
    return (f"nproc={os.cpu_count()} python={sys.version.split()[0]}"
            f" sympy={metadata.version('sympy')} loadavg={load}")


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "crepant" / "__init__.py").is_file():
        print(f"error: no crepant sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"start: {environment()}")
    WORK.mkdir(exist_ok=True)
    try:
        if args.workload == "stability-sweep":
            result = run_sweep(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_cli(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    metrics, attempted, failed, reasons = result
    print(f"end: {environment()}")
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    if set(metrics) != set(units):
        print(f"error: metrics do not match BENCHMARK.json:"
              f" {sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
