#!/usr/bin/env python3
"""The benchmark's own test of its tracer.

usage: python3 perfbench/selftest.py

Checks, on a few cheap ops that together touch every layer:
- traced and untraced runs of each op give byte-identical stdout and the
  same exit code;
- in every traced op, each span lies inside its parent, and the self times
  (span minus children) of all spans add up to the root spans, so child
  plus parent self times equal the parent span and the per-layer self
  times partition the traced time;
- ``instrument`` puts every original function back when undone.
Exits 0 when all hold.
"""

import json
import shutil
import sys

import run
import tracer
import workloads

OPS = [
    "ncdt c3 --order 8",
    "gv --zn 1 --order 3",
    "--seed 1 verify-geometry conifold --trials 10",
    "stability --builtin conifold --rep {rep} --theta 0=1,1=-1",
    "compare conifold --order 2 --theta 0=-1,1=-2 --map q0=-Q0*t,q1=Q0 --json",
    "roots --cartan [[2,-2],[-2,2]] --height 8",
]
TOLERANCE_S = 1e-9


def check_partition(dump: dict) -> list[str]:
    """Spans nest inside their parents and self times add up to the roots."""
    spans = dump["spans"]
    problems = []
    for name, start, end, parent, _ in spans:
        if parent >= 0 and not (spans[parent][1] <= start <= end
                                <= spans[parent][2]):
            problems.append(f"{name} does not nest inside {spans[parent][0]}")
    roots = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    total = sum(tracer.self_times(spans).values())
    if abs(total - roots) > TOLERANCE_S * len(spans):
        problems.append(f"self times add up to {total}, root spans to {roots}")
    return problems


def check_restore() -> list[str]:
    import crepant.cli  # noqa: F401
    modules = [m for n, m in sys.modules.items() if n.startswith("crepant")]
    before = [dict(vars(m)) for m in modules]
    mul = sys.modules["crepant.vertex"].TSeries.__mul__
    restore = tracer.instrument(tracer.Tracer())
    if sys.modules["crepant.cli"].main is before[modules.index(
            sys.modules["crepant.cli"])]["main"]:
        return ["instrument did not wrap crepant.cli.main"]
    restore()
    after = [dict(vars(m)) for m in modules]
    if after != before or sys.modules["crepant.vertex"].TSeries.__mul__ is not mul:
        return ["restore left wrapped functions behind"]
    return []


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    problems = check_restore()
    run.WORK.mkdir(exist_ok=True)
    layers = set()
    try:
        rep = run.write_rep()
        trace_out = run.WORK / "selftest-trace.json"
        for line in OPS:
            op = workloads.Op(tuple(line.split()))
            argv = run.op_argv(op, rep)
            _, code, plain, _ = run.spawn([sys.executable, "-m", "crepant", *argv])
            _, tcode, traced, _ = run.spawn([sys.executable,
                                             str(run.HERE / "shim.py"),
                                             str(trace_out), *argv])
            if (code, plain) != (tcode, traced):
                problems.append(f"{line}: traced output differs")
            dump = json.loads(trace_out.read_text())
            problems += [f"{line}: {p}" for p in check_partition(dump)]
            layers |= {k.split(".")[0] for k, v in
                       tracer.layer_metrics([dump]).items()
                       if k.endswith(".calls") and v}
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    missing = {"import", *tracer.LAYERS} - layers
    if missing:
        problems.append(f"layers never traced: {sorted(missing)}")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
