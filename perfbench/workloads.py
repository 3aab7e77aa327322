"""The benchmark's workloads: seeded op passes with their output checks.

A cold-CLI workload is a pass of ops, each one ``python -m crepant ARGS``
in a fresh process.  The seed fixes the op order of every pass and the
``--seed`` given to each ``verify-geometry`` op (drawn from
``GEOMETRY_SEEDS``, so every output has a digest recorded at the seed
commit): a workload function takes ``geometry_seed``, a function that
returns the next such seed.  The program sees only the generated argv.
``{rep}`` in an argv stands for the representation file the harness
writes before a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import oracles

GEOMETRY_SEEDS = range(8)
REP_JSON = ('{"basis": [{"id": "b0", "vertex": "0"}, {"id": "b1", "vertex": "1"}],'
            ' "actions": [{"arrow": "A", "pairs": [["b0", "b1"]]}]}')
OVERRIDES = ("--override", "v4_wz=w**2*z1*z2 - z2**3 - w*z1**(n+1)",
             "--override", "equation=v4**2 + v2**3 - v1*v3**2 - v1**(2*n+1)*v2")


@dataclass(frozen=True)
class Op:
    args: tuple[str, ...]
    check: object = None       # text -> None | reason, on top of the digest

    def key(self) -> str:
        return " ".join(self.args)


def _op(line: str, check=None, *extra: str) -> Op:
    return Op(tuple(line.split()) + extra, check)


def _ncdt(family: str, order: int, sign: str = "unsigned", json=False) -> Op:
    args = f"ncdt {family} --order {order}"
    if sign != "unsigned":
        args += f" --sign {sign}"
    if json:
        args += " --json"
    check = oracles.check_pyramids if family == "conifold" \
        else oracles.check_macmahon
    return _op(args, partial(check, sign=sign))


SeedSource = Callable[[], int]


def _geometry(seed: int, line: str, check, *extra: str) -> Op:
    return _op(f"--seed {seed} {line}", check, *extra)


def cli_short(geometry_seed: SeedSource) -> list[Op]:
    """Every subcommand once, at the sizes of acceptance criterion 9."""
    return [
        _op("mckay 3:1,1,1 --potential"),
        _op("relations --mckay 3:1,1,1"),
        _op("frame --builtin conifold --v0 0"),
        _op("stability --builtin conifold --rep {rep} --theta 0=1,1=-1"),
        _op("roots --cartan [[2,-2],[-2,2]] --height 8"),
        _op("walls --cartan [[2,-2],[-2,2]] --height 6 --theta1=3,-1"
            " --theta2=-3,1"),
        _ncdt("c3", 6),
        _ncdt("conifold", 4),
        _op("triangulate --square"),
        _op("flops --triangle2"),
        _op("web --p2"),
        _op("gw --square --order 3 --t-order 12",
            partial(oracles.check_square, t_order=12)),
        _op("gv --square --order 3 --t-order 16 --json",
            oracles.check_conifold_gv),
        _geometry(geometry_seed(),
                  "verify-geometry laufer1 --k 2 --trials 20",
                  oracles.check_geometry_holds),
        _op("compare conifold --order 2 --theta 0=-1,1=-2"
            " --map q0=-Q0*t,q1=Q0 --json"),
    ]


def ncdt_crystal(geometry_seed: SeedSource) -> list[Op]:
    """Crystal enumeration at orders 13-14, both sign conventions.  Each op
    spends about 0.9 s enumerating (two thirds of the op), so the median
    op has neighbours of like cost."""
    return [
        _ncdt("c3", 13),
        _ncdt("c3", 13, "dimension"),
        _ncdt("conifold", 14),
        _ncdt("conifold", 14, "dimension", json=True),
        _ncdt("mckay:3:1,1,1", 13, json=True),
        _ncdt("mckay:3:1,1,1", 13, "dimension"),
    ]


def gv_vertex(geometry_seed: SeedSource) -> list[Op]:
    """Vertex gluing and GV extraction, large local P2 and small webs."""
    return [
        _op("gv --zn 1 --order 3", oracles.check_p2_gv),
        _op("gw --zn 1 --order 3"),
        _op("gv --p2 --order 5 --t-order 30", oracles.check_p2_gv),
        _op("gv --p2 --order 6 --t-order 40", oracles.check_p2_gv),
        _op("gw --square --order 8 --t-order 16",
            partial(oracles.check_square, t_order=16)),
        _op("gv --square --order 8 --t-order 30", oracles.check_conifold_gv),
        _op("gv --triangle2 --order 3"),
        _op("gw --triangle2 --order 3"),
    ]


def verify_geometry(geometry_seed: SeedSource) -> list[Op]:
    """Exact chart verification at 100 trials; the laufer1 --k 2 op repeated
    with ``--jobs 2`` at the same seed, so its serial twin is in the pass."""
    seeds = [geometry_seed() for _ in range(6)]
    holds = oracles.check_geometry_holds
    ops = [
        _geometry(seeds[0], "verify-geometry conifold --trials 100", holds),
        *[_geometry(seeds[k], f"verify-geometry laufer1 --k {k} --trials 100",
                    holds) for k in (1, 2, 3)],
        _geometry(seeds[4], "verify-geometry laufer2 --n 1 --trials 100"
                  " --report-only", oracles.check_laufer2_printed),
        _geometry(seeds[5], "verify-geometry laufer2 --n 1 --trials 100"
                  " --report-only", oracles.check_laufer2_override, *OVERRIDES),
    ]
    twin = ops[2]
    ops.append(Op(twin.args[:2] + ("--jobs", "2") + twin.args[2:], twin.check))
    return ops


CLI_WORKLOADS = {
    "cli-short": cli_short,
    "ncdt-crystal": ncdt_crystal,
    "gv-vertex": gv_vertex,
    "verify-geometry": verify_geometry,
}
WORKLOADS = (*CLI_WORKLOADS, "stability-sweep")


def warm_ops(ops: list[Op]) -> list[Op]:
    """The untimed, unchecked warm-up: the first op of each import path in
    the pass (``verify-geometry`` pulls in more of sympy, ``--override`` its
    parser, ``--jobs`` the process pool), at 2 trials, so .pyc compilation
    and first page-cache reads fall outside the timed window.  Each op list
    puts a cheap op of each path first."""
    seen, out = set(), []
    for op in ops:
        key = tuple(word in op.args
                    for word in ("verify-geometry", "--override", "--jobs"))
        if key not in seen:
            seen.add(key)
            args = list(op.args)
            if "--trials" in args:
                args[args.index("--trials") + 1] = "2"
            out.append(Op(tuple(args)))
    return out


def all_ops() -> list[Op]:
    """Every op any seed can generate, for recording output digests."""
    out: dict[str, Op] = {}
    for build in CLI_WORKLOADS.values():
        for seed in GEOMETRY_SEEDS:
            for op in build(lambda: seed):
                out.setdefault(op.key(), op)
    return list(out.values())
