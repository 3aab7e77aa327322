"""Command-line interface: every subsystem behind one entry point.

Exit codes: 0 on success, 1 on a domain error, 2 on a usage error.  All
output is deterministic for fixed arguments and seed.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import crystal, geometry, mckay, quiver, reps, roots, toric
from .compare import compare as run_compare
from .errors import CrepantError, json_object, json_text
from .vertex import PrecisionError, gv_extract, gw_partition_function


class UsageError(Exception):
    """An argument combination the parser cannot rule out: exit 2 with one
    ``error:`` line."""


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose help raises when it cannot be written:
    argparse's own swallows the ``OSError`` of help sent to a full device.
    Messages to stderr keep argparse's handling, so a usage error exits 2."""

    def _print_message(self, message, file=None):
        if file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


# argparse ``type=`` parsers: a malformed value is a usage error (exit 2)

def _fraction(text: str):
    """``text`` as a ``Fraction``, imported here: only the commands that
    take a rational argument load ``fractions``."""
    from fractions import Fraction
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a rational number") from None


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a nonnegative integer")
    return value


def _fraction_list(text: str) -> list:
    return [_fraction(x) for x in text.split(",")]


def _theta(text: str) -> dict:
    out = {}
    for piece in text.split(","):
        key, _, value = piece.partition("=")
        key = key.strip()
        if not _ or not key:
            raise argparse.ArgumentTypeError(
                f"bad theta entry {piece!r}; use vertex=value")
        if key in out:
            raise argparse.ArgumentTypeError(
                f"theta gives vertex {key!r} twice")
        out[key] = _fraction(value)
    return out


def _cartan_rows(text: str) -> list:
    try:
        with json_object(text, "--cartan", any_value=True) as rows:
            if isinstance(rows, list) and rows and all(
                    isinstance(r, list) and all(type(x) is int for x in r)
                    for r in rows):
                return rows
    except CrepantError:
        pass
    raise argparse.ArgumentTypeError(
        f"{text!r} is not a JSON list of integer rows")


def _int_pair(text: str) -> tuple[int, int]:
    try:
        n0, n1 = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a pair of integers N0,N1") from None
    return n0, n1


def _map_int(text: str, piece: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad number {text!r} in map entry {piece!r}") from None


def _variable_map(text: str) -> dict:
    """Parse "q0=-Q0*t^2,q1=Q0" into {var: (coeff, {target: exp})}."""
    out = {}
    for piece in text.split(","):
        key, _, value = piece.partition("=")
        if not _:
            raise argparse.ArgumentTypeError(f"bad map entry {piece!r}")
        key = key.strip()
        if key in out:
            raise argparse.ArgumentTypeError(
                f"map gives variable {key!r} twice")
        coeff = 1
        exps: dict[str, int] = {}
        value = value.strip()
        if value.startswith("-"):
            coeff = -1
            value = value[1:]
        for factor in value.split("*"):
            factor = factor.strip()
            if not factor:
                continue
            if factor.lstrip("-").isdigit():
                coeff *= _map_int(factor, piece)
                continue
            name, _, power = factor.partition("^")
            exps[name] = exps.get(name, 0) + (_map_int(power, piece)
                                              if power else 1)
        out[key] = (coeff, exps)
    return out


def _check_laufer_n(args) -> None:
    if args.n is not None and args.builtin != "laufer":
        raise UsageError("--n applies only to --builtin laufer")


def _load_quiver(args):
    _check_laufer_n(args)
    if args.quiver:
        with open(args.quiver, encoding="utf-8") as fh:
            return quiver.quiver_from_json(fh.read())
    if args.mckay:
        act = mckay.parse_action(args.mckay)
        return mckay.mckay_quiver(act), mckay.mckay_superpotential(act)
    name = args.builtin or "conifold"
    if name.startswith("laufer"):
        return quiver.laufer_quiver(1 if args.n is None else args.n)
    try:
        return quiver.BUILTIN_QUIVERS[name]()
    except KeyError:
        raise CrepantError(f"unknown builtin quiver {name!r}") from None


def _polygon_from_args(args) -> toric.LatticePolygon:
    for name, build in toric.BUILTIN_POLYGONS.items():
        if getattr(args, name):
            return build()
    if args.trapezoid:
        return toric.trapezoid(*args.trapezoid)
    if args.zn is not None:
        return toric.zn_triangle(args.zn)
    if args.polygon:
        with open(args.polygon, encoding="utf-8") as fh:
            return toric.LatticePolygon.from_json(fh.read())
    raise CrepantError("no polygon selected")


def _add_polygon_flags(p):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--square", action="store_true")
    g.add_argument("--triangle", action="store_true")
    g.add_argument("--triangle2", action="store_true",
                   help="the (0,0),(2,0),(0,2) triangle")
    g.add_argument("--p2", action="store_true")
    g.add_argument("--trapezoid", type=_int_pair, metavar="N0,N1")
    g.add_argument("--zn", type=int, metavar="N",
                   help="the (1,0),(0,1),(-N,-N) triangle")
    g.add_argument("--polygon", metavar="FILE", help="polygon JSON file")


def cmd_mckay(args) -> int:
    act = mckay.parse_action(args.action)
    q = mckay.mckay_quiver(act)
    w = mckay.mckay_superpotential(act) if args.potential else None
    _emit(quiver.quiver_to_json(q, w))
    return 0


def cmd_relations(args) -> int:
    q, w = _load_quiver(args)
    if w is None:
        raise CrepantError("the selected quiver carries no potential")
    rels = quiver.relations_from_potential(q, w)
    if args.json:
        data = [[{"coeff": c, "path": list(p.arrows), "source": p.source,
                  "target": p.target} for p, c in r.sorted_terms()]
                for r in rels]
        _emit(json_text(data))
    else:
        for r in rels:
            _emit(str(r))
    return 0


def cmd_frame(args) -> int:
    q, w = _load_quiver(args)
    framed = quiver.frame(q, w or quiver.Superpotential(), args.v0)
    data = quiver.quiver_data(framed.quiver, framed.potential)
    data["framing_vertex"] = framed.framing_vertex
    data["framing_arrow"] = framed.framing_arrow
    data["base_vertex"] = framed.base_vertex
    _emit(json_text(data))
    return 0


def cmd_stability(args) -> int:
    q, w = _load_quiver(args)
    framed = None
    if args.framed_v0 is not None:
        framed = quiver.frame(q, w or quiver.Superpotential(), args.framed_v0)
        q = framed.quiver
    with open(args.rep, encoding="utf-8") as fh:
        rep = reps.rep_from_json(fh.read(), q, framed=framed)
    report = reps.is_semistable(rep, args.theta)
    _emit(report.to_json())
    return 0


def _cartan_from_args(args) -> roots.CartanMatrix:
    if args.cartan:
        _check_laufer_n(args)
        names = tuple(str(i) for i in range(len(args.cartan)))
        return roots.CartanMatrix.from_dense(names, args.cartan)
    q, _ = _load_quiver(args)
    return roots.cartan_matrix(q)


def cmd_roots(args) -> int:
    cartan = _cartan_from_args(args)
    out = roots.positive_roots(cartan, args.height)
    if args.json:
        data = [{"vector": list(r.vector), "kind": r.kind} for r in out]
        _emit(json_text(data))
    else:
        for r in out:
            _emit(" ".join(map(str, r.vector)) + "\t" + r.kind)
    return 0


def cmd_walls(args) -> int:
    cartan = _cartan_from_args(args)
    rts = roots.positive_roots(cartan, args.height)
    report = roots.walls_between(args.theta1, args.theta2, rts)
    data = {
        "separating": [{"vector": list(r.vector), "kind": r.kind}
                       for r in report.separating],
        "on_wall": [{"vector": list(r.vector), "kind": r.kind}
                    for r in report.on_wall],
    }
    _emit(json_text(data))
    return 0


def cmd_ncdt(args) -> int:
    family = crystal.family_for(args.family)
    series = crystal.ncdt_series(family, args.order, sign=args.sign)
    if args.json:
        data = {"vars": list(series.vars), "order": series.order,
                "terms": [{"exponents": list(e), "coeff": c}
                          for e, c in series.sorted_terms()]}
        _emit(json_text(data))
    else:
        _emit(series.to_text())
    return 0


def cmd_triangulate(args) -> int:
    polygon = _polygon_from_args(args)
    tris = toric.unit_triangulations(polygon)
    if args.json:
        data = {"count": len(tris),
                "triangulations": [[[list(p) for p in t]
                                    for t in tri.sorted_triangles()]
                                   for tri in tris]}
        _emit(json_text(data))
    else:
        _emit(f"{len(tris)} triangulations")
        for i, tri in enumerate(tris):
            body = "; ".join(",".join(f"({p[0]},{p[1]})" for p in t)
                             for t in tri.sorted_triangles())
            _emit(f"[{i}] {body}")
    return 0


def cmd_flops(args) -> int:
    polygon = _polygon_from_args(args)
    tris = toric.unit_triangulations(polygon)
    edges = [(i, j) for i in range(len(tris)) for j in range(i + 1, len(tris))
             if toric.flop_adjacent(tris[i], tris[j])]
    _emit(json_text({"triangulations": len(tris),
                     "flops": [list(e) for e in edges]}))
    return 0


def _selected_web(args) -> toric.DualWeb:
    tris = toric.unit_triangulations(_polygon_from_args(args))
    if not 0 <= args.index < len(tris):
        raise CrepantError(f"--index {args.index} is out of range: the polygon"
                           f" has {len(tris)} triangulations")
    return toric.dual_web(tris[args.index])


def cmd_web(args) -> int:
    _emit(_selected_web(args).to_json())
    return 0


def cmd_gw(args) -> int:
    web = _selected_web(args)
    series = gw_partition_function(web, args.order, t_cutoff=args.t_order)
    _emit(series.to_text())
    return 0


def cmd_gv(args) -> int:
    web = _selected_web(args)
    series = gw_partition_function(web, args.order, t_cutoff=args.t_order)
    try:
        if not series.terms:
            # a negative working cutoff truncates even the constant term
            raise PrecisionError("insufficient t-precision: the constant"
                                 " term lies past the cutoff")
        table = gv_extract(series, genus_cap=args.genus)
    except PrecisionError as exc:
        raise CrepantError(f"{exc} at --t-order {args.t_order}; a larger"
                           " --t-order reaches it") from None
    if args.json:
        data = [{"genus": g, "degree": d, "n": v}
                for (g, d), v in table.rows()]
        _emit(json_text(data))
    else:
        _emit(table.to_text())
    return 0


# the parameter each built-in geometry takes
_GEOMETRY_PARAMETER = {"conifold": None, "laufer1": "k", "laufer2": "n"}


def cmd_verify_geometry(args) -> int:
    for name in ("k", "n"):
        if getattr(args, name) is not None and \
                _GEOMETRY_PARAMETER[args.geometry] != name:
            raise UsageError(f"{args.geometry} takes no --{name}")
    overrides = {}
    for item in args.override or ():
        key, _, value = item.partition("=")
        if not _:
            raise CrepantError(f"bad override {item!r}; use key=expression")
        overrides[key] = value
    geo = geometry.builtin_geometry(args.geometry, k=args.k, n=args.n,
                                    overrides=overrides or None)
    reports = [geometry.verify_transition(geo, args.trials, seed=args.seed),
               geometry.verify_contraction(geo, args.trials, seed=args.seed)]
    if geo.action is not None:
        reports.append(geometry.verify_equivariance(geo, args.trials,
                                                    seed=args.seed))
    merged = geometry.VerificationReport(
        geo.label(), args.seed,
        tuple(r for rep in reports for r in rep.identities))
    _emit(merged.to_json())
    return 0 if merged.holds() or args.report_only else 1


def cmd_compare(args) -> int:
    sheet = run_compare(args.geometry, args.order, args.theta,
                        variable_map=args.map, t_cutoff=args.t_order,
                        sign=args.sign, wall_radius=args.wall_radius)
    _emit(sheet.to_json() if args.json else sheet.to_text())
    return 0


def _add_quiver_source(p):
    """The quiver selectors, which exclude each other; roots and walls add
    ``--cartan`` to the group returned."""
    g = p.add_mutually_exclusive_group()
    g.add_argument("--builtin", choices=["conifold", "c3", "p2", "laufer"])
    g.add_argument("--mckay", metavar="N:W1,W2,W3")
    g.add_argument("--quiver", metavar="FILE")
    p.add_argument("--n", type=int, help="parameter for the laufer quiver")
    return g


def _mckay_args(p):
    p.add_argument("action", help='descriptor "n:w1,w2,w3"')
    p.add_argument("--potential", action="store_true")


def _relations_args(p):
    _add_quiver_source(p)
    p.add_argument("--json", action="store_true")


def _frame_args(p):
    _add_quiver_source(p)
    p.add_argument("--v0", required=True)


def _stability_args(p):
    _add_quiver_source(p)
    p.add_argument("--rep", required=True, metavar="FILE")
    p.add_argument("--theta", required=True, type=_theta, metavar="V=Q,...")
    p.add_argument("--framed-v0", metavar="V0",
                   help="frame the quiver at V0 before reading the"
                        " representation; theta must then include the"
                        " framing vertex")


def _roots_args(p):
    _add_quiver_source(p).add_argument("--cartan", type=_cartan_rows,
                                       metavar="JSON_ROWS")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--json", action="store_true")


def _walls_args(p):
    _add_quiver_source(p).add_argument("--cartan", type=_cartan_rows,
                                       metavar="JSON_ROWS")
    p.add_argument("--height", type=int, default=6)
    p.add_argument("--theta1", required=True, type=_fraction_list)
    p.add_argument("--theta2", required=True, type=_fraction_list)


def _ncdt_args(p):
    p.add_argument("family", help='"c3", "conifold", or "mckay:n:w1,w2,w3"')
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--sign", choices=["unsigned", "dimension"],
                   default="unsigned")
    p.add_argument("--json", action="store_true")


def _triangulate_args(p):
    _add_polygon_flags(p)
    p.add_argument("--json", action="store_true")


def _web_args(p):
    _add_polygon_flags(p)
    p.add_argument("--index", type=int, default=0)


def _gw_args(p):
    _web_args(p)
    p.add_argument("--order", type=int, required=True, help="Q truncation")
    p.add_argument("--t-order", type=int, default=16)


def _gv_args(p):
    _web_args(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--t-order", type=int, default=24)
    p.add_argument("--genus", type=_nonnegative_int, default=2)
    p.add_argument("--json", action="store_true")


def _verify_geometry_args(p):
    p.add_argument("geometry", choices=["conifold", "laufer1", "laufer2"])
    p.add_argument("--k", type=int, help="laufer1's parameter")
    p.add_argument("--n", type=int, help="laufer2's parameter")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--override", action="append", metavar="KEY=EXPR")
    p.add_argument("--report-only", action="store_true",
                   help="exit 0 even when identities fail")


def _compare_args(p):
    p.add_argument("geometry", help='"c3", "conifold", or "mckay:n:w1,w2,w3"')
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--theta", required=True, type=_theta, metavar="V=Q,...")
    p.add_argument("--map", type=_variable_map, metavar="q0=-Q0*t^2,...")
    p.add_argument("--t-order", type=int, default=12)
    p.add_argument("--sign", choices=["unsigned", "dimension"],
                   default="unsigned")
    p.add_argument("--wall-radius", type=int, default=5)
    p.add_argument("--json", action="store_true")


# every subcommand: its help line, its handler and the function that adds its
# arguments, in the order of the usage line and of --help
_COMMANDS = {
    "mckay": ("McKay quiver of a cyclic action", cmd_mckay, _mckay_args),
    "relations": ("cyclic-derivative relations", cmd_relations,
                  _relations_args),
    "frame": ("attach a framing vertex", cmd_frame, _frame_args),
    "stability": ("classify a monomial representation", cmd_stability,
                  _stability_args),
    "roots": ("positive roots of a Cartan matrix", cmd_roots, _roots_args),
    "walls": ("walls separating two parameters", cmd_walls, _walls_args),
    "ncdt": ("crystal partition function", cmd_ncdt, _ncdt_args),
    "triangulate": ("unit triangulations of a polygon", cmd_triangulate,
                    _triangulate_args),
    "flops": ("flop adjacency between triangulations", cmd_flops,
              _add_polygon_flags),
    "web": ("dual web of a triangulation", cmd_web, _web_args),
    "gw": ("vertex partition function of a web", cmd_gw, _gw_args),
    "gv": ("Gopakumar-Vafa extraction", cmd_gv, _gv_args),
    "verify-geometry": ("exact chart verification", cmd_verify_geometry,
                        _verify_geometry_args),
    "compare": ("crystal versus vertex sheet", cmd_compare, _compare_args),
}


def _named_command(argv) -> str | None:
    """The subcommand the command line ``argv`` names: its first word after
    any ``--seed N`` and ``--jobs N`` (or ``--seed=N``, ``--jobs=N``), if
    that word is a subcommand; else None."""
    words = iter(argv)
    for word in words:
        if word in ("--seed", "--jobs"):
            next(words, None)
        elif not word.startswith(("--seed=", "--jobs=")):
            return word if word in _COMMANDS else None
    return None


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of the command line ``argv``.

    Only the subcommand ``argv`` names gets a subparser, since building all
    of them costs more than most ops' own parsing; with ``argv`` None, or
    when it names no subcommand, every subcommand gets one.  Either way the
    parser prints the same bytes for ``argv``.
    """
    named = _named_command(argv or ())
    parser = _Parser(
        prog="crepant",
        description="quivers with potentials, crystal counting, and the"
                    " topological vertex")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all sampling (default 0)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; geometry trials"
                             " run serially")
    # with one subparser the usage line must still list every subcommand;
    # with all of them argparse lists them itself, and names the action
    # "command" in its errors, as a metavar would not
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if named is None else "{" + ",".join(_COMMANDS) + "}")
    for name, (text, func, add_arguments) in _COMMANDS.items():
        if named in (None, name):
            p = sub.add_parser(name, help=text)
            add_arguments(p)
            p.set_defaults(func=func)
    return parser


# the arguments that size a computation, in the order they are named when
# one runs out of memory or of stack; a McKay quiver's order is its rank,
# and the roots of ``roots`` and ``walls`` are vectors of rank coordinates
_SIZE_ARGS = ("mckay", "t_order", "order", "height", "trials", "wall_radius")


def _too_large(args, what: str) -> str:
    given = [f"--{name.replace('_', '-')} {getattr(args, name)}"
             for name in _SIZE_ARGS if getattr(args, name, None) is not None]
    if not given:
        return f"{what} on these arguments"
    return f"{what}; lower {' or '.join(given)}"


def main(argv=None) -> int:
    """Run the command line ``argv`` (default ``sys.argv[1:]``) and return
    its exit code.  argparse's help and usage errors raise ``SystemExit``."""
    if argv is None:
        argv = sys.argv[1:]
    args = None
    try:
        args = build_parser(argv).parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CrepantError, OSError) as exc:
        message = str(exc)
    except MemoryError:
        message = _too_large(args, "out of memory")
    except RecursionError:
        message = _too_large(args, "recursion too deep")
    print(f"error: {message}", file=sys.stderr)
    return 1


def run():
    """The process entry of ``python -m crepant`` and of the ``crepant``
    script: ``main`` on ``sys.argv``, then an exit that skips interpreter
    teardown; it never returns.

    crepant leaves no thread, pool, atexit hook or open file behind, so
    teardown would only garbage-collect what the import built, and flush
    stdout.  The flush is done here instead: if it fails (a full disk, a
    closed pipe), that is one ``error:`` line and exit 1.
    """
    try:
        code = main()
    except SystemExit as exc:   # argparse's help (0) or usage error (2)
        code = exc.code
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
