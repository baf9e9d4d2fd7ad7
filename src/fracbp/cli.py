"""Command line interface.

Subcommands: bpf (fractional partition via column generation), bcf
(fractional cover LP), bp / bc (integer variants by branch and bound),
bounds (fooling set, cover value, and per-power root bounds), kron
(write a Kronecker power in the text matrix format).  In the output of
bp and bc, `iterations` is the number of branch-and-bound nodes (LP
solves) explored.

Exit codes: 0 success, 2 finished without converging, 3 a size or node
cap refused the computation, 64 usage error, 65 unreadable input
matrix (or one with no ones), 74 a checkpoint or the --out file could
not be read or written.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from decimal import ROUND_HALF_EVEN, Decimal, localcontext

from . import bounds as bounds_mod
from . import colgen
from ._rational import rat, rat_from_str
from .core import Biclique, format_matrix, kronecker_power, load_matrix, matrix_hash
from .errors import (
    CheckpointError,
    ContractViolation,
    EmptyGraphError,
    FracbpError,
    MatrixFormatError,
    NodeCapExceeded,
    OutputError,
    SizeCapExceeded,
)
from .lp import COVER, NODE_CAP, build_master, solve
from .maximal import enumerate_maximal

EXIT_OK = 0
EXIT_NONCONVERGED = 2
EXIT_CAP = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_IO = 74


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 for usage errors; we need 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def decimal6(value) -> str:
    """Six-decimal string of an exact rational, half-even."""
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(value.numerator) / Decimal(value.denominator)
        return str(d.quantize(Decimal("1.000000"), rounding=ROUND_HALF_EVEN))


def _pair_dict(value) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def _support_entry(b: Biclique, weight) -> dict:
    return {
        "rows": list(b.row_indices()),
        "cols": list(b.col_indices()),
        "weight": _pair_dict(weight),
    }


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and each call gets a fresh namespace."""
    parser = _Parser(prog="fracbp", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("matrix", help="built-in name (domino, crown5) or a file path")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("bpf", help="fractional biclique partition number")
    add_common(p)
    p.add_argument("--power", "-k", type=int, default=1,
                   help="solve the k-th Kronecker power of the matrix")
    p.add_argument("--epsilon", default="1/1000000",
                   help="pricing convergence tolerance (exact rational)")
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--init", choices=colgen.INIT_STRATEGIES, default="union",
                   help="columns that seed the master; with union, a power "
                        "with -k 2 or more, or a matrix whose symmetries leave "
                        "at most a quarter as many edge orbits as ones, is "
                        "solved over those orbits")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility and ignored; pricing "
                        "runs serially")
    p.add_argument("--checkpoint", help="checkpoint JSON path (resumes if present)")
    p.set_defaults(func=cmd_bpf)

    p = sub.add_parser("bcf", help="fractional biclique cover number")
    add_common(p)
    p.set_defaults(func=cmd_bcf)

    node_cap_help = ("most branch-and-bound nodes (LP solves) to explore, "
                     "at least 1, before refusing with exit code 3 and the "
                     "best value found and root LP bound; the output's "
                     "iterations is the number explored")
    p = sub.add_parser("bp", help="integer biclique partition number")
    add_common(p)
    p.add_argument("--node-cap", type=int, default=NODE_CAP, help=node_cap_help)
    p.set_defaults(func=cmd_bp)

    p = sub.add_parser("bc", help="integer biclique cover number")
    add_common(p)
    p.add_argument("--node-cap", type=int, default=NODE_CAP, help=node_cap_help)
    p.set_defaults(func=cmd_bc)

    p = sub.add_parser("bounds", help="fooling set, cover value, and root bounds")
    add_common(p)
    p.add_argument("--kmax", type=int, default=None,
                   help="tabulate bounds for k=1..kmax")
    p.add_argument("--upper", action="append", default=[], metavar="K=VALUE",
                   help="known exact partition value of the k-th power, "
                        "e.g. --upper 2=6 --upper 3=2059/149 (repeatable)")
    p.add_argument("--upper-values", metavar="FILE",
                   help="JSON file mapping power k to an exact rational "
                        'string, e.g. {"2": "6", "3": "2059/149"}')
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("kron", help="write a Kronecker power as matrix text")
    add_common(p)
    p.add_argument("--power", "-k", type=int, default=1)
    p.set_defaults(func=cmd_kron)

    return parser


def _emit(text: str, args) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputError(f"cannot write {args.out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _solution_payload(kind, mhash, value, lower, iterations, converged,
                      support, timings) -> dict:
    return {
        "matrix_hash": mhash,
        "kind": kind,
        "value": _pair_dict(value),
        "decimal": decimal6(value),
        "iterations": iterations,
        "converged": converged,
        "lower_bound": _pair_dict(lower),
        "support": [_support_entry(b, w) for b, w in support],
        "timings": {key: round(v, 6) for key, v in timings.items()},
    }


def _render_solution(payload: dict, args, extra_lines=()) -> str:
    if args.format == "json":
        return json.dumps(payload, indent=2) + "\n"
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["kind", "value_num", "value_den", "decimal",
                         "iterations", "converged", "lower_num", "lower_den"])
        writer.writerow([
            payload["kind"], payload["value"]["num"], payload["value"]["den"],
            payload["decimal"], payload["iterations"], payload["converged"],
            payload["lower_bound"]["num"], payload["lower_bound"]["den"]])
        return buf.getvalue()
    v = payload["value"]
    lb = payload["lower_bound"]
    lines = [
        f"matrix {payload['matrix_hash'][:16]}  kind={payload['kind']}",
        f"value = {_frac_str(v)} = {payload['decimal']}",
    ]
    lines.extend(extra_lines)
    state = "converged" if payload["converged"] else "NOT converged"
    lines.append(f"iterations: {payload['iterations']} ({state})")
    lines.append(f"lower bound = {_frac_str(lb)} = {decimal6(rat(lb['num'], lb['den']))}")
    for entry in payload["support"]:
        w = entry["weight"]
        lines.append(
            f"  rows={entry['rows']} cols={entry['cols']} weight={_frac_str(w)}")
    t = payload["timings"]
    lines.append("timings: " + ", ".join(f"{key}={val:.3f}s" for key, val in t.items()))
    return "\n".join(lines) + "\n"


def _frac_str(pair: dict) -> str:
    return f"{pair['num']}/{pair['den']}" if pair["den"] != 1 else str(pair["num"])


def cmd_bpf(args) -> int:
    a = load_matrix(args.matrix)
    try:
        epsilon = rat_from_str(args.epsilon)
    except (ValueError, ZeroDivisionError) as exc:
        raise ContractViolation(f"--epsilon wants a rational, got "
                                f"{args.epsilon!r}") from exc
    config = colgen.ColGenConfig(
        epsilon=epsilon,
        max_iterations=args.max_iters,
        init_strategy=args.init,
        checkpoint_path=args.checkpoint,
    )
    progress = None
    if args.format == "text":
        def progress(rec):
            print(f"  iter {rec.iteration}: objective={rec.objective} "
                  f"alpha={rec.alpha} pool={rec.pool_size}", file=sys.stderr)
    report = colgen.solve_power(a, args.power, config, progress=progress)
    payload = _solution_payload(
        "bpf", report.matrix_hash, report.value, report.best_lower_bound,
        report.iterations, report.converged, report.support, report.timings)
    extra = []
    if args.power > 1:
        root = bounds_mod.decimal_root(report.value, args.power)
        extra.append(f"{args.power}-th root = {bounds_mod.quantize6(root)}")
    if args.format == "csv":
        _emit(_records_csv(report), args)
    else:
        _emit(_render_solution(payload, args, extra), args)
    return EXIT_OK if report.converged else EXIT_NONCONVERGED


def _records_csv(report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["iteration", "objective", "alpha", "lower_bound",
                     "pool_size", "added", "pruned"])
    for r in report.records:
        writer.writerow([r.iteration, r.objective, r.alpha, r.lower_bound,
                         r.pool_size, r.added, r.pruned])
    return buf.getvalue()


def cmd_bcf(args) -> int:
    a = load_matrix(args.matrix)
    t0 = time.perf_counter()
    maximals = enumerate_maximal(a)
    sol = solve(build_master(a, maximals, COVER))
    timings = {"total": time.perf_counter() - t0}
    support = [
        (b, x) for b, x in zip(maximals, sol.primal) if x != 0
    ]
    payload = _solution_payload(
        "bcf", matrix_hash(a), sol.objective, sol.objective, 1, True,
        support, timings)
    _emit(_render_solution(payload, args), args)
    return EXIT_OK


def _cmd_integer(args, kind: str) -> int:
    a = load_matrix(args.matrix)
    t0 = time.perf_counter()
    if kind == "bp":
        value, chosen, nodes = bounds_mod.integer_partition_number(
            a, node_cap=args.node_cap)
    else:
        value, chosen, nodes = bounds_mod.integer_cover_number(
            a, node_cap=args.node_cap)
    timings = {"total": time.perf_counter() - t0}
    payload = _solution_payload(
        kind, matrix_hash(a), rat(value), rat(value),
        nodes, True, [(b, rat(1)) for b in chosen], timings)
    _emit(_render_solution(payload, args), args)
    return EXIT_OK


def cmd_bp(args) -> int:
    return _cmd_integer(args, "bp")


def cmd_bc(args) -> int:
    return _cmd_integer(args, "bc")


def _parse_uppers(pairs, error, where: str) -> dict:
    """(k, value) string pairs as a dict of k to exact rationals; a bad
    pair raises `error` naming `where`."""
    uppers = {}
    for k_str, value in pairs:
        try:
            k = int(k_str)
            uppers[k] = rat_from_str(str(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise error(f"{where}: bad entry {k_str}={value}: {exc}") from exc
    return uppers


def cmd_bounds(args) -> int:
    a = load_matrix(args.matrix)
    uppers = {}
    if args.upper_values:
        try:
            with open(args.upper_values, encoding="ascii") as fh:
                raw = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise MatrixFormatError(f"cannot read {args.upper_values}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise MatrixFormatError(
                f"{args.upper_values} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise MatrixFormatError(
                f"{args.upper_values} must hold an object mapping k to a rational")
        uppers = _parse_uppers(raw.items(), MatrixFormatError, args.upper_values)
    uppers |= _parse_uppers((item.partition("=")[::2] for item in args.upper),
                            ContractViolation, "--upper takes K=VALUE")
    report = bounds_mod.sandwich_report(a, uppers, kmax=args.kmax)
    payload = {
        "matrix_hash": matrix_hash(a),
        "kind": "bounds",
        "fooling": report.fooling,
        "cover_value": _pair_dict(report.cover_value),
        "partition_value": _pair_dict(report.partition_value),
        "rows": [
            {
                "k": row.k,
                "lower_root": str(bounds_mod.quantize6(row.lower_root)),
                "upper_value": (None if row.upper_value is None
                                else _pair_dict(row.upper_value)),
                "upper_root": (None if row.upper_root is None
                               else str(bounds_mod.quantize6(row.upper_root))),
                "best_upper_root": str(bounds_mod.quantize6(row.best_upper_root)),
            }
            for row in report.rows
        ],
        "interval": {
            "lower": _pair_dict(report.interval_lower),
            "upper": str(report.interval_upper),
        },
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["k", "lower_root", "upper_value", "upper_root",
                         "best_upper_root"])
        for row in payload["rows"]:
            uv = row["upper_value"]
            writer.writerow([
                row["k"], row["lower_root"],
                "" if uv is None else f"{uv['num']}/{uv['den']}",
                row["upper_root"] or "", row["best_upper_root"]])
        _emit(buf.getvalue(), args)
    else:
        lines = [
            f"matrix {payload['matrix_hash'][:16]}",
            f"fooling set size = {report.fooling}",
            f"fractional cover = {_frac_str(payload['cover_value'])}"
            f" = {decimal6(report.cover_value)}",
            f"fractional partition = {_frac_str(payload['partition_value'])}"
            f" = {decimal6(report.partition_value)}",
            "   k  lower_root  upper_root  best_upper",
        ]
        for row in payload["rows"]:
            lines.append(
                f"  {row['k']:>2}  {row['lower_root']:>10}  "
                f"{(row['upper_root'] or '-'):>10}  {row['best_upper_root']:>10}")
        lines.append(
            f"asymptotic interval: [{_frac_str(payload['interval']['lower'])}, "
            f"{payload['interval']['upper']}]")
        _emit("\n".join(lines) + "\n", args)
    return EXIT_OK


def cmd_kron(args) -> int:
    a = load_matrix(args.matrix)
    power = kronecker_power(a, args.power)
    _emit(format_matrix(power), args)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MatrixFormatError, EmptyGraphError) as exc:
        print(f"fracbp: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SizeCapExceeded, NodeCapExceeded) as exc:
        print(f"fracbp: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (CheckpointError, OutputError) as exc:
        print(f"fracbp: {exc}", file=sys.stderr)
        return EXIT_IO
    except ContractViolation as exc:
        print(f"fracbp: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FracbpError as exc:
        print(f"fracbp: internal error: {exc}", file=sys.stderr)
        raise


if __name__ == "__main__":
    sys.exit(main())
