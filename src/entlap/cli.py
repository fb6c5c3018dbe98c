"""Command-line front end.

Subcommands: validate, classify, laplacian, graph, sweep, corpus.
Exit codes: 0 success, 1 parse error, 2 validation error, 3 usage error (a bad
option value, or a path that cannot be read or written).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import corpus as corpus_mod
from .criteria import ORACLE_VERDICTS, DecisionTolerance, classify, cor6, oracle, thm3, thm5, thm6
from .errors import ParameterOutOfDomain, StateValidationError, UnknownState
from .laplacian import laplacian_of_density
from .matops import SLICE_ENTRIES
from .matrixfile import ParseError, emit, parse
from .states import DensityMatrix, purity_report
from .wgraph import export_dot, graph_from_laplacian

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


# A sweep's CSV row, each number as _fmt writes it; without edges the
# half_max_w cell (NaN) is written empty.
_ROW = "%.12g,%.12g,%.12g,%.12g,%s,%s,%s,%s,%s"
_ROW_NO_EDGES = "%.12g,%.12g,%.12g,%.0s,%s,%s,%s,%s,%s"


def _round12(x: float) -> float:
    return float(f"{float(x):.12g}")


def finite_float(text: str) -> float:
    """argparse type: a finite float, so no option value reaches the library as inf or nan."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def positive_float(text: str) -> float:
    """argparse type: a finite float above zero."""
    value = finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def nonnegative_float(text: str) -> float:
    """argparse type: a finite float, zero or above."""
    value = finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text!r}")
    return value


def _read(path: str) -> str:
    """Text of a UTF-8 file; a file that cannot be opened or decoded is a usage error."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(EXIT_USAGE, str(exc)) from None


def _write(path: str | None, text: str) -> None:
    """Write `text` to `path`, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from None


def _load_state(args) -> tuple[DensityMatrix, str]:
    if getattr(args, "state", None):
        rho = corpus_mod.build(args.state, args.param)
        label = args.state if args.param is None else f"{args.state}({args.param})"
        return rho, label
    if getattr(args, "file", None):
        return parse(_read(args.file)).validate(), args.file
    raise CliError(EXIT_USAGE, "provide a matrix file or --state NAME")


def _add_state_args(p: argparse.ArgumentParser, file_optional: bool = True):
    p.add_argument("file", nargs="?" if file_optional else None, help="matrix file")
    p.add_argument("--state", help="corpus state name")
    p.add_argument("--param", type=finite_float, help="corpus state parameter")


def cmd_validate(args) -> int:
    parsed = parse(_read(args.file))
    try:
        rho = parsed.validate(tol=args.tol)
    except StateValidationError as exc:
        for v in exc.violations:
            print(str(v))
        return EXIT_VALIDATION
    report = purity_report(rho)
    print(f"VALID dims {rho.dims.d1}x{rho.dims.d2} purity {_fmt(report.purity)} "
          f"linear_entropy {_fmt(report.linear_entropy)} rank {report.rank}")
    return EXIT_OK


def _report_to_dict(report) -> dict:
    return {
        "state_id": report.state_id,
        "dims": {"d1": report.dims.d1, "d2": report.dims.d2},
        "oracle": {
            "verdict": report.oracle_verdict,
            "lambda_min_ptb": _round12(report.oracle_lambda_min_ptb),
        },
        "criteria": [
            {
                "id": r.criterion_id.value,
                "verdict": r.verdict.value,
                "scalars": {k: _round12(v) for k, v in r.scalars.items()},
                "caveat": r.caveat,
            }
            for r in report.results
        ],
        "consistency_flags": [c.value for c in report.consistency_flags],
    }


def cmd_classify(args) -> int:
    rho, label = _load_state(args)
    report = classify(rho, DecisionTolerance(args.eps), state_id=label)
    if args.json:
        print(json.dumps(_report_to_dict(report), indent=2))
        return EXIT_OK
    print(f"state: {label} ({rho.dims.d1}x{rho.dims.d2})")
    print(f"oracle: {report.oracle_verdict} lambda_min(rho^TB) = {_fmt(report.oracle_lambda_min_ptb)}")
    for r in report.results:
        scalars = " ".join(f"{k}={_fmt(v)}" for k, v in r.scalars.items())
        line = f"{r.criterion_id.value:<18} {r.verdict.value:<20} {scalars}"
        if r.caveat:
            line += f"  [{r.caveat}]"
        print(line)
    if report.consistency_flags:
        print("consistency_flags: " + " ".join(c.value for c in report.consistency_flags))
    return EXIT_OK


def cmd_laplacian(args) -> int:
    rho, label = _load_state(args)
    _write(args.out, emit(laplacian_of_density(rho.literal), rho.dims, header_comment=f"laplacian of {label}"))
    return EXIT_OK


def cmd_graph(args) -> int:
    rho, label = _load_state(args)
    # the DOT labels are the printed entries; the stats are those of the float graph classify reads
    graph = rho.graph if rho.exact is None else graph_from_laplacian(laplacian_of_density(rho.exact))
    _write(args.dot, export_dot(graph))
    conn = "connected" if rho.connected else "disconnected"
    print(f"vertices {rho.graph.vertex_count} edges {rho.graph.edge_count()} {conn}")
    print(f"total_degree {_fmt(rho.total_degree)}")
    print("max_w undefined (no edges)" if rho.max_w is None else f"max_w {_fmt(rho.max_w)}")
    return EXIT_OK


def _grid(start: float, stop: float, steps: int) -> list[float]:
    """The float of each rational start + k (stop - start) / (steps - 1), k < steps.

    Point k is (a + k b) / den in ints; int true division rounds it correctly,
    as float(Fraction) does, and the last point is exactly `stop`, never a
    rounding past it.
    """
    (start_p, start_q), (stop_p, stop_q) = start.as_integer_ratio(), stop.as_integer_ratio()
    gaps = steps - 1
    a, b, den = start_p * stop_q * gaps, stop_p * start_q - start_p * stop_q, start_q * stop_q * gaps
    return [(a + k * b) / den for k in range(steps)]


def cmd_sweep(args) -> int:
    entry = corpus_mod.get_entry(args.state)
    if entry.parameter_name is None:
        raise CliError(EXIT_USAGE, f"state {args.state!r} is not parameterized")
    if args.param_name != entry.parameter_name:
        raise CliError(EXIT_USAGE,
                       f"state {args.state!r} has parameter {entry.parameter_name!r}, not {args.param_name!r}")
    if args.steps < 2:
        raise CliError(EXIT_USAGE, "steps must be >= 2")
    if not args.start < args.stop:
        raise CliError(EXIT_USAGE, "--from must be < --to")
    grid = _grid(args.start, args.stop, args.steps)
    # the grid goes in stacks of states whose float matrices fill at most one slice
    per_stack = max(1, SLICE_ENTRIES // entry.dims.n ** 2)
    lines = ["param,lambda_min_rho,lambda_min_ptb,half_max_w,oracle,thm3,thm5,thm6,cor6"]
    for first in range(0, args.steps, per_stack):
        values = grid[first:first + per_stack]
        stack = corpus_mod.build_stack(args.state, values)
        oracle_codes, lam_ptbs = oracle(stack, args.eps)
        columns = [[ORACLE_VERDICTS[c] for c in oracle_codes.tolist()]]
        for criterion in (thm3, thm5, thm6, cor6):
            table, codes, _ = criterion(stack, args.eps)
            names = [outcome.verdict.value for outcome in table.outcomes]
            columns.append([names[c] for c in codes.tolist()])
        lam_rhos, halves = stack.spectrum.T[0], stack.max_w / 2.0  # COR6's scalars; NaN halves: no edges
        for value, lam_rho, lam_ptb, half, oracle_v, thm3_v, thm5_v, thm6_v, cor6_v in zip(
                values, lam_rhos.tolist(), lam_ptbs.tolist(), halves.tolist(), *columns):
            lines.append((_ROW_NO_EDGES if math.isnan(half) else _ROW) % (
                value, lam_rho, lam_ptb, half, oracle_v, thm3_v, thm5_v, thm6_v, cor6_v))
    _write(args.csv, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_corpus(args) -> int:
    if args.action == "list":
        for entry in corpus_mod.list_entries():
            domain = ""
            if entry.parameter_name is not None:
                lo, hi = entry.parameter_domain
                domain = f" {entry.parameter_name} in [{lo}, {hi}]"
            print(f"{entry.name:<8} {entry.dims.d1}x{entry.dims.d2}{domain}  {entry.description}")
        return EXIT_OK
    # emit
    if not args.name:
        raise CliError(EXIT_USAGE, "corpus emit requires a state name")
    rho = corpus_mod.build(args.name, args.param)
    _write(args.out, emit(rho, header_comment=f"corpus state {args.name}"))
    return EXIT_OK


@functools.cache  # parse_args only reads the parser and returns a fresh namespace, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="entlap",
                     description="Entanglement detection via density-matrix Laplacians and graph spectra")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="validate a matrix file as a density matrix")
    p.add_argument("file")
    p.add_argument("--tol", type=nonnegative_float, default=1e-9)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="run the oracle and every criterion")
    _add_state_args(p)
    p.add_argument("--json", action="store_true", help="JSON report (default: text table)")
    p.add_argument("--eps", type=positive_float, default=1e-9, help="indeterminate band half-width")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("laplacian", help="emit the Laplacian of a state in matrix-file format")
    _add_state_args(p)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_laplacian)

    p = sub.add_parser("graph", help="export the coherence graph as DOT and print its stats")
    _add_state_args(p)
    p.add_argument("--dot", help="DOT output path (default stdout)")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("sweep", help="evaluate criteria over a parameter grid, CSV output")
    p.add_argument("--state", required=True)
    p.add_argument("--param-name", required=True)
    p.add_argument("--from", dest="start", type=finite_float, required=True)
    p.add_argument("--to", dest="stop", type=finite_float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--csv", help="CSV output path (default stdout)")
    p.add_argument("--eps", type=positive_float, default=1e-9)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("corpus", help="list built-in states or emit one as a matrix file")
    p.add_argument("action", choices=["list", "emit"])
    p.add_argument("name", nargs="?")
    p.add_argument("--param", type=finite_float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_corpus)

    return parser


# Exit code of each library error that reaches main; a CliError carries its own.
_EXIT_CODES = {ParseError: EXIT_PARSE, StateValidationError: EXIT_VALIDATION,
               ParameterOutOfDomain: EXIT_VALIDATION, UnknownState: EXIT_USAGE}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, *_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else _EXIT_CODES[type(exc)]


if __name__ == "__main__":
    sys.exit(main())
