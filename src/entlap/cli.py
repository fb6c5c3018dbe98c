"""Command-line front end.

Subcommands: validate, classify, laplacian, graph, sweep, corpus.
Exit codes: 0 success, 1 parse error, 2 validation error, 3 usage error (a bad
option value, or a path that cannot be read or written), 141 (128 + SIGPIPE)
when the reader of stdout closed it before all output was written.

Every command prints what it reads off the state: `laplacian` the Laplacian
of the state's `literal` entries, `graph` the edges of its float coherence
graph labelled |rho_ij| from those same entries (exact for a state with exact
entries, so it builds no exact graph), and `sweep` lambda_min(rho) and max W / 2
off each stack of states, then the verdicts of the oracle and of each entry of
`criteria.CRITERIA` with a column.  `exact.format_scalar` writes every number
printed as text; the sweep's CSV rows write the same 12 significant digits in bulk.
`classify --json` writes its report here, in one pass over its fixed schema,
in the layout json.dumps(..., indent=2) gives it: strings through json's own
ASCII escaper, each scalar the float repr of its 12-significant-digit value
(its .12g text itself, unless that has an exponent), and NaN, Infinity and
-Infinity as json spells them.

`build_parser` is the one table of options.  `main` hands an argv that starts
with a subcommand's name straight to that subcommand's parser, as the full
parser would, and leaves any other argv (none, -h, an unknown command) to the
full parser, so every namespace, usage error and help text is argparse's own.
A matrix file is read as UTF-8, less a leading byte-order mark.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _string

from . import corpus as corpus_mod
from .criteria import CRITERIA, ORACLE_VERDICTS, DecisionTolerance, classify, oracle
from .errors import ParameterOutOfDomain, StateValidationError, UnknownState
from .exact import format_scalar
from .laplacian import laplacian_of_density
from .matops import SLICE_ENTRIES
from .matrixfile import ParseError, emit, parse
from .states import DEFAULT_TOL, DensityMatrix, linear_entropy, purity, rank
from .wgraph import export_dot

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_USAGE = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by a closed pipe


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 3."""

    commands: argparse.Action | None = None  # the top-level parser's add_subparsers action

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


# The criteria a sweep writes, in columns after the oracle's; a row's numbers are
# format_scalar's, and without edges its half_max_w cell (NaN) is empty.
_SWEPT = tuple(entry for entry in CRITERIA if entry.column)
_HEADER = ",".join(["param,lambda_min_rho,lambda_min_ptb,half_max_w,oracle", *(e.column for e in _SWEPT)])
_ROW = "%.12g,%.12g,%.12g,%.12g,%s" + ",%s" * len(_SWEPT)
_ROW_NO_EDGES = "%.12g,%.12g,%.12g,%.0s,%s" + ",%s" * len(_SWEPT)


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
    """Text of a UTF-8 file, without a leading byte-order mark.

    A file that cannot be opened or decoded is a usage error.
    """
    try:
        with open(path, encoding="utf-8-sig") as f:
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
    """The state a matrix file or a corpus `--state` names; both, or `--param` with a file, is a usage error."""
    if args.state and args.file:
        raise CliError(EXIT_USAGE, "provide a matrix file or --state NAME, not both")
    if args.state:
        rho = corpus_mod.build(args.state, args.param)
        label = args.state if args.param is None else f"{args.state}({args.param})"
        return rho, label
    if args.file:
        if args.param is not None:
            raise CliError(EXIT_USAGE, "--param applies to --state, not to a matrix file")
        return parse(_read(args.file)).validate(), args.file
    raise CliError(EXIT_USAGE, "provide a matrix file or --state NAME")


def _add_state_args(p: argparse.ArgumentParser):
    p.add_argument("file", nargs="?", help="matrix file")
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
    print(f"VALID dims {rho.dims.d1}x{rho.dims.d2} purity {format_scalar(purity(rho))} "
          f"linear_entropy {format_scalar(linear_entropy(rho))} rank {rank(rho)}")
    return EXIT_OK


# The classify report as json.dumps(..., indent=2) lays it out (see the module docstring).
_REPORT = ('{\n  "state_id": %s,\n  "dims": {\n    "d1": %d,\n    "d2": %d\n  },\n  "oracle": {\n'
           '    "verdict": %s,\n    "lambda_min_ptb": %s\n  },\n  "criteria": %s,\n  "consistency_flags": %s\n}')
_CRITERION = '{\n      "id": %s,\n      "verdict": %s,\n      "scalars": %s,\n      "caveat": %s\n    }'
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number(x: float) -> str:
    """The float repr of x rounded to 12 significant digits, or json's NaN, Infinity or -Infinity.

    .12g writes fixed notation for 1e-4 <= |x| < 1e12, as repr does, and at
    most 12 significant digits, a decimal no shorter one shares a float with;
    so that text is the repr, less the ".0" of a whole number.  Text with an
    exponent is read back and written by repr, which keeps fixed notation up
    to 1e16.
    """
    text = f"{x:.12g}"
    if "e" in text:
        return repr(float(text))
    if "." in text:
        return text
    return _NON_FINITE.get(text) or text + ".0"


def _block(items: list[str], pad: str, brackets: str) -> str:
    """A JSON array or object of written items, each on a line of its own after `pad`."""
    if not items:
        return brackets
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-2] + brackets[1]


def _report_json(report) -> str:
    criteria = [_CRITERION % (_string(r.criterion_id.value), _string(r.verdict.value),
                              _block([f"{_string(k)}: {_number(v)}" for k, v in r.scalars.items()], "\n        ", "{}"),
                              "null" if r.caveat is None else _string(r.caveat))
                for r in report.results]
    return _REPORT % (_string(report.state_id), report.dims.d1, report.dims.d2, _string(report.oracle_verdict),
                      _number(report.oracle_lambda_min_ptb), _block(criteria, "\n    ", "[]"),
                      _block([_string(c.value) for c in report.consistency_flags], "\n    ", "[]"))


def cmd_classify(args) -> int:
    rho, label = _load_state(args)
    report = classify(rho, DecisionTolerance(args.eps), state_id=label)
    if args.json:
        print(_report_json(report))
        return EXIT_OK
    print(f"state: {label} ({rho.dims.d1}x{rho.dims.d2})")
    print(f"oracle: {report.oracle_verdict} lambda_min(rho^TB) = {format_scalar(report.oracle_lambda_min_ptb)}")
    for r in report.results:
        scalars = " ".join(f"{k}={format_scalar(v)}" for k, v in r.scalars.items())
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
    # the edges and stats are those of the float graph classify reads; its
    # weights are |rho_ij|, so the entries the state prints label its edges
    ends = rho.edges
    _write(args.dot, export_dot(rho.literal, ends))
    conn = "connected" if rho.connected else "disconnected"
    print(f"vertices {rho.n} edges {len(ends[0])} {conn}")
    print(f"total_degree {format_scalar(rho.total_degree)}")
    print("max_w undefined (no edges)" if math.isnan(rho.max_w) else f"max_w {format_scalar(rho.max_w)}")
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
    lines = [_HEADER]
    for first in range(0, args.steps, per_stack):
        values = grid[first:first + per_stack]
        stack = corpus_mod.build_stack(args.state, values)
        oracle_codes, lam_ptbs = oracle(stack, args.eps)
        columns = [[ORACLE_VERDICTS[c] for c in oracle_codes.tolist()]]
        for entry in _SWEPT:
            table, codes, _ = entry.test(stack, args.eps)
            names = [outcome.verdict.value for outcome in table.outcomes]
            columns.append([names[c] for c in codes.tolist()])
        lam_rhos, halves = stack.spectrum[:, 0], stack.max_w / 2.0  # half is NaN without edges
        for row in zip(values, lam_rhos.tolist(), lam_ptbs.tolist(), halves.tolist(), *columns):
            lines.append((_ROW_NO_EDGES if math.isnan(row[3]) else _ROW) % row)
    _write(args.csv, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_corpus(args) -> int:
    if args.action == "list":
        if (args.name, args.param, args.out) != (None, None, None):
            raise CliError(EXIT_USAGE, "corpus list takes no state name, --param or --out")
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
    sub = parser.commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="validate a matrix file as a density matrix")
    p.add_argument("file")
    p.add_argument("--tol", type=nonnegative_float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="run the oracle and every criterion")
    _add_state_args(p)
    p.add_argument("--json", action="store_true", help="JSON report (default: text table)")
    p.add_argument("--eps", type=positive_float, default=DecisionTolerance().eps, help="indeterminate band half-width")
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
    p.add_argument("--eps", type=positive_float, default=DecisionTolerance().eps)
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
    if argv is None:
        argv = sys.argv[1:]
    # the full parser would hand every word after a subcommand's name to that
    # subcommand's parser, so main does so itself; any other argv (none, -h, an
    # unknown command) goes to the full parser
    command = parser.commands.choices.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the rest of the output goes nowhere, so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (CliError, *_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else _EXIT_CODES[type(exc)]


if __name__ == "__main__":
    sys.exit(main())
