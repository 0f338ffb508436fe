"""Command-line interface.

Subcommands: iterate, mean-index, jump, analyze, verify, realize.
Exit codes: 0 success, 1 usage or input error, 2 analysis raised a
finiteness-contradiction flag, 3 undecidable exact arithmetic; every
nonzero exit writes one stderr line.
The global flag --format goes before or after the subcommand.
Settings: the scenario's options, overridden by the flags (see
``scenario.ScenarioOptions``).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import scenario as sc
from .analysis import run_analysis
from .angles import _bounded_decimal
from .errors import NoTupleFound, ScenarioError, SymjumpError, UndecidableComparison
from .iteration import iteration_rows
from .jumps import (find_complementary_tuples, find_jump_tuples, jump_tuples_at,
                    verify_tuple)
from .normal_forms import realize

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONTRADICTION = 2
EXIT_UNDECIDABLE = 3


class _Parser(argparse.ArgumentParser):
    # usage problems are one stderr line and exit 1, not argparse's usage block and 2
    def error(self, message):
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_ERROR)


def _fraction_arg(text: str) -> Fraction:
    """A rational flag, within the length and exponent bounds of scenario decimals."""
    try:
        return _bounded_decimal(text)
    except ZeroDivisionError as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _global_flags() -> argparse.ArgumentParser:
    # The global flag, accepted before and after the subcommand.  SUPPRESS
    # keeps a subcommand that omits it from overwriting a value given before
    # it; main() supplies the default.
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "machine"),
                        default=argparse.SUPPRESS, help="output rendering")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _global_flags()
    parser = _Parser(prog="symjump", parents=[common],
                     description="Exact index iteration and jump-tuple analysis "
                                 "for symplectic paths")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("iterate", parents=[common], help="index/nullity table of iterates")
    p.add_argument("--seed", required=True, dest="scenario", help="scenario file")
    p.add_argument("--seed-index", type=int, default=0)
    p.add_argument("--m-max", type=int, default=None)

    p = sub.add_parser("mean-index", parents=[common], help="exact or enclosed mean index")
    p.add_argument("--seed", required=True, dest="scenario")
    p.add_argument("--seed-index", type=int, default=0)

    p = sub.add_parser("jump", parents=[common], help="search for common index jump tuples")
    p.add_argument("--seeds", required=True, dest="scenario")
    p.add_argument("--delta", type=_fraction_arg, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--complement-of", type=int, default=None, metavar="N",
                   help="emit tuples complementary to the tuple at this N")

    p = sub.add_parser("analyze", parents=[common], help="full two-elliptic-geodesics pipeline")
    p.add_argument("--system", required=True, dest="scenario")
    p.add_argument("--delta", type=_fraction_arg, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--limit", type=int, default=None,
                   help="jump tuples to try for the first peak")

    p = sub.add_parser("verify", parents=[common], help="re-verify stored jump tuples")
    p.add_argument("--seeds", required=True, dest="scenario")
    p.add_argument("--tuple", required=True, dest="tuple_file",
                   help="machine-format jump tuple output")

    p = sub.add_parser("realize", parents=[common], help="floating-point endpoint matrix")
    p.add_argument("--seed", required=True, dest="scenario")
    p.add_argument("--seed-index", type=int, default=0)
    p.add_argument("--precision", type=_fraction_arg, default=Fraction(1, 10**9))
    return parser


def _load(path: str, args):
    """The scenario at path, its options overridden by the flags."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    system, options = sc.parse_scenario(data)
    if args.command == "analyze":  # try at least 5 tuples for the first peak
        options = dataclasses.replace(options, limit=max(options.limit, 5))
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(options)
             if getattr(args, f.name, None) is not None}
    return system, dataclasses.replace(options, **flags)


def _pick_seed(system, index: int):
    if not 0 <= index < len(system.seeds):
        raise ScenarioError(f"seed index {index} out of range (q = {len(system.seeds)})")
    return system.seeds[index]


def _emit(report, fmt: str) -> None:
    sys.stdout.buffer.write(sc.emit_report(report, fmt))
    sys.stdout.buffer.flush()


def _progress_printer(enabled: bool):
    if not enabled:
        return None
    def report(m_done: int, n_max: int) -> None:
        sys.stderr.write(f"  scanned lattice up to m = {m_done} (N <= {n_max})\n")
    return report


def main(argv=None) -> int:
    parser = build_parser()
    # argparse takes the value of an unknown option placed before the
    # subcommand for the subcommand's name: name the option instead
    head = _global_flags()
    head.add_argument("-h", "--help", action="store_true")
    head.add_argument("command", nargs=argparse.REMAINDER)
    try:
        _, unknown = head.parse_known_args(argv)
        if unknown:
            parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        args = parser.parse_args(argv, argparse.Namespace(format="text"))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # reader closed the pipe (e.g. | head); die quietly like cat does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    except UndecidableComparison as exc:
        sys.stderr.write(f"undecidable: {exc}\n")
        return EXIT_UNDECIDABLE
    except (SymjumpError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


def _dispatch(args) -> int:
    system, options = _load(args.scenario, args)
    if args.command == "iterate":
        seed = _pick_seed(system, args.seed_index)
        _emit(list(iteration_rows(seed, options.m_max)), args.format)
        return EXIT_OK

    if args.command == "mean-index":
        mi = _pick_seed(system, args.seed_index).mean
        # the codec emits the enclosure of the default width: refuse here,
        # before any output, if the angles' stated enclosures cannot give it
        mi.enclosure()
        _emit(mi, args.format)
        return EXIT_OK

    if args.command == "jump":
        progress = _progress_printer(sys.stderr.isatty())
        if args.complement_of is not None:
            base = jump_tuples_at(system.seeds, args.complement_of, options.delta)
            if not base:
                raise NoTupleFound(f"N = {args.complement_of} is not a jump tuple "
                                   f"at delta = {options.delta}")
            tuples = find_complementary_tuples(system.seeds, base[0], n_max=options.n_max,
                                               limit=options.limit, progress=progress)
        else:
            tuples = find_jump_tuples(system.seeds, options.delta, options.n_max,
                                      options.limit, progress=progress)
        _emit(tuples, args.format)
        return EXIT_OK

    if args.command == "analyze":
        report = run_analysis(system, delta=options.delta, n_max=options.n_max,
                              tuple_limit=options.limit,
                              progress=_progress_printer(sys.stderr.isatty()))
        _emit(report, args.format)
        if report.status == "two_elliptic_irrational":
            return EXIT_OK
        sys.stderr.write(f"contradiction: {report.flag}\n")
        return EXIT_CONTRADICTION

    if args.command == "verify":
        try:
            raw = Path(args.tuple_file).read_bytes()
        except OSError as exc:
            raise ScenarioError(f"cannot read {args.tuple_file}: {exc}") from exc
        tuples = sc.parse_tuples(raw)
        failed = 0
        for t in tuples:
            result = verify_tuple(t, system.seeds)
            failed += not result.passed
            _emit(result, args.format)
        if failed:
            sys.stderr.write(f"error: {failed} of {len(tuples)} tuples fail verification\n")
            return EXIT_ERROR
        return EXIT_OK

    seed = _pick_seed(system, args.seed_index)  # realize
    _emit(realize(seed.decomp, args.precision), args.format)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
