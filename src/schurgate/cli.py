"""Command-line interface: every pipeline stage behind a batch subcommand.

JSON output (--format json) is the machine contract: identical invocations
produce byte-identical documents, and nothing else is written to stdout in
JSON mode.  Text mode renders the same structure for humans.  Exit codes:
0 success, 2 invalid input, a request too large for the process (memory or
recursion exhausted) or output that cannot be written (an --out path that
cannot be opened, a stdout closed early), 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from _json import encode_basestring_ascii as _encode_str  # the C encoder json.encoder binds
from importlib import import_module

from .groups import InternalCheckError

__all__ = ["main"]


def _dumps(obj, nl: str = "\n") -> str:
    """json.dumps(obj, indent=2), byte for byte, at the indentation nl.

    Strings, ints, bools, None, lists, tuples and dicts with string keys are
    joined here; anything else (floats, other keys) goes to json.dumps, whose
    indent=2 encoder is pure Python and much slower on large tables.
    """
    kind = type(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is str:
        return _encode_str(obj)
    inner = nl + "  "
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_dumps(x, inner) for x in obj]) + nl + "]"
    if kind is dict and all(type(k) is str for k in obj):
        if not obj:
            return "{}"
        items = [_encode_str(k) + ": " + _dumps(x, inner) for k, x in obj.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if obj is None or kind is bool:
        return "null" if obj is None else "true" if obj else "false"
    import json

    return json.dumps(obj, indent=2).replace("\n", nl)


def _emit(args, payload: dict, text: str) -> None:
    out = _dumps(payload) if args.format == "json" else text
    if not args.out:
        print(out)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from None


# -- parser ---------------------------------------------------------------------

# the module of each command's handler cmd_<command>: a job compiles only its own (README, Start-up)
_COMMANDS = {**dict.fromkeys(("table", "schur", "predict", "sweep"), "cli_groups"),
             "frobenius": "cli_local", "euler": "cli_local", "series": "cli_series", "identity": "cli_series"}


def _add_group_args(sp, q_default=None, p_default=None):
    sp.add_argument("-q", type=int, required=q_default is None, default=q_default,
                    help="the odd prime q")
    sp.add_argument("-p", type=int, required=p_default is None, default=p_default,
                    help="the odd prime p")
    sp.add_argument("-n", type=int, required=True, help="exponent n of p")
    sp.add_argument("-j", type=int, default=None,
                    help="action residue j (default: smallest of order p)")


def _add_common(sp):
    sp.add_argument("--format", choices=("json", "text"), default="text")
    sp.add_argument("--out", default=None, help="write output to a file")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the named command alone (a job's parser in main)."""
    ap = argparse.ArgumentParser(
        prog="schurgate",
        description=(
            "exact character tables, Schur indices, twisted Euler factors and "
            "rank-divisibility predictions for C_q x| C_{p^n}"
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    if command in (None, "table"):
        sp = sub.add_parser("table", help="full character table with fields and decompositions")
        _add_group_args(sp)

    if command in (None, "schur"):
        sp = sub.add_parser("schur", help="local and global Schur index reports")
        _add_group_args(sp)
        sp.add_argument("--all", action="store_true", help="report every faithful character")

    if command in (None, "predict"):
        sp = sub.add_parser("predict", help="conditional rank and Selmer predictions")
        _add_group_args(sp)

    if command in (None, "frobenius"):
        sp = sub.add_parser("frobenius", help="Frobenius class data at an unramified prime")
        _add_group_args(sp)
        sp.add_argument("--field", default="example-F1")
        sp.add_argument("-v", type=int, required=True)

    if command in (None, "euler"):
        sp = sub.add_parser("euler", help="twisted local Euler factors")
        _add_group_args(sp, q_default=7, p_default=3)
        sp.add_argument("--curve", default=None, help="a1,a2,a3,a4,a6")
        sp.add_argument("-v", type=int, default=None)
        sp.add_argument("--trivial", action="store_true", help="untwisted factor")
        sp.add_argument("--symbolic", action="store_true",
                        help="leave a_v and v as formal symbols")
        sp.add_argument("--order7-class", dest="order7_class", default=None,
                        help="H for the orbit of a, or an explicit exponent x")
        sp.add_argument("--field", default="example-F1")
        sp.add_argument("--pick-first", action="store_true",
                        help="resolve an ambiguous Frobenius class to the smallest candidate")

    if command in (None, "series"):
        sp = sub.add_parser("series", help="truncated twisted Dirichlet series")
        _add_group_args(sp, q_default=7, p_default=3)
        sp.add_argument("--curve", required=True)
        sp.add_argument("--field", default="example-F1")
        sp.add_argument("--character", default="trivial", help="trivial, lin:e or ind:u,w")
        sp.add_argument("-X", type=int, default=100)
        sp.add_argument("--pick-first", action="store_true",
                        help="resolve ambiguous Frobenius classes to the smallest candidate")

    if command in (None, "identity"):
        sp = sub.add_parser("identity", help="tower L-identity, characters and coefficients")
        _add_group_args(sp, q_default=7, p_default=3)
        sp.add_argument("--curve", required=True)
        sp.add_argument("--field", default="example-F1")
        sp.add_argument("-X", type=int, default=500)

    if command in (None, "sweep"):
        sp = sub.add_parser("sweep", help="index = 1 iff p^n | q-1, over all small groups")
        sp.add_argument("--max", type=int, default=10 ** 4, help="bound on q * p^n")
        sp.add_argument("--tables", action="store_true",
                        help="also run table-level checks on small groups")
        sp.add_argument("--table-max", dest="table_max", type=int, default=300)
        sp.add_argument("--verbose-rows", dest="verbose_rows", action="store_true")

    for sp in sub.choices.values():
        _add_common(sp)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args, extra = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_known_args(argv)
    if extra:  # "unrecognized arguments" comes with the usage that lists every command
        build_parser().parse_args(argv)
    try:
        handler = getattr(import_module(f".{_COMMANDS[args.command]}", __package__), f"cmd_{args.command}")
        _emit(args, *handler(args))  # a handler returns its document: the payload and its text
        sys.stdout.flush()  # a closed stdout fails here, not at shutdown
        return 0
    except BrokenPipeError:
        # the rest of the buffer goes to /dev/null, so shutdown prints nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:  # last resort: no traceback
        print(f"error: request too large for this process ({type(exc).__name__})", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry point: main on sys.argv, then exit with its code."""
    code = main()
    gc.freeze()  # a job's objects live until exit: skip the final collections, not atexit or flushes
    sys.exit(code)


if __name__ == "__main__":
    run()
