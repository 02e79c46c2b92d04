"""Command-line interface: every pipeline stage behind a batch subcommand.

JSON output (--format json) is the machine contract: identical invocations
produce byte-identical documents, and nothing else is written to stdout in
JSON mode.  Text mode renders the same structure for humans.  Exit codes:
0 success, 2 invalid input, a request too large for the process (memory or
recursion exhausted) or output that cannot be written (an --out path that
cannot be opened, a stdout closed early), 3 internal invariant violation.

Every command's options are declared once, in ``_COMMANDS``.  ``main`` reads a
line that spells each option exactly with ``_parse_exact``, which imports
nothing; any other line (help, an abbreviation, a usage error) goes to the one
argparse parser that ``build_parser`` makes from the same table, so every help
text, usage line and error message is argparse's.
"""

from __future__ import annotations

import gc
import os
import sys
from _json import encode_basestring_ascii as _encode_str  # the C encoder json.encoder binds
from importlib import import_module
from types import SimpleNamespace

from .groups import InternalCheckError

__all__ = ["main"]


def _dumps(obj, nl: str = "\n") -> str:
    """json.dumps(obj, indent=2), byte for byte, at the indentation nl.

    Strings, ints, bools, None, lists, tuples and dicts with string keys are
    joined here, which is every value a handler returns; anything else raises
    TypeError, as json.dumps does for a type it cannot encode.
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
    raise TypeError(f"_dumps cannot encode a {kind.__name__}")


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

def _group(q=None, p=None) -> list:
    return [("-q", dict(type=int, required=q is None, default=q, help="the odd prime q")),
            ("-p", dict(type=int, required=p is None, default=p, help="the odd prime p")),
            ("-n", dict(type=int, required=True, help="exponent n of p")),
            ("-j", dict(type=int, default=None, help="action residue j (default: smallest of order p)"))]


_FIELD = ("--field", dict(default="example-F1"))
_COMMON = [("--format", dict(choices=("json", "text"), default="text")),
           ("--out", dict(default=None, help="write output to a file"))]
# each command's handler module (a job compiles only its own; README, Start-up), help and
# options, an option as its add_argument call: the one table that both parsers read
_COMMANDS = {
    "table": ("cli_tables", "full character table with fields and decompositions", _group()),
    "schur": ("cli_groups", "local and global Schur index reports", [
        *_group(), ("--all", dict(action="store_true", help="report every faithful character"))]),
    "predict": ("cli_groups", "conditional rank and Selmer predictions", _group()),
    "frobenius": ("cli_local", "Frobenius class data at an unramified prime", [
        *_group(), _FIELD, ("-v", dict(type=int, required=True))]),
    "euler": ("cli_local", "twisted local Euler factors", [
        *_group(7, 3), ("--curve", dict(default=None, help="a1,a2,a3,a4,a6")),
        ("-v", dict(type=int, default=None)),
        ("--trivial", dict(action="store_true", help="untwisted factor")),
        ("--symbolic", dict(action="store_true", help="leave a_v and v as formal symbols")),
        ("--order7-class", dict(dest="order7_class", default=None,
                                help="H for the orbit of a, or an explicit exponent x")),
        _FIELD,
        ("--pick-first", dict(action="store_true",
                              help="resolve an ambiguous Frobenius class to the smallest candidate"))]),
    "series": ("cli_series", "truncated twisted Dirichlet series", [
        *_group(7, 3), ("--curve", dict(required=True)), _FIELD,
        ("--character", dict(default="trivial", help="trivial, lin:e or ind:u,w")),
        ("-X", dict(type=int, default=100)),
        ("--pick-first", dict(action="store_true",
                              help="resolve ambiguous Frobenius classes to the smallest candidate"))]),
    "identity": ("cli_series", "tower L-identity, characters and coefficients", [
        *_group(7, 3), ("--curve", dict(required=True)), _FIELD, ("-X", dict(type=int, default=500))]),
    "sweep": ("cli_tables", "index = 1 iff p^n | q-1, over all small groups", [
        ("--max", dict(type=int, default=10 ** 4, help="bound on q * p^n")),
        ("--tables", dict(action="store_true", help="also run table-level checks on small groups")),
        ("--table-max", dict(dest="table_max", type=int, default=300)),
        ("--verbose-rows", dict(dest="verbose_rows", action="store_true"))]),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every command: main's, for a line _parse_exact leaves."""
    import argparse  # with gettext and locale, 3 to 4.5 ms that a line _parse_exact reads never pays

    ap = argparse.ArgumentParser(
        prog="schurgate",
        description=(
            "exact character tables, Schur indices, twisted Euler factors and "
            "rank-divisibility predictions for C_q x| C_{p^n}"
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, summary, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        for flag, kwargs in [*options, *_COMMON]:
            sp.add_argument(flag, **kwargs)
    return ap


def _parse_exact(argv) -> SimpleNamespace | None:
    """What argparse reads from argv, where argv spells each option exactly; else None.

    An option is its exact string, with its value in the next token (which
    must not start with "-") or after "=", or a flag alone; a repeated option
    keeps its last value.  Anything else (help, an abbreviation, "-n1", a
    negative value, "--", an unknown token, a bad value, a missing required
    option) gives None, and main leaves the line to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = dict([*_COMMANDS[argv[0]][2], *_COMMON])
    dests = {flag: kwargs.get("dest", flag.lstrip("-").replace("-", "_")) for flag, kwargs in options.items()}
    args = {dests[flag]: kwargs.get("default", False if "action" in kwargs else None)  # store_true: False
            for flag, kwargs in options.items()}
    missing = {flag for flag, kwargs in options.items() if kwargs.get("required")}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        kwargs = options.get(flag)
        if kwargs is None or eq and "action" in kwargs:  # a store_true flag takes no value
            return None
        if "action" in kwargs:
            value = True
        else:
            value = value if eq else next(tokens, "-")
            if value == "--" or not eq and value.startswith("-"):  # argparse reads "=--" as no value
                return None
            try:
                value = kwargs.get("type", str)(value)
            except ValueError:
                return None
            if value not in kwargs.get("choices", (value,)):
                return None
        args[dests[flag]] = value
        missing.discard(flag)
    return None if missing else SimpleNamespace(command=argv[0], **args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_exact(argv)
    if args is None:  # argparse answers the rest: each usage line, error message and exit code is its own
        args = build_parser().parse_args(argv)
    try:
        handler = getattr(import_module(f".{_COMMANDS[args.command][0]}", __package__), f"cmd_{args.command}")
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
