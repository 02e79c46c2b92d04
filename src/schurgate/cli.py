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

from .groups import (
    GroupElement, InternalCheckError, PsiDescriptor, conjugacy_classes, faithful_count,
    faithful_descriptors, iter_valid_groups, make_group, one_faithful_descriptor, tower_subgroups,
)

# every other module is imported by the handlers that use it, so that a job
# loads only the modules its command needs (README, Command line)

__all__ = ["main"]


def _group_from_args(args) -> object:
    return make_group(args.q, args.p, args.n, args.j)


def _parse_curve(spec: str):
    from .elliptic import EllipticCurveQ

    try:
        coeffs = [int(t) for t in spec.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad curve spec {spec!r}: expected a1,a2,a3,a4,a6") from exc
    return EllipticCurveQ.from_list(coeffs)


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


# -- subcommand handlers -------------------------------------------------------

def cmd_table(args) -> int:
    from .characters import (
        character_field, formula_field, irreducible_characters, is_faithful, tensor_decompose,
    )

    G = _group_from_args(args)
    table = irreducible_characters(G)
    classes = conjugacy_classes(G)
    rows = []
    for chi in table:
        fld = character_field(chi)
        row = {
            "id": chi.char_id,
            "degree": chi.degree,
            "faithful": is_faithful(chi),
            "provenance": list(chi.provenance),
            "field": fld.to_json(),
            "field_degree": fld.degree,
            "values": [v.to_json() for v in chi.values],
        }
        if row["faithful"] and chi.degree > 1:
            tau_r, lin = tensor_decompose(chi)
            row["tensor_decomposition"] = {"tau_r": tau_r.char_id, "chi": lin.char_id}
        rows.append(row)
    payload = {
        "group": G.to_json(),
        "order": G.order,
        "classes": [
            {"rep": list(c.rep), "size": c.size, "order": c.element_order}
            for c in classes
        ],
        "characters": rows,
        "faithful_count": sum(1 for r in rows if r["faithful"]),
        "formula_field": formula_field(G).to_json(),
    }
    text = _table_text(G, classes, table, payload) if args.format == "text" else ""
    _emit(args, payload, text)
    return 0


def _table_text(G, classes, table, payload: dict) -> str:
    lines = [
        f"group {G} of order {G.order}: {len(classes)} classes, "
        f"{len(table)} irreducible characters, {payload['faithful_count']} faithful",
        "classes (rep, size, element order): "
        + ", ".join(f"(a^{c.rep.x} b^{c.rep.y}, {c.size}, {c.element_order})" for c in classes),
    ]
    for r, chi in zip(payload["characters"], table):
        extra = ""
        if "tensor_decomposition" in r:
            td = r["tensor_decomposition"]
            extra = f", = {td['tau_r']} (x) {td['chi']}"
        lines.append(
            f"  {r['id']}: degree {r['degree']}, "
            f"{'faithful' if r['faithful'] else 'unfaithful'}, "
            f"field degree {r['field_degree']} (conductor {r['field']['conductor']})" + extra
        )
        lines.append("    values: " + ", ".join(str(v) for v in chi.values))
    return "\n".join(lines)


def cmd_schur(args) -> int:
    from .schur import global_index

    G = _group_from_args(args)
    psis = faithful_descriptors(G) if args.all else [one_faithful_descriptor(G)]
    payload = {
        "group": G.to_json(),
        "reports": [global_index(G, psi).to_json() for psi in psis],
    }
    lines = []
    for rep in payload["reports"]:
        locs = ", ".join(f"{entry['place']}:{entry['index']}" for entry in rep["local"])
        lines.append(f"{G} {rep['character']}: global Schur index {rep['global']} (local {locs})")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_predict(args) -> int:
    from .predictions import prediction_report

    G = _group_from_args(args)
    rep = prediction_report(G)
    payload = rep.to_json()
    if rep.forced:
        kinds = {s["kind"]: s for s in rep.statements}
        lines = [
            f"{G}: per-character modulus {rep.schur_modulus} "
            f"(assuming {', '.join(kinds['rank_divisibility']['assuming'])})",
            f"  faithful characters: {kinds['tower_rank_divisibility']['faithful_count']}",
            f"  tower modulus: {kinds['tower_rank_divisibility']['modulus']}"
            f" (sharpened: {kinds['tower_rank_divisibility']['identity_modulus']})",
            f"  Dirichlet reformulation: psi of order {kinds['dirichlet_twist_reformulation']['psi_order']}"
            f" over the degree-{kinds['dirichlet_twist_reformulation']['base_degree']} layer",
        ]
        for s in rep.statements:
            lines.append(f"  [{s['kind']}] assuming {s['assuming']}: {s['statement']}")
    else:
        lines = [f"{G}: no forced divisibility ({rep.statements[0]['statement']})"]
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_frobenius(args) -> int:
    from .frobenius import frobenius_datum, resolve_field_poly

    G = _group_from_args(args)
    poly = resolve_field_poly(args.field)
    datum = frobenius_datum(poly, G, args.v)
    payload = datum.to_json()
    cls = f"class a^{datum.conj_class.rep.x} b^{datum.conj_class.rep.y}" if datum.conj_class else (
        "ambiguous among " + ", ".join(f"a^{c.rep.x} b^{c.rep.y}" for c in datum.candidates)
    )
    text = (
        f"v = {args.v}: pattern {list(datum.pattern)}, cyclotomic exponent "
        f"{datum.cyclotomic_component}, order {datum.order_in_G} in G, {cls}"
    )
    _emit(args, payload, text)
    return 0


def cmd_euler(args) -> int:
    if args.symbolic:
        from .characters import one_faithful_character
        from .lseries import cube_of_quadratic_defect, symbolic_twisted_euler_factor

        G = _group_from_args(args)
        if G.pr != 3:  # the cube test reads a degree-6 factor, 2 tau(1) = 2 p^r
            raise ValueError(
                f"euler --symbolic needs a faithful character of degree 3, but those of {G.spec} have degree {G.pr}"
            )
        try:
            x_rep = 1 if args.order7_class in (None, "H") else int(args.order7_class)
        except ValueError:
            raise ValueError(f"bad --order7-class {args.order7_class!r}: use H or an exponent x") from None
        cls = G.conj_class(GroupElement(x_rep % G.q, 0))
        if cls.rep.x != x_rep or cls.size == 1:
            raise ValueError(f"no order-q class with representative a^{x_rep}")
        tau = one_faithful_character(G)
        poly = symbolic_twisted_euler_factor(tau, cls)
        cube = cube_of_quadratic_defect(poly)
        payload = {
            "group": G.to_json(),
            "character": tau.char_id,
            "class": list(cls.rep),
            "poly": [str(c) for c in poly],
            "cube_of_quadratic": cube,
        }
        lines = [f"symbolic twisted factor at class a^{cls.rep.x} (character {tau.char_id}):"]
        lines += [f"  T^{i}: {c}" for i, c in enumerate(payload["poly"])]
        lines.append(
            "not a cube of a quadratic" if not cube["is_cube"] else "IS a cube of a quadratic"
        )
        _emit(args, payload, "\n".join(lines))
        return 0
    if args.curve is None or args.v is None:
        raise ValueError("numeric factors need --curve and -v")
    from .elliptic import a_v, untwisted_factor  # the untwisted route loads nothing more

    E = _parse_curve(args.curve)
    av = a_v(E, args.v)
    if args.trivial:
        factor = untwisted_factor(av, args.v)
        payload = {**factor.to_json(), "a_v": av}
        _emit(args, payload, f"factor {factor} (a_{args.v} = {av})" if args.format == "text" else "")
        return 0
    from .characters import one_faithful_character
    from .frobenius import frobenius_datum, resolve_field_poly
    from .lseries import twisted_euler_factor

    G = _group_from_args(args)
    poly = resolve_field_poly(args.field)
    datum = frobenius_datum(poly, G, args.v)
    cls = datum.conj_class
    if cls is None:
        if args.pick_first:
            cls = datum.candidates[0]
        else:
            raise ValueError(
                "ambiguous Frobenius class at v="
                f"{args.v}: candidates "
                + ", ".join(f"a^{c.rep.x} b^{c.rep.y}" for c in datum.candidates)
                + "; pass --pick-first to take the smallest"
            )
    tau = one_faithful_character(G)
    factor = twisted_euler_factor(av, args.v, tau, cls)
    payload = {**factor.to_json(), "a_v": av, "character": tau.char_id, "class": list(cls.rep)}
    where = f"a_{args.v} = {av}, class a^{cls.rep.x} b^{cls.rep.y}"
    _emit(args, payload, f"twisted factor {factor} ({where})" if args.format == "text" else "")
    return 0


def _parse_character(G, spec: str):
    from .characters import _linear_character, induce_from_X

    kind, _, rest = ("lin:0" if spec == "trivial" else spec).partition(":")
    try:
        args = [int(t) for t in rest.split(",")]
    except ValueError:
        args = []
    if kind == "lin" and len(args) == 1:
        return _linear_character(G, args[0] % G.pn)
    if kind == "ind" and len(args) == 2:
        return induce_from_X(G, PsiDescriptor(*args))
    raise ValueError(f"bad character spec {spec!r}: use trivial, lin:e or ind:u,w")


def cmd_series(args) -> int:
    from .frobenius import check_field_degree, resolve_field_poly
    from .lseries import dirichlet_partial

    G = _group_from_args(args)
    E = _parse_curve(args.curve)
    poly = resolve_field_poly(args.field)
    check_field_degree(poly, G)  # before any work: an induced series reads periods at conductor q
    chi = _parse_character(G, args.character)
    series = dirichlet_partial(E, G, chi, poly, args.X, pick_first=args.pick_first)
    payload = {
        "group": G.to_json(),
        "curve": E.to_json(),
        "character": chi.char_id,
        **series.to_json(),
    }
    shown = (f"a_{n}={series.coefficient(n)}" for n in range(1, min(series.X, 30) + 1))
    text = f"series to X={series.X} (good primes): " + ", ".join(shown) if args.format == "text" else ""
    _emit(args, payload, text)
    return 0


def cmd_identity(args) -> int:
    from .frobenius import check_field_degree, resolve_field_poly
    from .lseries import identity_series_check

    G = _group_from_args(args)
    E = _parse_curve(args.curve)
    poly = resolve_field_poly(args.field)
    check_field_degree(poly, G)
    chk = identity_series_check(E, poly, G, args.X)
    qi = chk.quotient
    where = f"{G.spec}, curve {args.curve}, field {args.field}, X = {args.X}"
    if not qi.equal:
        raise InternalCheckError(f"virtual-character identity failed ({where})")
    if not chk.holds:
        raise InternalCheckError(f"identity FAILS first at n={chk.first_mismatch} ({where})")
    payload = {
        "virtual_character_identity": qi.to_json(),
        "series_identity": chk.to_json(),
    }
    text = (
        f"identity holds to X={args.X} (good primes); "
        f"character identity holds with coefficient {qi.coefficient} "
        f"over {qi.faithful_count} faithful characters"
    )
    _emit(args, payload, text)
    return 0


def _sweep_one(G, idx: int, faithful: int) -> dict:
    divisible = (G.q - 1) % G.pn == 0
    consistent = (idx == 1) == divisible
    power_ok = idx == 1 or (idx > 1 and G.pr % idx == 0)
    return {
        "q": G.q,
        "p": G.p,
        "n": G.n,
        "j": G.j,
        "r": G.r,
        "index": idx,
        "pn_divides_q_minus_1": divisible,
        "consistent": consistent and power_ok,
        "faithful_count": faithful,
    }


def cmd_sweep(args) -> int:
    from .schur import qadic_class_order

    if args.max < 1:
        raise ValueError(f"max must be at least 1, got {args.max}")
    groups = list(iter_valid_groups(args.max))
    rows = [_sweep_one(G, qadic_class_order(G.q, G.p, G.n, G.r)[0], faithful_count(G)) for G in groups]
    bad = [row for row in rows if not row["consistent"]]
    table_checked = 0
    if args.tables:
        from .characters import (
            faithful_characters, formula_field, inner_product, irreducible_characters,
            permutation_character,
        )
        from .cyclotomic import field_of_values
        from .schur import multiplicity_divisibility_check

        for G in groups:
            if G.order > args.table_max:
                continue
            table = irreducible_characters(G)
            for i, a in enumerate(table):
                for jj in range(i, len(table)):
                    expected = 1 if i == jj else 0
                    ip = inner_product(a, table[jj])
                    if ip != expected:
                        raise InternalCheckError(
                            f"orthogonality failed: <{a.char_id}, {table[jj].char_id}> = {ip}, "
                            f"expected {expected} ({G.spec})"
                        )
            perms = [permutation_character(G, sub) for sub in tower_subgroups(G)]
            for tau in faithful_characters(G):
                if field_of_values(tau.values) != formula_field(G):
                    raise InternalCheckError(
                        f"character field of {tau.char_id} differs from the formula field "
                        f"({G.spec})"
                    )
                for rho in perms:
                    chk = multiplicity_divisibility_check(G, tau, rho)
                    if not chk.divisible:
                        raise InternalCheckError(
                            f"divisibility failed: {tau.char_id} has multiplicity "
                            f"{chk.multiplicity} in the permutation character of "
                            f"{rho.provenance[1]}, not a multiple of {chk.modulus} ({G.spec})"
                        )
            table_checked += 1
    payload = {
        "max_order": args.max,
        "groups": len(rows),
        "all_consistent": not bad,
        "inconsistent": bad,
        "table_checked": table_checked if args.tables else None,
    }
    if args.verbose_rows:
        payload["rows"] = rows
    if bad:
        raise InternalCheckError(f"{len(bad)} sweep rows inconsistent")
    text = (
        f"swept {len(rows)} groups with q*p^n <= {args.max}: index = 1 exactly when "
        f"p^n | q-1 in every case"
        + (f"; table-level checks on {table_checked} groups" if args.tables else "")
    )
    _emit(args, payload, text)
    return 0


# -- parser ---------------------------------------------------------------------

_COMMANDS = {  # the handler of each command
    "table": cmd_table, "schur": cmd_schur, "predict": cmd_predict, "frobenius": cmd_frobenius,
    "euler": cmd_euler, "series": cmd_series, "identity": cmd_identity, "sweep": cmd_sweep,
}


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

    for name, sp in sub.choices.items():
        _add_common(sp)
        sp.set_defaults(func=_COMMANDS[name])
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args, extra = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_known_args(argv)
    if extra:  # "unrecognized arguments" comes with the usage that lists every command
        build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at shutdown
        return code
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
