"""Handlers of the L-series commands, series and identity, as in ``cli_groups``."""

from __future__ import annotations

from .groups import InternalCheckError, PsiDescriptor, make_group


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


def cmd_series(args) -> tuple[dict, str]:
    from .elliptic import EllipticCurveQ
    from .frobenius import check_field_degree, resolve_field_poly
    from .lseries import dirichlet_partial

    G = make_group(args.q, args.p, args.n, args.j)
    E = EllipticCurveQ.from_spec(args.curve)
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
    return payload, text


def cmd_identity(args) -> tuple[dict, str]:
    from .elliptic import EllipticCurveQ
    from .frobenius import check_field_degree, resolve_field_poly
    from .lseries import identity_series_check

    G = make_group(args.q, args.p, args.n, args.j)
    E = EllipticCurveQ.from_spec(args.curve)
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
    return payload, text
