"""Handlers of the commands at one prime v, frobenius and euler, as in ``cli_groups``."""

from __future__ import annotations

from .groups import GroupElement, make_group


def cmd_frobenius(args) -> tuple[dict, str]:
    from .frobenius import frobenius_datum, resolve_field_poly

    G = make_group(args.q, args.p, args.n, args.j)
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
    return payload, text


def cmd_euler(args) -> tuple[dict, str]:
    if args.symbolic:
        from .characters import one_faithful_character
        from .lseries import cube_of_quadratic_defect, symbolic_twisted_euler_factor

        G = make_group(args.q, args.p, args.n, args.j)
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
        return payload, "\n".join(lines)
    if args.curve is None or args.v is None:
        raise ValueError("numeric factors need --curve and -v")
    from .elliptic import EllipticCurveQ, a_v, untwisted_factor  # the untwisted route loads nothing more

    E = EllipticCurveQ.from_spec(args.curve)
    av = a_v(E, args.v)
    if args.trivial:
        factor = untwisted_factor(av, args.v)
        payload = {**factor.to_json(), "a_v": av}
        return payload, f"factor {factor} (a_{args.v} = {av})" if args.format == "text" else ""
    from .characters import one_faithful_character
    from .frobenius import frobenius_datum, resolve_field_poly
    from .lseries import twisted_euler_factor

    G = make_group(args.q, args.p, args.n, args.j)
    poly = resolve_field_poly(args.field)
    datum = frobenius_datum(poly, G, args.v)
    cls = datum.conj_class
    if cls is None:
        if args.pick_first:
            cls = datum.candidates[0]
        else:
            candidates = ", ".join(f"a^{c.rep.x} b^{c.rep.y}" for c in datum.candidates)
            raise ValueError(f"ambiguous Frobenius class at v={args.v}: candidates {candidates}; "
                             "pass --pick-first to take the smallest")
    tau = one_faithful_character(G)
    factor = twisted_euler_factor(av, args.v, tau, cls)
    payload = {**factor.to_json(), "a_v": av, "character": tau.char_id, "class": list(cls.rep)}
    where = f"a_{args.v} = {av}, class a^{cls.rep.x} b^{cls.rep.y}"
    return payload, f"twisted factor {factor} ({where})" if args.format == "text" else ""
