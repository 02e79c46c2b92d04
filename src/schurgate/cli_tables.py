"""Handlers of the table and sweep commands, as in ``cli_groups``.

The sweep checks each group's q-adic index with ``schur._check_index``, the one
home of the index-1 criterion and of index | p^r.  A group that fails stops the
sweep with exit 3 and a message naming it, so every row the JSON prints is
consistent, and ``inconsistent`` is always empty.
"""

from __future__ import annotations

from .groups import (
    InternalCheckError, conjugacy_classes, faithful_count, iter_valid_groups, make_group, psi_is_faithful,
    tower_subgroups,
)


def cmd_table(args) -> tuple[dict, str]:
    from .characters import (
        character_field, formula_field, irreducible_characters, tensor_decompose,
    )

    G = make_group(args.q, args.p, args.n, args.j)
    table = irreducible_characters(G)
    classes = conjugacy_classes(G)
    rows = []
    for chi in table:
        fld, psi = character_field(chi), chi.psi
        row = {
            "id": chi.char_id,
            "degree": chi.degree,
            "faithful": psi is not None and psi_is_faithful(G, psi),
            "provenance": list(chi.provenance),
            "field": fld.to_json(),
            "field_degree": fld.degree,
            "values": [v.to_json() for v in chi.values],
        }
        if row["faithful"]:  # an induced character, of degree p^r > 1
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
    return payload, _table_text(G, classes, table, payload) if args.format == "text" else ""


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


def cmd_sweep(args) -> tuple[dict, str]:
    from .schur import _check_index, qadic_class_order

    if args.max < 1:
        raise ValueError(f"max must be at least 1, got {args.max}")
    groups = list(iter_valid_groups(args.max))
    rows = []
    for G in groups:
        idx = qadic_class_order(G.q, G.p, G.n, G.r)[0]
        _check_index(G, idx)
        rows.append({
            "q": G.q, "p": G.p, "n": G.n, "j": G.j, "r": G.r, "index": idx,
            "pn_divides_q_minus_1": (G.q - 1) % G.pn == 0,
            "consistent": True,
            "faithful_count": faithful_count(G),
        })
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
        "all_consistent": True,
        "inconsistent": [],
        "table_checked": table_checked if args.tables else None,
    }
    if args.verbose_rows:
        payload["rows"] = rows
    text = (
        f"swept {len(rows)} groups with q*p^n <= {args.max}: index = 1 exactly when "
        f"p^n | q-1 in every case"
        + (f"; table-level checks on {table_checked} groups" if args.tables else "")
    )
    return payload, text
