"""Handlers of the closed-form group commands, schur and predict.

A handler returns the payload and the text for ``cli._emit``.  It imports
library names from the module that exports them, so that a wrapper installed
there sees the calls.
"""

from __future__ import annotations

from .groups import faithful_descriptors, make_group, one_faithful_descriptor


def cmd_schur(args) -> tuple[dict, str]:
    from .schur import global_index

    G = make_group(args.q, args.p, args.n, args.j)
    psis = faithful_descriptors(G) if args.all else [one_faithful_descriptor(G)]
    payload = {"group": G.to_json(), "reports": [global_index(G, psi).to_json() for psi in psis]}
    lines = []
    for rep in payload["reports"]:
        locs = ", ".join(f"{entry['place']}:{entry['index']}" for entry in rep["local"])
        lines.append(f"{G} {rep['character']}: global Schur index {rep['global']} (local {locs})")
    return payload, "\n".join(lines)


def cmd_predict(args) -> tuple[dict, str]:
    from .predictions import prediction_report

    G = make_group(args.q, args.p, args.n, args.j)
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
    return payload, "\n".join(lines)
