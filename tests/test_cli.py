import hashlib
import json
import shlex

import pytest

from schurgate.cli import main
from schurgate.characters import faithful_characters
from schurgate.groups import iter_valid_groups, make_group


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out) if code == 0 else None, err


def test_table_c7_c3(capsys):
    code, payload, _ = run_json(capsys, "table", "-q", "7", "-p", "3", "-n", "1")
    assert code == 0
    assert len(payload["characters"]) == 5
    assert payload["faithful_count"] == 2


def test_table_c7_c9(capsys):
    code, payload, _ = run_json(capsys, "table", "-q", "7", "-p", "3", "-n", "2")
    assert code == 0
    assert len(payload["characters"]) == 15
    assert payload["faithful_count"] == 4


def test_table_invalid_j_exits_2(capsys):
    code, out, err = run(capsys, "table", "-q", "7", "-p", "3", "-n", "1", "-j", "3")
    assert code == 2 and "not metacyclic" in err


def test_schur_values(capsys):
    for q, p, n, want in ((19, "3", "4", 9), (7, "3", "1", 1), (7, "3", "2", 3)):
        code, payload, _ = run_json(capsys, "schur", "-q", str(q), "-p", p, "-n", n)
        assert code == 0
        assert payload["reports"][0]["global"] == want


def test_schur_all_reports_every_faithful(capsys):
    code, payload, _ = run_json(capsys, "schur", "-q", "7", "-p", "3", "-n", "2", "--all")
    assert code == 0
    assert len(payload["reports"]) == 4
    assert {r["global"] for r in payload["reports"]} == {3}


def test_predict_examples(capsys):
    code, payload, _ = run_json(capsys, "predict", "-q", "7", "-p", "3", "-n", "2")
    assert code == 0 and payload["forced_divisibility"]
    tower = next(s for s in payload["statements"] if s["kind"] == "tower_rank_divisibility")
    assert tower["modulus"] == 36

    code, payload, _ = run_json(capsys, "predict", "-q", "7", "-p", "3", "-n", "1")
    assert code == 0 and not payload["forced_divisibility"]

    code, payload, _ = run_json(capsys, "predict", "-q", "19", "-p", "3", "-n", "4")
    assert code == 0 and payload["schur_modulus"] == 9


def test_euler_trivial(capsys):
    code, out, _ = run(capsys, "euler", "--curve", "0,0,0,-1,0", "-v", "5", "--trivial", "-n", "1")
    assert code == 0
    assert "1 + 2*T + 5*T^2" in out and "a_5 = -2" in out


def test_euler_symbolic_shape(capsys):
    code, payload, _ = run_json(
        capsys, "euler", "--order7-class", "H", "-q", "7", "-p", "3", "-n", "2", "--symbolic"
    )
    assert code == 0
    assert payload["cube_of_quadratic"]["is_cube"] is False
    assert "z7" in payload["poly"][1]


def test_euler_ambiguous_needs_flag(capsys):
    base = ["euler", "--curve", "0,0,0,-1,0", "-v", "53", "-q", "7", "-p", "3", "-n", "2"]
    code, _, err = run(capsys, *base)
    assert code == 2 and "ambiguous" in err
    code, payload, _ = run_json(capsys, *base, "--pick-first")
    assert code == 0 and payload["class"] == [1, 0]


def test_identity_command(capsys):
    code, out, _ = run(
        capsys, "identity", "--curve", "0,0,0,-1,0", "--field", "example-F1", "-n", "1", "-X", "60"
    )
    assert code == 0
    assert "identity holds to X=60 (good primes)" in out


def test_series_command(capsys):
    code, payload, _ = run_json(
        capsys, "series", "--curve", "0,0,0,-1,0", "-n", "1", "-X", "15"
    )
    assert code == 0
    assert payload["X"] == 15
    # a_5 = -2 for y^2 = x^3 - x
    assert payload["an"][4] == {"conductor": 1, "coeffs": ["-2"]}


def test_series_faithful_twist_needs_pick_first(capsys):
    base = [
        "series", "--curve", "0,0,0,-1,0", "-n", "2", "-X", "30", "--character", "ind:1,1",
    ]
    code, _, err = run(capsys, *base)
    assert code == 2 and "ambiguity" in err
    code, payload, _ = run_json(capsys, *base, "--pick-first")
    assert code == 0
    # a_17 lands in a genuine cyclotomic field for this faithful twist
    assert payload["an"][16]["conductor"] == 21


def test_sweep_command(capsys):
    code, payload, _ = run_json(capsys, "sweep", "--max", "500")
    assert code == 0
    assert payload["all_consistent"] is True
    assert payload["groups"] > 50


def test_json_mode_is_deterministic(capsys):
    _, out1, _ = run(capsys, "table", "-q", "7", "-p", "3", "-n", "2", "--format", "json")
    _, out2, _ = run(capsys, "table", "-q", "7", "-p", "3", "-n", "2", "--format", "json")
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "schur", "-q", "7", "-p", "3", "-n", "2", "--format", "json", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["reports"][0]["global"] == 3


@pytest.mark.parametrize("argv, needle", [
    ("series --curve 0,0,0,-1,0 -n 1 -X 10 --character ind:1", "bad character spec 'ind:1': use trivial"),
    ("series --curve 0,0,0,-1,0 -n 1 -X 10 --character lin:x", "bad character spec 'lin:x': use trivial"),
    ("series --curve 0,0,0,-1,0 -n 1 -X 10 --character ind:1,2,3", "bad character spec 'ind:1,2,3'"),
    ("euler --symbolic -n 1 --order7-class foo", "bad --order7-class 'foo': use H or an exponent x"),
])
def test_malformed_spec_exits_2_with_its_usage(capsys, argv, needle):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith(f"error: {needle}") and err.count("\n") == 1


def test_bad_curve_spec_exits_2(capsys):
    code, _, err = run(capsys, "euler", "--curve", "nope", "-v", "5", "--trivial", "-n", "1")
    assert code == 2 and "curve" in err


def test_internal_invariant_violation_exits_3(capsys, monkeypatch):
    import schurgate.cli as cli

    monkeypatch.setattr(cli, "qadic_class_order", lambda *a: (7, {}))  # impossible index
    code, _, err = run(capsys, "sweep", "--max", "100")
    assert code == 3 and "invariant" in err


@pytest.mark.parametrize("exc", [MemoryError, RecursionError])
def test_exhausted_process_exits_2_without_traceback(capsys, monkeypatch, exc):
    import schurgate.characters as characters

    def exhausted(G):
        raise exc()

    monkeypatch.setattr(characters, "irreducible_characters", exhausted)
    code, out, err = run(capsys, "table", "-q", "7", "-p", "3", "-n", "1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and exc.__name__ in err
    assert "Traceback" not in err


def test_json_emitter_matches_json_dumps():
    from schurgate.cli import _dumps

    payloads = [
        {"a": [1, -2, 10 ** 40], "b": {"c": [], "d": {}, "e": None}, "f": [True, False]},
        {"s": ["", "\u00e9\"\\\n\t", "\U0001f600"], "t": (1, (2, [3])), "u": [[{}], [[]]]},
        {"float": 1.5, "nan": float("nan"), "nested": [{"x": [0.25, {"y": -1e300}]}]},
        {1: "int key", "k": {None: 1, True: 2}},
        [], {}, "plain", 7, None, 2.5,
    ]
    for payload in payloads:
        assert _dumps(payload) == json.dumps(payload, indent=2)


def test_predict_invariant_violation_exits_3(capsys, monkeypatch):
    import schurgate.predictions as predictions

    monkeypatch.setattr(predictions, "faithful_count", lambda G: -1)  # impossible count
    code, _, err = run(capsys, "predict", "-q", "7", "-p", "3", "-n", "2")
    assert code == 3 and "invariant" in err
    assert "disagrees with the enumeration (group (q, p, n, j) = (7, 3, 2, 2))" in err


def test_schur_all_ids_follow_table_order(capsys):
    for G in iter_valid_groups(300):
        args = ("-q", str(G.q), "-p", str(G.p), "-n", str(G.n), "-j", str(G.j))
        code, payload, _ = run_json(capsys, "schur", *args, "--all")
        assert code == 0
        assert [r["character"] for r in payload["reports"]] == [
            chi.char_id for chi in faithful_characters(G)
        ]


def test_schur_and_predict_at_n12(capsys):
    # C7:C3^12 has 236196 faithful characters of conductor 7 * 3^11: far too
    # large for a table, so this only passes when no table is built
    args = ("-q", "7", "-p", "3", "-n", "12")
    code, payload, _ = run_json(capsys, "schur", *args)
    assert code == 0 and payload["reports"][0]["global"] == 3
    code, payload, _ = run_json(capsys, "predict", *args)
    assert code == 0 and payload["schur_modulus"] == 3
    tower = next(s for s in payload["statements"] if s["kind"] == "tower_rank_divisibility")
    assert tower["modulus"] == 2125764


# sha256 of the JSON stdout of every README command, recorded before the
# cyclotomic kernel moved to Galois descent over sparse Phi_m.  Left out for
# its running time (about 30 s): `sweep --max 2000 --tables --table-max 300`.
README_JSON_SHA256 = {
    "table -q 7 -p 3 -n 1":
        "15c77bf88a969aa7f71c076325ff95d83fbcf0e498b0d1dfb2381f6f37bb1b7f",
    "schur -q 19 -p 3 -n 4":
        "d4cf3edbea051e29059aff0e31a6324e07963b1b3780c88ff56cead7c0572ebb",
    "schur -q 7 -p 3 -n 2 --all":
        "a3f1f40ff1c644ca0f64a4a6cad88be6f2638b7caf49aebd37c3d431086876c8",
    "predict -q 7 -p 3 -n 2":
        "3b32f91de4808c2e3c79748322ec9b8d2a57e8456fb6344a6430903ff2af91d7",
    "predict -q 7 -p 3 -n 1":
        "1c431c23196db7d3dc79063410292c6b25c5f37f7f99f5119f717151455a4dc6",
    "frobenius -q 7 -p 3 -n 2 -v 53":
        "d8b3e1caced9e7abeb242bc55033f9e973669c32dee722b75a4a4f3784ab6adc",
    "euler --curve 0,0,0,-1,0 -v 5 --trivial -n 1":
        "4b2eaf4c140afbe1b8d90989058172d30af8a035021802f213d89a74ab2b9e24",
    "euler --order7-class H -q 7 -p 3 -n 2 --symbolic":
        "636af52a414d621a26aa2db493253b68e2a73ac5f4f19b62ef03514fa6ffff94",
    "series --curve 0,0,0,-1,0 -n 1 -X 100":
        "453bfc601376b16dfa256aa88d79e79cfd0d79645386e2e2ea000a0a5915a018",
    "identity --curve 0,0,0,-1,0 --field example-F1 -n 1 -X 500":
        "b607858a4452c3b9775f469080879dc7e9afc0f49c2fca578d313cc575019fd3",
    "sweep --max 10000":
        "93577b8a7f119352a66d9582c13319a54d0fe607b725d3a8866eee021229d4b0",
}


@pytest.mark.parametrize("command", sorted(README_JSON_SHA256))
def test_readme_command_json_is_byte_identical(capsys, command):
    code, out, _ = run(capsys, *shlex.split(command), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == README_JSON_SHA256[command]


# sha256 of the JSON stdout of L-series commands on y^2 = x^3 - x, recorded
# before the local data moved to integer Fourier inversion and the
# multiplicative sieve assembly.
SERIES_JSON_SHA256 = {
    "series -n 2 -X 200 --character ind:1,1 --pick-first":
        "845ae6f500cd7bea76f0e3c88747273f27b81da40404226232fcbf41ed0a7f93",
    "series -n 3 -X 60 --character lin:2":
        "5af6eb9beccce8f64746a0308ca9798f5c2cba4d2ea9d60254f7f72153dfac6b",
    "identity -n 2 -X 120":
        "1e4aff87ac75c90d0f28c10a065e6625c167b1570b0f600e593c1a8b2886aca2",
    "series -n 1 -X 8000":
        "2f4d97f00311750a85baccb03285cc6b2ec2280f65ff8c440c7710cc38962ed2",
}


@pytest.mark.parametrize("command", sorted(SERIES_JSON_SHA256))
def test_series_command_json_is_byte_identical(capsys, command):
    code, out, _ = run(capsys, *shlex.split(command), "--curve", "0,0,0,-1,0", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_JSON_SHA256[command]


# sha256 of the stdout of `table` on the two largest benchmark groups,
# recorded before values moved to (den, ints) storage with exponent-space
# products and an orbit-stabilizer field_of_values.
TABLE_SHA256 = {
    "table -q 31 -p 5 -n 2 -j 16 --format json":
        "34592e2ec1383742a645f21df5411fed138321d8b94cfb300dadff9e7694f86f",
    "table -q 31 -p 5 -n 2 -j 16 --format text":
        "d6078531a4e31a04fed32a6c8f9b0d0ce431fc306185adf1da628ebdbf8631c6",
    "table -q 73 -p 3 -n 2 -j 8 --format json":
        "b404297ab3460977f9890972783a30390ed8bcaea0a1223ff42c23f3d3dd293b",
}


@pytest.mark.parametrize("command", sorted(TABLE_SHA256))
def test_table_command_is_byte_identical(capsys, command):
    code, out, _ = run(capsys, *shlex.split(command))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_SHA256[command]


# sha256 of the concatenated JSON stdout of `schur` on every group of
# iter_valid_groups(2000), and of one verbose sweep, recorded while orders
# were still found by walking them.  They pin details.f and v_p_of_N.
SCHUR_2000_SHA256 = "69845d95acce469f031eb3cb02e632f57bceb20c618c723ee7761974b3c54997"
SWEEP_20000_SHA256 = "96a8b61b499fed8783dca49e5a92783dc354799efdf7aa8183131f1f36f8e279"


# sha256 of the concatenated JSON stdout of `table` on every group of
# iter_valid_groups(300), recorded while character fields were still found
# from the values by orbit-stabilizer.
TABLE_300_SHA256 = "fdb31cffc5b431e961bec78d25d099f46f061ab2ebae67e85e8f24dfed62c3ba"


def test_table_json_on_every_small_group_is_byte_identical(capsys):
    digest = hashlib.sha256()
    for G in iter_valid_groups(300):
        args = ("-q", str(G.q), "-p", str(G.p), "-n", str(G.n), "-j", str(G.j), "--format", "json")
        code, out, _ = run(capsys, "table", *args)
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == TABLE_300_SHA256


def test_table_reads_fields_off_closed_forms(capsys, monkeypatch):
    import schurgate.cyclotomic as cyclotomic

    def refuse(*args):
        raise AssertionError("table must not search stabilizers over the values")

    monkeypatch.setattr(cyclotomic, "_stabilizer", refuse)
    code, payload, _ = run_json(capsys, "table", "-q", "19", "-p", "3", "-n", "4")
    assert code == 0 and payload["faithful_count"] == 12


def test_schur_json_on_every_small_group_is_byte_identical(capsys):
    digest = hashlib.sha256()
    for G in iter_valid_groups(2000):
        args = ("-q", str(G.q), "-p", str(G.p), "-n", str(G.n), "-j", str(G.j), "--format", "json")
        code, out, _ = run(capsys, "schur", *args)
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == SCHUR_2000_SHA256


def test_verbose_sweep_json_is_byte_identical(capsys):
    code, out, _ = run(capsys, "sweep", "--max", "20000", "--verbose-rows", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_20000_SHA256


def _cli(*argv):
    """The CLI in a subprocess, so that a regression to a walk fails instead of hanging."""
    import subprocess
    import sys

    return subprocess.run(
        [sys.executable, "-m", "schurgate.cli", *argv], capture_output=True, text=True, timeout=10
    )


# commands that once walked an order, trial-divided or ran on unvalidated X;
# each must now end in well under the timeout
@pytest.mark.parametrize("argv, code, needle", [
    ("schur -q 1000000000000000003 -p 3 -n 1", 0, '"global": 1'),
    ("frobenius -q 7 -p 3 -n 1 -v 1000000000000000003", 0, '"pattern": [1, 3, 3]'),
    ("schur -q 2999 -p 1499 -n 6", 0, '"f": 5049013494001,'),
    ("schur -q 1000000009 -p 3 -n 1 -j 2", 2, "j = 2 mod 1000000009"),
    ("schur -q 1000000000000000000000000000057 -p 3 -n 1", 2, "beyond the deterministic primality range"),
    ("identity --curve 0,0,0,-1,0 -n 1 -X 0", 2, "X must be at least 1"),
    ("identity --curve 0,0,0,-1,0 -n 1 -X -5", 2, "X must be at least 1"),
    ("identity --curve 0,0,0,-1,0 -n 1 -X 1000000", 2, "X capped at 10^5"),
])
def test_closed_form_commands_end_at_once(argv, code, needle):
    out = _cli(*argv.split(), "--format", "json")
    assert out.returncode == code, out.stderr
    if code == 0:
        assert needle in json.dumps(json.loads(out.stdout)) and out.stderr == ""
    else:
        assert out.stdout == "" and out.stderr.count("\n") == 1
        assert out.stderr.startswith("error: ") and needle in out.stderr


def test_schur_tests_membership_in_H_without_listing_it():
    from schurgate.schur import qadic_class_order

    # 3^15 divides q - 1 and j = 625 has order 3^15, so r = 15 and |H| = 14,348,907
    out = _cli("schur", "-q", "57395629", "-p", "3", "-n", "15", "-j", "625", "--format", "json")
    assert out.returncode == 0, out.stderr
    local = {e["place"]: e for e in json.loads(out.stdout)["reports"][0]["local"]}
    assert local["q"]["index"] == qadic_class_order(57395629, 3, 15, 15)[0]
    assert local["p"]["details"] == {"distinct_eigenvalues": 3 ** 15}


# every invariant error names the group by (q, p, n, j) and the characters involved
C7_C3 = "group (q, p, n, j) = (7, 3, 1, 2)"


def test_sweep_orthogonality_error_names_group_and_characters(capsys, monkeypatch):
    import schurgate.characters as characters

    monkeypatch.setattr(characters, "inner_product", lambda a, b: 2)
    code, _, err = run(capsys, "sweep", "--max", "21", "--tables")
    assert code == 3
    assert C7_C3 in err and "<lin[0], lin[0]> = 2, expected 1" in err


def test_sweep_field_error_names_group_and_character(capsys, monkeypatch):
    import schurgate.characters as characters
    from schurgate.cyclotomic import AbelianField

    monkeypatch.setattr(characters, "formula_field", lambda G: AbelianField.rationals())
    code, _, err = run(capsys, "sweep", "--max", "21", "--tables")
    assert code == 3
    assert C7_C3 in err and "character field of ind[u=1,w=0]" in err


def test_sweep_divisibility_error_names_group_character_and_subgroup(capsys, monkeypatch):
    import schurgate.cli as cli
    from schurgate.schur import DivisibilityCheck

    monkeypatch.setattr(
        cli, "multiplicity_divisibility_check", lambda G, tau, rho: DivisibilityCheck(1, 3, False)
    )
    code, _, err = run(capsys, "sweep", "--max", "21", "--tables")
    assert code == 3
    assert C7_C3 in err and "ind[u=1,w=0] has multiplicity 1" in err and "of K0" in err


def test_table_size_error_names_group(capsys, monkeypatch):
    import schurgate.characters as characters

    monkeypatch.setattr(characters, "_induced_descriptors", lambda G: iter(()))
    characters.irreducible_characters.cache_clear()
    code, _, err = run(capsys, "table", "-q", "7", "-p", "3", "-n", "1")
    assert code == 3
    assert C7_C3 in err and "table size 3 does not match class count 5" in err


def test_degree_squares_error_names_group(capsys, monkeypatch):
    import schurgate.characters as characters

    linear = characters._linear_character
    monkeypatch.setattr(characters, "_induced_character", lambda G, level, u, w: linear(G, 0))
    characters.irreducible_characters.cache_clear()
    code, _, err = run(capsys, "table", "-q", "7", "-p", "3", "-n", "1")
    assert code == 3
    assert C7_C3 in err and "degree squares sum to 5, not the group order 21" in err


def test_tensor_error_names_group_and_characters(capsys, monkeypatch):
    import schurgate.characters as characters

    characters.irreducible_characters(make_group(7, 3, 2, 2))  # the table itself stays intact
    linear = characters._linear_character
    monkeypatch.setattr(characters, "_linear_character", lambda G, e: linear(G, e + 1))
    code, _, err = run(capsys, "table", "-q", "7", "-p", "3", "-n", "2", "-j", "2")
    assert code == 3
    assert "group (q, p, n, j) = (7, 3, 2, 2)" in err
    assert "ind[u=1,w=1] = lift1[u=1,w=0] (x) lin[2]" in err


def test_decompose_error_names_group_and_character(monkeypatch):
    from fractions import Fraction

    import oracles
    import schurgate.characters as characters
    from schurgate.cyclotomic import InternalCheckError

    G = make_group(7, 3, 1, 2)
    v = characters.VirtualCharacter.of(characters.trivial_character(G))
    monkeypatch.setattr(oracles, "inner_product", lambda a, b: Fraction(1, 2))
    with pytest.raises(InternalCheckError, match=r"1/2 of lin\[0\].*\(q, p, n, j\) = \(7, 3, 1, 2\)"):
        oracles.decompose(v)


def test_import_cli_leaves_numpy_out():
    import subprocess
    import sys

    probe = "import sys, schurgate.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("command", ["series", "identity"])
def test_field_with_a_large_discriminant_prime_exits_2(command):
    # disc = 3^3 * 11 * 74169586920635577473: trial division of it would run for hours
    argv = [command, "--curve", "0,0,0,-1,0", "-n", "1", "-X", "10", "--field=-33,22,47,-42,-18,-35,13,1"]
    out = _cli(*argv)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: polynomial does not define expected extension")


def test_qadic_class_order_error_names_parameters():
    from schurgate.cyclotomic import InternalCheckError
    from schurgate.schur import qadic_class_order

    with pytest.raises(InternalCheckError, match=r"\(q, p, n, r\) = \(11, 3, 1, 1\)"):
        qadic_class_order(11, 3, 1, 1)  # 11 = 2 mod 3: no action of order 3


def test_self_dual_error_names_group_and_character():
    from schurgate.characters import PsiDescriptor
    from schurgate.cyclotomic import InternalCheckError
    from schurgate.groups import MetacyclicParams
    from schurgate.schur import local_index

    G = MetacyclicParams(q=7, p=2, n=1, j=6, r=1)  # even p: H = {1, -1}, so tau is self-dual
    with pytest.raises(InternalCheckError) as err:
        local_index(G, PsiDescriptor(1, 0), "inf")
    assert "faithful character of an odd-order group is self-dual (ind[u=1,w=0], " in str(err.value)
    assert "group (q, p, n, j) = (7, 2, 1, 6)" in str(err.value)


def test_mod_p_eigenvalue_error_names_group_and_character():
    from schurgate.characters import PsiDescriptor
    from schurgate.cyclotomic import InternalCheckError
    from schurgate.groups import MetacyclicParams
    from schurgate.schur import local_index

    G = MetacyclicParams(q=7, p=3, n=2, j=2, r=2)  # j = 2 has order 3, not p^r = 9
    with pytest.raises(InternalCheckError) as err:
        local_index(G, PsiDescriptor(1, 0), 3)
    assert "p^r distinct eigenvalues (ind[u=1,w=0], group (q, p, n, j) = (7, 3, 2, 2))" in str(err.value)


def test_place_error_names_group_character_and_place():
    from schurgate.characters import one_faithful_descriptor
    from schurgate.cyclotomic import InternalCheckError
    from schurgate.schur import local_index

    G = make_group(7, 3, 1, 2)
    with pytest.raises(InternalCheckError, match="21 divides") as err:
        local_index(G, one_faithful_descriptor(G), 21)  # not a prime: it divides |G| = 21
    assert C7_C3 in str(err.value) and "ind[u=1,w=0]" in str(err.value)


def test_index_criterion_error_names_group_and_character(capsys, monkeypatch):
    import schurgate.schur as schur

    monkeypatch.setattr(schur, "qadic_class_order", lambda *a: (3, {}))  # 3 | 7 - 1: the index is 1
    code, _, err = run(capsys, "schur", "-q", "7", "-p", "3", "-n", "1")
    assert code == 3
    assert "index 3 contradicts the p^n | q-1 criterion (ind[u=1,w=0], " + C7_C3 in err


def test_index_dimension_error_names_group_and_character(capsys, monkeypatch):
    import schurgate.schur as schur

    monkeypatch.setattr(schur, "qadic_class_order", lambda *a: (9, {}))  # tau has dimension 3
    code, _, err = run(capsys, "schur", "-q", "7", "-p", "3", "-n", "2")
    assert code == 3
    assert "index 9 does not divide the dimension 3 (ind[u=1,w=1], group (q, p, n, j) = (7, 3, 2, 2))" in err


def test_norm_criterion_error_names_group_and_character(monkeypatch):
    import schurgate.schur as schur
    from schurgate.characters import one_faithful_descriptor
    from schurgate.cyclotomic import InternalCheckError

    G = make_group(7, 3, 1, 2)
    monkeypatch.setattr(schur, "qadic_class_order", lambda *a: (3, {}))
    with pytest.raises(InternalCheckError, match="norm criterion disagrees") as err:
        schur.norm_criterion(G, one_faithful_descriptor(G))
    assert "(ind[u=1,w=0], " + C7_C3 in str(err.value)


def test_divisibility_multiplicity_error_names_group_and_characters(capsys, monkeypatch):
    from fractions import Fraction

    import schurgate.characters as characters

    inner = characters.inner_product  # orthogonality keeps the real one; multiplicities get 1/2
    monkeypatch.setattr(
        characters, "inner_product",
        lambda a, b: Fraction(1, 2) if a.provenance[0] == "permutation" else inner(a, b),
    )
    code, _, err = run(capsys, "sweep", "--max", "21", "--tables")
    assert code == 3
    assert "multiplicity 1/2 in ('permutation', 'K0') must be an integer (ind[u=1,w=0], " + C7_C3 in err


def test_hasse_bound_error_names_curve_and_prime(capsys, monkeypatch):
    import schurgate.elliptic as elliptic

    # every residue a square: the count comes out far above the Hasse bound
    monkeypatch.setattr(elliptic, "bytearray", lambda n: bytearray(b"\x01" * n), raising=False)
    code, _, err = run(capsys, "euler", "--curve", "0,0,0,-1,0", "-v", "101", "--trivial", "-n", "1")
    assert code == 3
    assert "Hasse bound violated at v = 101 on the curve [0,0,0,-1,0]" in err


def test_class_size_error_names_group(capsys, monkeypatch):
    import schurgate.groups as groups

    monkeypatch.setattr(groups, "_psi_orbit_reps", lambda G: ())  # drop the order-q classes
    groups.conjugacy_classes.cache_clear()
    code, _, err = run(capsys, "table", "-q", "7", "-p", "3", "-n", "1")
    assert code == 3
    assert "class sizes sum to 15, expected 21 (" + C7_C3 + ")" in err


IDENTITY_WHERE = C7_C3 + ", curve 0,0,0,-1,0, field example-F1, X = 30"


def test_identity_series_error_names_group_curve_field_and_X(capsys, monkeypatch):
    import schurgate.lseries as lseries

    check = lseries.identity_series_check
    monkeypatch.setattr(
        lseries, "identity_series_check",
        lambda *a: check(*a)._replace(holds=False, first_mismatch=5),
    )
    code, _, err = run(capsys, "identity", "--curve", "0,0,0,-1,0", "-n", "1", "-X", "30")
    assert code == 3
    assert "identity FAILS first at n=5 (" + IDENTITY_WHERE + ")" in err


def test_virtual_character_identity_error_names_group_curve_field_and_X(capsys, monkeypatch):
    import schurgate.lseries as lseries

    check = lseries.identity_series_check

    def broken(*a):
        chk = check(*a)
        return chk._replace(quotient=chk.quotient._replace(equal=False))

    monkeypatch.setattr(lseries, "identity_series_check", broken)
    code, _, err = run(capsys, "identity", "--curve", "0,0,0,-1,0", "-n", "1", "-X", "30")
    assert code == 3
    assert "virtual-character identity failed (" + IDENTITY_WHERE + ")" in err


# sha256 of the concatenated JSON stdout of `predict` on every group of
# iter_valid_groups(2000) and of `schur --all` on every group of
# iter_valid_groups(700), recorded while both still imported the character
# tables and the cyclotomic kernel.
PREDICT_2000_SHA256 = "3a7c0c2fcc839fa3181fd5fdae8d9ed555c8cef82aa95d5eada3c069c8f745be"
SCHUR_ALL_700_SHA256 = "86def0baef67dae617a0f89f14023a900507155f3328f16c313ced9492502cfc"


@pytest.mark.parametrize("command, max_order, want", [
    (["predict"], 2000, PREDICT_2000_SHA256),
    (["schur", "--all"], 700, SCHUR_ALL_700_SHA256),
], ids=["predict", "schur-all"])
def test_closed_form_json_on_every_small_group_is_byte_identical(capsys, command, max_order, want):
    digest = hashlib.sha256()
    for G in iter_valid_groups(max_order):
        args = ("-q", str(G.q), "-p", str(G.p), "-n", str(G.n), "-j", str(G.j), "--format", "json")
        code, out, _ = run(capsys, *command, *args)
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == want


# output that cannot be written ends with exit 2 and one error line
def _one_error_line(out) -> None:
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr


@pytest.mark.parametrize("where", ["missing-dir", "dir"])
def test_unwritable_out_exits_2_with_one_error_line(tmp_path, where):
    target = tmp_path / "no-such-dir" / "out.json" if where == "missing-dir" else tmp_path
    out = _cli("schur", "-q", "7", "-p", "3", "-n", "2", "--out", str(target))
    _one_error_line(out)
    assert out.stdout == "" and f"cannot write --out {target}" in out.stderr


def test_closed_stdout_exits_2_with_one_error_line(tmp_path):
    import subprocess
    import sys
    import threading

    # the table is about 250 kB, far more than a pipe buffers, so the CLI is
    # still writing when its reader goes away after 10 bytes, as with `| head -c 10`
    argv = ["table", "-q", "19", "-p", "3", "-n", "3", "--format", "json"]
    with open(tmp_path / "stderr", "w+") as err:
        proc = subprocess.Popen([sys.executable, "-m", "schurgate.cli", *argv],
                                stdout=subprocess.PIPE, stderr=err, text=True)
        timer = threading.Timer(10, proc.kill)  # a hang fails the test, not the suite
        timer.start()
        try:
            head = proc.stdout.read(10)
            proc.stdout.close()
            returncode = proc.wait()
        finally:
            timer.cancel()
            proc.kill()
        err.seek(0)
        out = subprocess.CompletedProcess(argv, returncode, "", err.read())
    assert head == '{\n  "group'
    _one_error_line(out)
    assert "Exception ignored" not in out.stderr and "Traceback" not in out.stderr
