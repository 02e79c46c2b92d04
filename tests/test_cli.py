import contextlib
import hashlib
import io
import json
import shlex
from math import isqrt

import pytest
import sympy
from hypothesis import example, given, seed, settings, strategies as st

import golden
from schurgate.cli import main
from schurgate.characters import faithful_characters, irreducible_characters, is_faithful
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
    import schurgate.schur as schur

    monkeypatch.setattr(schur, "qadic_class_order", lambda *a: (7, {}))  # impossible index
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
        [], {}, "plain", 7, None, [True, [None, ""]],
    ]
    for payload in payloads:
        assert _dumps(payload) == json.dumps(payload, indent=2)
    # no handler returns a float or a non-string key: _dumps names the type it cannot encode
    for payload, kind in ((2.5, "float"), ({"nested": [{"x": [0.25]}]}, "float"), ({1: "int key"}, "dict")):
        with pytest.raises(TypeError, match=f"cannot encode a {kind}$"):
            _dumps(payload)


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


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# the golden manifest (tests/golden.py): argv -> the exit code and the sha256
# of stdout and stderr that a fresh process gave when it was recorded
RECORDED = {tuple(line["argv"]): line for line in golden.read_manifest()}


def run_as_recorded(capsys, argv):
    """Run argv in process and compare it with its manifest line; argparse's help and usage errors exit."""
    line = RECORDED[tuple(argv)]
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, _sha256(out), _sha256(err)) == (line["exit"], line["stdout"], line["stderr"])
    return code, out, err


def test_manifest_lists_every_golden_command_and_each_parses():
    """A README command, workload job or grid entry added without --record fails here."""
    from schurgate.cli import build_parser

    assert list(RECORDED) == [tuple(argv) for argv in golden.commands()]
    parser = build_parser()
    printed = {tuple(shlex.split(command)) for command in golden.PARSER}  # help and usage errors
    for argv in RECORDED:
        if argv in printed:
            with pytest.raises(SystemExit), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                parser.parse_args(argv)
        else:
            parser.parse_args(argv)


# The README commands, in both formats.  `sweep --max 2000 --tables
# --table-max 300` takes 3 to 4 s a format, so only `golden.py --check` runs it.
README_IN_PROCESS = [command for command in golden.readme() if "--tables" not in command]


@pytest.mark.parametrize("command", sorted(README_IN_PROCESS))
def test_readme_command_json_is_byte_identical(capsys, command):
    assert run_as_recorded(capsys, [*shlex.split(command), "--format", "json"])[0] == 0


@pytest.mark.parametrize("command", sorted(README_IN_PROCESS))
def test_readme_command_text_is_byte_identical(capsys, command):
    assert run_as_recorded(capsys, [*shlex.split(command), "--format", "text"])[0] == 0


@pytest.mark.parametrize("command", golden.SERIES)
def test_series_command_json_is_byte_identical(capsys, command):
    assert run_as_recorded(capsys, shlex.split(command))[0] == 0


@pytest.mark.parametrize("command", golden.EULER)
def test_euler_command_is_byte_identical(capsys, command):
    assert run_as_recorded(capsys, shlex.split(command))[0] == 0


def test_few_class_commands_build_no_class_list(capsys, monkeypatch):
    import schurgate.characters as characters
    import schurgate.groups as groups
    from schurgate.characters import one_faithful_character

    def refuse(G):
        raise AssertionError(f"class list of {G} built")

    for module in (groups, characters):
        monkeypatch.setattr(module, "conjugacy_classes", refuse)
    assert run_as_recorded(capsys, "euler --order7-class H -q 7 -p 3 -n 9 --symbolic".split())[0] == 0
    series = "series -n 9 -X 100 --character lin:1 --curve 0,0,0,-1,0 --format json"
    assert run_as_recorded(capsys, series.split())[0] == 0
    one_faithful_character(make_group(7, 3, 12)).degree  # reads the value at 1 alone
    # the identity reads its two sides in closed form, and no irreducible table either
    monkeypatch.setattr(characters, "irreducible_characters", refuse)
    code, out, _ = run(capsys, *"identity -n 12 -X 100 --curve 0,0,0,-1,0 --format json".split())
    payload = json.loads(out)
    assert code == 0 and payload["virtual_character_identity"]["equal"] and payload["series_identity"]["holds"]


@pytest.mark.parametrize("command", [
    "series --character ind:1,0 --pick-first",
    "identity",
])
def test_field_degree_is_refused_before_any_character_is_built(capsys, monkeypatch, command):
    import schurgate.characters as characters

    def refuse(G, *args):
        raise AssertionError(f"a character of {G} built")

    monkeypatch.setattr(characters, "Character", refuse)  # every character is built through it
    argv = [*command.split(), "--curve", "0,0,0,-1,0", "-q", "1009", "-p", "3", "-n", "1", "-X", "100"]
    assert run(capsys, *argv) == (2, "", "error: field polynomial has degree 7, expected q = 1009\n")


def test_ambiguous_series_is_refused_at_the_first_prime_that_tells_the_candidates_apart(capsys):
    argv = "series -n 2 -X 200 --character ind:1,1 --curve 0,0,0,-1,0 --format json"
    assert run(capsys, *argv.split()) == (2, "", (
        "error: Frobenius ambiguity at v=17 changes the factor; pass an explicit "
        "class choice (candidates [[1, 3], [3, 3]])\n"
    ))


@pytest.mark.parametrize("command", golden.TABLE)
def test_table_command_is_byte_identical(capsys, command):
    assert run_as_recorded(capsys, shlex.split(command))[0] == 0


# sha256 of the concatenated JSON stdout of `schur` on every group of
# iter_valid_groups(2000), recorded while orders were still found by walking
# them, as was the verbose sweep of golden.SWEEP.  They pin details.f and v_p_of_N.
SCHUR_2000_SHA256 = "69845d95acce469f031eb3cb02e632f57bceb20c618c723ee7761974b3c54997"


# sha256 of the concatenated JSON stdout of `table` on every group of
# iter_valid_groups(300), recorded while character fields were still found
# from the values by orbit-stabilizer.
TABLE_300_SHA256 = "fdb31cffc5b431e961bec78d25d099f46f061ab2ebae67e85e8f24dfed62c3ba"


def test_table_json_on_every_small_group_is_byte_identical(capsys):
    """Also: the faithful flag read off each row's descriptor is the trivial-kernel test on its values."""
    digest = hashlib.sha256()
    for G in iter_valid_groups(300):
        args = ("-q", str(G.q), "-p", str(G.p), "-n", str(G.n), "-j", str(G.j), "--format", "json")
        code, out, _ = run(capsys, "table", *args)
        assert code == 0
        digest.update(out.encode())
        flags = [row["faithful"] for row in json.loads(out)["characters"]]
        assert flags == list(map(is_faithful, irreducible_characters(G))), G
    assert digest.hexdigest() == TABLE_300_SHA256


def test_table_reads_fields_off_closed_forms(capsys, monkeypatch):
    import schurgate.tables as tables

    def refuse(*args):
        raise AssertionError("table must not search stabilizers over the values")

    monkeypatch.setattr(tables, "_stabilizer", refuse)
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
    assert run_as_recorded(capsys, shlex.split(golden.SWEEP))[0] == 0


def _cli(*argv):
    """The CLI in a subprocess, so that a regression to a walk fails instead of hanging."""
    import subprocess
    import sys

    return subprocess.run(
        [sys.executable, "-m", "schurgate.cli", *argv], capture_output=True, text=True, timeout=10
    )


# commands that once walked an order, trial-divided or ran on an unvalidated X or --max;
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
    ("schur -q 57395629 -p 3 -n 15", 0, '"n": 15, "j": 5, "r": 15'),  # default j by a short scan
    ("schur -q 7 -p 3 -n 1000000000", 2, "n = 1000000000 is too large for p = 3"),
    ("frobenius -q 7 -p 3 -n 100000 -v 53", 2, "n = 100000 is too large for p = 3"),
    ("euler --order7-class H -q 7 -p 3 -n 40 --symbolic", 0, '"character": "ind[u=1,w=1]"'),
    ("euler --curve 0,0,0,-1,0 -v 53 -n 9 --pick-first", 0, '"a_v": 14, "character": "ind[u=1,w=1]"'),
    ("euler --curve 0,0,0,-1,0 -v 53 -n 40 --pick-first", 2,
     "conductor 1350851717672992089 exceeds the cap 1000000 in zeta"),
    ("euler --order7-class H -q 19 -p 3 -n 2 --symbolic", 2, "euler --symbolic needs a faithful character of "
     "degree 3, but those of group (q, p, n, j) = (19, 3, 2, 4) have degree 9"),
    ("euler --order7-class H -q 11 -p 5 -n 1 --symbolic", 2, "euler --symbolic needs a faithful character of "
     "degree 3, but those of group (q, p, n, j) = (11, 5, 1, 3) have degree 5"),
    ("series --curve 0,0,0,-1,0 -n 30 -X 100", 0, '"character": "lin[0]"'),
    ("series --curve 0,0,0,-1,0 -n 30 -X 100 --character lin:1", 2,
     "conductor 205891132094649 exceeds the cap 1000000 in zeta"),
    ("sweep --max 0", 2, "max must be at least 1, got 0"),
    ("sweep --max -5", 2, "max must be at least 1, got -5"),
    ("predict -q 7 -p 3 -n 14", 0, '"faithful_count": 2125764'),  # the count check walks them in about 1.3 s
    ("predict -q 10000141 -p 3 -n 1", 2, "(10000141, 3, 1, 3774126) has more faithful characters than the cap"),
    ("predict -q 7 -p 3 -n 3000", 2, "has more faithful characters than the cap 3000000 of the count check"),
])
def test_closed_form_commands_end_at_once(argv, code, needle):
    out = _cli(*argv.split(), "--format", "json")
    assert out.returncode == code, out.stderr
    if code == 0:
        assert needle in json.dumps(json.loads(out.stdout)) and out.stderr == ""
    else:
        assert out.stdout == "" and out.stderr.count("\n") == 1
        assert out.stderr.startswith("error: ") and needle in out.stderr


# `schur` at the largest n whose p^n has at most 4,300 digits, CPython's
# default int-to-str limit, as recorded before n was capped, and at n + 1
@pytest.mark.parametrize("command", golden.DIGIT_LIMIT)
def test_n_is_capped_one_past_the_digit_limit(capsys, command):
    argv = command.split()
    code, _, err = run_as_recorded(capsys, argv)
    assert (code, err) == (0, "")
    p, n = (int(argv[argv.index(flag) + 1]) for flag in ("-p", "-n"))
    argv[argv.index("-n") + 1] = str(n + 1)
    assert run(capsys, *argv) == (2, "", (
        f"error: n = {n + 1} is too large for p = {p}: p^n would have more than 4300 digits\n"
    ))


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

    monkeypatch.setattr(characters, "formula_field", lambda G: AbelianField(1, [1]))
    code, _, err = run(capsys, "sweep", "--max", "21", "--tables")
    assert code == 3
    assert C7_C3 in err and "character field of ind[u=1,w=0]" in err


def test_sweep_divisibility_error_names_group_character_and_subgroup(capsys, monkeypatch):
    import schurgate.schur as schur
    from schurgate.schur import DivisibilityCheck

    monkeypatch.setattr(
        schur, "multiplicity_divisibility_check", lambda G, tau, rho: DivisibilityCheck(1, 3, False)
    )
    code, _, err = run(capsys, "sweep", "--max", "21", "--tables")
    assert code == 3
    assert C7_C3 in err and "ind[u=1,w=0] has multiplicity 1" in err and "of K0" in err


def test_table_size_error_names_group(capsys, monkeypatch):
    import schurgate.tables as tables

    monkeypatch.setattr(tables, "_induced_descriptors", lambda G: iter(()))
    tables.irreducible_characters.cache_clear()
    code, _, err = run(capsys, "table", "-q", "7", "-p", "3", "-n", "1")
    assert code == 3
    assert C7_C3 in err and "table size 3 does not match class count 5" in err


def test_degree_squares_error_names_group(capsys, monkeypatch):
    import schurgate.tables as tables

    linear = tables._linear_character
    monkeypatch.setattr(tables, "_induced_character", lambda G, level, u, w: linear(G, 0))
    tables.irreducible_characters.cache_clear()
    code, _, err = run(capsys, "table", "-q", "7", "-p", "3", "-n", "1")
    assert code == 3
    assert C7_C3 in err and "degree squares sum to 5, not the group order 21" in err


def test_tensor_error_names_group_and_characters(capsys, monkeypatch):
    import schurgate.tables as tables

    tables.irreducible_characters(make_group(7, 3, 2, 2))  # the table itself stays intact
    linear = tables._linear_character
    monkeypatch.setattr(tables, "_linear_character", lambda G, e: linear(G, e + 1))
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
    v = oracles.VirtualCharacter.of(characters.trivial_character(G))
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


def test_sweep_index_error_names_the_index_and_group(capsys, monkeypatch):
    import schurgate.schur as schur

    monkeypatch.setattr(schur, "qadic_class_order", lambda *a: (3, {}))  # 3 | 7 - 1: the index is 1
    assert run(capsys, "sweep", "--max", "21") == (3, "", (
        f"internal invariant violation: index 3 contradicts the p^n | q-1 criterion ({C7_C3})\n"
    ))


def test_index_dimension_error_names_group_and_character(capsys, monkeypatch):
    import schurgate.schur as schur

    monkeypatch.setattr(schur, "qadic_class_order", lambda *a: (9, {}))  # tau has dimension 3
    code, _, err = run(capsys, "schur", "-q", "7", "-p", "3", "-n", "2")
    assert code == 3
    assert "index 9 does not divide the dimension 3 (ind[u=1,w=1], group (q, p, n, j) = (7, 3, 2, 2))" in err


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


# the naive count runs up to v = 229, Shanks-Mestre above it
@pytest.mark.parametrize("count, v", [("_naive_trace", 101), ("_shanks_mestre_trace", 233)])
def test_hasse_bound_error_names_curve_and_prime(capsys, monkeypatch, count, v):
    import schurgate.elliptic as elliptic

    # a trace just past the Hasse bound 2 sqrt(v)
    monkeypatch.setattr(elliptic, count, lambda E, v: 2 * isqrt(v) + 1)
    code, _, err = run(capsys, "euler", "--curve", "0,0,0,-1,0", "-v", str(v), "--trivial", "-n", "1")
    assert code == 3
    assert err == f"internal invariant violation: Hasse bound violated at v = {v} on the curve [0,0,0,-1,0]\n"


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


# a line that the exact-match parser leaves to argparse builds the one parser
# of every command; each command's help is its manifest line, and a usage
# error names the command
COMMANDS = ["table", "schur", "predict", "frobenius", "euler", "series", "identity", "sweep"]


def _parse(capsys, parser, argv):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("command", COMMANDS)
def test_one_command_parser_gives_the_full_parsers_help_and_usage_errors(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # as golden.py records: argparse wraps help to the terminal width
    assert run_as_recorded(capsys, [command, "--help"])[0] == 0
    with pytest.raises(SystemExit) as exc:
        main([command, "--format", "xml"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "") and err.startswith(f"usage: schurgate {command} ") and "'xml'" in err


def test_a_well_formed_job_builds_no_parser_and_a_fallback_job_one_full_parser(capsys, monkeypatch):
    import argparse

    import schurgate.cli as cli

    build_parser = cli.build_parser

    def refuse():
        raise AssertionError("a parser built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert run(capsys, "schur", "-q", "7", "-p", "3", "-n", "1")[0] == 0
    calls = []
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build_parser())
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert run(capsys, "schur", "-q7", "-p3", "-n1")[0] == 0  # attached values: argparse reads them
    assert (len(calls), built) == (1, COMMANDS)
    # an unrecognized argument is reported by the full parser, whose usage lists every command
    argv = ["schur", "-q", "7", "-p", "3", "-n", "1", "--bogus"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "{table,schur," in err and "unrecognized arguments: --bogus" in err
    assert (2, "", err) == _parse(capsys, build_parser(), argv)


def test_main_in_process_freezes_nothing(capsys):
    import gc

    before = gc.get_freeze_count()
    assert run(capsys, "schur", "-q", "7", "-p", "3", "-n", "1")[0] == 0
    assert gc.get_freeze_count() == before


# the process entry point freezes the heap before sys.exit, to skip the final
# collections; every byte must still be written, and the exit code kept
def test_entry_point_writes_all_output_before_it_exits(tmp_path, capsys):
    argv = ["table", "-q", "19", "-p", "3", "-n", "3", "--format", "json"]  # about 250 kB
    out = _cli(*argv)
    assert out.returncode == 0 and out.stderr == ""
    assert out.stdout == run(capsys, *argv)[1] and len(out.stdout) > 250_000
    target = tmp_path / "out.json"
    written = _cli(*argv, "--out", str(target))
    assert (written.returncode, written.stdout, written.stderr) == (0, "", "")
    assert target.read_text() == out.stdout
    _one_error_line(_cli("schur", "-q", "9", "-p", "3", "-n", "1"))


EXIT_3_PROBE = """
import atexit, gc, runpy, sys
import schurgate.schur as schur
from schurgate.groups import InternalCheckError

def broken(*args):
    raise InternalCheckError("qadic_class_order patched to fail")

schur.qadic_class_order = broken
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
sys.argv = ["schurgate", "schur", "-q", "7", "-p", "3", "-n", "1"]
runpy.run_module("schurgate.cli", run_name="__main__")
"""


def test_entry_point_exits_3_on_an_internal_check_error():
    import subprocess
    import sys

    out = subprocess.run([sys.executable, "-c", EXIT_3_PROBE], capture_output=True, text=True,
                         timeout=10)
    assert out.returncode == 3
    assert out.stderr == "internal invariant violation: qadic_class_order patched to fail\n"
    assert out.stdout == "frozen at exit: True\n"


@pytest.mark.parametrize("order7_class, message", [
    ("foo", "bad --order7-class 'foo': use H or an exponent x"),
    ("0", "no order-q class with representative a^0"),
])
def test_symbolic_euler_refuses_its_class_before_building_a_character(capsys, monkeypatch, order7_class, message):
    import schurgate.characters as characters

    def refuse(G):
        raise AssertionError(f"a faithful character of {G} built")

    monkeypatch.setattr(characters, "one_faithful_character", refuse)
    argv = ["euler", "--symbolic", "-q", "20011", "-p", "3", "-n", "1", "--order7-class", order7_class]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_symbolic_euler_at_a_large_q_builds_no_cube_root_of_unity(capsys, monkeypatch):
    """The cube test normalizes its quadratic to constant 1, so it stays at the factor's conductor q.

    A cube root of unity as the constant would put every product at
    conductor 3q, whose cost is quadratic in the conductor.
    """
    import schurgate.cyclotomic as cyclotomic

    check = cyclotomic.check_conductor

    def refuse_a_multiple_of_3(m, op):
        if m % 3 == 0:
            raise AssertionError(f"conductor {m} built in {op}")
        return check(m, op)

    monkeypatch.setattr(cyclotomic, "check_conductor", refuse_a_multiple_of_3)
    argv = ["euler", "--symbolic", "-q", "20011", "-p", "3", "-n", "1", "--order7-class", "H"]
    code, payload, err = run_json(capsys, *argv)
    assert (code, err) == (0, "")
    assert payload["cube_of_quadratic"] == {
        "is_cube": False, "witness": {"first_mismatch_by_root": {"1": 3, "zeta3": 3, "zeta3^2": 3}},
    }


def test_symbolic_euler_refuses_a_gauss_period_above_the_cap():
    """The period at conductor q is refused before it is built, not after it, in a product."""
    out = _cli("euler", "--symbolic", "-q", "1000003", "-p", "3", "-n", "1", "--order7-class", "H")
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: conductor 1000003 exceeds the cap 1000000 in Gaussian period\n"


# -- the exit contract on argv drawn from a grammar of the eight commands -----
#
# A drawn group has q * p^n <= 2000 (200 for `table`, which costs classes^2
# values), X <= 200, `sweep --max` <= 2000 and `--table-max` <= 100, except
# where a slot draws a value refused before any work: a non-positive
# integer, 10^30 (past every cap), 2^127 - 1 (a prime past the deterministic
# primality range), a composite q or p, or no integer at all.

_MALFORMED = ["", "7x", "0x7", "1e3", "7.0", "--"]
_REFUSED = ["0", "-7", str(10 ** 30), str(2 ** 127 - 1), *_MALFORMED]


def _one_in(k, usual, rare):
    """A draw from rare one time in k, else from usual (st.integers would favour its bounds)."""
    return st.tuples(st.sampled_from(range(k)), usual, rare).map(lambda t: t[2] if t[0] == 0 else t[1])


def _int(valid, refused=_REFUSED):
    return _one_in(10, valid.map(str), st.sampled_from(refused))


def _opt(flag, values):
    """The option with a drawn value, or nothing one time in six.

    A long option takes its value after "=", so that a spec such as a curve
    with a negative first coefficient is not read as an option.
    """
    return _one_in(6, values.map(lambda v: [f"{flag}={v}"] if flag[1] == "-" else [flag, v]), st.just([]))


def _flag(flag):
    return st.sampled_from([[], [flag]])


def _command(*parts):
    return st.tuples(*parts).map(lambda ps: [token for part in ps for token in part])


def _group(max_order, only_q=None):
    """-q, -p, -n and -j (or its default): usually a valid group, of q = only_q if given, else any small one."""
    valid = sorted({tuple(G) for G in iter_valid_groups(max_order) if only_q in (None, G.q)})
    wild = [(q, p, n, j) for q in (3, 5, 7, 9, 11, 13, 21) for p in (2, 3, 5, 7, 9) for n in range(1, 4)
            for j in (-1, 2, 3, 4, 10) if q * p ** n <= max_order]
    refused = {"-q": [*_REFUSED, "21"], "-p": [*_REFUSED, "21"], "-n": _REFUSED}  # n = 21 is no refusal
    return _one_in(4, st.sampled_from(valid), st.sampled_from(wild)).flatmap(lambda t: _command(
        *(_int(st.just(x), refused[flag]).map(lambda v, f=flag: [f, v]) for flag, x in zip(refused, t)),
        _one_in(2, st.just([]), _int(st.just(t[3])).map(lambda v: ["-j", v])),
    ))


_CURVE = _one_in(
    4,
    st.one_of(st.just("0,0,0,-1,0"), st.lists(st.integers(-9, 9).map(str), min_size=5, max_size=5).map(",".join)),
    st.sampled_from(["0,0,0,0,0", "0,0,0,-1", "1,2,3,4,5,6", "a,b,c,d,e", "", f"0,0,0,{10 ** 30},1"]),
)
_FIELD = _one_in(  # example-F1, the default, has degree 7, so only q = 7 passes it
    4,
    st.just("example-F1"),
    st.one_of(
        st.sampled_from(["-1,0,0,0,0,0,0,1", "0,0,0,0,0,0,0,1", "1,0,1", "5,1", "1,0", "x", ""]),
        st.lists(st.integers(-50, 50).map(str), min_size=1, max_size=9).map(",".join),
    ),
)
_BIG = st.integers(-10 ** 40, 10 ** 40).map(str)
_CHARACTER = st.one_of(
    st.sampled_from(["trivial", "lin:", "ind:1", "ind:a,b", "foo", "lin:1,2"]),
    st.integers(-10, 10).map("lin:{}".format),
    st.tuples(st.integers(-10, 10), st.integers(-10, 10)).map("ind:{0[0]},{0[1]}".format),
    st.tuples(_BIG, _BIG).map("ind:{0[0]},{0[1]}".format),
)
_X = _int(st.integers(1, 200), ["0", "-3", str(10 ** 5 + 1), str(10 ** 30), *_MALFORMED])
_V = _int(
    st.one_of(st.sampled_from(list(sympy.primerange(3, 1200))), st.integers(-5, 1200)),
    [str(10 ** 6 + 3), str(2 ** 127 - 1), str(10 ** 30), *_MALFORMED],
)
_ORDER7_CLASS = st.one_of(st.just("H"), st.integers(-30, 60).map(str), st.sampled_from(["foo", "", str(10 ** 30)]))

_ARGV = _command(
    st.one_of(
        _command(st.just(["table"]), _group(200)),
        _command(st.just(["schur"]), _group(2000), _flag("--all")),
        _command(st.just(["predict"]), _group(2000)),
        _command(st.just(["frobenius"]), _group(2000, 7), _opt("--field", _FIELD), _opt("-v", _V)),
        _command(st.just(["euler", "--symbolic"]), _group(2000), _opt("--order7-class", _ORDER7_CLASS)),
        _command(st.just(["euler"]), _group(2000, 7), _opt("--curve", _CURVE), _opt("-v", _V),
                 _opt("--field", _FIELD), _flag("--trivial"), _flag("--pick-first")),
        _command(st.just(["series"]), _group(2000, 7), _opt("--curve", _CURVE), _opt("--field", _FIELD),
                 _opt("--character", _CHARACTER), _opt("-X", _X), _flag("--pick-first")),
        _command(st.just(["identity"]), _group(2000, 7), _opt("--curve", _CURVE), _opt("--field", _FIELD),
                 _opt("-X", _X)),
        _command(
            st.just(["sweep", "--max"]), _int(st.integers(-3, 2000), ["0", "-7", *_MALFORMED]).map(lambda m: [m]),
            _one_in(2, st.just([]), _int(st.integers(-3, 100), ["-7", *_MALFORMED]).map(
                lambda t: ["--tables", "--table-max", t]
            )),
            _flag("--verbose-rows"),
        ),
    ),
    _one_in(8, st.sampled_from([[], ["--format", "json"], ["--format", "text"]]),
            st.sampled_from([["--format", "xml"], ["--bogus"], ["-X"]])),
)


@seed(20011)
@settings(max_examples=150, deadline=None, database=None)
@example(["euler", "--symbolic", "-q", "20011", "-p", "3", "-n", "1", "--order7-class", "foo"])
@given(_ARGV)
def test_every_drawn_argv_exits_0_2_or_3_with_at_most_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
            usage = False
        except SystemExit as exc:  # argparse's own refusals print the usage before their error line
            code, usage = exc.code, True
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3), (argv, code, lines)
    assert not any(line.startswith("Traceback") for line in lines), argv
    if usage:
        assert code == 2 and lines[0].startswith("usage: ") and ": error: " in lines[-1], (argv, lines)
    elif code == 2:
        assert len(lines) <= 1 and all(line.startswith("error: ") for line in lines), (argv, lines)


# -- the exact-match parser reads what argparse reads --------------------------
#
# main parses a line with cli._parse_exact, which imports nothing, and leaves
# the line to argparse where that returns None; so wherever it returns a
# namespace, argparse must give an equal one, with no argument left over.


def _respell(argv, picks):
    """argv with tokens spelled in other ways that argparse may read.

    For each token in turn, the next pick keeps it (6 to 9), splits it at
    "=" or else joins the next token to it with "=" (1), joins the next token
    to it without "=" (2), cuts a long option short (3), repeats it with the
    next token (4) or puts -h before it (5); 0 drops it.
    """
    out, tokens, picks = argv[:1], argv[1:], iter(picks)
    while tokens:
        token, rest, pick = tokens[0], tokens[1:2], next(picks, 9)
        if pick == 1 and "=" in token:
            out += token.split("=", 1)
            rest = []
        elif pick in (1, 2) and rest:
            out.append(token + "=" * (pick == 1) + rest[0])
        elif pick == 3 and token.startswith("--"):
            out.append(token[:max(3, len(token) - 3)])
        elif pick == 4:
            out += [token, *rest, token, *rest]
        elif pick == 5:
            out += ["-h", token]
        elif pick:
            out.append(token)
        tokens = tokens[1 + len(rest) * (pick in (1, 2, 4)):]
    return out


@seed(20011)
@settings(max_examples=200, deadline=None, database=None)
@example(["series", "--curve", "0,0,0,-1,0", "-n", "1"], [9, 9, 1])  # "-n=1"
@example(["series", "--curve=--", "-n", "1", "--field=--"], [])  # argparse reads "=--" as no value
@example(["series", "--curve=0,0,0,-1,0", "-n", "1", "--pick-first=yes"], [])  # a flag takes no value
@example(["frobenius", "-q", "7", "-p", "3", "-n", "1", "--field=-1,0,1", "-v", "13"], [9] * 6 + [1])  # "--field -1,0,1"
@example(["schur", "-q", "7", "-p", "3", "-n", "1", "--all"], [9, 9, 9, 9, 9, 9, 4])  # "--all --all"
@given(_ARGV, st.lists(st.integers(0, 15).map(lambda k: k if k < 6 else 9), max_size=12))
def test_the_exact_parser_reads_what_argparse_reads(argv, picks):
    from schurgate.cli import _parse_exact, build_parser

    argv = _respell(argv, picks)
    args = _parse_exact(argv)
    if args is not None:
        parsed, extra = build_parser().parse_known_args(argv)
        assert (vars(parsed), extra) == (vars(args), []), argv


def test_the_exact_parser_reads_every_benchmark_job_and_readme_command():
    """So the benchmark and the README time the argparse-free route, not the fallback."""
    from schurgate.cli import _parse_exact

    lines = [[*job, "--format", "json"] for job in golden._workload_jobs()]
    lines += [shlex.split(command) for command in golden.readme()]
    assert [shlex.join(argv) for argv in lines if _parse_exact(argv) is None] == []
