import json

import pytest

from qcoiso.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_marks_symplectic(capsys):
    code, out, _ = run_cli(capsys, "roots", "--type", "C", "--rank", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    marked = {r["root"] for r in payload["positive_roots"] if r["admissible"]}
    assert marked == {"2L1", "2L2", "2L3"}


def test_roots_rank_one(capsys):
    code, out, _ = run_cli(capsys, "roots", "--type", "A", "--rank", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["positive_roots"]) == 1
    assert payload["positive_roots"][0]["admissible"]


def test_roots_bad_type(capsys):
    code, _, err = run_cli(capsys, "roots", "--type", "Z", "--rank", "3")
    assert code == 64
    assert "error" in err


def test_classical_sl4(capsys):
    code, out, _ = run_cli(
        capsys, "classical", "--type", "A", "--rank", "3", "--beta", "L1-L4",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["generators"]) == 6
    assert any(g == "h1+h2+h3" for g in payload["generators"])
    assert payload["checks"] == {"closure": True, "coideal": True, "master_equation": True}


def test_classical_g2_long(capsys):
    code, out, _ = run_cli(
        capsys, "classical", "--type", "G", "--rank", "2", "--beta", "3a1+2a2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    gens = payload["generators"]
    assert len(gens) == 6
    assert "h1+2*h2" in gens
    for label in ["e[a2]", "e[a1+a2]", "e[2a1+a2]", "e[3a1+a2]", "e[3a1+2a2]"]:
        assert any(label in g for g in gens)


def test_classical_inadmissible_requires_force(capsys):
    code, _, err = run_cli(
        capsys, "classical", "--type", "C", "--rank", "2", "--beta", "L1-L2"
    )
    assert code == 1
    assert "root-string" in err
    code, out, _ = run_cli(
        capsys, "classical", "--type", "C", "--rank", "2", "--beta", "L1-L2",
        "--force", "--format", "json",
    )
    assert code == 0 or code == 1  # force computes; checks may still pass
    assert json.loads(out)["admissible"] is False


def test_classical_bad_beta(capsys):
    code, _, err = run_cli(
        capsys, "classical", "--type", "A", "--rank", "2", "--beta", "L1+L2"
    )
    assert code == 64
    assert "error" in err


def test_verify_exit_codes_and_determinism(capsys, tmp_path):
    args = [
        "verify", "--type", "A", "--rank", "2", "--beta", "L1-L3",
        "--format", "json", "--no-timings", "--jobs", "1",
    ]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2  # byte-identical without timings
    payload = json.loads(out1)
    assert payload["verdict"] == "pass"


def test_verify_jobs_flag_is_ignored(capsys):
    args = [
        "verify", "--type", "C", "--rank", "2", "--beta", "2L1",
        "--no-timings", "--format", "json",
    ]
    code1, out1, _ = run_cli(capsys, *args, "--jobs", "1")
    code3, out3, _ = run_cli(capsys, *args, "--jobs", "3")
    assert (code3, out3) == (code1, out1)


def test_verify_failure_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--type", "C", "--rank", "2", "--beta", "L1-L2",
        "--format", "json", "--no-timings",
    )
    assert code == 1


def test_verify_g2_trivial_case(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--type", "G", "--rank", "2", "--beta", "a2",
        "--format", "json", "--no-timings",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"


def test_verify_report_file_and_recipe(capsys, tmp_path):
    from qcoiso.recipes import builtin_recipe, serialize_recipe
    from qcoiso.rootsys import CartanType, build_root_system, parse_root

    rs = build_root_system(CartanType("A", 2))
    recipe = serialize_recipe(builtin_recipe(rs, parse_root(rs, "L1-L3")))
    path = tmp_path / "my.json"
    path.write_text(json.dumps(recipe))
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--recipe", str(path), "--output", str(out_path),
        "--no-timings",
    )
    assert code == 0
    saved = json.loads(out_path.read_text())
    assert saved["verdict"] == "pass"
    assert "verdict: pass" in out


def test_verify_cache_roundtrip(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QCOISO_CACHE", str(tmp_path / "cache"))
    args = [
        "verify", "--type", "A", "--rank", "2", "--beta", "L1-L3",
        "--format", "json", "--no-timings",
    ]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    assert (tmp_path / "cache" / "A2-tables.pkl").exists()
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_solve_command(capsys):
    code, out, _ = run_cli(capsys, "solve", "ijkj", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"]["a"] == "-q/(q^2+1)"
    assert payload["coefficients"]["b"] == "q^3/(q^2+1)"
    assert payload["residual_check"] is True


def test_solve_so_odd(capsys):
    code, out, _ = run_cli(capsys, "solve", "so-odd-5term", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["residual_check"] is True
    assert len(payload["coefficients"]) == 16


def test_solve_unknown(capsys):
    code, _, err = run_cli(capsys, "solve", "nope")
    assert code == 64
    assert "unknown identity" in err


def test_recipe_validate(capsys, tmp_path):
    from qcoiso.recipes import builtin_recipe, serialize_recipe
    from qcoiso.rootsys import CartanType, build_root_system, parse_root

    rs = build_root_system(CartanType("C", 2))
    doc = serialize_recipe(builtin_recipe(rs, parse_root(rs, "2L1")))
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "recipe", "validate", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["valid"] is True
    bad = dict(doc)
    bad["generators"] = [{"name": "X", "expr": {"gen": 7}}]
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, "recipe", "validate", str(path))
    assert code == 64
    assert "out of range" in err


def _a2_recipe_doc():
    from qcoiso.recipes import builtin_recipe, serialize_recipe
    from qcoiso.rootsys import CartanType, build_root_system, parse_root

    rs = build_root_system(CartanType("A", 2))
    return serialize_recipe(builtin_recipe(rs, parse_root(rs, "L1-L3")))


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: [doc],
        lambda doc: {**doc, "rank": True},
        lambda doc: {**doc, "k_monomial": 5},
        lambda doc: {**doc, "k_monomial": [True, True]},
        lambda doc: {**doc, "generators": [5]},
        lambda doc: {**doc, "beta": 5},
        lambda doc: {**doc, "auxiliaries": [1]},
        lambda doc: {**doc, "generators": [{"name": "X", "expr": {"gen": True}}]},
        lambda doc: {
            **doc,
            "generators": [{"name": "X", "expr": {"qbr": [{"gen": 1}, {"gen": 2}, True]}}],
        },
    ],
    ids=[
        "not-an-object",
        "rank-bool",
        "k-monomial-number",
        "k-monomial-bool",
        "generator-number",
        "beta-number",
        "auxiliaries-list",
        "gen-bool",
        "power-bool",
    ],
)
def test_malformed_recipe_is_a_usage_error(capsys, tmp_path, edit):
    # 64 is the usage-error code; 1 would read as a failed verification
    path = tmp_path / "r.json"
    path.write_text(json.dumps(edit(_a2_recipe_doc())))
    for argv in (["recipe", "validate", str(path)], ["verify", "--recipe", str(path)]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 64, argv
        assert err.startswith("error: "), argv
