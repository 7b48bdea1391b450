import hashlib
import json

import pytest

from qcoiso.cli import main
from qcoiso.rootsys import CartanType, build_root_system
from qcoiso.uqalg import UqBorel


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


def test_consecutive_calls_share_no_state(capsys, tmp_path):
    # one parser serves every call in a process; no option carries over
    argv = ["classical", "--type", "C", "--rank", "2", "--beta", "L1-L2"]
    code, out, _ = run_cli(capsys, *argv, "--force", "--format", "json")
    assert json.loads(out)["admissible"] is False
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert "rerun with --force" in err
    argv = ["verify", "--type", "A", "--rank", "1", "--beta", "a1", "--no-timings"]
    report = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, *argv, "--output", str(report))
    assert code == 0
    report.unlink()
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert list(tmp_path.iterdir()) == []


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


def test_verify_e6_heuristic_row_fails_on_g9(capsys):
    # the E6 table prints no bracket powers, and the loader assigns them by
    # its adjacent-node heuristic (power_assignment "heuristic"); for this
    # row the assignment makes G9 fail its coideal check and leaves every
    # flatness pair with G9 inconclusive.  Pinned as the known verdict, not
    # as a property of the paper's subalgebra: a correct power assignment
    # may turn it green, but only with the report change explained.
    code, out, _ = run_cli(
        capsys, "verify", "--type", "E", "--rank", "6", "--beta", "a1+a2+a3+a4+a5+a6",
        "--format", "json", "--no-timings",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    failing = [g["name"] for g in payload["coideal"]["per_generator"] if g["status"] == "fail"]
    assert failing == ["G9"]
    inconclusive = [
        (p["i"], p["j"]) for p in payload["flatness"]["per_pair"] if p["verdict"] == "inconclusive"
    ]
    assert inconclusive == [("G6", "G9"), ("G7", "G9"), ("G9", "G10")]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a566e39480946eb55b06491ffc645bd8fcbe0659a9d97268c882c757796d1e63"
    )


@pytest.mark.parametrize(
    "series, rank, beta, cap, digest",
    [
        ("E", 6, "a1+a2+a3+2a4+2a5+a6", "6",
         "27b67c5feca42faddc51036932e9b29c5c1b18d5c0fe06ee91e628446e64f1ea"),
        ("E", 6, "a1+a2+2a3+2a4+2a5+a6", "6",
         "00a1468a54aa682159ff6b5c0b878098a711c9e3593cdd27f11eb17a24928ea2"),
        ("D", 4, "L1+L2", None,
         "c40f3d41af0ce0cd1d6d8495356d91927f66f36d5f5fa8f0fc1f7874059aba78"),
        ("A", 4, "L1-L5", None,
         "99b0e7b4bf4809a03086daf393e5377427d1b688285f3ffaa7df1602d84889c2"),
        ("D", 4, "L1+L3", None,
         "0e75988b8e1b57bd56f2cde2cdc9632f83964d931097e1b99e9952f686143c7d"),
    ],
)
def test_verify_reports_are_pinned(capsys, series, rank, beta, cap, digest):
    # the whole report, so that a change in any certificate field (such as
    # the ideal_terms of an explicit ideal certificate) fails here
    argv = ["verify", "--type", series, "--rank", str(rank), "--beta", beta]
    if cap is not None:
        argv += ["--degree-cap", cap]
    _, out, _ = run_cli(capsys, *argv, "--format", "json", "--no-timings")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_root_without_recipe_fails_at_the_recipe_stage(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--type", "D", "--rank", "4", "--beta", "L2+L3",
        "--format", "json", "--no-timings",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    assert payload["classical"] == {"coisotropic": True, "dim": 6}
    assert payload["stage_error"] == (
        "recipe: no built-in recipe for D4 beta=L2+L3; supported: L1+Lj and Li-Lj"
    )


def test_f4_realization_is_reported_as_not_implemented(capsys):
    # both commands need the classical realization, which F4 does not have
    # yet; classical exits as a usage error, verify fails at its stage
    message = "no classical realization for F4: not implemented yet"
    code, out, err = run_cli(capsys, "classical", "--type", "F", "--rank", "4", "--beta", "a1")
    assert (code, out, err) == (64, "", f"error: {message}\n")
    code, out, _ = run_cli(
        capsys, "verify", "--type", "F", "--rank", "4", "--beta", "a1",
        "--format", "json", "--no-timings",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    assert payload["stage_error"] == f"classical realization: {message}"


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


def test_verify_text_report_shows_unverified_generator(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--type", "A", "--rank", "2", "--beta", "L1-L3",
        "--degree-cap", "1", "--no-timings",
    )
    assert code == 2
    assert "coideal X2: unverified\n" in out
    assert "coideal X2: fail" not in out


def test_unopenable_files_are_usage_errors(capsys, tmp_path):
    # 64 is the usage-error code; 1 would read as a failed verification
    missing = str(tmp_path / "missing.json")
    for argv in (["verify", "--recipe", missing], ["recipe", "validate", missing]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 64, argv
        assert err.startswith("error: ") and "missing.json" in err, argv
    code, _, err = run_cli(
        capsys, "verify", "--type", "A", "--rank", "1", "--beta", "L1-L2",
        "--no-timings", "--output", str(tmp_path / "no-such-dir" / "report.json"),
    )
    assert code == 64
    assert err.startswith("error: ")


def test_usage_errors_exit_64(capsys):
    # 2 is the exit code of an inconclusive verdict, so argparse's own usage
    # errors and a degree cap below 1 must not use it
    for argv in (
        ["verify", "--type", "A", "--rank", "2", "--beta", "L1-L3", "--degree-cap", "x"],
        ["bogus"],
        ["roots", "--type", "A"],
        ["recipe"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "error: " in err, argv
    for cap in ("-3", "0"):
        code, out, err = run_cli(
            capsys, "verify", "--type", "A", "--rank", "2", "--beta", "L1-L3",
            "--degree-cap", cap,
        )
        assert (code, out) == (64, ""), cap
        assert err.startswith("error: ") and "--degree-cap" in err, cap
    code, _, _ = run_cli(
        capsys, "verify", "--type", "A", "--rank", "2", "--beta", "L1-L3",
        "--degree-cap", "1", "--no-timings",
    )
    assert code == 2
    for argv in (["--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0, argv
        assert capsys.readouterr().out.startswith("usage: "), argv


def test_verify_cache_roundtrip(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QCOISO_CACHE", str(tmp_path / "cache"))
    args = [
        "verify", "--type", "A", "--rank", "2", "--beta", "L1-L3",
        "--format", "json", "--no-timings",
    ]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    cache = tmp_path / "cache" / "A2-tables.pkl"
    assert cache.exists()
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    # a torn or foreign file is a cache miss and is replaced by a good one
    for corrupt in (b"", b"not a pickle"):
        cache.write_bytes(corrupt)
        code, out3, _ = run_cli(capsys, *args)
        assert (code, out3) == (0, out1)
        alg = UqBorel(build_root_system(CartanType("A", 2)))
        assert alg.load_tables(str(cache))
    assert [p.name for p in cache.parent.iterdir()] == ["A2-tables.pkl"]


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


@pytest.mark.parametrize(
    "name, digest",
    [
        ("ijkj", "266016ae6b45a8e0869347e264ad499108854a50b467eedc0c730ccc62965207"),
        ("eiej-ekej", "9722ae6b555e6beeda0345c5e03930182db7cf568a117f0a971db6a4035c3812"),
        ("so-odd-5term", "981fbb074e498681c085ad8a61c56586759d54c5e33db6131114bf0c0ca730e8"),
        ("g2-e2t", "29a7393ddece6a2851520a03cbf775dd8eeb87b4881a7396c11f54af1bf1b699"),
    ],
)
def test_solve_reports_are_pinned(capsys, name, digest):
    code, out, _ = run_cli(capsys, "solve", name, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
        lambda doc: {**doc, "generators": [{"name": "", "expr": {"gen": 1}}]},
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
        "generator-name-empty",
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


@pytest.mark.parametrize(
    "argv",
    [
        ["classical", "--type", "A", "--rank", "3", "--beta", "L4-L1"],
        ["classical", "--type", "A", "--rank", "3", "--beta=-a1", "--force"],
        ["verify", "--type", "A", "--rank", "3", "--beta", "L4-L1"],
        ["verify", "--type", "G", "--rank", "2", "--beta=-3a1-2a2"],
    ],
    ids=["classical-L", "classical-a-force", "verify-L", "verify-g2"],
)
def test_negative_root_literal_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 64
    assert out == ""
    assert err.startswith("error: ") and "negative root" in err


def test_recipe_with_negative_beta_is_a_usage_error(capsys, tmp_path):
    from qcoiso.recipes import builtin_recipe, serialize_recipe
    from qcoiso.rootsys import parse_root

    rs = build_root_system(CartanType("A", 3))
    doc = serialize_recipe(builtin_recipe(rs, parse_root(rs, "L1-L4")))
    path = tmp_path / "r.json"
    path.write_text(json.dumps({**doc, "beta": "L4-L1"}))
    for argv in (["recipe", "validate", str(path)], ["verify", "--recipe", str(path)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 64, argv
        assert out == "", argv
        assert err.startswith("error: bad beta: ") and "negative root" in err, argv
