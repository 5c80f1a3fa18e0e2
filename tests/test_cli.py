import argparse
import json
import re
import shlex
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spinforms.bases import BasisSet, magic_basis
from spinforms.cli import _build_parser, main
from spinforms.core import GRAM_TOL, GlobalOperator, LocalOperatorList, basis_state, make_state
from spinforms.files import (
    read_basis,
    read_operator,
    read_state,
    write_basis,
    write_operator,
    write_state,
)

S2 = 1.0 / np.sqrt(2.0)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_flip_writes_flipped_state(tmp_path, capsys):
    src, dst = tmp_path / "in.json", tmp_path / "out.json"
    write_state(src, basis_state(1, 0))
    code, report = run(capsys, "flip", src, "--out", dst)
    assert code == 0
    assert report["format"] == "spinforms.report/1"
    np.testing.assert_array_equal(read_state(dst).amp, [0, 1j])


def test_flip_twice_gives_sign(tmp_path, capsys):
    src, once, twice = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    psi = make_state(1, [0.6, 0.8j])
    write_state(src, psi)
    assert run(capsys, "flip", src, "--out", once)[0] == 0
    assert run(capsys, "flip", once, "--out", twice)[0] == 0
    np.testing.assert_allclose(read_state(twice).amp, -psi.amp, atol=1e-15)


def test_flip_malformed_file_exits_2(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text('{"format": "spinforms.state/1", "n": 2, "amplitudes": [[1, 0]]}')
    code = main(["flip", str(src), "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_form_single_qubit_value(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_state(a, basis_state(1, 0))
    write_state(b, basis_state(1, 1))
    code, report = run(capsys, "form", a, b)
    assert code == 0
    assert report["values"]["value"] == [0.0, -1.0]
    assert report["values"]["kind"] == "symplectic"


def test_form_self_vanishes_odd_n(tmp_path, capsys):
    a = tmp_path / "a.json"
    rng = np.random.default_rng(9)
    z = rng.normal(size=8) + 1j * rng.normal(size=8)
    write_state(a, make_state(3, z / np.linalg.norm(z)))
    code, report = run(capsys, "form", a, a)
    assert code == 0
    np.testing.assert_allclose(report["values"]["value"], [0.0, 0.0], atol=1e-14)


def test_form_mismatched_sizes_exit_2(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_state(a, basis_state(1, 0))
    write_state(b, basis_state(2, 0))
    assert main(["form", str(a), str(b)])  == 2


def test_tangle_values(tmp_path, capsys):
    bell, zeros = tmp_path / "bell.json", tmp_path / "zeros.json"
    write_state(bell, make_state(2, [S2, 0, 0, S2]))
    write_state(zeros, basis_state(2, 0))
    assert run(capsys, "tangle", bell)[1]["values"]["tangle"] == pytest.approx(1.0, abs=1e-10)
    assert run(capsys, "tangle", zeros)[1]["values"]["tangle"] == pytest.approx(0.0, abs=1e-10)


def test_tangle_odd_n_vanishes(tmp_path, capsys):
    path = tmp_path / "s.json"
    rng = np.random.default_rng(11)
    z = rng.normal(size=8) + 1j * rng.normal(size=8)
    write_state(path, make_state(3, z / np.linalg.norm(z)))
    code, report = run(capsys, "tangle", path)
    assert code == 0
    assert report["values"]["tangle"] == pytest.approx(0.0, abs=1e-12)


def test_tangle_warns_on_unnormalized(tmp_path, capsys):
    path = tmp_path / "s.json"
    write_state(path, make_state(2, [2 * S2, 0, 0, 2 * S2]))
    code, report = run(capsys, "tangle", path)
    assert code == 0
    assert report["values"]["tangle"] == pytest.approx(1.0, abs=1e-10)
    assert report["values"]["warnings"]


@pytest.mark.parametrize("scale", [1e200, 1e155, 1e-160, 1e-170, 1e-300])
def test_tangle_of_a_scaled_bell_state(tmp_path, capsys, scale):
    path = tmp_path / "s.json"
    write_state(path, make_state(2, [scale, 0, 0, scale]))
    code, report = run(capsys, "tangle", path)
    assert code == 0
    assert abs(report["values"]["tangle"] - 1.0) <= 2.3e-16
    assert any("norm" in w for w in report["values"]["warnings"])


def _stderr_of(capsys, *argv):
    """(exit code, report, stderr) of one command, with warnings printed to stderr as outside the test suite."""

    def to_stderr(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    with warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = to_stderr
        code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, json.loads(captured.out) if captured.out.strip() else None, captured.err


def test_library_warnings_go_into_the_report_not_to_stderr(tmp_path, capsys):
    path = tmp_path / "s.json"
    write_state(path, make_state(2, [1, 0, 0, 1]))
    code, report, err = _stderr_of(capsys, "maxent", "check", path)
    assert code == 0
    assert err == ""
    assert report["verdicts"]["maximally_entangled"]
    assert [w for w in report["values"]["warnings"] if "norm" in w]
    # every report carries the list, empty when nothing warned
    code, report, err = _stderr_of(capsys, "basis", "magic", "-n", 2, "--out", tmp_path / "b.json")
    assert (code, report["values"]["warnings"], err) == (0, [], "")
    keys = {"format", "tool_version", "command", "seed", "verdicts", "residuals", "values"}
    assert set(report) == keys


def test_basis_magic_emit_and_check(tmp_path, capsys):
    out = tmp_path / "magic.json"
    code, report = run(capsys, "basis", "magic", "-n", 2, "--out", out)
    assert code == 0
    assert report["verdicts"]["biorthonormal"] is True
    assert report["values"]["vectors"] == 4
    assert report["values"]["gram_route"] == "pairs"
    assert read_basis(out).matrix().shape == (4, 4)
    code, report = run(capsys, "basis", "check", out)
    assert code == 0
    assert report["verdicts"]["biorthonormal"] is True
    assert report["values"]["gram_route"] == "pairs"  # the file's matrix keeps every nonzero in its pair block


def test_basis_magic_odd_n_exits_2(tmp_path):
    assert main(["basis", "magic", "-n", "3", "--out", str(tmp_path / "x.json")]) == 2


def test_basis_product_and_random(tmp_path, capsys):
    for route, args in (
        ("pairs", ("basis", "product", "-n", 3, "--out", tmp_path / "p.json")),
        ("dense", ("basis", "random-biortho", "-n", 2, "--seed", 5, "--out", tmp_path / "r2.json")),
        ("dense", ("basis", "random-biortho", "-n", 3, "--seed", 5, "--out", tmp_path / "r3.json")),
    ):
        code, report = run(capsys, *args)
        assert code == 0
        assert report["verdicts"]["biorthonormal"] is True
        assert report["values"]["gram_route"] == route
        code, report = run(capsys, "basis", "check", args[-1])
        assert (code, report["values"]["gram_route"]) == (0, route)


def test_basis_check_fails_on_computational_basis(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    vectors = [[[1.0 if i == k else 0.0, 0.0] for i in range(4)] for k in range(4)]
    bad.write_text(
        json.dumps(
            {"format": "spinforms.basis/1", "n": 2, "ordering": "computational", "vectors": vectors}
        )
    )
    code, report = run(capsys, "basis", "check", bad)
    assert code == 1
    assert report["verdicts"]["biorthonormal"] is False
    assert report["values"]["gram_route"] == "dense"  # entry (1, 1) lies off the pair blocks


def test_op_random_local_and_classify(tmp_path, capsys):
    op_file = tmp_path / "op.json"
    code, _ = run(capsys, "op", "random-local", "-n", 2, "--group", "sl2", "--seed", 3, "--out", op_file)
    assert code == 0
    code, report = run(capsys, "op", "classify", op_file)
    assert code == 0
    assert report["verdicts"]["form_preserving"] is True
    assert report["values"]["slocc"] == "NotObstructed"
    assert len(report["values"]["dets"]) == 2
    # one residual per verdict: the representation defect is op represent's
    assert set(report["residuals"]) == {"form_preservation", "unitarity"}


def test_op_classify_scaled_identity_obstructed(tmp_path, capsys):
    from spinforms.core import GlobalOperator

    op_file = tmp_path / "op.json"
    write_operator(op_file, GlobalOperator(2, 2.0 * np.eye(4)))
    code, report = run(capsys, "op", "classify", op_file)
    assert code == 1
    assert report["values"]["slocc"] == "Obstructed"
    assert report["values"]["slocc_note"] == "necessary condition only"


def test_op_represent(tmp_path, capsys):
    op_file = tmp_path / "op.json"
    run(capsys, "op", "random-local", "-n", 2, "--seed", 7, "--out", op_file)
    r_file = tmp_path / "r.json"
    code, report = run(capsys, "op", "represent", op_file, "--out", r_file)
    assert code == 0
    assert report["verdicts"]["form_defect_ok"] is True
    assert report["residuals"]["form_defect"] <= 1e-8
    r = read_operator(r_file)
    assert np.linalg.norm(r.mat.T @ r.mat - np.eye(4)) <= 1e-8


def test_maxent_generate_then_check(tmp_path, capsys):
    out = tmp_path / "max.json"
    code, report = run(
        capsys, "maxent", "generate", "-n", 4, "--theta", 0.7, "--seed", 9, "--out", out
    )
    assert code == 0
    assert report["verdicts"]["tangle_unit"] is True
    code, report = run(capsys, "maxent", "check", out)
    assert code == 0
    assert report["verdicts"]["maximally_entangled"] is True


def test_maxent_check_rejects_near_maximal_state(tmp_path, capsys):
    # first magic vector plus 1e-5 |01>: the tangle gap ~1e-10 is within
    # tol_residual, but the phase residual ~1e-5 is not, and the structure
    # criterion, on the same scale, agrees
    amp = np.array([S2, 1e-5, 0, -S2])
    path = tmp_path / "s.json"
    write_state(path, make_state(2, amp / np.linalg.norm(amp)))
    code, report = run(capsys, "maxent", "check", path)
    assert code == 1
    assert report["verdicts"]["maximally_entangled"] is False
    assert report["residuals"]["tangle_gap"] <= 1e-8
    assert report["values"]["criteria_agree"] is True


def test_maxent_check_fails_product_state(tmp_path, capsys):
    path = tmp_path / "s.json"
    write_state(path, basis_state(4, 0))
    code, report = run(capsys, "maxent", "check", path)
    assert code == 1
    assert report["verdicts"]["maximally_entangled"] is False


def test_maxent_generate_unnormalized_nu_exits_2(tmp_path):
    code = main(
        ["maxent", "generate", "-n", "2", "--nu", "1.0,1.0,0,0", "--out", str(tmp_path / "x.json")]
    )
    assert code == 2


@pytest.mark.parametrize("n", [13, 26, 40])
def test_maxent_generate_rejects_n_before_drawing(tmp_path, capsys, monkeypatch, n):
    draws = []
    monkeypatch.setattr(np.random, "default_rng", lambda *args: draws.append(args))
    code = main(["maxent", "generate", "-n", str(n), "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert draws == []
    assert capsys.readouterr().err.startswith("error: qubit count" if n % 2 == 0 else "error: maximally")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("n", [13, 14, 30])
def test_basis_random_biortho_rejects_n_before_drawing(tmp_path, capsys, monkeypatch, n):
    draws = []

    def draw(dim, seed):
        draws.append(dim)
        raise MemoryError("a 2^n x 2^n draw")

    monkeypatch.setattr("spinforms.cli.random_real_orthogonal", draw)
    monkeypatch.setattr("spinforms.cli.random_unitary_symplectic", draw)
    code = main(["basis", "random-biortho", "-n", str(n), "--out", str(tmp_path / "b.json")])
    assert code == 2
    assert draws == []
    assert capsys.readouterr().err.startswith("error: qubit count")
    assert not (tmp_path / "b.json").exists()


def test_maxent_generate_explicit_nu(tmp_path, capsys):
    out = tmp_path / "m.json"
    code, _ = run(capsys, "maxent", "generate", "-n", 2, "--nu", "0.6,0.8,0,0", "--out", out)
    assert code == 0
    psi = read_state(out)
    np.testing.assert_allclose(psi.amp, [(0.6 + 0.8j) * S2, 0, 0, (-0.6 + 0.8j) * S2], atol=1e-12)


def test_selftest_quick(capsys):
    code, report = run(capsys, "selftest", "--level", "quick")
    assert code == 0
    assert all(report["verdicts"].values())
    assert report["seed"] == 0


def test_reports_are_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    _, r1 = run(capsys, "basis", "random-biortho", "-n", 2, "--seed", 12, "--out", out1)
    _, r2 = run(capsys, "basis", "random-biortho", "-n", 2, "--seed", 12, "--out", out2)
    assert out1.read_text() == out2.read_text()
    assert r1["residuals"] == r2["residuals"]


def test_gram_threshold_is_fixed(tmp_path, capsys):
    # one column scaled by 1 + 1e-7: both Gram residuals are about 2e-7, above the fixed 1e-10
    mat = magic_basis(2).matrix().copy()
    mat[:, 0] *= 1 + 1e-7
    path = tmp_path / "bad.json"
    write_basis(path, BasisSet(2, mat))
    code, report = run(capsys, "basis", "check", path)
    assert code == 1
    assert report["verdicts"]["biorthonormal"] is False
    for residual in report["residuals"].values():
        assert residual == pytest.approx(2e-7, rel=1e-3)


def test_tight_gram_flag_cannot_flip_the_verdict(tmp_path, capsys):
    out = tmp_path / "m.json"
    run(capsys, "basis", "magic", "-n", 2, "--out", out)
    code, report = run(capsys, "basis", "check", out)
    assert code == 0
    assert report["verdicts"]["biorthonormal"] is True
    assert max(report["residuals"].values()) <= GRAM_TOL
    # a tight threshold, after or before the subcommand, is a usage error with no report
    for argv in (("basis", "check", out, "--tol-gram", "1e-30"), ("basis", "--tol-gram", "1e-30", "check", out)):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


_FORMER_TOLERANCE_COMMANDS = [
    ("tangle", "{state}"),
    ("basis", "magic", "-n", "2", "--out", "{out}"),
    ("basis", "product", "-n", "1", "--out", "{out}"),
    ("basis", "random-biortho", "-n", "2", "--out", "{out}"),
    ("basis", "check", "{basis}"),
    ("op", "classify", "{operator}"),
    ("op", "represent", "{operator}"),
    ("maxent", "check", "{state}"),
    ("maxent", "generate", "-n", "2", "--out", "{out}"),
]


# the dense sigma_y^(x)n oracle is a second path for tests only (flip_state_dense, bilinear_form_dense)
_FORMER_ORACLE_COMMANDS = [
    ("flip", "{state}", "--out", "{out}"),
    ("form", "{state}", "{state}"),
    ("tangle", "{state}"),
]


@pytest.mark.parametrize("flag", ["--tol-norm", "--tol-gram", "--tol-residual", "--dense-oracle"])
def test_removed_tolerance_flag_is_a_usage_error(tmp_path, capsys, flag):
    # the thresholds are fixed and the oracle is not a CLI path; each command that took the flag rejects it
    # before it reads or writes a file
    files = {name: tmp_path / f"{name}.json" for name in ("state", "basis", "operator", "out")}
    write_state(files["state"], make_state(2, [S2, 0, 0, S2]))
    write_basis(files["basis"], magic_basis(2))
    write_operator(files["operator"], GlobalOperator(2, np.eye(4)))
    oracle = flag == "--dense-oracle"
    for command in _FORMER_ORACLE_COMMANDS if oracle else _FORMER_TOLERANCE_COMMANDS:
        argv = [part.format(**files) for part in command] + ([flag] if oracle else [flag, "1e-3"])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err
    assert not files["out"].exists()


def _leaf_parsers(parser):
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield parser
    for action in subparsers:
        for child in action.choices.values():
            yield from _leaf_parsers(child)


def test_every_flag_in_the_readme_is_accepted_by_a_leaf_command():
    # so a removed flag cannot stay in the docs; --trace belongs to perfbench/run.py, not to spinforms
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme)) - {"--trace"}
    accepted = {flag for leaf in _leaf_parsers(_build_parser()) for a in leaf._actions for flag in a.option_strings}
    assert documented and documented <= accepted, sorted(documented - accepted)


def test_every_readme_cli_example_runs(tmp_path, capsys, monkeypatch):
    # each line of the README's sh block, in order, on the files it names; the full self-test is
    # test_acceptance.py's run, so it is left out here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("spinforms ")]
    lines = [argv for argv in lines if argv[-2:] != ["--level", "full"]]
    assert len(lines) == 14
    monkeypatch.chdir(tmp_path)
    write_state("state.json", make_state(2, [S2, 0, 0, S2]))
    write_state("a.json", make_state(2, [0.6, 0, 0, 0.8j]))
    write_state("b.json", basis_state(2, 3))
    for argv in lines:
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 1), argv


@pytest.mark.parametrize("exc", [RuntimeError("kernel broke"), MemoryError("out of memory")])
def test_unexpected_exception_exits_2_without_traceback(tmp_path, capsys, monkeypatch, exc):
    def fail(*args):
        raise exc

    monkeypatch.setattr("spinforms.cli.tangle", fail)
    path = tmp_path / "s.json"
    write_state(path, basis_state(2, 0))
    code = main(["tangle", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: internal: {type(exc).__name__}: {exc}\n"


@pytest.mark.parametrize("extra, name", [(("--theta", "inf"), "theta"), (("--nu", "nan,0,0,0"), "nu")])
def test_maxent_generate_non_finite_input_exits_2(tmp_path, capsys, extra, name):
    out = tmp_path / "m.json"
    code = main(["maxent", "generate", "-n", "2", *extra, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {name} must")
    assert not out.exists()


def test_maxent_generate_overflowing_nu_exits_2_with_one_line(tmp_path, capsys):
    out = tmp_path / "m.json"
    # warnings are printed to stderr, as outside the test suite, so any warning breaks the one-line contract
    code, _, err = _stderr_of(capsys, "maxent", "generate", "-n", 2, "--nu", "1e200,0,0,0", "--out", out)
    assert code == 2
    assert err.splitlines() == ["error: nu must have unit square sum, got inf"]
    assert not out.exists()


def test_op_random_local_checks_n_before_drawing(tmp_path, capsys, monkeypatch):
    draws = []
    monkeypatch.setattr("spinforms.cli.random_sl2", draws.append)
    out = tmp_path / "o.json"
    code = main(["op", "random-local", "-n", "25", "--out", str(out)])
    assert code == 2
    assert draws == []
    assert capsys.readouterr().err.startswith("error: qubit count")
    assert not out.exists()


@pytest.mark.parametrize("n", [13, 14, 24])
def test_op_represent_names_its_cap_for_a_large_local_list(tmp_path, capsys, n):
    path = tmp_path / "o.json"
    assert run(capsys, "op", "random-local", "-n", n, "--out", path)[0] == 0
    code = main(["op", "represent", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        f"error: op represent outputs a 2^n x 2^n matrix, capped at 12 qubits; the operator has {n}\n"
    )


def test_op_random_local_at_the_state_cap_round_trips(tmp_path, capsys):
    out = tmp_path / "o.json"
    code, report = run(capsys, "op", "random-local", "-n", 24, "--seed", 5, "--out", out)
    assert code == 0
    assert report["values"]["n"] == 24
    op = read_operator(out)
    assert isinstance(op, LocalOperatorList)
    assert op.n == 24


def _refuse_constant(name):
    raise AssertionError(f"bare {name} in a report")


@pytest.mark.parametrize(
    "command, code",
    [("form", 0), ("op classify", 1), ("op represent", 1), ("basis check", 1), ("op classify local", 0)],
)
def test_overflowing_residuals_give_a_strict_json_report(tmp_path, capsys, command, code):
    path = tmp_path / "in.json"
    if command == "form":
        write_state(path, make_state(2, [1e200 * S2, 0, 0, 1e200 * S2]))
        argv = ["form", path, path]
    elif command == "op classify local":  # the identity as (1e200 I, 1e-200 I): one factor Gram overflows
        write_operator(path, LocalOperatorList((1e200 * np.eye(2), 1e-200 * np.eye(2))))
        argv = ["op", "classify", path]
    elif command == "basis check":
        write_basis(path, BasisSet(2, 1e200 * magic_basis(2).matrix()))
        argv = ["basis", "check", path]
    else:
        write_operator(path, GlobalOperator(2, 1e200 * np.eye(4)))
        argv = [*command.split(), path]
    exit_code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert (exit_code, captured.err) == (code, "")
    report = json.loads(captured.out, parse_constant=_refuse_constant)
    flat = json.dumps(report)
    assert "Infinity" in flat or "NaN" in flat
    if command == "form":
        assert report["values"]["value"] == ["-Infinity", 0.0]  # the exact form -1e400 + 0j
    if command == "basis check":  # the pair route's block sums are taken again at 2^-e, so they are inf, not NaN
        assert report["residuals"] == {"hilbert_gram": "Infinity", "form_gram": "Infinity"}
    if command == "op classify":  # both dense residuals are taken again at 2^-e, so they are inf, not NaN
        assert report["residuals"] == {"form_preservation": "Infinity", "unitarity": "Infinity"}
    if command == "op classify local":  # the factor Grams' product is taken again at 2^-e_i per factor: finite
        assert 0.0 <= report["residuals"]["unitarity"] <= 1e-15
        assert report["values"]["is_unitary"] and report["verdicts"] == {"form_preserving": True}
        assert report["values"]["dets"] == [["Infinity", 0.0], [0.0, 0.0]]  # det 1e400 overflows, 1e-400 underflows
        assert report["values"]["warnings"] == []
    if command == "op represent":  # form_defect is taken again at 2^-e, and its products warn of nothing
        assert report["residuals"] == {"form_defect": "Infinity"}
        assert not any("matmul" in w for w in report["values"]["warnings"])
        # det R = 1e800 is real: its magnitude overflows, its zero imaginary part stays 0.0
        assert report["values"]["det_r"] == ["Infinity", 0.0]
        assert not any("det" in w for w in report["values"]["warnings"])
