import json

import numpy as np
import pytest

from spinforms.bases import BasisSet, magic_basis
from spinforms.cli import main
from spinforms.core import LocalOperatorList, basis_state, make_state
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


def test_flip_dense_oracle_agrees(tmp_path, capsys):
    src, a, b = tmp_path / "in.json", tmp_path / "a.json", tmp_path / "b.json"
    rng = np.random.default_rng(3)
    z = rng.normal(size=8) + 1j * rng.normal(size=8)
    write_state(src, make_state(3, z / np.linalg.norm(z)))
    run(capsys, "flip", src, "--out", a)
    run(capsys, "flip", src, "--out", b, "--dense-oracle")
    np.testing.assert_allclose(read_state(a).amp, read_state(b).amp, atol=1e-14)


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
    code, report = run(capsys, "tangle", path, "--dense-oracle")
    assert code == 0
    assert report["values"]["tangle"] == pytest.approx(0.0, abs=1e-12)


def test_tangle_warns_on_unnormalized(tmp_path, capsys):
    path = tmp_path / "s.json"
    write_state(path, make_state(2, [2 * S2, 0, 0, 2 * S2]))
    code, report = run(capsys, "tangle", path)
    assert code == 0
    assert report["values"]["tangle"] == pytest.approx(1.0, abs=1e-10)
    assert report["values"]["warnings"]


def test_basis_magic_emit_and_check(tmp_path, capsys):
    out = tmp_path / "magic.json"
    code, report = run(capsys, "basis", "magic", "-n", 2, "--out", out)
    assert code == 0
    assert report["verdicts"]["biorthonormal"] is True
    assert report["values"]["vectors"] == 4
    assert read_basis(out).matrix().shape == (4, 4)
    code, report = run(capsys, "basis", "check", out)
    assert code == 0
    assert report["verdicts"]["biorthonormal"] is True


def test_basis_magic_odd_n_exits_2(tmp_path):
    assert main(["basis", "magic", "-n", "3", "--out", str(tmp_path / "x.json")]) == 2


def test_basis_product_and_random(tmp_path, capsys):
    for args in (
        ("basis", "product", "-n", 3, "--out", tmp_path / "p.json"),
        ("basis", "random-biortho", "-n", 2, "--seed", 5, "--out", tmp_path / "r2.json"),
        ("basis", "random-biortho", "-n", 3, "--seed", 5, "--out", tmp_path / "r3.json"),
    ):
        code, report = run(capsys, *args)
        assert code == 0
        assert report["verdicts"]["biorthonormal"] is True


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


def test_op_random_local_and_classify(tmp_path, capsys):
    op_file = tmp_path / "op.json"
    code, _ = run(capsys, "op", "random-local", "-n", 2, "--group", "sl2", "--seed", 3, "--out", op_file)
    assert code == 0
    code, report = run(capsys, "op", "classify", op_file)
    assert code == 0
    assert report["verdicts"]["form_preserving"] is True
    assert report["values"]["slocc"] == "NotObstructed"
    assert len(report["values"]["dets"]) == 2


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


def test_tolerance_flags_are_honored(tmp_path, capsys):
    out = tmp_path / "m.json"
    run(capsys, "basis", "magic", "-n", 2, "--out", out)
    # an absurdly tight gram tolerance flips the verdict
    code, report = run(capsys, "basis", "check", out, "--tol-gram", "1e-30")
    assert code == 1
    assert report["verdicts"]["biorthonormal"] is False


def test_tolerance_flags_belong_to_the_leaf_command(tmp_path, capsys):
    # one column scaled by 1 + 1e-7: outside the default gram tolerance, inside 1e-3
    mat = magic_basis(2).matrix().copy()
    mat[:, 0] *= 1 + 1e-7
    path = tmp_path / "bad.json"
    write_basis(path, BasisSet(2, mat))
    code, report = run(capsys, "basis", "check", path, "--tol-gram", "1e-3")
    assert code == 0
    assert report["verdicts"]["biorthonormal"] is True
    # a flag before the subcommand, or on a command that reads none, is a usage error
    for argv in (("basis", "--tol-gram", "1e-3", "check", path), ("selftest", "--tol-residual", "1")):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv])
        assert exc.value.code == 2


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


@pytest.mark.parametrize("flag", ["--tol-norm", "--tol-gram", "--tol-residual"])
def test_nan_tolerance_is_a_usage_error(tmp_path, capsys, flag):
    basis_file, state_file = tmp_path / "b.json", tmp_path / "s.json"
    write_basis(basis_file, magic_basis(2))
    write_state(state_file, make_state(2, [S2, 0, 0, S2]))
    for argv in (("basis", "check", basis_file), ("tangle", state_file)):
        code = main([str(a) for a in argv] + [flag, "nan"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: {flag[2:].replace('-', '_')} must be nonnegative")


@pytest.mark.parametrize("extra, name", [(("--theta", "inf"), "theta"), (("--nu", "nan,0,0,0"), "nu")])
def test_maxent_generate_non_finite_input_exits_2(tmp_path, capsys, extra, name):
    out = tmp_path / "m.json"
    code = main(["maxent", "generate", "-n", "2", *extra, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {name} must")
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


def test_op_random_local_at_the_state_cap_round_trips(tmp_path, capsys):
    out = tmp_path / "o.json"
    code, report = run(capsys, "op", "random-local", "-n", 24, "--seed", 5, "--out", out)
    assert code == 0
    assert report["values"]["n"] == 24
    op = read_operator(out)
    assert isinstance(op, LocalOperatorList)
    assert op.n == 24
