"""Command-line front-end: state/operator/basis files in, JSON reports out.

Reports go to standard output; files are written only via --out.  Exit codes:
0 all verdicts pass, 1 a verdict failed, 2 any other failure (usage, file
format, or an internal error), reported as one ``error:`` line on stderr.
Library warnings never reach stderr: every report lists them in values.warnings.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from . import __version__
from .bases import (
    basis_from_orthogonal,
    basis_from_unitary_symplectic,
    check_biorthonormal,
    form_defect,
    magic_basis,
    product_biortho_basis,
    random_real_orthogonal,
    random_unitary_symplectic,
)
from .core import (
    MAX_OPERATOR_QUBITS,
    MAX_STATE_QUBITS,
    RESIDUAL_TOL,
    GlobalOperator,
    LocalOperatorList,
    _require_qubits,
    expand_local,
    random_sl2,
    random_su2,
)
from .entanglement import _require_maxent_qubits, is_maximally_entangled, maxent_generate, tangle
from .files import (
    REPORT_FORMAT,
    FileFormatError,
    read_basis,
    read_operator,
    read_state,
    write_basis,
    write_operator,
    write_state,
)
from .flip import FormKind, bilinear_form, flip_state
from .groups import SLOCC_NOTE, _det, classify_operator, represent_in_basis
from .selftest import run_selftest


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _strict(x):
    """``x`` with each non-finite float as the string json writes for it, so the report is strict JSON."""
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict(v) for v in x]
    return json.dumps(x) if isinstance(x, float) and not np.isfinite(x) else x  # "Infinity", "-Infinity", "NaN"


def _emit(args, verdicts: dict, residuals: dict | None = None, values: dict | None = None,
          seed: int | None = None) -> int:
    report = {
        "format": REPORT_FORMAT,
        "tool_version": __version__,
        "command": " ".join(args.command_echo),
        "seed": seed,
        "verdicts": verdicts,
        "residuals": residuals or {},
        "values": {**(values or {}), "warnings": [str(w.message) for w in args.caught]},
    }
    print(json.dumps(_strict(report), indent=2, allow_nan=False))
    return 0 if all(verdicts.values()) else 1


def _cmd_flip(args) -> int:
    psi = read_state(args.state)
    write_state(args.out, flip_state(psi))
    return _emit(args, verdicts={}, values={"n": psi.n, "out": args.out})


def _cmd_form(args) -> int:
    psi, phi = read_state(args.state_a), read_state(args.state_b)
    result = bilinear_form(psi, phi)
    return _emit(
        args,
        verdicts={},
        values={"n": psi.n, "kind": result.kind.value, "value": _pair(result.value)},
    )


def _cmd_tangle(args) -> int:
    psi = read_state(args.state)
    values = {"n": psi.n, "kind": FormKind.for_qubits(psi.n).value, "tangle": tangle(psi)}
    return _emit(args, verdicts={}, values=values)


def _cmd_basis(args) -> int:
    if args.subcommand == "check":
        basis = read_basis(args.basis)
        report = check_biorthonormal(basis)
        return _emit(
            args,
            verdicts={"biorthonormal": report.passed},
            residuals={
                "hilbert_gram": report.hilbert_residual,
                "form_gram": report.form_residual,
            },
            values={"n": basis.n, "form_target": report.form_target, "gram_route": report.route},
        )

    _require_qubits(args.n, MAX_OPERATOR_QUBITS)  # before drawing a 2^n x 2^n mix
    seed = getattr(args, "seed", None)
    if args.subcommand == "magic":
        basis = magic_basis(args.n)
    elif args.subcommand == "product":
        basis = product_biortho_basis(args.n)
    else:  # random-biortho
        if args.n % 2 == 0:
            basis = basis_from_orthogonal(random_real_orthogonal(1 << args.n, seed))
        else:
            basis = basis_from_unitary_symplectic(random_unitary_symplectic(1 << args.n, seed))
    write_basis(args.out, basis)
    report = check_biorthonormal(basis)
    return _emit(
        args,
        verdicts={"biorthonormal": report.passed},
        residuals={"hilbert_gram": report.hilbert_residual, "form_gram": report.form_residual},
        values={
            "n": basis.n,
            "vectors": basis.dim,
            "ordering": basis.ordering,
            "out": args.out,
            "gram_route": report.route,
        },
        seed=seed,
    )


def _cmd_op(args) -> int:
    if args.subcommand == "random-local":
        _require_qubits(args.n, MAX_STATE_QUBITS)  # before the per-qubit draws
        draw = random_sl2 if args.group == "sl2" else random_su2
        local = LocalOperatorList(tuple(draw(args.seed + i) for i in range(args.n)))
        write_operator(args.out, local)
        return _emit(
            args,
            verdicts={},
            values={"n": args.n, "group": args.group, "out": args.out},
            seed=args.seed,
        )

    op = read_operator(args.operator)
    if args.subcommand == "classify":
        report = classify_operator(op)
        # slocc_obstruction's verdict is the form-preservation test classify_operator just ran
        return _emit(
            args,
            verdicts={"form_preserving": report.is_form_preserving},
            residuals={
                "form_preservation": report.form_residual,
                "unitarity": report.unitary_residual,
            },
            values={
                "n": op.n,
                "kind": FormKind.for_qubits(op.n).value,
                "is_unitary": report.is_unitary,
                "dets": None if report.dets is None else [_pair(d) for d in report.dets],
                "slocc": "NotObstructed" if report.is_form_preserving else "Obstructed",
                "slocc_note": SLOCC_NOTE,
            },
        )

    # represent: the output is a 2^n x 2^n matrix, so even a local list keeps the dense cap
    if op.n > MAX_OPERATOR_QUBITS:
        raise ValueError(
            f"op represent outputs a 2^n x 2^n matrix, capped at {MAX_OPERATOR_QUBITS} qubits; the operator has {op.n}"
        )
    as_global = expand_local(op) if isinstance(op, LocalOperatorList) else op
    r = represent_in_basis(as_global, read_basis(args.basis_file) if args.basis_file else None)
    kind = FormKind.for_qubits(as_global.n)
    defect = form_defect(r, kind)
    if args.out:
        write_operator(args.out, GlobalOperator(as_global.n, r))
    return _emit(
        args,
        verdicts={"form_defect_ok": defect <= RESIDUAL_TOL},
        residuals={"form_defect": defect},
        values={"n": as_global.n, "kind": kind.value, "det_r": _pair(_det(r))},
    )


def _cmd_maxent(args) -> int:
    if args.subcommand == "check":
        psi = read_state(args.state)
        report = is_maximally_entangled(psi)
        return _emit(
            args,
            verdicts={"maximally_entangled": report.passed},
            residuals={
                "tangle_gap": report.tangle_gap,
                "phase": report.phase_residual,
                "structure": report.structure_residual,
            },
            values={"n": psi.n, "theta": report.theta, "criteria_agree": report.criteria_agree},
        )

    # generate
    _require_maxent_qubits(args.n)  # before drawing 2^n coefficients
    if args.nu is not None:
        nu = np.array([float(x) for x in args.nu.split(",")])
    else:
        rng = np.random.default_rng(args.seed)
        nu = rng.normal(size=1 << args.n)
        nu /= np.linalg.norm(nu)
    psi = maxent_generate(args.n, args.theta, nu)
    write_state(args.out, psi, metadata={"seed": args.seed, "theta": args.theta})
    value = tangle(psi)
    return _emit(
        args,
        verdicts={"tangle_unit": abs(value - 1.0) <= RESIDUAL_TOL},
        residuals={"tangle_gap": abs(value - 1.0)},
        values={"n": args.n, "out": args.out},
        seed=args.seed,
    )


def _cmd_selftest(args) -> int:
    results = run_selftest(args.level, seed=args.seed)
    return _emit(
        args,
        verdicts={r.name: r.passed for r in results},
        values={r.name: r.detail for r in results},
        seed=args.seed,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinforms",
        description="Spin-flip bilinear forms on n-qubit states: flips, bases, operator classes, tangle.",
    )
    parser.add_argument("--version", action="version", version=f"spinforms {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flip", help="spin-flip a state file")
    p.add_argument("state")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_flip)

    p = sub.add_parser("form", help="bilinear form of two state files")
    p.add_argument("state_a")
    p.add_argument("state_b")
    p.set_defaults(func=_cmd_form)

    p = sub.add_parser("tangle", help="entanglement quadratic form of a state file")
    p.add_argument("state")
    p.set_defaults(func=_cmd_tangle)

    p = sub.add_parser("basis", help="emit or check bi-orthonormal bases")
    basis_sub = p.add_subparsers(dest="subcommand", required=True)
    for name in ("magic", "product", "random-biortho"):
        q = basis_sub.add_parser(name)
        q.add_argument("-n", type=int, required=True)
        q.add_argument("--out", required=True)
        if name == "random-biortho":
            q.add_argument("--seed", type=int, default=0)
        q.set_defaults(func=_cmd_basis, subcommand=name)
    q = basis_sub.add_parser("check")
    q.add_argument("basis")
    q.set_defaults(func=_cmd_basis, subcommand="check")

    p = sub.add_parser("op", help="classify or represent operators")
    op_sub = p.add_subparsers(dest="subcommand", required=True)
    q = op_sub.add_parser("classify")
    q.add_argument("operator")
    q.set_defaults(func=_cmd_op, subcommand="classify")
    q = op_sub.add_parser("random-local")
    q.add_argument("-n", type=int, required=True)
    q.add_argument("--group", choices=("sl2", "su2"), default="sl2")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_op, subcommand="random-local")
    q = op_sub.add_parser("represent")
    q.add_argument("operator")
    q.add_argument("--basis-file", default=None, help="basis file; default is the parity-canonical basis")
    q.add_argument("--out", default=None, help="write the represented matrix as an operator file")
    q.set_defaults(func=_cmd_op, subcommand="represent")

    p = sub.add_parser("maxent", help="check or generate maximally entangled states")
    me_sub = p.add_subparsers(dest="subcommand", required=True)
    q = me_sub.add_parser("check")
    q.add_argument("state")
    q.set_defaults(func=_cmd_maxent, subcommand="check")
    q = me_sub.add_parser("generate")
    q.add_argument("-n", type=int, required=True)
    q.add_argument("--theta", type=float, default=0.0)
    q.add_argument("--nu", default=None, help="comma-separated real coefficients with unit square sum")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_maxent, subcommand="generate")

    p = sub.add_parser("selftest", help="run the invariant suites")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.command_echo = ["spinforms"] + argv
    try:
        # library warnings go into the report's values.warnings, never to stderr
        with warnings.catch_warnings(record=True) as args.caught:
            warnings.simplefilter("always")
            return args.func(args)
    except (FileFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of this program, not a failed verdict (exit 1)
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
