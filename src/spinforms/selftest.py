"""End-to-end invariant suites behind the ``selftest`` command.

``quick`` exercises every subsystem at small size; ``full`` adds the larger
oracle-equivalence sweeps and bigger trial counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bases, bits, core, entanglement, flip, groups


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_index_round_trip(max_n: int) -> CheckResult:
    ok = all(
        bits.bits_to_index(bits.index_to_bits(k, n)) == k
        for n in range(1, max_n + 1)
        for k in range(1 << n)
    )
    return CheckResult("index-round-trip", ok, f"exhaustive n <= {max_n}")


def _check_kernel_vs_oracle(max_n: int, states_per_n: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in range(1, max_n + 1):
        for _ in range(states_per_n):
            psi = core.random_state(n, rng)
            phi = core.random_state(n, rng)
            worst = max(
                worst,
                float(np.max(np.abs(flip.flip_state(psi).amp - flip.flip_state_dense(psi).amp))),
                abs(flip.bilinear_form(psi, phi).value - flip.bilinear_form_dense(psi, phi).value),
            )
    return CheckResult("kernel-oracle-equivalence", worst <= 1e-12, f"max residual {worst:.3e}, n <= {max_n}")


def _check_form_parity(ns, trials: int, seed: int) -> CheckResult:
    reports = [flip.form_parity_check(n, trials=trials, seed=seed + n) for n in ns]
    worst = max(r.max_residual for r in reports)
    return CheckResult(
        "form-parity", all(r.passed for r in reports), f"max residual {worst:.3e}, n in {list(ns)}"
    )


def _check_operator_algebra(trials: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    n = 2
    dim = 1 << n
    for _ in range(trials):
        a = core.GlobalOperator(n, rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        b = core.GlobalOperator(n, rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        psi = core.random_state(n, rng)
        bar_a, bar_b = flip.flip_operator(a), flip.flip_operator(b)
        worst = max(
            worst,
            float(np.linalg.norm(flip.flip_operator(bar_a).mat - a.mat)),
            float(np.linalg.norm(flip.flip_operator(core.GlobalOperator(n, a.mat @ b.mat)).mat - bar_a.mat @ bar_b.mat)),
            float(np.max(np.abs(core.apply(bar_a, flip.flip_state(psi)).amp - flip.flip_state(core.apply(a, psi)).amp))),
            float(np.linalg.norm(flip.flip_operator(core.GlobalOperator(n, a.mat.conj().T)).mat - bar_a.mat.conj().T)),
        )
    return CheckResult("operator-algebra", worst <= 1e-10, f"max residual {worst:.3e}")


def _check_canonical_bases(even_ns, odd_ns) -> CheckResult:
    details = []
    ok = True
    for n in even_ns:
        basis = bases.magic_basis(n)
        report = bases.check_biorthonormal(basis)
        selfconj = all(
            bases.self_conjugacy_coefficient_check(core.PureState(n, col)).passed
            for col in basis.matrix().T
        )
        ok = ok and report.passed and selfconj
        details.append(f"magic n={n}: {max(report.hilbert_residual, report.form_residual):.1e}")
    for n in odd_ns:
        report = bases.check_biorthonormal(bases.product_biortho_basis(n))
        ok = ok and report.passed
        details.append(f"product n={n}: {max(report.hilbert_residual, report.form_residual):.1e}")
    return CheckResult("canonical-bases", ok, "; ".join(details))


def _check_orthogonal_round_trip(n: int, draws: int, seed: int) -> CheckResult:
    worst = 0.0
    ok = True
    for i in range(draws):
        o = bases.random_real_orthogonal(1 << n, seed + i)
        basis = bases.basis_from_orthogonal(o)
        ok = ok and bases.check_biorthonormal(basis).passed
        worst = max(worst, float(np.max(np.abs(bases.decompose_basis(basis) - o))))
    return CheckResult("orthogonal-round-trip", ok and worst <= 1e-8, f"max recovery error {worst:.3e}")


def _check_unitary_symplectic(n: int, draws: int, seed: int) -> CheckResult:
    ok = True
    worst = 0.0
    for i in range(draws):
        s = bases.random_unitary_symplectic(1 << n, seed + i)
        unit, sympl = bases.unitary_symplectic_residuals(s)
        worst = max(worst, unit, sympl)
        ok = ok and bases.check_biorthonormal(bases.basis_from_unitary_symplectic(s)).passed
    return CheckResult("unitary-symplectic-bases", ok, f"max membership residual {worst:.3e}")


def _check_homomorphism(ns, trials: int, seed: int) -> CheckResult:
    ok = True
    worst = 0.0
    for n in ns:
        local = core.LocalOperatorList(tuple(core.random_sl2(seed + 17 * n + i) for i in range(n)))
        report = groups.homomorphism_check(local, trials=trials, seed=seed + n)
        ok = ok and report.passed
        worst = max(worst, report.form_residual, report.max_multiplicativity_residual)
    return CheckResult("local-operation-homomorphism", ok, f"max residual {worst:.3e}, n in {list(ns)}")


def _check_tangle_goldens() -> CheckResult:
    s2 = 1.0 / np.sqrt(2.0)
    bell = core.make_state(2, [s2, 0, 0, s2])
    ghz4 = core.make_state(4, [s2] + [0.0] * 14 + [s2])
    w4_amp = np.zeros(16)
    w4_amp[[1, 2, 4, 8]] = 0.5
    w4 = core.make_state(4, w4_amp)
    values = {
        "bell": (entanglement.tangle(bell), 1.0),
        "zero-pair": (entanglement.tangle(core.basis_state(2, 0)), 0.0),
        "ghz4": (entanglement.tangle(ghz4), 1.0),
        "w4": (entanglement.tangle(w4), 0.0),
        "odd-n": (entanglement.tangle(core.random_state(3, 5)), 0.0),
    }
    worst = max(abs(got - want) for got, want in values.values())
    return CheckResult("tangle-goldens", worst <= 1e-10, f"max deviation {worst:.3e}")


def _check_maxent_coherence(n: int, trials: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(trials):
        verdict = entanglement.is_maximally_entangled(core.random_state(n, rng))
        ok = ok and not verdict.passed and verdict.criteria_agree
        nu = rng.normal(size=1 << n)
        nu /= np.linalg.norm(nu)
        generated = entanglement.maxent_generate(n, float(rng.uniform(0, 2 * np.pi)), nu)
        verdict = entanglement.is_maximally_entangled(generated)
        ok = ok and verdict.passed and verdict.criteria_agree
        ok = ok and entanglement.polygon_collinearity_residual(
            entanglement.tangle_result(generated).polygon
        ) <= 1e-8
    return CheckResult(
        f"maximal-entanglement-coherence-n{n}", ok, f"{trials} random + {trials} generated"
    )


def _check_amplitude_bound(n: int, trials: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    basis = bases.magic_basis(n)
    worst = 0.0
    for _ in range(trials):
        report = entanglement.amplitude_bound_check(core.random_state(n, rng), basis)
        worst = min(worst, report.slack)
    return CheckResult(f"amplitude-bound-n{n}", worst >= -1e-10, f"min slack {worst:.3e}")


def _check_sl_invariance(n: int, trials: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(trials):
        local = core.LocalOperatorList(tuple(core.random_sl2(seed + 31 * i + q) for q in range(n)))
        psi = core.random_state(n, rng)
        moved = core.apply(core.expand_local(local), psi)
        worst = max(
            worst,
            abs(
                abs(flip.bilinear_form(moved, moved).value)
                - abs(flip.bilinear_form(psi, psi).value)
            ),
        )
    return CheckResult("tangle-sl-invariance", worst <= 1e-8, f"max deviation {worst:.3e}")


def _check_tangle_performance(n: int, budget_seconds: float) -> CheckResult:
    import time

    psi = core.random_state(n, 2024)
    start = time.perf_counter()
    entanglement.tangle(psi)
    elapsed = time.perf_counter() - start
    return CheckResult(
        "tangle-performance", elapsed <= budget_seconds, f"n={n} in {elapsed * 1e3:.1f} ms"
    )


def run_selftest(level: str = "quick", seed: int = 0) -> list[CheckResult]:
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    full = level == "full"
    checks = [
        _check_index_round_trip(8 if full else 6),
        _check_kernel_vs_oracle(8 if full else 5, 100 if full else 10, seed),
        _check_form_parity((1, 2, 3, 4, 5, 6) if full else (2, 3), 100 if full else 25, seed),
        _check_operator_algebra(100 if full else 10, seed),
        _check_canonical_bases((2, 4, 6) if full else (2, 4), (1, 3, 5) if full else (1, 3)),
        _check_orthogonal_round_trip(2, 50 if full else 10, seed),
        _check_unitary_symplectic(3, 50 if full else 10, seed),
        _check_homomorphism((1, 2, 3, 4, 5) if full else (1, 2, 3), 10 if full else 3, seed),
        _check_tangle_goldens(),
        _check_maxent_coherence(2, 200 if full else 25, seed),
        _check_amplitude_bound(2, 1000 if full else 100, seed),
        _check_sl_invariance(2, 50 if full else 10, seed),
    ]
    if full:
        checks.append(_check_maxent_coherence(4, 100, seed))
        checks.append(_check_amplitude_bound(4, 500, seed))
        checks.append(_check_tangle_performance(20, 1.0))
    return checks
