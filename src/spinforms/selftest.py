"""The invariant checks: one function per acceptance criterion.

Each check takes its counts, seeds and thresholds as arguments and returns a
``CheckResult`` whose detail is the criterion's one-line summary.
``tests/test_acceptance.py`` calls every check with the pinned values;
``run_selftest`` (the ``selftest`` command) calls the same checks with its
own counts.

Seeds come in two kinds.  ``seed`` starts one random stream that all draws
of a check share.  A ``*_seed`` base gives draw i at qubit count n the seed
``base * n + i``, and qubit q of a local operator the seed
``base * n + 10 * i + q``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import bases, bits, core, entanglement, flip, groups


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rel_residual(lhs, rhs) -> float:
    rhs = np.asarray(rhs)
    return float(np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(rhs)))


def _local_sl2(n: int, local_seed: int, i: int) -> core.LocalOperatorList:
    return core.LocalOperatorList(tuple(core.random_sl2(local_seed * n + 10 * i + q) for q in range(n)))


def _count(k: int) -> str:
    """``k`` for a detail line; a power of ten from 1000 up is written 10^e."""
    e = len(str(k)) - 1
    return f"10^{e}" if k >= 1000 and k == 10**e else str(k)


def check_index_round_trip(max_n: int) -> CheckResult:
    ok = all(
        bits.bits_to_index(bits.index_to_bits(k, n)) == k
        for n in range(1, max_n + 1)
        for k in range(1 << n)
    )
    return CheckResult("index-round-trip", ok, f"exhaustive n <= {max_n}")


def check_oracle_equivalence(
    max_n: int, states_per_n: int, seed: int, *, tol: float = 1e-12, budget_s: float = 10.0
) -> CheckResult:
    """Matrix-free flip and form against the dense sigma_y^(x)n oracle, within a time budget."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    start = time.perf_counter()
    for n in range(1, max_n + 1):
        for _ in range(states_per_n):
            psi, phi = core.random_state(n, rng), core.random_state(n, rng)
            worst = max(
                worst,
                float(np.max(np.abs(flip.flip_state(psi).amp - flip.flip_state_dense(psi).amp))),
                abs(flip.bilinear_form(psi, phi).value - flip.bilinear_form_dense(psi, phi).value),
            )
    elapsed = time.perf_counter() - start
    return CheckResult(
        "oracle-equivalence",
        worst <= tol and elapsed < budget_s,
        f"max residual {worst:.2e} over n<={max_n}, {states_per_n} states each, {elapsed:.1f}s",
    )


def check_form_parity(ns, trials: int, seed: int, *, tol: float = 1e-12) -> CheckResult:
    """form(psi, phi) = (-1)^n form(phi, psi) on random pairs, one stream across all n."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in ns:
        sign = flip.FormKind.for_qubits(n).exchange_sign
        for _ in range(trials):
            psi, phi = core.random_state(n, rng), core.random_state(n, rng)
            gap = abs(flip.bilinear_form(psi, phi).value - sign * flip.bilinear_form(phi, psi).value)
            worst = max(worst, gap)
    return CheckResult("form-parity", worst <= tol, f"max exchange residual {worst:.2e}")


def check_operator_algebra(trials: int, max_n: int, seed: int, *, tol: float = 1e-10) -> CheckResult:
    """Nine identities of the operator flip on random operators at random n <= max_n."""
    rng = np.random.default_rng(seed)
    worst = {}

    def record(name, value):
        worst[name] = max(worst.get(name, 0.0), value)

    for _ in range(trials):
        n = int(rng.integers(1, max_n + 1))
        a, b = core.random_operator(n, rng), core.random_operator(n, rng)
        psi, phi = core.random_state(n, rng), core.random_state(n, rng)
        za, zb = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())

        def flipped(mat):
            return flip.flip_operator(core.GlobalOperator(n, mat)).mat

        def expanded(ops):
            return core.expand_local(core.LocalOperatorList(tuple(ops))).mat

        bar_a, bar_b, eye = flipped(a.mat), flipped(b.mat), np.eye(1 << n)
        inner_flipped = np.vdot(flip.flip_state(psi).amp, flip.flip_state(phi).amp)
        record("inner-conjugation", abs(inner_flipped - np.conj(np.vdot(psi.amp, phi.amp))))
        record(
            "antilinearity",
            _rel_residual(flipped(za * a.mat + zb * b.mat), np.conj(za) * bar_a + np.conj(zb) * bar_b),
        )
        record("involution", _rel_residual(flipped(bar_a), a.mat))
        record("identity-fixed", _rel_residual(flipped(eye), eye))
        moved_flipped = flip.flip_state(core.apply(a, psi)).amp
        record("intertwining", float(np.max(np.abs(moved_flipped - bar_a @ flip.flip_state(psi).amp))))
        record("multiplicativity", _rel_residual(flipped(a.mat @ b.mat), bar_a @ bar_b))
        record("adjoint", _rel_residual(flipped(a.mat.conj().T), bar_a.conj().T))
        record("inverse", _rel_residual(flipped(np.linalg.inv(a.mat)), np.linalg.inv(bar_a)))
        locals_ = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(n)]
        record(
            "tensor-factorization",
            _rel_residual(flipped(expanded(locals_)), expanded(map(flip.flip_local, locals_))),
        )

    top = sorted(worst.items(), key=lambda kv: -kv[1])[:3]
    return CheckResult(
        "operator-algebra",
        max(worst.values()) <= tol,
        "max residual " + ", ".join(f"{k} {v:.1e}" for k, v in top),
    )


def check_magic_basis(even_ns, odd_ns, *, tol: float = 1e-10) -> CheckResult:
    """Canonical bases: magic bases bi-orthonormal and flip-fixed, product bases bi-orthonormal."""
    worst_gram, worst_selfconj = 0.0, 0.0
    for n in even_ns:
        basis = bases.magic_basis(n)
        report = bases.check_biorthonormal(basis)
        worst_gram = max(worst_gram, report.hilbert_residual, report.form_residual)
        worst_selfconj = max(worst_selfconj, float(np.abs(flip.flip_amplitudes(basis.mat) - basis.mat).max()))
    for n in odd_ns:
        report = bases.check_biorthonormal(bases.product_biortho_basis(n))
        worst_gram = max(worst_gram, report.hilbert_residual, report.form_residual)
    return CheckResult(
        "magic-basis",
        worst_gram <= tol and worst_selfconj <= tol,
        f"gram residual {worst_gram:.2e}, self-conjugacy residual {worst_selfconj:.2e}",
    )


def check_orthogonal_round_trip(
    ns, draws: int, controls: int, orthogonal_seed: int, *, tol: float = 1e-8
) -> CheckResult:
    """Magic basis mixed by a real orthogonal O decomposes back to O.

    The first ``controls`` bases per n, with one vector's phase turned by
    pi/4, must fail the bi-orthonormality check and be refused by the
    decomposition.
    """
    worst = 0.0
    all_pass = controls_fail = True
    for n in ns:
        dim = 1 << n
        for i in range(draws):
            o = bases.random_real_orthogonal(dim, orthogonal_seed * n + i)
            basis = bases.basis_from_orthogonal(o)
            all_pass = all_pass and bases.check_biorthonormal(basis).passed
            worst = max(worst, float(np.max(np.abs(bases.decompose_basis(basis) - o))))
            if i < controls:
                mat = basis.matrix().copy()
                mat[:, i % dim] = np.exp(1j * np.pi / 4) * mat[:, i % dim]
                perturbed = bases.BasisSet(n, mat)
                controls_fail = controls_fail and not bases.check_biorthonormal(perturbed).passed
                try:
                    bases.decompose_basis(perturbed)
                    controls_fail = False
                except ValueError:
                    pass
    return CheckResult(
        "orthogonal-round-trip",
        all_pass and worst <= tol and controls_fail,
        f"max recovery error {worst:.2e}, phase-perturbed controls fail: {controls_fail}",
    )


def _homomorphism_residuals(ns, draws, partners, local_seed, partner_seed) -> tuple[float, float]:
    worst_form, worst_mult = 0.0, 0.0
    for n in ns:
        for i in range(draws):
            result = groups.homomorphism_check(
                _local_sl2(n, local_seed, i), trials=partners, seed=partner_seed * n + i
            )
            worst_form = max(worst_form, result.form_residual)
            worst_mult = max(worst_mult, result.max_multiplicativity_residual)
    return worst_form, worst_mult


def check_even_homomorphism(
    ns, draws: int, partners: int, local_seed: int, partner_seed: int, *, tol: float = 1e-8
) -> CheckResult:
    """SL(2)^(x)n in the magic basis is complex orthogonal and multiplicative (even n)."""
    worst_form, worst_mult = _homomorphism_residuals(ns, draws, partners, local_seed, partner_seed)
    return CheckResult(
        "even-homomorphism",
        worst_form <= tol and worst_mult <= tol,
        f"orthogonality {worst_form:.2e}, multiplicativity {worst_mult:.2e}, "
        f"{draws} draws per n in {tuple(ns)}",
    )


def check_odd_homomorphism(
    ns, draws: int, partners: int, local_seed: int, partner_seed: int, *, tol: float = 1e-8
) -> CheckResult:
    """SL(2)^(x)n in the product basis is symplectic and multiplicative (odd n, 1 included)."""
    worst_form, worst_mult = _homomorphism_residuals(ns, draws, partners, local_seed, partner_seed)
    return CheckResult(
        "odd-homomorphism",
        worst_form <= tol and worst_mult <= tol,
        f"symplecticity {worst_form:.2e}, multiplicativity {worst_mult:.2e}, "
        f"{draws} draws per n in {tuple(ns)}",
    )


def check_unitary_symplectic_bases(ns, draws: int, symplectic_seed: int) -> CheckResult:
    """Product basis mixed by a unitary-symplectic matrix stays bi-orthonormal.

    Negative controls: a unitary-only and a symplectic-only mix at n = 3 fail.
    """
    all_pass = True
    for n in ns:
        for i in range(draws):
            s = bases.random_unitary_symplectic(1 << n, symplectic_seed * n + i)
            all_pass = all_pass and bases.check_biorthonormal(bases.basis_from_unitary_symplectic(s)).passed
    prod = bases.product_biortho_basis(3).matrix()
    controls_fail = True
    for mix in (1j * np.eye(8), np.diag([2.0, 0.5] * 4).astype(complex)):
        controls_fail = controls_fail and not bases.check_biorthonormal(bases.BasisSet(3, prod @ mix.T)).passed
    return CheckResult(
        "unitary-symplectic-bases",
        all_pass and controls_fail,
        f"{draws * len(ns)} transformed bases pass: {all_pass}, negative controls fail: {controls_fail}",
    )


def check_coefficient_tangle(
    ns, bases_per_n: int, states_per_n: int, orthogonal_seed: int, seed: int, *, tol: float = 1e-10
) -> CheckResult:
    """|sum_l c_l^2| over random bi-orthonormal bases equals the matrix-free tangle."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in ns:
        mixed = [
            bases.basis_from_orthogonal(bases.random_real_orthogonal(1 << n, orthogonal_seed * n + i))
            for i in range(bases_per_n)
        ]
        states = [core.random_state(n, rng) for _ in range(states_per_n)]
        for basis in mixed:
            for psi in states:
                coeffs = bases.state_coefficients(basis, psi)
                worst = max(
                    worst, abs(entanglement.tangle_from_coefficients(coeffs) - entanglement.tangle(psi))
                )
    return CheckResult(
        "coefficient-tangle",
        worst <= tol,
        f"max deviation {worst:.2e} over {bases_per_n * len(ns)} bases x {states_per_n} states per n",
    )


def check_golden_values(seed: int, *, tol: float = 1e-10) -> CheckResult:
    """Tangle of Bell, |00>, GHZ4, W4 and a random 3-qubit state (odd n: zero)."""
    s2 = 1.0 / np.sqrt(2.0)
    w4_amp = np.zeros(16)
    w4_amp[[1, 2, 4, 8]] = 0.5
    goldens = [
        (core.make_state(2, [s2, 0, 0, s2]), 1.0),
        (core.basis_state(2, 0), 0.0),
        (core.make_state(4, [s2] + [0.0] * 14 + [s2]), 1.0),
        (core.make_state(4, w4_amp), 0.0),
        (core.random_state(3, seed), 0.0),
    ]
    worst = max(abs(entanglement.tangle(psi) - want) for psi, want in goldens)
    return CheckResult("golden-values", worst <= tol, f"max deviation {worst:.2e}")


def check_maxent_coherence(
    ns, trials: int, seed: int, *, tol_tangle: float = 1e-10, tol_line: float = 1e-8
) -> CheckResult:
    """Random states are judged not maximally entangled and generated ones are, all
    three criteria agreeing; generated states have unit tangle and a straight polygon.
    """
    rng = np.random.default_rng(seed)
    ok = True
    worst_tangle, worst_line = 0.0, 0.0
    for n in ns:
        for _ in range(trials):
            verdict = entanglement.is_maximally_entangled(core.random_state(n, rng))
            ok = ok and not verdict.passed and verdict.criteria_agree
        for _ in range(trials):
            nu = rng.normal(size=1 << n)
            nu /= np.linalg.norm(nu)
            psi = entanglement.maxent_generate(n, float(rng.uniform(0.0, 2.0 * np.pi)), nu)
            verdict = entanglement.is_maximally_entangled(psi)
            ok = ok and verdict.passed and verdict.criteria_agree
            worst_tangle = max(worst_tangle, abs(entanglement.tangle(psi) - 1.0))
            worst_line = max(
                worst_line,
                entanglement.polygon_collinearity_residual(entanglement.tangle_result(psi).polygon),
            )
    return CheckResult(
        "maxent-coherence",
        ok and worst_tangle <= tol_tangle and worst_line <= tol_line,
        f"verdicts agree: {ok}, generated tangle gap {worst_tangle:.2e}, collinearity {worst_line:.2e}",
    )


def check_amplitude_inequality(ns, states_per_n: int, seed: int, *, tol: float = 1e-10) -> CheckResult:
    """|c_l|^2 <= (1 + tangle)/2 over the magic basis, with equality for |00>."""
    rng = np.random.default_rng(seed)
    worst_slack = np.inf
    for n in ns:
        basis = bases.magic_basis(n)
        for _ in range(states_per_n):
            result = entanglement.amplitude_bound_check(core.random_state(n, rng), basis)
            worst_slack = min(worst_slack, result.slack)
    tight = entanglement.amplitude_bound_check(core.basis_state(2, 0), bases.magic_basis(2))
    tightness_gap = abs(tight.slack)
    return CheckResult(
        "amplitude-inequality",
        worst_slack >= -tol and tightness_gap <= tol,
        f"min slack {worst_slack:.2e} over {_count(states_per_n * len(ns))} states, "
        f"|00> tightness gap {tightness_gap:.2e}",
    )


def check_sl_invariance(ns, draws: int, local_seed: int, seed: int, *, tol: float = 1e-8) -> CheckResult:
    """|form(psi, psi)| is unchanged by unit-determinant local operations."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in ns:
        for i in range(draws):
            local = _local_sl2(n, local_seed, i)
            psi = core.random_state(n, rng)
            moved = core.apply(core.expand_local(local), psi)
            worst = max(
                worst,
                abs(abs(flip.bilinear_form(moved, moved).value) - abs(flip.bilinear_form(psi, psi).value)),
            )
    return CheckResult(
        "sl-invariance", worst <= tol, f"max form deviation {worst:.2e} over {draws * len(ns)} pairs"
    )


def check_performance(n: int, seed: int, *, budget_s: float = 1.0, tol_value: float = 1e-10) -> CheckResult:
    """An n-qubit tangle within the time budget and in [0, 1] (the oracle comparison is check 01)."""
    psi = core.random_state(n, seed)
    start = time.perf_counter()
    value = entanglement.tangle(psi)
    elapsed = time.perf_counter() - start
    return CheckResult(
        "performance",
        0.0 <= value <= 1.0 + tol_value and elapsed < budget_s,
        f"n={n} tangle in {elapsed * 1e3:.0f} ms",
    )


def run_selftest(level: str = "quick", seed: int = 0) -> list[CheckResult]:
    """Every check once, at small counts (``quick``) or larger ones (``full``).

    ``seed`` shifts every stream seed and every seed base.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    full = level == "full"
    return [
        check_index_round_trip(8 if full else 6),
        check_oracle_equivalence(8 if full else 5, 100 if full else 10, seed + 1),
        check_form_parity((1, 2, 3, 4, 5, 6) if full else (2, 3), 100 if full else 25, seed + 2),
        check_operator_algebra(100 if full else 10, 3, seed + 3),
        check_magic_basis((2, 4, 6) if full else (2, 4), (1, 3, 5) if full else (1, 3)),
        check_orthogonal_round_trip((2, 4) if full else (2,), 50 if full else 10, 5, seed + 1000),
        check_even_homomorphism((2, 4) if full else (2,), 20 if full else 3, 3, seed + 2000, seed + 3000),
        check_odd_homomorphism((1, 3, 5) if full else (1, 3), 20 if full else 3, 3, seed + 4000, seed + 5000),
        check_unitary_symplectic_bases((1, 3), 50 if full else 10, seed + 7000),
        check_coefficient_tangle((2, 4) if full else (2,), 10 if full else 3, 100 if full else 20, seed + 8000, seed + 9),
        check_golden_values(seed + 10),
        check_maxent_coherence((2, 4) if full else (2,), 200 if full else 25, seed + 11),
        check_amplitude_inequality((2, 4) if full else (2,), 1000 if full else 100, seed + 12),
        check_sl_invariance((2, 4) if full else (2,), 50 if full else 10, seed + 9000, seed + 13),
        check_performance(20 if full else 16, seed + 14),
    ]
