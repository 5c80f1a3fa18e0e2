"""Checks of the benchmark's own checking code.

The reference is compared with spinforms' dense sigma_y^(x)n oracle and
expand_local at n <= 8 and with closed forms; each workload's ``check`` must
accept the program's outputs and reject corrupted ones.  Run with

    python3 -m pytest perfbench/test_reference.py      (from the repository root)
    python3 perfbench/test_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference as ref  # noqa: E402
import spinforms as sf  # noqa: E402
import workloads  # noqa: E402
from spinforms.flip import bilinear_form_dense, flip_state_dense  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import tail  # noqa: E402

RNG_SEED = 20240611


def test_flip_and_form_match_dense_oracle():
    rng = np.random.default_rng(RNG_SEED)
    for n in range(1, 9):
        psi = ref.haar_amplitudes(rng, n)
        phi = ref.haar_amplitudes(rng, n)
        oracle = flip_state_dense(sf.PureState(n, psi)).amp
        assert np.max(np.abs(ref.flip(psi) - oracle)) <= 1e-12
        dense = bilinear_form_dense(sf.PureState(n, psi), sf.PureState(n, phi)).value
        assert abs(ref.form(psi, phi) - dense) <= 1e-12


def test_flip_of_matrix_is_flip_of_each_column():
    rng = np.random.default_rng(RNG_SEED)
    mat = rng.standard_normal((32, 5)) + 1j * rng.standard_normal((32, 5))
    for m in (mat, mat.T.copy().T):  # C- and Fortran-ordered
        cols = np.column_stack([ref.flip(m[:, j]) for j in range(5)])
        assert np.array_equal(ref.flip(m), cols)


def test_apply_per_axis_matches_expand_local():
    rng = np.random.default_rng(RNG_SEED)
    for n in range(1, 9):
        ops = tuple(sf.random_sl2(int(s)) for s in rng.integers(0, 2**31, size=n))
        psi = ref.haar_amplitudes(rng, n)
        dense = sf.expand_local(sf.LocalOperatorList(ops)).mat @ psi
        assert np.max(np.abs(ref.apply_per_axis(psi, ops) - dense)) <= 1e-12 * max(1.0, np.linalg.norm(dense))


def test_closed_forms():
    rng = np.random.default_rng(RNG_SEED)
    for n in range(2, 11, 2):
        assert abs(ref.tangle(ref.ghz_amplitudes(n)) - 1.0) <= 1e-12
        assert ref.tangle(ref.product_amplitudes(rng, n)) <= 1e-12
    for n in (3, 5, 7):
        # the form is antisymmetric for odd n, so every tangle vanishes
        assert ref.tangle(ref.haar_amplitudes(rng, n)) <= 1e-12
    for n in (4, 6):
        psi = ref.haar_amplitudes(rng, n)
        rotated = ref.apply_per_axis(psi, [ref.su2(rng) for _ in range(n)])
        assert abs(ref.tangle(rotated) - ref.tangle(psi)) <= 1e-12
        assert abs(ref.tangle(psi) - sf.tangle(sf.PureState(n, psi))) <= 1e-12
    assert np.array_equal(ref.form_gram(sf.product_biortho_basis(3).matrix()), ref.canonical_j(8))


def run_round(wl, tally):
    outs = []
    for i in range(wl.jobs_per_round):
        out = wl.run_job(i)
        wl.check(i, out, tally)
        outs.append(out)
    return outs


class SmallLargeState(workloads.LargeState):
    n = 6


def test_large_state_checks_catch_wrong_outputs():
    wl = SmallLargeState(1, Tracer(), None)
    wl.prepare()
    tally = workloads.Tally()
    outs = run_round(wl, tally)
    assert tally.attempted == 15 and tally.failed == 0
    flipped, value, tangle = outs[2]
    for bad in ((-flipped, value, tangle), (flipped, value + 1e-6, tangle), (flipped, value, tangle + 1e-6)):
        tally = workloads.Tally()
        wl.check(2, bad, tally)
        assert tally.failed == 1 and tally.unexpected


def test_coefficients_checks_catch_wrong_outputs():
    wl = workloads.Coefficients(1, Tracer(), None)
    wl.prepare()
    tally = workloads.Tally()
    out = wl.run_job(0)
    wl.check(0, out, tally)
    assert tally.failed == 0
    out["c10"] = out["c10"] * 1.001
    out["dec6"] = out["dec6"] + 1e-6
    tally = workloads.Tally()
    wl.check(1, out, tally)
    assert tally.failed == 2


def test_operators_checks_count_only_the_pinned_defect():
    wl = workloads.Operators(1, Tracer(), None)
    wl.prepare()
    tally = workloads.Tally(wl.known_defects)
    out = wl.run_job(0)
    wl.check(0, out, tally)
    assert tally.failed == 1 and not tally.unexpected  # the stretched list, every time
    out[8]["rep"] = out[8]["rep"] * 1.001
    tally = workloads.Tally(wl.known_defects)
    wl.check(0, out, tally)
    assert tally.failed == 2 and len(tally.unexpected) == 1


def test_tail_has_ten_jobs_beyond_it():
    latencies = list(range(50))
    value = tail(latencies)
    assert sum(x > value for x in latencies) == 10


def test_benchmark_json_names_match_the_worker():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == workloads.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "job_p50_ms", "job_tail_ms", "peak_rss_mb"]


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for f in tests:
        f()
        print(f"ok {f.__name__}")
