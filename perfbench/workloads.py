"""The four benchmark workloads: inputs built from the workload seed, one job, and its checks.

Each workload exposes ``jobs_per_round`` and ``run_job(i)``, which makes the
timed calls into spinforms, and ``check(i, out, tally)``, which the caller
runs outside the job's timing.  Every job of a workload is the same task at
the same size.  ``prepare()`` computes reference values after set-up has been
timed, and ``probe()`` takes the traced run's layer probes between jobs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np

import reference as ref
import spinforms as sf
from spinforms import bits, files

# Check tolerances.  The reference and the kernels multiply by +-1 and +-i
# only, so flips agree exactly; sums over 2^n terms get 1e-10.
EXACT = 1e-14
SUM_TOL = 1e-10


def max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


class Tally:
    """Operations attempted and failed; a failure outside ``known_defects`` makes the run incorrect."""

    def __init__(self, known_defects=()):
        self.attempted = 0
        self.failed = 0
        self.known_defects = set(known_defects)
        self.unexpected = []

    def record(self, op: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if op not in self.known_defects:
                self.unexpected.append(f"{op}: {detail}")


class Workload:
    """What the workloads share: no known defect, no layer probes, nothing to clean up."""

    known_defects = ()

    def probe(self):
        """Layer probes taken before each traced job."""

    def close(self):
        pass


class LargeState(Workload):
    """O(2^n) kernels on n = 22 states: PureState copy, flip, form and tangle.

    A round is five jobs.  The second job's input is the flip the first job
    returned, so flipping twice is checked on program output.  Partners pair
    up so that each pair's forms are taken in both orders.
    """

    name = "large-state"
    n = 22
    jobs_per_round = 5
    # (input state, partner state); "flip0" is the flip job 0 returned this round
    plan = ((0, 3), ("flip0", 0), (1, 2), (2, 1), (3, 0))
    layers = ("bits.parity_signs", "core.PureState", "flip.flip_state", "flip.bilinear_form", "entanglement.tangle")

    def __init__(self, seed: int, tracer, workdir):
        rng = np.random.default_rng([seed, 1])
        n = self.n
        haar = ref.haar_amplitudes(rng, n)
        product = ref.product_amplitudes(rng, n)
        rotated = ref.apply_per_axis(haar, [ref.su2(rng) for _ in range(n)])
        # Haar, GHZ, product, and the Haar state under random local SU(2)
        self.states = [sf.PureState(n, a) for a in (haar, ref.ghz_amplitudes(n), product, rotated)]
        self.tracer = tracer
        self.flip0 = None
        self.forms = {}

    def run_job(self, i: int):
        src, partner = self.plan[i]
        amp = self.flip0.amp if src == "flip0" else self.states[src].amp
        t = self.tracer
        psi = t.call("core.PureState", sf.PureState, self.n, amp)
        flipped = t.call("flip.flip_state", sf.flip_state, psi)
        value = t.call("flip.bilinear_form", sf.bilinear_form, psi, self.states[partner]).value
        tangle = t.call("entanglement.tangle", sf.tangle, psi)
        if i == 0:
            self.flip0 = flipped
        return flipped.amp, value, tangle

    def prepare(self):
        self.ref_flip = [ref.flip(s.amp) for s in self.states]
        self.ref_tangle = [abs(np.vdot(f, s.amp)) for f, s in zip(self.ref_flip, self.states)]

    def check(self, i: int, out, tally: Tally) -> None:
        flipped, value, tangle = out
        src, partner = self.plan[i]
        sign = (-1) ** self.n
        if src == "flip0":
            # flip(flip(psi)) = (-1)^n psi, and form(flip(psi), psi) = (-1)^n <psi|psi>
            tally.record("flip twice", max_abs(flipped, sign * self.states[0].amp) <= EXACT)
            tally.record("form of flip", abs(value - sign) <= SUM_TOL, f"{value}")
            tally.record("tangle of flip", abs(tangle - self.ref_tangle[0]) <= SUM_TOL, f"{tangle}")
            return
        tally.record("flip", max_abs(flipped, self.ref_flip[src]) <= EXACT)
        expected = complex(np.vdot(self.ref_flip[src], self.states[partner].amp))
        ok = abs(value - expected) <= SUM_TOL
        self.forms[src, partner] = value
        if (partner, src) in self.forms:
            # both orders of the pair are in: form(a, b) = (-1)^n form(b, a)
            ok = ok and abs(value - sign * self.forms[partner, src]) <= SUM_TOL
        tally.record("form", ok, f"{value} vs {expected}")
        closed = {1: 1.0, 2: 0.0}.get(src, self.ref_tangle[src])  # GHZ 1, even-n product 0
        ok = abs(tangle - closed) <= SUM_TOL
        if src == 3:
            ok = ok and abs(tangle - self.ref_tangle[0]) <= SUM_TOL  # local SU(2) leaves it unchanged
        tally.record("tangle", ok, f"{tangle} vs {closed}")

    def probe(self):
        """Layer probes: the parity mask alone, and one np.vdot memory pass at the same n."""
        amp = self.states[0].amp
        with self.tracer.span("floor.vdot"):
            np.vdot(amp, amp)
        self.tracer.call("bits.parity_signs", bits.parity_signs, self.n)


class Coefficients(Workload):
    """Dense 2^n x 2^n basis path: magic-basis expansions and maximal entanglement at n = 8 and 10,
    plus product-basis and orthogonal-mix checks at small n."""

    name = "coefficients"
    jobs_per_round = 8
    layers = (
        "bases.magic_basis", "bases.product_biortho_basis", "bases.BasisSet.matrix",
        "bases.check_biorthonormal", "bases.state_coefficients", "bases.basis_from_orthogonal",
        "bases.decompose_basis", "entanglement.tangle_from_coefficients", "entanglement.tangle_result",
        "entanglement.is_maximally_entangled", "entanglement.maxent_generate",
        "entanglement.amplitude_bound_check",
    )

    def __init__(self, seed: int, tracer, workdir):
        rng = np.random.default_rng([seed, 2])
        self.psi10 = sf.PureState(10, ref.haar_amplitudes(rng, 10))
        self.psi8 = sf.PureState(8, ref.haar_amplitudes(rng, 8))
        nu = rng.standard_normal(1 << 10)
        self.nu = nu / np.linalg.norm(nu)
        self.theta = float(rng.uniform(0.0, 2.0 * np.pi))
        self.mix = ref.real_orthogonal(rng, 1 << 6)
        self.tracer = tracer
        self.first = None

    def run_job(self, i: int):
        t = self.tracer
        out = {}
        b10 = t.call("bases.magic_basis", sf.magic_basis, 10)
        out["m10"] = t.call("bases.BasisSet.matrix", b10.matrix)
        out["c10"] = t.call("bases.state_coefficients", sf.state_coefficients, b10, self.psi10)
        out["tc10"] = t.call("entanglement.tangle_from_coefficients", sf.tangle_from_coefficients, out["c10"])
        out["tr10"] = t.call("entanglement.tangle_result", sf.tangle_result, self.psi10)
        out["gen10"] = t.call("entanglement.maxent_generate", sf.maxent_generate, 10, self.theta, self.nu)
        out["me_gen"] = t.call("entanglement.is_maximally_entangled", sf.is_maximally_entangled, out["gen10"])
        out["me_haar"] = t.call("entanglement.is_maximally_entangled", sf.is_maximally_entangled, self.psi10)
        b8 = t.call("bases.magic_basis", sf.magic_basis, 8)
        out["m8"] = t.call("bases.BasisSet.matrix", b8.matrix)
        out["chk8"] = t.call("bases.check_biorthonormal", sf.check_biorthonormal, b8)
        out["ab8"] = t.call("entanglement.amplitude_bound_check", sf.amplitude_bound_check, self.psi8, b8)
        for n in (5, 7):
            p = t.call("bases.product_biortho_basis", sf.product_biortho_basis, n)
            out[f"p{n}"] = t.call("bases.BasisSet.matrix", p.matrix)
            out[f"chk{n}"] = t.call("bases.check_biorthonormal", sf.check_biorthonormal, p)
        mixed = t.call("bases.basis_from_orthogonal", sf.basis_from_orthogonal, self.mix)
        out["dec6"] = t.call("bases.decompose_basis", sf.decompose_basis, mixed)
        return out

    def prepare(self):
        self.tangle10 = ref.tangle(self.psi10.amp)
        self.tangle8 = ref.tangle(self.psi8.amp)

    def _check_bases(self, out, tally: Tally) -> None:
        """Full independent check of the basis matrices; run on the first job only."""
        for key in ("m10", "m8"):
            m = out[key]
            dim = m.shape[0]
            ok = max_abs(m.conj().T @ m, np.eye(dim)) <= SUM_TOL  # orthonormal
            ok = ok and max_abs(ref.flip(m), m) <= EXACT  # every vector fixed by the flip
            tally.record(f"magic basis {key}", ok)
        for n in (5, 7):
            m = out[f"p{n}"]
            dim = m.shape[0]
            ok = max_abs(m.conj().T @ m, np.eye(dim)) <= SUM_TOL
            ok = ok and max_abs(ref.form_gram(m), ref.canonical_j(dim)) <= SUM_TOL
            tally.record(f"product basis n={n}", ok)

    def check(self, i: int, out, tally: Tally) -> None:
        if self.first is None:
            self._check_bases(out, tally)
            self.first = {k: out[k] for k in ("m10", "m8", "p5", "p7")}
        else:
            # the bases are deterministic: later jobs must return the checked ones
            for key, m in self.first.items():
                tally.record(f"basis {key} repeat", np.array_equal(out[key], m))
        c = out["c10"]
        tally.record("coefficients", abs(float(np.sum(np.abs(c) ** 2)) - 1.0) <= SUM_TOL)  # Parseval
        tally.record("tangle from coefficients", abs(out["tc10"] - self.tangle10) <= SUM_TOL)
        tr = out["tr10"]
        end = abs(complex(*tr.polygon[-1]))
        tally.record("tangle_result", abs(tr.value - self.tangle10) <= SUM_TOL and abs(end - self.tangle10) <= SUM_TOL)
        gen = out["gen10"].amp
        # e^{i theta} sum nu_l e_l with flip-fixed e_l and real nu: flip gives e^{-2 i theta} times it
        ok = abs(np.linalg.norm(gen) - 1.0) <= SUM_TOL
        ok = ok and max_abs(ref.flip(gen), np.exp(-2j * self.theta) * gen) <= SUM_TOL
        tally.record("maxent_generate", ok and abs(ref.tangle(gen) - 1.0) <= SUM_TOL)
        tally.record("is_maximally_entangled(generated)", out["me_gen"].passed)
        tally.record("is_maximally_entangled(haar)", not out["me_haar"].passed)
        chk8 = out["chk8"]
        tally.record("check_biorthonormal n=8", chk8.passed and chk8.hilbert_residual <= SUM_TOL)
        ab = out["ab8"]
        coeff_sq = np.abs(out["m8"].conj().T @ self.psi8.amp) ** 2
        ok = ab.passed and abs(ab.max_coeff_sq - coeff_sq.max()) <= SUM_TOL
        tally.record("amplitude bound", ok and coeff_sq.max() <= 0.5 * (1.0 + self.tangle8) + SUM_TOL)
        tally.record("check_biorthonormal n=5", out["chk5"].passed)
        tally.record("check_biorthonormal n=7", out["chk7"].passed)
        tally.record("decompose_basis", max_abs(out["dec6"], self.mix) <= 1e-8)


# One pinned local list u diag(10, 1/10) v per qubit (u, v in SU(2)) at n = 8.  It has unit
# determinants, so it preserves the form, but is_form_preserving judges flip(M)^dag M - I
# by an absolute residual and says it does not.  Its seeds are fixed, so it fails the same
# way on every seed and run.
STRETCHED_SEED = 1000
STRETCHED_DEFECT = "classify_operator(stretched n=8)"


def stretched_local() -> sf.LocalOperatorList:
    stretch = np.diag([10.0, 0.1])
    return sf.LocalOperatorList(tuple(
        sf.random_su2(STRETCHED_SEED + 2 * q) @ stretch @ sf.random_su2(STRETCHED_SEED + 2 * q + 1)
        for q in range(8)
    ))


class Operators(Workload):
    """Local lists at n = 6-9 and a dense operator through expansion, classification,
    representation in the canonical basis, and the SLOCC verdict: the O(8^n) path."""

    name = "operators"
    jobs_per_round = 8
    known_defects = (STRETCHED_DEFECT,)
    # qubit count -> seeded draw; n <= 7 also runs homomorphism_check, n = 8 the global form test
    draws = ((6, sf.random_sl2), (7, sf.random_sl2), (8, sf.random_sl2), (9, sf.random_su2))
    layers = (
        "core.expand_local", "flip.flip_operator", "groups.is_form_preserving",
        "groups.local_form_criterion", "groups.represent_in_basis", "groups.homomorphism_check",
        "groups.classify_operator", "groups.slocc_obstruction",
    )

    def __init__(self, seed: int, tracer, workdir):
        rng = np.random.default_rng([seed, 3])
        self.locals = {}
        self.psi = {}
        for n, draw in self.draws:
            seeds = rng.integers(0, 2**62, size=n)
            self.locals[n] = sf.LocalOperatorList(tuple(draw(int(s)) for s in seeds))
            self.psi[n] = ref.haar_amplitudes(rng, n)
        self.hom_seed = int(rng.integers(0, 2**62))
        g = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.dense = sf.GlobalOperator(6, g)
        self.stretched = stretched_local()
        self.tracer = tracer

    def run_job(self, i: int):
        t = self.tracer
        out = {}
        for n, _ in self.draws:
            local = self.locals[n]
            r = {}
            r["g"] = t.call("core.expand_local", sf.expand_local, local)
            r["cls"] = t.call("groups.classify_operator", sf.classify_operator, local)
            r["lf"] = t.call("groups.local_form_criterion", sf.local_form_criterion, local)
            canonical = sf.magic_basis if n % 2 == 0 else sf.product_biortho_basis
            r["basis"] = t.call(f"bases.{canonical.__name__}", canonical, n)
            r["rep"] = t.call("groups.represent_in_basis", sf.represent_in_basis, r["g"], r["basis"])
            r["slocc"] = t.call("groups.slocc_obstruction", sf.slocc_obstruction, r["g"])
            if n <= 7:
                r["hom"] = t.call("groups.homomorphism_check", sf.homomorphism_check, local, 2, self.hom_seed)
            if n == 8:
                r["flip"] = t.call("flip.flip_operator", sf.flip_operator, r["g"])
                r["fp"] = t.call("groups.is_form_preserving", sf.is_form_preserving, r["g"])
            out[n] = r
        out["dense_cls"] = t.call("groups.classify_operator", sf.classify_operator, self.dense)
        out["dense_slocc"] = t.call("groups.slocc_obstruction", sf.slocc_obstruction, self.dense)
        out["str_cls"] = t.call("groups.classify_operator", sf.classify_operator, self.stretched)
        out["str_lf"] = t.call("groups.local_form_criterion", sf.local_form_criterion, self.stretched)
        return out

    def prepare(self):
        self.ref_apply = {n: ref.apply_per_axis(self.psi[n], self.locals[n].ops) for n in self.psi}

    def check(self, i: int, out, tally: Tally) -> None:
        for n, _ in self.draws:
            r = out[n]
            psi, moved = self.psi[n], self.ref_apply[n]
            scale = max(1.0, float(np.linalg.norm(moved)))
            tally.record(f"expand_local n={n}", max_abs(r["g"].mat @ psi, moved) <= SUM_TOL * scale)
            dets_ok = all(abs(d - 1.0) <= SUM_TOL for d in r["cls"].dets)
            tally.record(f"classify_operator n={n}", r["cls"].is_form_preserving and dets_ok)
            tally.record(f"local_form_criterion n={n}", r["lf"].passed)
            rep = r["rep"]
            dim = rep.shape[0]
            j = np.eye(dim) if n % 2 == 0 else ref.canonical_j(dim)
            rep_scale = max(1.0, float(np.linalg.norm(rep)) ** 2)
            ok = max_abs(rep.T @ j @ rep, j) <= SUM_TOL * rep_scale  # R in O(2^n) or Sp(2^(n-1))
            v = r["basis"].matrix()
            # R maps the coefficients of psi to those of the per-axis product applied to psi
            ok = ok and max_abs(rep @ (v.conj().T @ psi), v.conj().T @ moved) <= SUM_TOL * scale
            tally.record(f"represent_in_basis n={n}", ok)
            tally.record(f"slocc_obstruction n={n}", not r["slocc"].obstructed)
            if "hom" in r:
                tally.record(f"homomorphism_check n={n}", r["hom"].passed)
            if "flip" in r:
                # flip(M) flip(psi) = flip(M psi)
                ok = max_abs(r["flip"].mat @ ref.flip(psi), ref.flip(moved)) <= SUM_TOL * scale
                tally.record("flip_operator n=8", ok)
                tally.record("is_form_preserving n=8", r["fp"].passed)
        tally.record("classify_operator(dense)", not out["dense_cls"].is_form_preserving)
        tally.record("slocc_obstruction(dense)", out["dense_slocc"].obstructed)
        tally.record(STRETCHED_DEFECT, out["str_cls"].is_form_preserving,
                     f"form residual {out['str_cls'].form_residual:.3g}")
        tally.record("local_form_criterion(stretched n=8)", out["str_lf"].passed)


class Cli(Workload):
    """Whole `python -m spinforms.cli` commands, one subprocess at a time, on JSON files.

    A job is the same seven commands in order: three write files, four read
    them back.  The benchmark then reads each written file with spinforms.files,
    decodes it a second time with plain json, and writes it back.
    """

    name = "cli"
    jobs_per_round = 2
    state_n = 14
    basis_n = 6
    op_n = 8
    commands = ("flip", "tangle", "form", "maxent_generate", "basis_magic", "basis_check", "op_classify")

    def __init__(self, seed: int, tracer, workdir):
        rng = np.random.default_rng([seed, 4])
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.tracer = tracer
        self.state = sf.PureState(self.state_n, ref.haar_amplitudes(rng, self.state_n))
        self.local = sf.LocalOperatorList(
            tuple(sf.random_sl2(int(s)) for s in rng.integers(0, 2**62, size=self.op_n))
        )
        self.maxent_seed = int(rng.integers(0, 2**31))
        self.theta = round(float(rng.uniform(0.0, 2.0 * np.pi)), 6)
        files.write_state(self.dir / "a.json", self.state)
        files.write_operator(self.dir / "op.json", self.local)
        self.argv = {
            "flip": ["flip", "a.json", "--out", "f.json"],
            "tangle": ["tangle", "f.json"],
            "form": ["form", "a.json", "f.json"],
            "maxent_generate": ["maxent", "generate", "-n", "8", "--theta", repr(self.theta),
                                "--seed", str(self.maxent_seed), "--out", "m.json"],
            "basis_magic": ["basis", "magic", "-n", str(self.basis_n), "--out", "b.json"],
            "basis_check": ["basis", "check", "b.json"],
            "op_classify": ["op", "classify", "op.json"],
        }

    def run_job(self, i: int):
        out = {}
        for name in self.commands:
            with self.tracer.span(f"cli.{name}"):
                proc = subprocess.run(
                    [sys.executable, "-m", "spinforms.cli", *self.argv[name]],
                    cwd=self.dir, capture_output=True, text=True,
                )
            out[name] = proc
        return out

    def prepare(self):
        self.ref_flip = ref.flip(self.state.amp)
        self.ref_tangle = ref.tangle(self.state.amp)

    def _report(self, proc, tally: Tally, op: str):
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            tally.record(op, False, f"exit {proc.returncode}, no JSON report: {proc.stderr[-300:]}")
            return None
        keys = {"format", "tool_version", "command", "seed", "verdicts", "residuals", "values"}
        if proc.returncode != 0 or set(report) != keys or report["format"] != files.REPORT_FORMAT:
            tally.record(op, False, f"exit {proc.returncode}, report keys {sorted(report)}")
            return None
        return report

    def _read_back(self, kind: str, name: str):
        """Read a file with spinforms.files, then write it back; return (object, path of the copy)."""
        path = self.dir / name
        copy = self.dir / f"copy-{name}"
        reader, writer = getattr(files, f"read_{kind}"), getattr(files, f"write_{kind}")
        with self.tracer.span(f"files.read_{kind}", size=path.stat().st_size):
            obj = reader(path)
        with self.tracer.span(f"files.write_{kind}", size=lambda: copy.stat().st_size):
            writer(copy, obj)
        return obj, copy

    @staticmethod
    def _decode(values) -> np.ndarray:
        pairs = np.array(values, dtype=float)
        return pairs[..., 0] + 1j * pairs[..., 1]

    def _state_file_ok(self, name: str) -> np.ndarray | None:
        state, copy = self._read_back("state", name)
        raw = self._decode(json.loads((self.dir / name).read_text())["amplitudes"])
        again = self._decode(json.loads(copy.read_text())["amplitudes"])
        exact = np.array_equal(state.amp, raw) and np.array_equal(again, raw)
        return raw if exact else None

    def check(self, i: int, out, tally: Tally) -> None:
        report = self._report(out["flip"], tally, "flip")
        if report:
            amp = self._state_file_ok("f.json")
            tally.record("flip", amp is not None and max_abs(amp, self.ref_flip) <= EXACT)
        report = self._report(out["tangle"], tally, "tangle")
        if report:
            # the flip preserves the tangle
            tally.record("tangle", abs(report["values"]["tangle"] - self.ref_tangle) <= SUM_TOL)
        report = self._report(out["form"], tally, "form")
        if report:
            # form(a, flip(a)) = <flip(a)|flip(a)> = 1
            tally.record("form", abs(complex(*report["values"]["value"]) - 1.0) <= SUM_TOL)
        report = self._report(out["maxent_generate"], tally, "maxent_generate")
        if report:
            amp = self._state_file_ok("m.json")
            ok = amp is not None and report["verdicts"]["tangle_unit"]
            ok = ok and abs(np.linalg.norm(amp) - 1.0) <= SUM_TOL and abs(ref.tangle(amp) - 1.0) <= SUM_TOL
            ok = ok and max_abs(ref.flip(amp), np.exp(-2j * self.theta) * amp) <= SUM_TOL
            tally.record("maxent_generate", ok)
        report = self._report(out["basis_magic"], tally, "basis_magic")
        if report:
            basis, copy = self._read_back("basis", "b.json")
            raw = self._decode(json.loads((self.dir / "b.json").read_text())["vectors"]).T
            again = self._decode(json.loads(copy.read_text())["vectors"]).T
            ok = np.array_equal(basis.matrix(), raw) and np.array_equal(again, raw)
            ok = ok and report["verdicts"]["biorthonormal"] and raw.shape == (1 << self.basis_n,) * 2
            ok = ok and max_abs(raw.conj().T @ raw, np.eye(raw.shape[0])) <= SUM_TOL
            tally.record("basis_magic", ok and max_abs(ref.flip(raw), raw) <= EXACT)
        report = self._report(out["basis_check"], tally, "basis_check")
        if report:
            residuals = report["residuals"]
            ok = report["verdicts"]["biorthonormal"] and max(residuals.values()) <= SUM_TOL
            tally.record("basis_check", ok)
        report = self._report(out["op_classify"], tally, "op_classify")
        if report:
            local, copy = self._read_back("operator", "op.json")
            ok = all(np.array_equal(a, b) for a, b in zip(local.ops, self.local.ops))
            ok = ok and copy.read_bytes() == (self.dir / "op.json").read_bytes()
            ok = ok and report["verdicts"]["form_preserving"] and report["values"]["slocc"] == "NotObstructed"
            tally.record("op_classify", ok and all(abs(complex(*d) - 1.0) <= SUM_TOL for d in report["values"]["dets"]))
        # the next job must write its own files; a stale one would pass the checks above
        for path in self.dir.glob("*.json"):
            if path.name not in ("a.json", "op.json"):
                path.unlink()

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (LargeState, Coefficients, Operators, Cli)}


def start_probe(tracer) -> None:
    """cli.start: a fresh interpreter importing spinforms."""
    with tracer.span("cli.start"):
        subprocess.run([sys.executable, "-c", "import spinforms"], check=True)


FILE_LAYERS = tuple(f"files.{op}_{kind}" for kind in ("state", "basis", "operator") for op in ("read", "write"))


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in BENCHMARK.json order."""
    names = []
    for layer in LargeState.layers:
        names += [f"{layer}.ms", f"{layer}.calls", f"{layer}.x_vdot"]
    names.append("floor.vdot.ms")
    for layer in Coefficients.layers + Operators.layers:
        names += [f"{layer}.ms", f"{layer}.calls"]
    names.append("cli.start.ms")
    names += [f"cli.{c}.ms" for c in Cli.commands]
    for layer in FILE_LAYERS:
        names += [f"{layer}.ms", f"{layer}.mib"]
    names += ["trace.overhead_ms", "trace.overhead_pct"]
    return names
