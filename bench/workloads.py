"""The benchmark's four workloads.

Each workload is a closed loop with one caller: the next operation starts
only after the previous one returned and was checked.  Operations are drawn
from a fixed cycle, so a run of any length keeps the same mix, and every
input is derived from the workload seed.  ``build_inputs`` is the set-up a
user pays before the first operation (it runs in a fresh interpreter when
``setup_s`` is measured); ``prepare`` adds the benchmark's own reference
values, which are not part of set-up.

Only API that the planned library changes keep is touched: suite reports,
the first element of the optimized ``(value, outcome)`` pairs, the CLI's
``value``/``passed``/``divergence``/``rhs`` lines and its exit code.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import oracles

ALPHAS = (1.5, 2.0, 3.0)


@dataclass
class Outcome:
    # Class in the workload's fixed mix (suite, split or cycle position); each
    # class is an equal share of the cycle, and throughput weighs them so.
    mix_class: object
    latency: float
    trials: int
    ok: bool
    ref_err: float = 0.0
    rss_kb: int = 0
    # Machine-speed correction set by the timed loop: reference s per measured s.
    scale: float = 1.0

    @property
    def cost(self) -> float:
        """Latency at the reference machine speed."""
        return self.latency * self.scale


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def _ginibre_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Induced Ginibre density matrix (dim x 2 dim), full rank with margin."""
    g = rng.standard_normal((dim, 2 * dim)) + 1j * rng.standard_normal((dim, 2 * dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _pd_matrix(rng: np.random.Generator, dim: int, cap: float = 100.0) -> np.ndarray:
    """Positive definite matrix with eigenvalue ratio at most ``cap``."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    w = rng.uniform(1.0 / math.sqrt(cap), math.sqrt(cap), dim)
    m = (q * w) @ q.conj().T
    return (m + m.conj().T) / 2.0


def _matrix_json(m: np.ndarray, dims=None) -> str:
    """The documented matrix file format, written without the library."""
    obj: dict = {"dim": int(m.shape[0])}
    if dims is not None:
        obj["dims"] = list(dims)
    obj["matrix"] = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    return json.dumps(obj)


def _matrix_from_json(text: str) -> np.ndarray:
    obj = json.loads(text)
    return np.array([[complex(re, im) for re, im in row] for row in obj["matrix"]])


# call_tail_ms is the latency at a fixed percentile per workload: the highest
# percentile that leaves at least ten calls beyond it in a 25 s run at the
# baseline, which completes about 1,050-1,900 calls for suites_classical,
# 47-80 for suites_matrix and 18-30 for optimizer and cli.  For the last two
# that is the median: their tail is not resolved at the baseline.  The
# percentile stays fixed so that a faster program, which completes more
# calls, is compared at the same percentile.


class SuiteWorkload:
    """``harness.run_suite`` over a fixed suite mix, one suite per call.

    Each call runs ``trials`` trials of one suite with its own seed.  Trial
    counts are multiples of the suites' own dimension/order cycles and are
    chosen so that every call costs about the same at the baseline, which
    keeps the latency distribution single-moded.
    """

    entry_module = "renyi"

    def __init__(self, mix: tuple[tuple[str, int], ...], tail_pct: float, seed: int):
        self.mix = mix
        self.TAIL_PCT = tail_pct
        self.seed = seed

    def build_inputs(self) -> None:
        import renyi.harness

        self.harness = renyi.harness
        self.schedule = [
            (suite, trials, self.seed * 1_000_003 + k) for k, (suite, trials) in enumerate(self.mix)
        ]

    def prepare(self) -> None:
        self.build_inputs()

    def op(self, i: int):
        suite, trials, seed = self.schedule[i % len(self.schedule)]
        return suite, trials, seed + 7919 * (i // len(self.schedule))

    def run(self, op) -> Outcome:
        suite, trials, seed = op
        start = time.perf_counter()
        try:
            rep = self.harness.run_suite(suite, trials, seed)
        except Exception:  # a raising operation is a failed one; keep measuring
            traceback.print_exc()
            return Outcome(suite, time.perf_counter() - start, trials, False)
        latency = time.perf_counter() - start
        ok = (
            rep.trials == trials
            and not rep.failures
            and rep.injected_equality > 0
            and rep.equality_flagged == rep.injected_equality
        )
        return Outcome(suite, latency, trials, ok)


class OptimizerWorkload:
    """Direct ``mutual_information`` / ``conditional_entropy`` library calls.

    The cycle visits every (alpha, quantity) pair with splits 2x2, 3x2, 2x3 in
    that order, so d_B = 2 and d_B = 3 calls stay at 2 : 1 in any prefix.
    Each such triple takes the next state of a seeded pool of ``POOL`` per
    split, so the calls of one run see many states, not one state per split.
    """

    entry_module = "renyi"
    TAIL_PCT = 50
    SPLITS = ((2, 2), (3, 2), (2, 3))
    POOL = 16

    def __init__(self, seed: int):
        self.seed = seed
        self.cycle = [
            (alpha, mode, split)
            for alpha in ALPHAS
            for mode in ("mutual", "conditional")
            for split in self.SPLITS
        ]

    def build_inputs(self) -> None:
        import renyi

        self.renyi = renyi
        self.states = {
            split: [
                renyi.DensityMatrix(
                    _ginibre_state(_rng(self.seed, s, k), split[0] * split[1]), dims=split
                )
                for k in range(self.POOL)
            ]
            for s, split in enumerate(self.SPLITS)
        }

    def prepare(self) -> None:
        self.build_inputs()
        self.refs = {
            (split, k, alpha, mode): oracles.sibson_value(
                np.array(self.states[split][k].matrix), split, alpha, mode
            )
            for split in self.SPLITS
            for k in range(self.POOL)
            for alpha in ALPHAS
            for mode in ("mutual", "conditional")
        }

    def op(self, i: int):
        alpha, mode, split = self.cycle[i % len(self.cycle)]
        return alpha, mode, split, (i // len(self.SPLITS)) % self.POOL


    def run(self, op) -> Outcome:
        alpha, mode, split, k = op
        rho = self.states[split][k]
        dv = self.renyi.divergence
        fn = dv.mutual_information if mode == "mutual" else dv.conditional_entropy
        start = time.perf_counter()
        try:
            value = fn(rho, alpha)[0]
        except Exception:  # a raising operation is a failed one; keep measuring
            traceback.print_exc()
            return Outcome(split, time.perf_counter() - start, 1, False)
        latency = time.perf_counter() - start
        ref = self.refs[(split, k, alpha, mode)]
        err = abs(value - ref)
        return Outcome(split, latency, 1, oracles.agrees(value, ref, oracles.OPT_TOL), err)


class CliWorkload:
    """``python -m renyi.cli`` subprocesses, as a user runs them.

    Reads: ``entropy quantum``, ``divergence``, ``bounds t4`` and
    ``bounds lemma3`` at n = 32 and 64, and ``mutual-info`` at 2x2.  Writes:
    ``gen density`` and ``gen pd`` at n = 32 and 64.  The cycle runs the
    small commands (n = 32 and mutual-info) twice around one pass of the
    n = 64 ones, so small calls are 14 of every 20.  In a run of 18-30
    calls the median then sits inside the small-call cluster, not on the gap
    between small and n = 64 calls.  Orders cycle through ``ALPHAS`` call by
    call.  Inputs are written at set-up into the run's work directory.
    """

    entry_module = "renyi.cli"
    TAIL_PCT = 50
    # The only output lines the checks read.
    READ_LINES = ("value", "passed", "divergence", "rhs")
    SMALL = [(kind, 32) for kind in ("entropy", "gen_density", "divergence", "gen_pd", "t4", "lemma3")]
    CYCLE = SMALL + [("mutual", 4)] + [(kind, 64) for kind, _ in SMALL] + SMALL + [("mutual", 4)]

    def __init__(self, seed: int, workdir: str, src: str):
        self.seed = seed
        self.dir = workdir
        self.child_prefix = [sys.executable, "-m", "renyi.cli"]
        self.env = dict(os.environ, PYTHONPATH=src)

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def build_inputs(self) -> None:
        self.inputs = {}
        for n in (32, 64):
            rho = _ginibre_state(_rng(self.seed, n, 0), n)
            sigma = _pd_matrix(_rng(self.seed, n, 1), n)
            self.inputs[f"rho{n}"] = rho
            self.inputs[f"sigma{n}"] = sigma
        self.inputs["mi"] = _ginibre_state(_rng(self.seed, 4, 2), 4)
        for key, m in self.inputs.items():
            dims = (2, 2) if key == "mi" else None
            with open(self._path(f"{key}.json"), "w", encoding="utf-8") as fh:
                fh.write(_matrix_json(m, dims))

    def prepare(self) -> None:
        self.build_inputs()
        self.refs = {}
        for alpha in ALPHAS:
            for n in (32, 64):
                rho, sigma = self.inputs[f"rho{n}"], self.inputs[f"sigma{n}"]
                self.refs[("entropy", n, alpha)] = oracles.renyi_entropy(rho, alpha)
                self.refs[("divergence", n, alpha)] = oracles.renyi_divergence(rho, sigma, alpha)
                self.refs[("lemma3", n, alpha)] = float(np.trace(rho @ sigma).real)
            self.refs[("mutual", 4, alpha)] = oracles.sibson_value(
                self.inputs["mi"], (2, 2), alpha, "mutual"
            )

    def op(self, i: int):
        kind, n = self.CYCLE[i % len(self.CYCLE)]
        return kind, n, ALPHAS[i % len(ALPHAS)], self.seed * 1_000_003 + i, i % len(self.CYCLE)


    def argv(self, op) -> list[str]:
        kind, n, alpha, seed, _ = op
        a = ["--alpha", repr(alpha)]
        rho, sigma = self._path(f"rho{n}.json"), self._path(f"sigma{n}.json")
        if kind == "entropy":
            return ["entropy", "quantum", "--state", rho] + a
        if kind == "divergence":
            return ["divergence", "--state", rho, "--sigma", sigma] + a
        if kind == "t4":
            return ["bounds", "t4", "--state", rho, "--sigma", sigma] + a
        if kind == "lemma3":
            return ["bounds", "lemma3", "--a", rho, "--b", sigma]
        if kind == "mutual":
            return ["mutual-info", "--state", self._path("mi.json")] + a
        which = "density" if kind == "gen_density" else "pd"
        out = self._path("gen.json")
        return ["gen", which, "--dim", str(n), "--seed", str(seed), "--out", out]

    def run(self, op) -> Outcome:
        out_path, err_path = self._path("stdout"), self._path("stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                self.child_prefix + self.argv(op), stdout=out, stderr=err, env=self.env
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            latency = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8") as fh:
            pairs = (line.split(" ", 1) for line in fh.read().splitlines())
            lines = {p[0]: p[1] for p in pairs if p[0] in self.READ_LINES and len(p) == 2}
        try:
            ok, err = self._check(op, proc.returncode, lines)
        except (KeyError, ValueError, OSError):  # missing or malformed output
            traceback.print_exc()
            ok, err = False, 0.0
        return Outcome(op[4], latency, 1, ok, err, usage.ru_maxrss)

    def _check(self, op, code: int, lines: dict) -> tuple[bool, float]:
        kind, n, alpha, _, _ = op
        if code != 0:
            return False, 0.0
        if kind.startswith("gen"):
            return self._check_gen(kind, n), 0.0
        if kind == "lemma3":
            return lines.get("passed") == "True" and oracles.agrees(
                float(lines["rhs"]), self.refs[("lemma3", n, alpha)], oracles.SPECTRAL_TOL
            ), 0.0
        if kind == "t4":
            return lines.get("passed") == "True" and oracles.agrees(
                float(lines["divergence"]), self.refs[("divergence", n, alpha)], oracles.SPECTRAL_TOL
            ), 0.0
        value = float(lines["value"])
        ref = self.refs[(kind, n, alpha)]
        tol = oracles.OPT_TOL if kind == "mutual" else oracles.SPECTRAL_TOL
        return oracles.agrees(value, ref, tol), abs(value - ref) if kind == "mutual" else 0.0

    def _check_gen(self, kind: str, n: int) -> bool:
        path = self._path("gen.json")
        with open(path, encoding="utf-8") as fh:
            m = _matrix_from_json(fh.read())
        os.remove(path)
        if m.shape != (n, n) or np.max(np.abs(m - m.conj().T)) > 1e-10:
            return False
        w = np.linalg.eigvalsh(m)
        if kind == "gen_density":
            return abs(np.trace(m).real - 1.0) <= 1e-10 and w[0] >= -1e-10
        return w[0] > 0.0 and w[-1] / w[0] <= 100.0 * (1.0 + 1e-9)


# Trial counts per call: multiples of each suite's dimension cycle (8) and,
# where the suite also cycles orders or condition caps, of those cycle lengths
# too; sized so one call takes roughly 0.5 s (matrix) or 15 ms (classical) at
# the baseline with one BLAS thread.
MATRIX_MIX = (
    ("lemma2", 144),
    ("lemma3", 144),
    ("lemma4", 96),
    ("t3", 168),
    ("t3_2", 168),
    ("t4", 48),
    ("triangle", 48),
    ("diag_oracle", 882),
)
CLASSICAL_MIX = (
    ("t1", 112),
    ("t2_2", 120),
    ("info_fn_eq", 448),
    ("eq4_roundtrip", 224),
)

NAMES = ("suites_matrix", "suites_classical", "optimizer", "cli")


def make(name: str, seed: int, workdir: str, src: str):
    if name == "suites_matrix":
        return SuiteWorkload(MATRIX_MIX, 75, seed)
    if name == "suites_classical":
        return SuiteWorkload(CLASSICAL_MIX, 99, seed)
    if name == "optimizer":
        return OptimizerWorkload(seed)
    if name == "cli":
        return CliWorkload(seed, workdir, src)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
