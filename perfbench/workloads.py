"""The four workloads: seeded inputs, one round of operations, output checks.

A round is a fixed list of operations; each CLI invocation and each library
call is one operation. Every check compares against :mod:`reference`, never
against stored program output.
"""
from __future__ import annotations

import json
import math
import pathlib
import random
import shutil
import sys
import time
from dataclasses import dataclass

import numpy as np

import reference

DATA = pathlib.Path(__file__).resolve().parent / "data"


@dataclass(frozen=True)
class Model:
    """Plain model parameters; ``p_trigger[m][n]`` is node m+1 triggering n+1."""

    p_fail: list[float]
    p_recover: list[float]
    p_trigger: list[list[float]]

    @property
    def params(self):
        return self.p_fail, self.p_recover, self.p_trigger

    def write(self, path: pathlib.Path) -> str:
        """Write the model file format (nodes named "1".."k") and return the path."""
        k = len(self.p_fail)
        doc = {
            "nodes": [{"name": str(n + 1), "p_fail": self.p_fail[n], "p_recover": self.p_recover[n]}
                      for n in range(k)],
            "triggers": [{"from": str(m + 1), "to": str(n + 1), "p": self.p_trigger[m][n]}
                         for m in range(k) for n in range(k) if self.p_trigger[m][n] != 0.0],
        }
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return str(path)


def random_model(rng: random.Random, k: int, edge_density: float) -> Model:
    """p_fail in [0.05, 0.3), p_recover in [0.2, 0.8), each edge present with
    ``edge_density`` and strength in [0.05, 0.5)."""
    p_fail = [rng.uniform(0.05, 0.3) for _ in range(k)]
    p_recover = [rng.uniform(0.2, 0.8) for _ in range(k)]
    p_trigger = [[rng.uniform(0.05, 0.5) if m != n and rng.random() < edge_density else 0.0
                  for n in range(k)] for m in range(k)]
    return Model(p_fail, p_recover, p_trigger)


PAPER_TWO_NODE = Model([0.2, 0.7], [0.3, 0.8], [[0.0, 0.2], [0.8, 0.0]])
PAPER_ONE_NODE = Model([0.3], [0.1], [[0.0]])


class Ledger:
    """Counts operations; an operation fails on an exception, a non-zero exit
    code or a failed output check, and its reason is printed."""

    def __init__(self, tracer, between=None):
        self.tracer = tracer
        self.between = between  # called after each operation, outside its timing
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failed output checks, a subset of failed

    def op(self, label: str, fn, check=None):
        """Run ``fn()`` timed (and traced); ``check(result)`` returns problems."""
        self.attempted += 1
        problems = None
        self.tracer.recording = self.tracer.enabled
        started = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # an operation that raises is counted, not fatal
            result, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        finally:
            elapsed = time.perf_counter() - started
            self.tracer.recording = False
        if problems is None and check is not None:
            try:
                problems = check(result)
            except Exception as exc:  # malformed output is a failed check
                problems = [f"output check raised {type(exc).__name__}: {exc}"]
            self.wrong += bool(problems)
        if problems:
            self.failed += 1
            print(f"FAILED {label}: " + "; ".join(problems[:5]), file=sys.stderr)
        if self.between is not None:
            self.between()
        return result, elapsed

    def cli(self, pkg, label: str, argv: list[str], check):
        """One ``cascadeq`` verb; ``check(results)`` reads the report's results block."""
        out = argv[argv.index("--out") + 1]

        def call():
            code = pkg.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"exit code {code}")

        def check_report(_):
            with open(out, encoding="utf-8") as handle:
                return check(json.load(handle)["results"])

        return self.op(label, call, check_report)[1]


def _distribution(probabilities: dict[str, float], size: int) -> np.ndarray:
    vec = np.zeros(size)
    for config, p in probabilities.items():
        vec[int(config, 2)] = p
    return vec


class Workload:
    """Inputs are generated from the seed in ``__init__`` (timed as set-up)."""

    name = ""

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.seed = seed
        self.dir = workdir

    def prepare(self) -> None:
        """Compute the reference values (untimed)."""

    def round(self, ledger: Ledger, pkg) -> dict[str, list[float]]:
        """Run one round; return its stage_a/stage_b samples in seconds.

        A sample is the total time of one pass over a stage's operations.
        """
        raise NotImplementedError


class ClassicalK10(Workload):
    name = "classical-k10"
    steps, runs = 5, 1_000_000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.model = random_model(random.Random(seed), 10, edge_density=0.5)
        self.path = self.model.write(workdir / "k10.json")

    def prepare(self):
        self.ref = reference.distributions(*self.model.params, self.steps)

    def check_exact(self, results):
        problems = []
        steps = results["distributions"]
        if [entry["step"] for entry in steps] != list(range(self.steps + 1)):
            return ["steps 0..T not all reported"]
        for entry in steps:
            got = _distribution(entry["probabilities"], self.ref.shape[1])
            diff = float(np.max(np.abs(got - self.ref[entry["step"]])))
            if diff > 1e-12:
                problems.append(f"step {entry['step']} differs from reference by {diff:.3g}")
            if abs(got.sum() - 1.0) > 1e-12:
                problems.append(f"step {entry['step']} sums to {got.sum()!r}")
        return problems

    def check_mc(self, results):
        counts = np.zeros(self.ref.shape[1])
        for config, n in results["repeats"][0]["counts"].items():
            counts[int(config, 2)] = n
        if counts.sum() != self.runs:
            return [f"counts sum to {counts.sum()}, not {self.runs}"]
        p = self.ref[self.steps]
        slack = 5.0 * np.sqrt(self.runs * p * (1.0 - p)) + 1.0
        outside = np.flatnonzero(np.abs(counts - self.runs * p) > slack)
        return [f"{len(outside)} configurations outside 5 sigma + 1 of exact"] if len(outside) else []

    def round(self, ledger, pkg):
        common = ["--model", self.path, "--steps", str(self.steps)]
        exact_s = ledger.cli(pkg, "exact", ["exact", *common, "--out", str(self.dir / "exact.json")],
                             self.check_exact)
        mc_s = ledger.cli(pkg, "mc", ["mc", *common, "--runs", str(self.runs), "--seed", str(self.seed),
                                      "--out", str(self.dir / "mc.json")], self.check_mc)
        return {"stage_a_s": [exact_s], "stage_b_s": [mc_s]}


class Statevector20q(Workload):
    name = "statevector-20q"
    steps = 5

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.model = random_model(rng, 4, edge_density=1.0)
        self.config = rng.randrange(16)  # with these ranges every configuration has mass > 1e-3
        self.path = self.model.write(workdir / "k4.json")

    def prepare(self):
        self.ref = reference.distributions(*self.model.params, self.steps)
        marked = {n: (self.config >> (n - 1)) & 1 for n in range(1, 5)}
        self.ref_marked = reference.marked_probability(self.ref[self.steps], marked)

    def check_eigenphase(self, results):
        eig = results["eigenphase"]
        problems = []
        if abs(eig["probability"] - self.ref_marked) > 1e-9:
            problems.append(f"probability {eig['probability']!r} vs reference {self.ref_marked!r}")
        if not eig["residual"] < 1e-8:
            problems.append(f"residual {eig['residual']!r}")
        return problems

    def marginals_pass(self, ledger, pkg) -> float:
        """Load, build, run and read every register: one statevector stage sample."""
        text = pathlib.Path(self.path).read_text(encoding="utf-8")
        model, load_s = ledger.op("load_model", lambda: pkg.load_model(text))
        circuit, build_s = ledger.op("build_model_circuit",
                                     lambda: pkg.build_model_circuit(model, self.steps),
                                     lambda c: [] if c.n_qubits == 20 else [f"{c.n_qubits} qubits"])
        state, run_s = ledger.op("run", lambda: pkg.run(circuit))
        total = load_s + build_s + run_s
        for step in range(1, self.steps + 1):
            ref = self.ref[step]

            def check(got, ref=ref, step=step):
                diff = float(np.max(np.abs(got - ref)))
                return [f"step {step} marginal off by {diff:.3g}"] if diff > 1e-9 else []

            total += ledger.op(f"probabilities step {step}",
                               lambda: pkg.probabilities(state, circuit.register(step)), check)[1]
        return total

    def round(self, ledger, pkg):
        stage_a = [self.marginals_pass(ledger, pkg) for _ in range(4)]
        config = format(self.config, "04b")
        eig_s = ledger.cli(pkg, "qae --eigenphase",
                           ["qae", "--model", self.path, "--steps", str(self.steps), "--config", config,
                            "--eigenphase", "--out", str(self.dir / "eig.json")], self.check_eigenphase)
        return {"stage_a_s": stage_a, "stage_b_s": [eig_s]}


class QaePaper(Workload):
    name = "qae-paper"
    steps, bits, shots, config = 3, range(3, 10), 4096, "11"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.path = PAPER_TWO_NODE.write(workdir / "two_node.json")
        self.checked_listings: dict[int, list[str]] = {}

    def prepare(self):
        dist = reference.distributions(*PAPER_TWO_NODE.params, self.steps)[self.steps]
        self.ref_p = reference.marked_probability(dist, {1: 1, 2: 1})
        self.theta = 2.0 * math.asin(math.sqrt(self.ref_p))

    def check_sweep(self, results):
        sweep = results["sweep"]
        if [entry["bits"] for entry in sweep] != list(self.bits):
            return ["bits settings missing"]
        problems = []
        for entry in sweep:
            bits = entry["bits"]
            size = 1 << bits
            counts = np.zeros(size)
            for y, n in entry["outcome_counts"].items():
                counts[int(y)] = n
            q = reference.qpe_distribution(self.theta, bits)
            bound = np.array([reference.count_bound(self.shots, qy) for qy in q])
            if counts.sum() != self.shots or np.any(np.abs(counts - self.shots * q) > bound):
                problems.append(f"{bits} bits: histogram outside the shot bound")
            folded = min(entry["modal_outcome"], size - entry["modal_outcome"])
            here = reference.decode_probability(folded, bits)
            step = max(abs(reference.decode_probability(f, bits) - here)
                       for f in (folded - 1, folded + 1) if 0 <= f <= size // 2)
            if abs(entry["probability"] - self.ref_p) > step:
                problems.append(f"{bits} bits: modal estimate {entry['probability']:.4f} more than "
                                f"one grid step from {self.ref_p:.4f}")
        return problems

    def check_listing(self, results):
        import cascadeq

        text = results["gates"]
        key = hash(text)
        if key not in self.checked_listings:  # same listing, same verdict
            circuit = cascadeq.parse_gates(text)
            ancillas = list(range(2 * self.steps, 2 * self.steps + max(self.bits)))
            got = cascadeq.probabilities(cascadeq.run(circuit), ancillas)
            diff = float(np.max(np.abs(got - reference.qpe_distribution(self.theta, max(self.bits)))))
            self.checked_listings[key] = (
                [f"listing simulates {diff:.3g} away from closed form"] if diff > 1e-4 else [])
        return self.checked_listings[key]

    def round(self, ledger, pkg):
        common = ["--model", self.path, "--steps", str(self.steps), "--config", self.config]
        sweep_s = ledger.cli(pkg, "qae sweep",
                             ["qae", *common, "--bits", f"{self.bits[0]}..{self.bits[-1]}",
                              "--shots", str(self.shots), "--seed", str(self.seed),
                              "--out", str(self.dir / "qae.json")], self.check_sweep)
        circuit_s = [ledger.cli(pkg, "circuit",
                                ["circuit", *common, "--kind", "qae", "--bits", str(max(self.bits)),
                                 "--out", str(self.dir / "circuit.json")], self.check_listing)
                     for _ in range(10)]
        return {"stage_a_s": [sweep_s], "stage_b_s": circuit_s}


class LowdepthFit(Workload):
    name = "lowdepth-fit"
    steps, lowdepth_seeds = 3, (0, 1)
    traces = [(kind, t) for kind in ("noisy", "device") for t in (1, 2, 3, 4)]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.path = PAPER_ONE_NODE.write(workdir / "one_node.json")
        for kind, t in self.traces:
            name = f"trace_1node_{kind}_t{t}.csv"
            shutil.copyfile(DATA / name, workdir / name)

    def prepare(self):
        self.exact = reference.distributions(*PAPER_ONE_NODE.params, 4)[:, 1]

    def check_fit(self, kind, t):
        published = (reference.PUBLISHED_NOISY if kind == "noisy" else reference.PUBLISHED_DEVICE)[t]

        def check(results):
            noise = results["noise_fit"]["probability"]
            sine = results["sine_fit"]["probability"]
            problems = []
            if abs(noise - published) > reference.PUBLISHED_TOLERANCE:
                problems.append(f"noise fit {noise:.4f} vs published {published}")
            if kind == "device" and t >= 3 and not abs(noise - self.exact[t]) < abs(sine - self.exact[t]):
                problems.append(f"noise fit {noise:.4f} not closer to {self.exact[t]:.4f} "
                                f"than sine fit {sine:.4f}")
            return problems

        return check

    def check_lowdepth(self, results):
        exact = self.exact[self.steps]
        problems = []
        if abs(results["exact_probability"] - exact) > 1e-12:
            problems.append(f"exact_probability {results['exact_probability']!r} vs {exact!r}")
        if abs(results["noise_fit"]["probability"] - exact) > 0.05:
            problems.append(f"noise fit {results['noise_fit']['probability']:.4f} vs {exact:.4f}")
        return problems

    def round(self, ledger, pkg):
        fit_s = [ledger.cli(pkg, f"fit {kind} t{t}",
                            ["fit", "--trace", str(self.dir / f"trace_1node_{kind}_t{t}.csv"),
                             "--out", str(self.dir / "fit.json")], self.check_fit(kind, t))
                 for kind, t in self.traces]
        lowdepth_s = [ledger.cli(pkg, f"lowdepth seed {seed}",
                                 ["lowdepth", "--model", self.path, "--steps", str(self.steps),
                                  "--config", "1", "--schedule", "0..8", "--shots", "2000",
                                  "--noise-a", "0.977", "--seed", str(seed),
                                  "--out", str(self.dir / "lowdepth.json")], self.check_lowdepth)
                      for seed in self.lowdepth_seeds]
        # the traces differ in cost, so a sample is the whole pass, not one call
        return {"stage_a_s": [sum(fit_s)], "stage_b_s": [sum(lowdepth_s)]}


WORKLOADS = {w.name: w for w in (ClassicalK10, Statevector20q, QaePaper, LowdepthFit)}

