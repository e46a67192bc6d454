"""The timed operations of one untraced run, and the checks of their outputs.

A run is a fixed number of rounds, and every round does a share of each
operation in turn: fuzz at workers 1 and 2 (field modes take turns from
round to round), compare over all of the workload's ensembles, a batch of
extremal witnesses, a slice of the eval passes over the corpus, the
rescaled copies, and a share of the cold-start evals and fresh-interpreter
set-ups.  The speed of a small shared machine drifts by up to a third for
seconds at a time, so interleaving spreads every operation's samples over
the whole run, and their medians repeat where those of back-to-back phases
did not.  For the same reason a file's eval latency is the median of evals
made far apart in the run.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads as W
from besselkit import (
    bessel_sum,
    boas_bellman,
    bombieri,
    sample_disk_family,
    sample_family,
    sample_orthonormal_family,
    theorem21,
    theorem22,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 8
COLD_SAMPLES = 16
EVAL_REPEATS = 3  # evals of every corpus file per run; its latency is their median


def _share(count: int, rounds: int, rnd: int) -> tuple[int, int]:
    """The slice of ``count`` items that round ``rnd`` of ``rounds`` handles."""
    return rnd * count // rounds, (rnd + 1) * count // rounds


def peak_rss_mb(which) -> float:
    return resource.getrusage(which).ru_maxrss / 1024.0  # Linux reports KiB


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) / 100)
    return ordered[min(len(ordered), max(1, rank)) - 1]


class Run:
    """One benchmark run: its inputs, counts, samples and the problems found."""

    def __init__(self, wl: W.Workload, seed: int, seconds: int, tracer, root: str, out_dir: str) -> None:
        self.wl, self.seed, self.tracer, self.root = wl, seed, tracer, root
        self.rounds = W.rounds(seconds)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.eval_ms: dict[int, list[float]] = {}  # per corpus file
        self.workdir = os.path.join(out_dir, f"{wl.name}-{seed}-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def out(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def prepare(self) -> None:
        """Write the inputs, then warm up; none of this is timed."""
        self.corpus = W.write_corpus(self.wl, self.seed, self.workdir)
        self.cold_file = W.write_cold_file(self.seed, self.workdir)
        self.pairs = W.write_rescaled(self.workdir) if self.wl.rescaled else []
        self.base_reports = {}
        for base in sorted({base for base, _ in self.pairs}):
            if W.run_eval(base, self.out("rescale-base.json")) != 0:
                self.problems.append(f"eval {os.path.basename(base)} did not exit 0")
            self.base_reports[base] = W.read_reports(self.out("rescale-base.json"))
        W.warm_up(self.wl, self.cold_file, self.out("warm.json"))
        self.cold_reference = self.out("cold-inproc.json")
        if W.run_eval(self.cold_file, self.cold_reference) != 0:
            self.problems.append("in-process eval of the cold file did not exit 0")

    def fuzz_round(self, rnd: int) -> None:
        cfg = self.wl.fuzz_config(self.seed, rnd)
        s1, dt1 = self.tracer.call("e2e.fuzz_w1", W.fuzz, cfg, 1)
        s2, dt2 = self.tracer.call("e2e.fuzz_w2", W.fuzz, cfg, 2)
        self.attempted += 2 * cfg.instances
        self.sample(f"fuzz_w1/{cfg.field_mode}", cfg.instances / dt1)
        self.sample(f"fuzz_w2/{cfg.field_mode}", cfg.instances / dt2)
        if json.dumps(s1.as_dict(), sort_keys=True) != json.dumps(s2.as_dict(), sort_keys=True):
            self.problems.append(f"fuzz seed {cfg.master_seed}: summaries differ at workers 1 and 2")
        if s1.violations:
            self.problems.append(f"fuzz seed {cfg.master_seed}: violations {s1.violations[:3]}")

    def compare_round(self, rnd: int) -> None:
        total, count = 0.0, 0
        for cfg, ensemble in self.wl.compare_configs(self.seed, rnd):
            rows, dt = self.tracer.call("e2e.compare", W.tightness_compare, cfg, ensemble, 1)
            total, count = total + dt, count + cfg.instances
            self.attempted += cfg.instances
            self.problems.extend(W.compare_problems(rows, cfg, ensemble))
        self.sample("compare", count / total)

    def extremal_round(self, rnd: int) -> None:
        inputs = W.witness_inputs(self.wl, self.seed, rnd)
        total = 0.0
        for target, x, n, disk in inputs:
            (fam, report, _), dt = self.tracer.call("e2e.witness", W.run_witness, target, x, n, disk)
            total += dt
            self.problems.extend(W.witness_problems(target, x, n, disk, fam, report))
        self.attempted += len(inputs)
        self.sample("extremal", len(inputs) / total)

    def eval_round(self, rnd: int) -> None:
        """This round's share of the ``EVAL_REPEATS`` passes over the corpus.

        The passes are laid end to end over the rounds, so the repeats of
        one file fall far apart in time.
        """
        files = len(self.corpus)
        for slot in range(*_share(EVAL_REPEATS * files, self.rounds, rnd)):
            k = slot % files
            out = self.out(f"out-{k:03d}.json")
            code, dt = self.tracer.call("e2e.eval", W.run_eval, self.corpus[k], out)
            self.eval_ms.setdefault(k, []).append(dt * 1e3)
            self.attempted += 1
            if code != 0:
                self.problems.append(f"eval {os.path.basename(self.corpus[k])} exited {code}")
            elif slot < files:
                for bad in W.report_problems(W.read_reports(out)):
                    self.problems.append(f"eval {os.path.basename(self.corpus[k])}: {bad}")

    def rescaled_round(self, rnd: int) -> None:
        """A rescaled copy must give its original's ratios; one that does not is a failed operation."""
        for k, (base, copy) in enumerate(self.pairs):
            self.attempted += 1
            out = self.out(f"rescale-{k}.json")
            try:
                code = W.run_eval(copy, out)
                same = code == 0 and W.same_ratios(self.base_reports[base], W.read_reports(out))
                why = f"exit {code}, ratios {'kept' if same else 'changed'}"
            except ArithmeticError as exc:
                same, why = False, f"{type(exc).__name__}: {exc}"
            if not same:
                self.failed += 1
                if rnd == 0:
                    print(f"failed: rescaled copy {os.path.basename(copy)}: {why}", file=sys.stderr)

    def cold_round(self, rnd: int) -> None:
        cmd = [sys.executable, "-m", "besselkit.cli", "eval", "--input", self.cold_file, "--output"]
        for k in range(*_share(COLD_SAMPLES, self.rounds, rnd)):
            out = self.out(f"cold-{k}.json")
            start = time.perf_counter()
            proc = subprocess.run(cmd + [out], env=self.env, cwd=self.root, capture_output=True)
            self.sample("cold_ms", (time.perf_counter() - start) * 1e3)
            self.attempted += 1
            if proc.returncode != 0:
                self.problems.append(f"cold eval exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
                continue
            with open(out, "rb") as a, open(self.cold_reference, "rb") as b:
                if a.read() != b.read():
                    self.problems.append("cold eval output differs from the in-process output")

    def setup_round(self, rnd: int) -> None:
        """Import plus warm-up in a fresh interpreter, which prints its own seconds."""
        cmd = [sys.executable, os.path.join(HERE, "setup_child.py"), self.wl.name, self.cold_file, self.out("setup.json")]
        for _ in range(*_share(SETUP_SAMPLES, self.rounds, rnd)):
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True, text=True, check=True)
            self.sample("setup_s", float(proc.stdout.split()[-1]))

    def oracle_phase(self) -> None:
        """Compare a seeded sample of the run's instances, witnesses and files with the oracle.

        The oracle (and mpmath with it) is imported only in this phase,
        after ``peak_rss_mb`` is read, so neither this process nor the pool
        workers it forks carry it while the program is measured.
        """
        rng = np.random.default_rng([self.seed, self.wl.index, 9])
        for source, count in self.wl.oracle_samples:
            for _ in range(count):
                rnd = int(rng.integers(self.rounds))
                if source == "fuzz-generic":
                    cfg = self.wl.fuzz_config(self.seed, rnd)
                    self._oracle_family(source, sample_family(cfg, int(rng.integers(cfg.instances))), None)
                elif source == "fuzz-disk":
                    cfg = self.wl.fuzz_config(self.seed, rnd)
                    self._oracle_family(source, *sample_disk_family(cfg, int(rng.integers(cfg.instances))))
                elif source == "compare":
                    configs = self.wl.compare_configs(self.seed, rnd)
                    cfg, ensemble = configs[int(rng.integers(len(configs)))]
                    sampler = {
                        "generic": lambda c, i: (sample_family(c, i), None),
                        "disk": sample_disk_family,
                        "orthonormal": sample_orthonormal_family,
                    }[ensemble]
                    self._oracle_family(f"compare {ensemble}", *sampler(cfg, int(rng.integers(cfg.instances))))
                elif source == "witness":
                    witnesses = W.witness_inputs(self.wl, self.seed, rnd)
                    target, x, n, disk = witnesses[int(rng.integers(len(witnesses)))]
                    fam, _, _ = W.run_witness(target, x, n, disk)
                    ref = self._oracle_family(f"witness {target.value}", fam, disk)
                    key = "theorem21" if target is W.ExtremalTarget.THM21 else "theorem22"
                    lhs = ref["bessel"] ** 0.5 if key == "theorem21" else ref["bessel"]
                    if abs(lhs - ref[key]) > W.TOL * ref[key]:
                        self.problems.append(f"witness {target.value} n={n}: the oracle finds it not tight")
                else:
                    i = int(rng.integers(len(self.corpus)))
                    self._oracle_file(self.corpus[i], self.out(f"out-{i:03d}.json"))

    def _oracle_family(self, what: str, fam, disk) -> dict:
        import oracle

        lib = {"bessel": bessel_sum(fam), "bombieri": bombieri(fam).rhs, "boas_bellman": boas_bellman(fam).rhs}
        if disk is not None:
            for fn in (theorem21, theorem22):
                if fn is theorem22 and disk.re_product <= 0.0:
                    continue
                rep = fn(fam, disk)
                if rep.preconditions_met:
                    lib[rep.bound_id] = rep.rhs
        ref = oracle.reference(fam.x, fam.ys, *((disk.gamma, disk.Gamma) if disk else ()))
        for bad in oracle.mismatches(ref, lib):
            self.problems.append(f"oracle, {what} n={fam.n}: {bad}")
        return ref

    def _oracle_file(self, path: str, out: str) -> None:
        import oracle

        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        pair = lambda v: complex(v[0], v[1])  # noqa: E731
        x = [pair(v) for v in raw["x"]]
        ys = [[pair(v) for v in row] for row in raw["ys"]]
        disk = (pair(raw["gamma"]), pair(raw["Gamma"])) if "gamma" in raw else ()
        ref = oracle.reference(x, ys, *disk)
        lib = {}
        for r in W.read_reports(out):
            if r["preconditions_met"] and r["bound_id"] in ("bombieri", "boas_bellman", "theorem21", "theorem22"):
                lib[r["bound_id"]] = r["rhs"]
                if r["bound_id"] == "bombieri":
                    lib["bessel"] = r["lhs"]
        for bad in oracle.mismatches(ref, lib):
            self.problems.append(f"oracle, eval {os.path.basename(path)}: {bad}")


def end_to_end(run: Run) -> dict:
    run.prepare()
    for rnd in range(run.rounds):
        run.fuzz_round(rnd)
        run.compare_round(rnd)
        run.extremal_round(rnd)
        run.eval_round(rnd)
        run.rescaled_round(rnd)
        run.cold_round(rnd)
        run.setup_round(rnd)
    rss = peak_rss_mb(resource.RUSAGE_SELF) + peak_rss_mb(resource.RUSAGE_CHILDREN)
    run.oracle_phase()
    median = {name: statistics.median(values) for name, values in run.samples.items()}

    def rate(op: str) -> float:
        """Instances per second over equal work of each field mode: the harmonic mean of their medians."""
        kinds = [v for k, v in median.items() if k.startswith(op + "/")]
        return len(kinds) / sum(1.0 / v for v in kinds)

    per_file = [statistics.median(v) for v in run.eval_ms.values()]
    metric = lambda value, unit: {"value": value, "unit": unit}  # noqa: E731
    return {
        "setup_s": metric(median["setup_s"], "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "fuzz_inst_per_s": metric(rate("fuzz_w1"), "1/s"),
        "fuzz_w2_inst_per_s": metric(rate("fuzz_w2"), "1/s"),
        "compare_inst_per_s": metric(median["compare"], "1/s"),
        "extremal_per_s": metric(median["extremal"], "1/s"),
        "eval_p50_ms": metric(statistics.median(per_file), "ms"),
        "eval_p95_ms": metric(percentile(per_file, 95), "ms"),
        "eval_cold_ms": metric(median["cold_ms"], "ms"),
    }
