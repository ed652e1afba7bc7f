"""icpower benchmark: seeded CLI workloads driven through ``icpower.cli.main``.

    python3 bench/run.py --workload plane|pricing|solve-mix --seed N \
        --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.  One
client calls ``main(argv)`` in-process in a closed loop: each operation
starts when the previous one returns.  A run times a fixed number of whole
blocks of operations, set by ``--seconds`` and the workload (see
``block_count``), never by the clock, so a seed always times the same
operations.  Every operation's artifacts are
checked by the benchmark's own oracle between operations, outside the timed
region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time with every public function of the program wrapped (see tracer.py),
then the same operations unwrapped, and reports per-layer figures per
operation plus the tracing overhead.  The last line of standard output is
the result as one JSON object; the line before it describes the run.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import oracle
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
# Failures where the CLI truthfully reports non-convergence (exit 3): they
# count in ``failed`` but do not make the run's output incorrect.
HONEST = ("missed", "no_converge")
# Commands that run best-response dynamics and exit 3 when they do not
# converge: ``pricing`` runs the priced game, the others the unpriced one.
DYNAMICS = ("pricing", "ne", "nbs", "repeated")
GAVE_UP = "best-response dynamics did not converge"  # the CLI's message on exit 3
# Median time of ``probe`` on the reference machine (see baseline.json) in its
# fast state.  Times are reported as measured times scaled by this over the
# probe time around them, i.e. in seconds on a machine running that fast.
PROBE_NOMINAL_S = 4.5e-4
PROBE_SIDE = 4  # probes on each side of an operation that estimate its speed
_PROBE_X = np.linspace(0.0, 1.0, 8192)
SETUP_CODE = ("import icpower, icpower.cli as c; c.load_config(c.default_config_path()); "
              "print(icpower.__file__)")
# A fresh interpreter importing what the program imports from outside itself.
# It is not program code, so no program change can move it; each set-up
# spawn is scaled by the one just before it, which shares its machine state
# (disk cache, process start-up, CPU speed) as the in-process probe does not.
REFERENCE_CODE = "import argparse, csv, dataclasses, itertools, json, pathlib, typing, numpy"
REFERENCE_NOMINAL_S = 0.16  # a typical reference spawn on the machine of baseline.json
# Unscaled operation time of one block on the machine of baseline.json.
BLOCK_NOMINAL_S = {"plane": 12.5, "pricing": 17.0, "solve-mix": 0.111}


def block_count(workload: str, seconds: float, block_ops: int, min_ops: int) -> int:
    """Blocks a run times: those that fill ``seconds`` on the machine of
    baseline.json, and at least ``min_ops`` operations.  The count depends
    on the arguments alone, not on how fast this machine is now, so two runs
    of a seed time the same operations and see the same failures; a run
    that stopped on the clock would take in a rare failure near its end
    only on a fast machine."""
    return max(1, math.ceil(min_ops / block_ops), round(seconds / BLOCK_NOMINAL_S[workload]))


def import_program():
    """Import ``icpower.cli`` from this checkout's ``src``, or exit with an error."""
    if not (SRC / "icpower" / "cli.py").is_file():
        sys.exit(f"bench: no program at {SRC / 'icpower'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import icpower.cli
    if SRC not in Path(icpower.cli.__file__).resolve().parents:
        sys.exit(f"bench: icpower imported from {icpower.cli.__file__}, not {SRC}")
    return icpower.cli


def _probe_once() -> float:
    t0 = time.perf_counter()
    x = 0.0
    for i in range(1, 1200):
        x += (-math.expm1(-i * 1e-3)) ** 20 / i
    rows = [(float(i), x, (i, i)) for i in range(400)]
    x += float(np.sum((-np.expm1(-_PROBE_X)) ** 20)) + len(rows)
    return time.perf_counter() - t0


def probe() -> float:
    """Time a fixed mix of interpreter, allocation and numpy work: the
    machine's speed now.  The faster of two runs drops the cold start that
    follows a large operation.

    A shared machine's speed wanders by half between stretches of seconds,
    which one run does not average out; scaling each operation's time by
    the probe times around it takes that out of the reported figures.
    """
    return min(_probe_once(), _probe_once())


def scale(times: list[float], probes: list[float]) -> list[float]:
    """``times[i]`` at nominal speed: ``probes`` holds one probe before each
    time and one after the last; op i uses the median of the ``PROBE_SIDE``
    probes before it and the ``PROBE_SIDE`` after it."""
    out = []
    for i, t in enumerate(times):
        window = probes[max(0, i + 1 - PROBE_SIDE):i + 1 + PROBE_SIDE]
        out.append(t * PROBE_NOMINAL_S / statistics.median(window))
    return out


class SetupClock:
    """Set-up time: a fresh interpreter importing the CLI and loading the
    bundled config, timed from outside, each time just after a reference
    spawn (``REFERENCE_CODE``).  ``tick`` takes the samples due at one per
    ``every`` seconds since the clock was made, so they spread over the
    timed loop and one slow stretch of a shared machine does not set their
    median."""

    def __init__(self, count: int, every: float):
        self.count, self.every = count, every
        self.times: list[float] = []
        self.refs: list[float] = []
        self.start = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), self.env.get("PYTHONPATH")]))

    def _spawn(self, code: str) -> tuple[float, subprocess.CompletedProcess]:
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        return time.perf_counter() - t0, done

    def sample(self) -> None:
        ref, done = self._spawn(REFERENCE_CODE)
        if done.returncode != 0:
            sys.exit(f"bench: reference spawn failed: {done.stderr.strip()[-500:]}")
        t, done = self._spawn(SETUP_CODE)
        if done.returncode != 0 or SRC not in Path(done.stdout.strip()).resolve().parents:
            sys.exit(f"bench: set-up spawn failed: {done.stderr.strip()[-500:]}")
        self.refs.append(ref)
        self.times.append(t)

    def tick(self) -> None:
        due = min(self.count, int((time.perf_counter() - self.start) / self.every) + 1)
        while len(self.times) < due:
            self.sample()

    def median(self) -> tuple[float, float]:
        """Median set-up time, scaled and as measured."""
        while len(self.times) < self.count:
            self.sample()
        scaled = [t * REFERENCE_NOMINAL_S / ref for t, ref in zip(self.times, self.refs)]
        return statistics.median(scaled), statistics.median(self.times)


@dataclass
class Loop:
    """What one pass of the timed loop saw."""

    latencies: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    bytes_written: int = 0
    blocks: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    examples: list[str] = field(default_factory=list)

    def fail(self, kind: str, why: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1
        if len(self.examples) < 5:
            self.examples.append(why)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def scaled(self) -> list[float]:
        return scale(self.latencies, self.probes)


def program_caches() -> list:
    """The program's memoized functions (``functools`` caches) in every layer
    module, cleared before each operation so that no operation reuses what
    an earlier one computed, as one CLI process per command never could."""
    found = {}
    for layer in LAYERS:
        for obj in vars(importlib.import_module(f"icpower.{layer}")).values():
            if callable(getattr(obj, "cache_clear", None)):
                found[id(obj)] = obj
    return list(found.values())


class Runner:
    def __init__(self, cli, plan: inputs.Plan, work: Path):
        self.cli = cli
        self.plan = plan
        self.work = work
        self.out = work / "out"
        self.configs: list[Path] = []
        self.nets: list[oracle.Net] = []
        self.caches = program_caches()
        self.stderr = ""  # what the last call wrote to standard error

    def block(self, b: int) -> list[inputs.Op]:
        """Block b of the plan, with a config file written for each new network."""
        ops = self.plan.block(b)
        self._write_configs()
        return ops

    def _write_configs(self) -> None:
        for i in range(len(self.configs), len(self.plan.networks)):
            cfg = self.plan.networks[i]
            path = self.work / f"net{i}.json"
            path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
            self.configs.append(path)
            self.nets.append(oracle.Net.from_config(cfg))

    def argv(self, op: inputs.Op) -> list[str]:
        return ["--config", str(self.configs[op.net]), "--out", str(self.out), "--quiet",
                *op.args]

    def call(self, op: inputs.Op):
        """Run one operation; returns (seconds, exit code or exception, probe).

        First, outside the timed region: the output directory and the
        program's caches are cleared and garbage is collected, so that every
        call starts from the same state, as a fresh CLI process would; then
        ``probe`` measures the machine's speed from that state."""
        shutil.rmtree(self.out, ignore_errors=True)
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()
        speed = probe()
        argv = self.argv(op)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # a raise is a failed operation, not a crash
                rc = exc
            dt = time.perf_counter() - t0
        self.stderr = err.getvalue()
        return dt, rc, speed

    def _bytes_out(self) -> int:
        return sum(path.stat().st_size for path in self.out.iterdir()) if self.out.is_dir() else 0

    def check(self, op: inputs.Op, rc, loop: Loop) -> None:
        """Classify the operation: ``raised``, ``exit`` (an unexpected code),
        ``wrong`` (an artifact fails the oracle), ``missed`` (the dynamics
        gave up where a pure equilibrium exists) or ``no_converge`` (they
        gave up where the oracle's dynamics settle).  Giving up is exit 3
        with the CLI's message; ``nbs`` and ``repeated`` then write nothing."""
        if isinstance(rc, Exception):
            loop.fail("raised", f"{' '.join(op.args)}: {type(rc).__name__}: {rc}")
            return
        size = self._bytes_out()
        loop.bytes_written += size
        gave_up = rc == 3 and op.kind in DYNAMICS and GAVE_UP in self.stderr
        if not (rc == 0 and size or gave_up):
            loop.fail("exit", f"{' '.join(op.args)}: exit {rc}, {size} bytes written")
            return
        why = self._oracle(op, rc)
        if why is not None:
            loop.fail("wrong", why)
        elif gave_up:
            if op.kind == "pricing":
                settles, pure_ne = op.info["settles"], op.info["pure_ne"]
            else:
                settles = pure_ne = oracle.unpriced_ne(self.nets[op.net]) is not None
            where = f"{' '.join(op.args)} on network {op.net}"
            if settles:
                loop.fail("no_converge", f"{where}: exit 3, dynamics settle")
            elif pure_ne:
                loop.fail("missed", f"{where}: exit 3 but a pure NE exists")

    def _oracle(self, op: inputs.Op, rc: int):
        net, cfg, out = self.nets[op.net], self.plan.networks[op.net], self.out
        try:
            if op.kind == "pricing":
                return oracle.check_pricing(net, op.info["alpha"], rc, out)
            if op.kind == "pareto":
                return oracle.check_pareto(net, op.info["n"], out)
            if op.kind == "ne":
                return oracle.check_ne(net, rc, out)
            if op.kind == "finite":
                return oracle.check_finite(cfg, op.info["scenario"], out)
            if rc == 3:
                return None  # nbs and repeated write nothing when the dynamics give up
            n = cfg["search"]["n_per_axis"]
            if op.kind == "social":
                return oracle.check_social(net, cfg["weights"], n, out)
            if op.kind == "nbs":
                return oracle.check_nbs(net, n, op.info["fairness"], out)
            if op.kind == "repeated":
                return oracle.check_repeated(net, out)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            return f"{op.kind}: artifact unreadable: {type(exc).__name__}: {exc}"
        raise ValueError(f"no oracle for {op.kind}")

    def warm(self) -> Loop:
        """Run the plan's warm-up operations, untimed."""
        loop = Loop()
        self._write_configs()
        for op in self.plan.warm:
            _, rc, _ = self.call(op)
            self.check(op, rc, loop)
        return loop

    def loop(self, blocks: int, between=lambda: None) -> Loop:
        """Run the plan's first ``blocks`` blocks, and call ``between`` after
        each block, outside the timed region."""
        loop = Loop()
        while loop.blocks < blocks:
            for op in self.block(loop.blocks):
                dt, rc, speed = self.call(op)
                loop.probes.append(speed)
                loop.latencies.append(dt)
                self.check(op, rc, loop)
            loop.blocks += 1
            between()
        gc.collect()
        loop.probes.append(probe())
        return loop


def end_to_end(loop: Loop, setup_s: float) -> dict:
    lat = np.array(loop.scaled())
    p50, p90 = np.percentile(lat, [50, 90])
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (loop.ops / float(lat.sum()), "1/s"),
        "latency_p50_s": (float(p50), "s"),
        "latency_p90_s": (float(p90), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": (1.0 - loop.failed / loop.ops, "ratio"),
    }


# Traced functions whose self time, and whose call count, per operation is
# reported; ``per_layer`` adds the derived figures.
SELF_S = ("efficiency.utility_grid", "efficiency.pareto_frontier", "efficiency.grid_csv_rows",
          "cli.main", "continuous.best_response_priced", "numerics.golden_section_max",
          "continuous.br_dynamics", "continuous.trace_csv_rows",
          "continuous.SolveReport.to_dict", "numerics.refine_coordinatewise",
          "efficiency.social_optimum", "efficiency.nash_bargaining",
          "efficiency.fairness_projection", "config.load_config", "finite.build_ic_game",
          "finite.build_nfe_game", "finite.iterated_dominance", "finite.pure_nash",
          "finite.is_correlated_equilibrium", "repeated.min_discount",
          "repeated.simulate_trigger", "repeated.trigger_csv_rows")
CALLS = ("continuous.best_response_priced", "continuous.packet_throughput",
         "numerics.golden_section_max", "continuous.br_dynamics",
         "numerics.refine_coordinatewise", "continuous.ee_utility", "network.sinr",
         "network.effective_gain", "continuous.best_response_ee")


def per_layer(tracer: Tracer, traced: Loop, plain: Loop) -> dict:
    ops = traced.ops
    self_s, calls = tracer.self_times(), tracer.span_calls()
    calls.update({name: cell[0] for name, cell in tracer.counts.items()})
    dyn_calls = calls.get("continuous.br_dynamics", 0)
    br_calls = calls.get("continuous.best_response_priced", 0)
    inside_br = tracer.counts["continuous.packet_throughput"][1]
    metrics = {f"{name}.self_s": (self_s.get(name, 0.0) / ops, "s") for name in SELF_S}
    metrics.update({f"{name}.calls": (calls.get(name, 0) / ops, "count") for name in CALLS})
    metrics.update({
        "efficiency.pareto_frontier.points_out":
            (tracer.results["efficiency.pareto_frontier.points_out"] / ops, "count"),
        "cli.bytes_written": (traced.bytes_written / ops, "bytes"),
        "continuous.packet_throughput_per_priced_br":
            (inside_br / br_calls if br_calls else 0.0, "count"),
        "continuous.br_dynamics.iterations":
            (tracer.results["continuous.br_dynamics.iterations"] / ops, "count"),
        "continuous.br_dynamics.converged_share":
            (tracer.results["continuous.br_dynamics.converged"] / dyn_calls
             if dyn_calls else 0.0, "ratio"),
        "trace.overhead_share": (sum(traced.scaled()) / sum(plain.scaled()) - 1.0, "ratio"),
    })
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: inputs.Size = inputs.FULL) -> tuple[dict, dict]:
    """One benchmark run; returns (result, run description)."""
    cli = import_program()
    plan = inputs.Plan(workload, seed, ROOT, size)
    work = RUN_DIR / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(cli, plan, work)
        warm = runner.warm()
        gc.collect()
        gc.freeze()  # the benchmark's own objects stay out of the program's collections
        block_ops = len(plan.block(0))
        if not trace:
            setup = SetupClock(size.spawns, max(seconds, 1.0) / size.spawns)
            blocks = block_count(workload, seconds, block_ops, size.min_ops)
            main = runner.loop(blocks, between=setup.tick)
            setup_s, setup_raw = setup.median()
            metrics = end_to_end(main, setup_s)
            lat = np.array(main.latencies)
            raw = {"setup_s": setup_raw, "setup_reference_s": statistics.median(setup.refs),
                   "ops_per_s": main.ops / float(lat.sum()),
                   "latency_p50_s": float(np.percentile(lat, 50)),
                   "latency_p90_s": float(np.percentile(lat, 90)),
                   "probe_median_s": statistics.median(main.probes)}
        else:
            tracer = Tracer()
            tracer.install()
            try:
                main = runner.loop(block_count(workload, seconds / 2, block_ops, 1))
            finally:
                tracer.remove()
            plain = runner.loop(main.blocks)
            metrics = per_layer(tracer, main, plain)
            raw = {"probe_median_s": statistics.median(main.probes)}
            tracer.write(RUN_DIR / "spans" / f"{workload}-seed{seed}.npz")
    finally:
        gc.unfreeze()
        shutil.rmtree(work, ignore_errors=True)
    wrong = [k for k in (*main.failures, *warm.failures) if k not in HONEST]
    result = {
        "correct": not wrong,
        "attempted": main.ops,
        "failed": main.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    about = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "samples": main.ops, "blocks": main.blocks, "block_ops": len(plan.blocks[0]),
        "timed_s": sum(main.latencies), "networks": len(plan.networks),
        "properties": plan.properties(), "failures": main.failures,
        "warm_failures": warm.failures, "unscaled": raw,
        "failure_examples": main.examples + warm.examples,
    }
    return result, about


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, about = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = RUN_DIR / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"about": about, "result": result}, indent=2) + "\n")
    print(json.dumps(about))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
