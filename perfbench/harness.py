"""Runs lsaf commands in fresh processes, checks their outputs and turns
their reports into the benchmark's metrics. Entry point: `run.py`."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")  # run directories, removed at the end of each run
CHILD = os.path.join(HERE, "child.py")

SETUP_SAMPLES = 3  # set-up time is the median of at least this many samples
COMMAND_TIMEOUT = 150  # seconds; a whole run must end within 180
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(RuntimeError):
    """The run's inputs could not be made as the reference expects."""


class Command:
    """One lsaf command run to completion in a fresh process."""

    def __init__(self, lsaf_args, threads: int, report_path: str, trace=False, probe=False,
                 timeout=COMMAND_TIMEOUT):
        flags = (["--trace"] if trace else []) + (["--probe"] if probe else [])
        argv = [sys.executable, CHILD, "--report", report_path, *flags, "--", *lsaf_args]
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env.update(LSAF_THREADS=str(threads), PYTHONPATH=SRC, LSAF_LOG_LEVEL="WARNING")
        if os.path.exists(report_path):
            os.remove(report_path)
        self.start = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=timeout)
            self.exit_code, self.stderr = proc.returncode, proc.stderr.decode(errors="replace")
        except subprocess.TimeoutExpired:
            self.exit_code, self.stderr = -1, f"timed out after {timeout} s"
        self.wall_s = time.monotonic() - self.start
        self.report = {}
        if os.path.exists(report_path):
            with open(report_path) as f:
                self.report = json.load(f)
            os.remove(report_path)
        self.failures = [] if self.exit_code == 0 else [
            f"lsaf {lsaf_args[0]} exited {self.exit_code}: {self.stderr.strip()[-400:]}"]

    @property
    def setup_s(self) -> float | None:
        first = self.report.get("t_first_forward")
        return None if first is None else first - self.start

    @property
    def peak_rss_mb(self) -> float:
        return self.report["peak_rss_kib"] / 1024.0


def rate(commands: list[Command], count: str, seconds: str) -> float:
    """Work per second pooled over commands: summed counts ÷ summed times."""
    return (sum(c.report[count] for c in commands)
            / sum(c.report[seconds] for c in commands))


def file_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


# Files a timed command writes; repeated commands on the same inputs must
# write them byte for byte alike (the determinism contract).
OUTPUT_FILES = {"train": ("trace.csv", "checkpoint.lsfw", "metrics.csv"),
                "map": ("map.ppm",), "eval": ("metrics.csv",)}


class Run:
    """One benchmark run: one workload, one seed, its inputs and tallies.

    The inputs come from `seed` modulo `workloads.REFERENCE_SEEDS`, whose
    outputs `reference` (the workload's entry of reference.json) stores.
    Without a reference, as when calibrating, outputs are checked only for
    form and determinism.
    """

    def __init__(self, wl: workloads.Workload, seed: int, reference: dict | None):
        self.wl = wl
        self.seed = seed % workloads.REFERENCE_SEEDS
        self.ref = None if reference is None else reference["per_seed"][str(self.seed)]
        self.dir = os.path.join(WORK, "runs", f"{wl.name}-{seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.world = None
        if wl.world is not None:
            self.world = workloads.write_world(wl, os.path.join(self.dir, "world"))
            if reference is not None:
                fails = checks.check_world(self.world, reference["world_sha256"])
                if fails:
                    self.close()
                    raise SetupError("; ".join(fails))
        self.inputs = workloads.make_inputs(wl, self.seed, self.dir, self.world)
        self.outputs: list[dict] = []

    def _command(self, lsaf_args, **kwargs) -> Command:
        return Command(lsaf_args, self.wl.threads, os.path.join(self.dir, "report.json"),
                       **kwargs)

    def _record(self, fails: list[str]) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            self.failures += fails

    def finetune(self) -> Command:
        out = os.path.join(self.dir, "finetune")
        shutil.rmtree(out, ignore_errors=True)
        cmd = self._command(self.inputs.finetune_args)
        self._record(cmd.failures or self._guard(
            lambda: checks.check_finetune(out, self.wl.world.epochs + 1)))
        return cmd

    def main(self, trace=False) -> Command:
        out = self.inputs.out_dir
        shutil.rmtree(out, ignore_errors=True)
        cmd = self._command(self.inputs.main_args, trace=trace)
        fails = cmd.failures or self._guard(self._check_outputs) or self._guard(
            self._compare_with_earlier)
        self._record(fails)
        return cmd

    def probe(self) -> Command:
        """Set-up time alone: the timed command, stopped at its first forward."""
        return self._command(self.inputs.main_args, probe=True)

    @staticmethod
    def _guard(check) -> list[str]:
        try:
            return check()
        except (OSError, ValueError, KeyError, IndexError) as e:
            return [f"unreadable output: {e!r}"]

    def _check_outputs(self) -> list[str]:
        wl, out, labels = self.wl, self.inputs.out_dir, self.inputs.labels
        if wl.command == "train":
            return checks.check_train(out, labels, wl, self.ref)
        if wl.command == "map":
            return checks.check_map(out, labels, wl.classes, self.ref)
        return checks.check_eval(out, labels, wl, self.ref)

    def _compare_with_earlier(self) -> list[str]:
        names = OUTPUT_FILES[self.wl.command]
        files = {n: file_bytes(os.path.join(self.inputs.out_dir, n)) for n in names}
        fails = [f"{n} differs between two commands on the same inputs"
                 for earlier in self.outputs for n in names if files[n] != earlier[n]]
        self.outputs.append(files)
        return fails

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def timed_run(run: Run, seconds: float) -> dict:
    """End-to-end metrics over the run's timed commands: throughputs pooled,
    times and memory as medians."""
    start = time.monotonic()
    trained = []  # commands whose train() call gives train_samples_per_s
    if run.inputs.finetune_args is not None:
        ft = run.finetune()
        if ft.exit_code == 0:
            trained.append(ft)
    mains = []
    while True:
        cmd = run.main()
        mains.append(cmd)
        elapsed = time.monotonic() - start
        if len(mains) >= run.wl.min_commands and elapsed + cmd.wall_s > seconds:
            break
        if cmd.exit_code != 0 or elapsed + cmd.wall_s > COMMAND_TIMEOUT:
            break
    ok = [c for c in mains if c.exit_code == 0]
    if run.wl.command == "train":
        trained = ok
    if not ok or not trained:
        return {}
    setups = [c.setup_s for c in ok]
    while len(setups) < SETUP_SAMPLES:
        probe = run.probe()
        if probe.exit_code != 0 or probe.setup_s is None:
            run.failures.append(f"set-up probe failed: {probe.stderr.strip()[-400:]}")
            return {}
        setups.append(probe.setup_s)
    return {
        "train_samples_per_s": (rate(trained, "train_samples", "train_s"), "samples/s"),
        "infer_pixels_per_s": (rate(ok, "predict_pixels", "predict_s"), "pixels/s"),
        "wall_s": (statistics.median(c.wall_s for c in ok), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(c.peak_rss_mb for c in ok), "MiB"),
    }


def traced_run(run: Run, units: dict) -> dict:
    """Per-layer metrics of one traced command; its wall time over that of
    one untraced command on the same inputs is the tracing overhead."""
    plain = run.main()
    traced = run.main(trace=True)
    if plain.exit_code or traced.exit_code:
        return {}
    layers = dict(traced.report["layers"])
    layers["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    layers["failed_share"] = run.failed / run.attempted
    return {name: (layers[name], unit) for name, unit in units.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, bench: dict,
        reference: dict) -> dict:
    """Run one workload and return the result object the contract fixes."""
    try:
        r = Run(workloads.WORKLOADS[workload], seed, reference[workload])
    except SetupError as e:
        print(f"FAIL {e}")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    try:
        if trace:
            metrics = traced_run(r, {m["name"]: m["unit"] for m in bench["per_layer"]})
        else:
            metrics = timed_run(r, seconds)
    finally:
        r.close()
    for message in r.failures:
        print(f"FAIL {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return {
        "correct": not r.failures and bool(metrics),
        "attempted": max(r.attempted, 1),
        "failed": r.failed if metrics else max(r.failed, 1),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
