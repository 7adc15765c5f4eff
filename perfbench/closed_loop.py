"""End-to-end measurement: one caller runs a workload's commands one after
another, each as a fresh ``python -m ticketsim.cli`` process with tracing
off, and repeats the whole workload until the run's time is spent.

Per iteration: ``wall_s`` from spawning the first command to the exit of
the last, ``cpu_s`` as user+sys of the command processes and their pool
workers (the ``wait4`` rusage, which folds in reaped descendants), and
``peak_rss_mb`` as the largest RSS any of those processes reached.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Check, Workload, check_outputs

SETUP_REPEATS = 7

# Importing the CLI pulls in every module; load_config reads and validates.
# The snippet prints its import time, which the traced run reports.
_SETUP_SNIPPET = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import ticketsim.cli\n"
    "print(repr(time.perf_counter() - start))\n"
    "from ticketsim.config import load_config\n"
    "for path in sys.argv[1:]:\n"
    "    load_config(path)\n"
)


@dataclass
class ProcessResult:
    exit_code: int
    cpu_s: float
    peak_rss_mb: float


@dataclass
class CheckTally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, label: str, checks: list[Check]) -> None:
        for name, ok in checks:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(f"{label}: {name}")


class Deadline:
    """Wall-clock limit for the whole benchmark run."""

    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        """Seconds until the deadline; negative once it has passed."""
        return self.end - time.monotonic()

    def remaining(self) -> float:
        """Seconds a subprocess may still run: at least 1."""
        return max(1.0, self.left())


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_process(argv: list[str], cwd: Path, env: dict, log_path: Path,
                deadline: Deadline) -> ProcessResult:
    """Run one process to completion and return its rusage.

    The process gets its own session so that, past the deadline, it and any
    pool workers it started are killed together.
    """
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        killer = threading.Timer(deadline.remaining(), os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped here, not by Popen
    return ProcessResult(
        exit_code=proc.returncode,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,   # Linux reports KiB
    )


def write_configs(workload: Workload, seed: int, workdir: Path) -> list[tuple[Path, Path]]:
    """Write each command's generated config; return (config, report) paths."""
    paths = []
    for i, command in enumerate(workload.commands):
        config_path = workdir / f"{i}-{command.verb}.json"
        report_path = workdir / f"{i}-{command.verb}.{command.report_format}"
        config_path.write_text(json.dumps(command.generated_config(seed, report_path), indent=1))
        paths.append((config_path, report_path))
    return paths


def measure_setup(root: Path, config_paths: list[Path], workdir: Path, deadline: Deadline,
                  tally: CheckTally) -> tuple[list[float], list[float]]:
    """Fresh interpreters that import the CLI and parse the configs.

    Returns each one's wall time and, for those that exited 0, the time its
    ``import ticketsim.cli`` took.
    """
    argv = [sys.executable, "-c", _SETUP_SNIPPET, *map(str, config_paths)]
    env = child_env(root)
    log = workdir / "setup.log"
    times, import_times = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        result = run_process(argv, workdir, env, log, deadline)
        times.append(time.perf_counter() - start)
        ok = result.exit_code == 0
        tally.add("setup", [("setup_exit_0", ok)])
        if ok:
            import_times.append(float(log.read_text().split()[0]))
    return times, import_times


def run_closed_loop(workload: Workload, seed: int, seconds: float, root: Path, workdir: Path,
                    deadline: Deadline) -> tuple[dict, CheckTally, int]:
    """Measure the workload end to end; return metric samples, checks and iterations."""
    tally = CheckTally()
    paths = write_configs(workload, seed, workdir)
    setup, _ = measure_setup(root, [c for c, _ in paths], workdir, deadline, tally)

    env = child_env(root)
    samples: dict[str, list[float]] = {"wall_s": [], "cpu_s": [], "peak_rss_mb": []}
    references: list[bytes | None] = [None] * len(paths)
    iteration = 0
    loop_start = time.perf_counter()
    while True:
        for _, report_path in paths:
            report_path.unlink(missing_ok=True)   # a report must come from this iteration
        results = []
        start = time.perf_counter()
        for i, (command, (config_path, _)) in enumerate(zip(workload.commands, paths)):
            argv = [sys.executable, "-m", "ticketsim.cli", command.verb, "--config", str(config_path)]
            results.append(run_process(argv, workdir, env, workdir / f"{i}-{command.verb}.log",
                                       deadline))
        samples["wall_s"].append(time.perf_counter() - start)
        samples["cpu_s"].append(sum(r.cpu_s for r in results))
        samples["peak_rss_mb"].append(max(r.peak_rss_mb for r in results))

        for i, (command, (_, report_path), result) in enumerate(zip(workload.commands, paths, results)):
            stdout = (workdir / f"{i}-{command.verb}.log").read_text(errors="replace")
            checks, data = check_outputs(command, result.exit_code, stdout, report_path,
                                         references[i])
            tally.add(f"iteration {iteration} {command.verb}", checks)
            if iteration == 0:
                references[i] = data
        iteration += 1
        if time.perf_counter() - loop_start >= seconds:
            break

    samples["setup_s"] = setup
    return samples, tally, iteration
