"""mrtrack benchmark: end-to-end metrics per workload, or one traced run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dense-track --seed 1 --seconds 40 --trace 0

Workloads are defined in `workloads.py`. With `--trace 0` each iteration
times `python -m mrtrack <subcommand> --help` (start-up), the workload's
`python -m mrtrack` command as a child process (wall time, peak RSS) and a
pass of the tracker's `pipeline.step` in-process, and checks every output
against the frozen reference. The run reports the median start-up time,
the median of the slower half of the CLI wall times (see
`slower_half_median`) and the rate and percentiles of all `step` calls
of the run pooled. With
`--trace 1` it runs the same command in-process under `tracing.Tracer` and
reports per-layer metrics, after checking reconciliation and coverage. The
last line of standard output is one JSON object: correct, attempted,
failed and metrics. Work files go to `.perfbench_work/` in the checkout.

The benchmark's own checks run with `python3 -m pytest perfbench -q`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
MIN_ITERATIONS = 3
MIN_PASS_S = 1.0
MIN_STEPS = 600
CHILD_TIMEOUT_S = 120


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def spawn(argv: list[str], cwd: Path) -> tuple[float, float, int, str]:
    """Run `python <argv>` to completion -> (wall s, peak RSS MB, exit code, stderr)."""
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=cwd, env=_child_env(),
            stdout=subprocess.DEVNULL, stderr=err,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, err_path.read_text()[-2000:]


def track_pass(wl) -> tuple[list[float], list[str]]:
    """Step every workload stream through `pipeline.step`, timing each call.

    The streams are repeated until the pass has spent MIN_PASS_S in `step`,
    so that short streams get as much host time as long ones. Returns
    (per-call seconds, disagreements with the reference).
    """
    from mrtrack import pipeline
    from mrtrack.fileio import load_run_config

    cfg = load_run_config(preset="nanodet", emit_coasted=True)
    latencies, problems = [], []
    while sum(latencies) < MIN_PASS_S:
        problems += _step_streams(pipeline, cfg, wl, latencies)
    return latencies, problems


def _step_streams(pipeline, cfg, wl, latencies: list[float]) -> list[str]:
    problems = []
    for index, frames in enumerate(wl.streams):
        state, outputs = pipeline.TrackerState(), {}
        for frame in frames:
            start = perf_counter()
            state, outs = pipeline.step(
                state, frame, cfg.tracker, cfg.rescore,
                rescore_enabled=True, emit_coasted=True,
            )
            latencies.append(perf_counter() - start)
            outputs[frame.frame_index] = outs
        problem = wl.check_stream(index, outputs)
        if problem:
            problems.append(f"in-process stream {index}: {problem}")
    return problems


class Tally:
    """Operations attempted and failed, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(problem)


def run_cli(wl, work: Path, tally: Tally):
    """One checked CLI run -> (wall s, peak RSS MB, quality)."""
    if wl.out_path.exists():
        wl.out_path.unlink()
    wall, rss, code, stderr = spawn(["-m", "mrtrack", *wl.argv], work)
    problem, quality = f"exit {code}: {stderr.strip()}", {}
    if code == 0:
        try:
            problem, quality = wl.check_output(wl.out_path)
        except Exception:  # an unreadable output is a failed operation
            problem = "unreadable output: " + traceback.format_exc(limit=3)
    tally.record(f"cli: {problem}" if problem else None)
    return wall, rss, quality


def checked_pass(wl, tally: Tally) -> list[float]:
    """One in-process tracker pass, counted as one operation -> per-step seconds."""
    try:
        latencies, problems = track_pass(wl)
    except Exception:  # a raised exception is a failed operation, not a crash
        tally.record("in-process pass raised: " + traceback.format_exc(limit=3))
        return []
    tally.record("; ".join(problems) or None)
    return latencies


def slower_half_median(values: list[float]) -> float:
    """Median of the slower half of a run's samples.

    The host alternates between its nominal speed and bursts up to ~1.4x
    faster that last from a second to tens of seconds; the share of burst
    time differs between runs, so a run's median can flip between the two
    speeds while the median of its slower half stays on the nominal one.
    """
    return statistics.median(sorted(values)[len(values) // 2:])


def measure(wl, seconds: float, work: Path) -> tuple[dict, Tally, dict]:
    """End-to-end metrics with tracing off.

    Each iteration takes one start-up sample, one CLI sample and one pass
    of the tracker over the workload's streams; the step metrics pool every
    call of the run, and the run goes on until it has MIN_STEPS of them.
    """
    tally = Tally()
    help_argv = ["-m", "mrtrack", wl.spec.subcommand, "--help"]
    samples = {k: [] for k in ("setup_s", "cli_wall_s", "peak_rss_mb", "pass_fps")}
    latencies, quality, raised = [], {}, False
    start = perf_counter()

    def more(n: int) -> bool:
        if n < MIN_ITERATIONS or (len(latencies) < MIN_STEPS and not raised):
            return True
        # stop before an iteration that would overrun the measuring time
        return (perf_counter() - start) * (n + 1) / n <= seconds

    while more(len(samples["cli_wall_s"])):
        wall, _, code, stderr = spawn(help_argv, work)
        tally.record(f"--help exit {code}: {stderr.strip()}" if code else None)
        samples["setup_s"].append(wall)
        wall, peak, quality = run_cli(wl, work, tally)
        samples["cli_wall_s"].append(wall)
        samples["peak_rss_mb"].append(peak)
        passed = checked_pass(wl, tally)
        raised = raised or not passed
        if passed:
            samples["pass_fps"].append(len(passed) / sum(passed))
            latencies += passed
    deciles = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else None
    samples["steps"] = len(latencies)

    metrics = {
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "cli_wall_s": (slower_half_median(samples["cli_wall_s"]), "s"),
        "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MB"),
        "track_fps": (len(latencies) / sum(latencies) if latencies else None, "1/s"),
        "step_p50_ms": (1e3 * deciles[4] if deciles else None, "ms"),
        "step_p90_ms": (1e3 * deciles[8] if deciles else None, "ms"),
        "map50": (quality.get("map50"), "ratio"),
        "mean_f1": (quality.get("mean_f1"), "ratio"),
        "success_rate": (1.0 - len(tally.failures) / tally.attempted, "ratio"),
    }
    return metrics, tally, samples


def _top_cumulative(entries, package: str) -> int:
    """Cumulative import microseconds of `package` modules not imported by another one."""

    def inside(name):
        return name == package or name.startswith(package + ".")

    total = 0
    for i, (depth, name, us) in enumerate(entries):
        # children come before their parent, which is the next shallower entry
        parent = next((e for e in entries[i + 1:] if e[0] < depth), None)
        if inside(name) and not (parent and inside(parent[1])):
            total += us
    return total


def import_times() -> tuple[float, float]:
    """Median of three `-X importtime` runs -> (mrtrack.cli s, scipy s)."""
    cli, scipy = [], []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import mrtrack.cli"],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        entries = []  # (depth, module, cumulative us), children before parents
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            entries.append(((len(name) - len(name.lstrip())) // 2, name.strip(), int(cumulative)))
        cli.append(_top_cumulative(entries, "mrtrack") / 1e6)
        scipy.append(_top_cumulative(entries, "scipy") / 1e6)
    return statistics.median(cli), statistics.median(scipy)


def traced(wl, seconds: float, work: Path) -> tuple[dict, Tally, dict]:
    """Per-layer metrics from one in-process traced command."""
    import mrtrack.cli
    import tracing

    tally = Tally()
    tracer = tracing.Tracer()
    # tracing overhead: alternate untraced and traced tracker passes
    plain, wrapped, rounds = [], [], 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < seconds / 2:
        rounds += 1
        for fps, install in ((plain, False), (wrapped, True)):
            if install:
                tracer.install()
            try:
                latencies = checked_pass(wl, tally)
            finally:
                tracer.uninstall()
            if latencies:
                fps.append(len(latencies) / sum(latencies))
    tracer.reset()

    if wl.out_path.exists():
        wl.out_path.unlink()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = mrtrack.cli.main(wl.argv)
        problem, _ = wl.check_output(wl.out_path) if code == 0 else (f"exit {code}", {})
    except Exception:  # a raised exception is a failed operation, not a crash
        problem = "raised: " + traceback.format_exc(limit=3)
    finally:
        tracer.uninstall()
    tally.record(f"traced cli: {problem}" if problem else None)
    for check in (tracing.reconcile(tracer, wl.tracked_frames),
                  tracing.coverage(tracer.layer_totals(), wl.spec.name)):
        tally.record("; ".join(check) or None)

    metrics = tracing.per_layer_metrics(tracer)
    try:
        cli_s, scipy_s = import_times()
        tally.record(None)
    except (subprocess.SubprocessError, ValueError):  # failed, timed out or unparsable
        tally.record("-X importtime: " + traceback.format_exc(limit=1))
        cli_s = scipy_s = None
    metrics["cli.import_s"] = (cli_s, "s")
    metrics["cli.import_scipy_s"] = (scipy_s, "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(wrapped) / statistics.median(plain) if wrapped and plain else None,
        "ratio",
    )
    metrics["trace.spans"] = (len(tracer.spans), "count")
    tracer.write_spans(work / "spans.jsonl")
    return metrics, tally, {"untraced_fps": plain, "traced_fps": wrapped}


def environment(args) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), timeout=30,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mrtrack" / "__init__.py").is_file():
        print(f"error: no mrtrack sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # only the latest run's files are kept
    shutil.rmtree(ROOT / ".perfbench_work", ignore_errors=True)
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    work.mkdir(parents=True)
    setup_start = perf_counter()
    wl = workloads.prepare(args.workload, args.seed, work)
    prepare_s = perf_counter() - setup_start
    run = traced if args.trace else measure
    metrics, tally, samples = run(wl, args.seconds, work)

    env = environment(args)
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "prepare_s": prepare_s, "failures": tally.failures,
                   "samples": samples, **result}, fh, indent=1)
    for failure in tally.failures[:5]:
        print(f"failure: {failure}", file=sys.stderr)
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
