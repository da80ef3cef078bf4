"""Benchmark of the hwcover command line, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

``--trace 0`` runs each command of the workload the way users run it, as a
fresh ``python -m hwcover.cli ...`` child, one child at a time, repeating
the workload's commands until ``--seconds`` are used, and reports the
end-to-end metrics.  ``--trace 1`` calls ``hwcover.cli.main(argv)``
in-process, once plainly and once with every layer boundary wrapped by
:mod:`tracer`, then runs the layer microbenchmarks of :mod:`micro`, and
reports the per-layer metrics.  Both modes check every command's exit code,
stdout digest and line count against :data:`workloads.EXPECTED`.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import micro
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_PER_ITERATION = 3
MIN_ITERATIONS = 3


class Outcome(NamedTuple):
    """What one command produced, and what it cost."""

    exit_code: int
    sha256: str
    lines: int
    bytes: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


def failure(cmd: workloads.Command, out: Outcome) -> str | None:
    """Why the outcome fails the correctness gate, or None if it passes."""
    exp = cmd.expected
    if out.exit_code != exp.exit_code:
        return f"exit code {out.exit_code}, expected {exp.exit_code}: {out.stderr.strip()}"
    if out.sha256 != exp.sha256:
        return f"stdout sha256 {out.sha256}, expected {exp.sha256}"
    if out.lines != exp.lines:
        return f"{out.lines} stdout lines, expected {exp.lines}"
    return None


def run_child(argv: tuple[str, ...]) -> Outcome:
    """Run one CLI command in a fresh interpreter; stdout is hashed as it streams.

    CPU time and peak RSS are read for this child alone with ``os.wait4``:
    ``getrusage(RUSAGE_CHILDREN)`` would report the largest RSS of every
    child reaped so far.
    """
    # Children cache their bytecode, as an installed package does, whatever
    # the calling environment says: set-up time then does not depend on it.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    digest = hashlib.sha256()
    lines = size = 0
    with tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "hwcover.cli", *argv],
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err, env=env)
        with proc.stdout:
            while chunk := proc.stdout.read(1 << 16):
                digest.update(chunk)
                lines += chunk.count(b"\n")
                size += len(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()[-2000:].decode("utf-8", "replace")
    return Outcome(proc.returncode, digest.hexdigest(), lines, size, wall,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, stderr)


class Tally:
    """Counts commands attempted and failed, and keeps the failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: list[str] = []

    def check(self, cmd: workloads.Command, out: Outcome) -> None:
        self.attempted += 1
        reason = failure(cmd, out)
        if reason is not None:
            self.reasons.append(f"{' '.join(cmd.argv)}: {reason}")

    @property
    def failed(self) -> int:
        return len(self.reasons)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(commands: list[workloads.Command], seconds: float,
               tally: Tally) -> tuple[dict, dict]:
    """Whole iterations of the commands, each after a few set-up timings, for ``seconds``."""
    setup = workloads.command(workloads.SETUP)
    # The first child writes the bytecode cache, which users pay once only.
    tally.check(setup, run_child(setup.argv))
    setup_walls = []
    iterations: list[list[Outcome]] = []
    start = time.perf_counter()
    while True:
        # Set-up samples are spread over the run, so that a short burst of
        # load on a shared machine cannot move their median.
        for _ in range(SETUP_PER_ITERATION):
            out = run_child(setup.argv)
            tally.check(setup, out)
            setup_walls.append(out.wall_s)
        outs = []
        for cmd in commands:
            out = run_child(cmd.argv)
            tally.check(cmd, out)
            outs.append(out)
        iterations.append(outs)
        walls = [sum(o.wall_s for o in it) for it in iterations]
        elapsed = time.perf_counter() - start
        if len(iterations) >= MIN_ITERATIONS and elapsed + statistics.median(walls) > seconds:
            break
    cpus = [sum(o.cpu_s for o in it) for it in iterations]
    # A shared host switches between a quiet and a contended state for
    # seconds to minutes at a time, and CPU time swells with wall time in the
    # contended one.  The median iteration of a run lands in either state;
    # each command's fastest time is the program's own cost and repeats far
    # better.  The summary still prints the iterations' median and quartiles.
    def fastest(field: str) -> float:
        return sum(min(getattr(it[i], field) for it in iterations)
                   for i in range(len(commands)))

    wall = fastest("wall_s")
    items = sum(cmd.expected.items for cmd in commands)
    metrics = {
        "wall_s": metric(wall, "s"),
        "cpu_s": metric(fastest("cpu_s"), "s"),
        "items_per_s": metric(items / wall, "1/s"),
        "peak_rss_mb": metric(max(o.rss_mb for it in iterations for o in it), "MB"),
        "setup_s": metric(statistics.median(setup_walls), "s"),
    }
    samples = {"wall_s": walls, "cpu_s": cpus, "setup_s": setup_walls}
    return metrics, samples


class HashSink:
    """Text stream that keeps only the SHA-256, line count and size of its input."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.lines = 0
        self.bytes = 0

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.digest.update(data)
        self.lines += data.count(b"\n")
        self.bytes += len(data)
        return len(text)

    def flush(self) -> None:
        pass


class TailSink:
    """Text stream that keeps the last characters written to it."""

    def __init__(self) -> None:
        self.text = ""

    def write(self, text: str) -> int:
        self.text = (self.text + text)[-2000:]
        return len(text)

    def flush(self) -> None:
        pass


def run_in_process(argv: tuple[str, ...]) -> Outcome:
    """Call ``hwcover.cli.main(argv)`` with stdout hashed and stderr captured."""
    from hwcover import cli

    # Start every call cold, as a fresh process would.
    for name, mod in list(sys.modules.items()):
        if name == "hwcover" or name.startswith("hwcover."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    gc.collect()
    sink, tail = HashSink(), TailSink()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = sink, tail
    t0 = time.perf_counter()
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        # A crash is a failed command, as it is for a child process.
        code = 1
        tail.write(traceback.format_exc())
    finally:
        wall = time.perf_counter() - t0
        sys.stdout, sys.stderr = saved
    return Outcome(code, sink.digest.hexdigest(), sink.lines, sink.bytes, wall,
                   0.0, 0.0, tail.text)


def traced(commands: list[workloads.Command], workload: str, seed: int,
           tally: Tally) -> tuple[dict, dict]:
    """Per-layer metrics: plain and traced in-process runs, then microbenchmarks."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    def plain() -> float:
        wall = 0.0
        for cmd in commands:
            out = run_in_process(cmd.argv)
            tally.check(cmd, out)
            wall += out.wall_s
        return wall

    # Untraced runs before and after the traced one, so that neither the
    # first call's warm-up nor a drift in machine speed lands on one side.
    plain_before = plain()
    trace = tracer.Tracer()
    traced_wall = 0.0
    rows = size = 0
    with trace:
        for cmd in commands:
            trace.request(" ".join(cmd.argv))
            out = run_in_process(cmd.argv)
            tally.check(cmd, out)
            traced_wall += out.wall_s
            rows += out.lines
            size += out.bytes
    plain_wall = (plain_before + plain()) / 2
    spans_path = OUT / f"spans-{workload}.json"
    trace.write(spans_path)

    metrics = trace.layer_metrics()
    metrics["cli.rows_emitted"] = metric(rows, "count")
    metrics["cli.bytes_emitted"] = metric(size, "count")
    metrics["trace.overhead_ratio"] = metric(traced_wall / plain_wall, "ratio")
    metrics.update(micro.run(seed))
    metrics["failed_ratio"] = metric(tally.failed / tally.attempted, "ratio")
    return metrics, {"spans": str(spans_path.relative_to(ROOT)),
                     "plain_wall_s": plain_wall, "traced_wall_s": traced_wall}


def report(workload: str, seed: int, metrics: dict, samples: dict, tally: Tally) -> None:
    """Human-readable summary; the JSON result line follows it."""
    print(f"workload {workload}, seed {seed}: {tally.attempted} commands, "
          f"{tally.failed} failed")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    for name, m in metrics.items():
        line = f"  {name:36s} {m['value']:.6g} {m['unit']}"
        vals = samples.get(name)
        if isinstance(vals, list) and len(vals) > 1:
            q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
            line += (f"  (n={len(vals)}: min {min(vals):.4g}, q1 {q1:.4g}, "
                     f"median {med:.4g}, q3 {q3:.4g}, max {max(vals):.4g})")
        print(line)
    for name, val in samples.items():
        if not isinstance(val, list):
            print(f"  {name}: {val}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hwcover" / "cli.py").is_file():
        print(f"error: no hwcover sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    commands = workloads.commands(args.workload, args.seed)
    tally = Tally()
    if args.trace:
        metrics, samples = traced(commands, args.workload, args.seed, tally)
    else:
        metrics, samples = end_to_end(commands, args.seconds, tally)
    report(args.workload, args.seed, metrics, samples, tally)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
