"""Self-test of the benchmark at tiny sizes (the ``smoke`` workload).

    python3 perfbench/selftest.py

Checks three things and exits non-zero on the first that fails:

1. every metric named in ``BENCHMARK.json`` is printed, with its unit, by an
   untraced run (``end_to_end``) and a traced run (``per_layer``);
2. a corrupted expected digest makes the gate fail the command: ``failed``
   in an untraced run and ``failed_ratio`` in a traced run become nonzero;
3. a traced run writes a span tree: every span lies inside its parent, and
   each request's spans hang under one ``cli.main`` root.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import workloads


class SelfTestError(Exception):
    pass


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SelfTestError(message)


def result(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "smoke",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=300)
    check(proc.returncode == 0, f"run.py --trace {trace} failed: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_metrics() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, trace in (("end_to_end", 0), ("per_layer", 1)):
        res = result(trace)
        check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
              f"smoke run --trace {trace} is not correct: {res}")
        printed = res["metrics"]
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        check(set(printed) == set(wanted),
              f"--trace {trace}: missing {sorted(set(wanted) - set(printed))}, "
              f"unexpected {sorted(set(printed) - set(wanted))}")
        for name, unit in wanted.items():
            check(printed[name]["unit"] == unit,
                  f"{name}: unit {printed[name]['unit']!r}, expected {unit!r}")
            check(isinstance(printed[name]["value"], (int, float)), f"{name}: not a number")


def corrupted() -> list[workloads.Command]:
    cmds = workloads.commands("smoke", 0)
    bad = cmds[0]._replace(expected=cmds[0].expected._replace(sha256="0" * 64))
    return [bad, *cmds[1:]]


def check_gate() -> None:
    tally = run.Tally()
    run.end_to_end(corrupted(), 0.1, tally)
    check(tally.failed > 0, "a corrupted digest passed the untraced gate")
    tally = run.Tally()
    metrics, _ = run.traced(corrupted(), "smoke", 0, tally)
    check(metrics["failed_ratio"]["value"] > 0, "a corrupted digest left failed_ratio at 0")


def check_span_tree() -> None:
    doc = json.loads((run.OUT / "spans-smoke.json").read_text())
    names, spans = doc["names"], doc["spans"]
    count = len(spans["name"])
    check(count > 0, "no spans recorded")
    check(len(doc["requests"]) == len(workloads.WORKLOADS["smoke"]),
          "one request per command expected")
    nested = 0
    for i in range(count):
        start, end, parent = spans["start_ns"][i], spans["end_ns"][i], spans["parent"][i]
        check(start <= end, f"span {i} ends before it starts")
        if parent < 0:
            check(names[spans["name"][i]] == "cli.main", f"root span {i} is not cli.main")
            continue
        nested += 1
        check(parent < i, f"span {i} has a later parent")
        check(spans["start_ns"][parent] <= start and end <= spans["end_ns"][parent],
              f"span {i} lies outside its parent")
    check(nested > 0, "no nested spans")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    for test in (check_metrics, check_gate, check_span_tree):
        try:
            test()
        except SelfTestError as exc:
            print(f"FAIL {test.__name__}: {exc}")
            return 1
        print(f"ok   {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
