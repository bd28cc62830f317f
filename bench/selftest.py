"""Self-test of the benchmark harness at tiny sizes (a few minutes):

    python3 bench/selftest.py

It checks that
* every metric named in BENCHMARK.json is printed with its unit, by both
  modes on every workload;
* a traced run puts its wrapper into every module binding of a function,
  including the copies made by `from .x import y`;
* two traced runs of one seed give identical exact counts;
* a corrupted expected digest (or oracle value) is reported as a failure;
* without the program's sources the command fails and prints no result.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
KEYS = {"correct", "attempted", "failed", "metrics"}


class SelfTestFailure(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise SelfTestFailure(message)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "7", "--seconds", "1", *args],
        capture_output=True, text=True, timeout=180, cwd=cwd,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc, result


def check_metrics(result, declared, label):
    expect(result is not None and set(result) == KEYS, f"{label}: bad result line")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == declared, f"{label}: metrics {sorted(got)} != declared {sorted(declared)}")
    for name, metric in result["metrics"].items():
        expect(isinstance(metric["value"], (int, float)), f"{label}: {name} is not a number")


def test_bindings():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import tracer
    from dualselmer import classify, cli, curve, torsion

    t = tracer.Tracer()
    t.install()
    for module, name in ((classify, "torsion_point_degrees"), (torsion, "poly_factor"),
                         (curve, "make_field"), (cli, "is_good_ordinary")):
        expect(hasattr(getattr(module, name), "__wrapped__"),
               f"{module.__name__}.{name} is not traced")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["torsion", "--label", "21a4", "--p", "5", "--q", "2", "--f", "4"])
    values, _ = t.metrics()
    expect(values["arith.poly_factor.calls"] >= 1, "poly_factor call not seen")
    expect(values["curve.is_good_ordinary.calls"] == 0, "phantom is_good_ordinary call")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]

    test_bindings()
    print("ok  wrappers reach every module binding")

    for workload in names:
        proc, result = bench("--workload", workload, "--trace", "0", "--max-ops", "2")
        expect(proc.returncode == 0 and result["correct"], f"{workload}: {proc.stdout}{proc.stderr}")
        check_metrics(result, end_to_end, f"{workload} --trace 0")
        for name, unit in end_to_end.items():
            expect(any(line.split()[:1] == [name] and line.endswith(unit)
                       for line in proc.stdout.splitlines()),
                   f"{workload}: no summary line for {name}")
        for run in (1, 2):
            proc, result = bench("--workload", workload, "--trace", "1", "--max-ops", "2")
            expect(proc.returncode == 0 and result["correct"], f"{workload}: {proc.stdout}{proc.stderr}")
            check_metrics(result, layers, f"{workload} --trace 1")
        expect("exact counts match the previous run" in proc.stdout,
               f"{workload}: exact counts not compared:\n{proc.stdout}")
        print(f"ok  {workload}: all metrics with units; traced counts repeat")

        proc, result = bench("--workload", workload, "--trace", "0", "--max-ops", "1",
                             "--corrupt-expected")
        expect(proc.returncode != 0 and result is not None and not result["correct"]
               and result["failed"] >= 1, f"{workload}: corrupted expectation passed")
        print(f"ok  {workload}: a corrupted expected value is a failure")

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc, result = bench("--workload", names[0], "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and result is None, "ran without the program's sources")
    print("ok  no sources: nonzero exit, no result")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfTestFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)
