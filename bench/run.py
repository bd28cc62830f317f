"""The dualselmer benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; dualselmer is imported from its `src/`.
Each measurement is a fresh child process (bench/child.py) that drives
`dualselmer.cli.main(argv)` in process; children run one at a time.

--trace 0 prints the end-to-end metrics, with times in reference seconds
(see calibration.py): set-up is the median over SETUP_RUNS fresh processes,
everything else comes from one timed run of whole passes, with each op's
time read as the median of its slot over the run (see slot_times).
--trace 1 runs traced the whole passes that hold the first OVERHEAD_OPS ops,
and those ops again untraced; it prints the per-layer metrics plus trace.overhead_ratio, the
median over those ops of traced / untraced time. Its exact counts are
stored under .bench_out/ and compared with the previous traced run of the
same workload and seed over the same src/ and bench/; a difference is
reported as nondeterminism.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The exit code is 0 only when every op passed its check.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_RUNS = 7
TAIL_PERCENTILE = 90
OVERHEAD_OPS = 10
DEADLINE_S = 170  # every run ends within 180 s

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402
import workloads  # noqa: E402
from calibration import REFERENCE_S  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="stop after this many timed ops (self-test only)")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="perturb every expected value (self-test only)")
    return parser.parse_args(argv)


def tree_sha256(*dirs) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for d in dirs for p in (ROOT / d).rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def provenance(args) -> dict:
    sha, dirty = git_state()
    return {
        "python": platform.python_version(),
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": tree_sha256("src"),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "loadavg_at_start": os.getloadavg(),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class ChildFailed(Exception):
    pass


def run_child(args, started, *, passes, max_ops=None, traced=False,
              spans_path=None) -> dict:
    cfg = {
        "root": str(ROOT), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "passes": passes,
        "max_ops": max_ops if max_ops is not None else args.max_ops,
        "traced": traced, "corrupt": args.corrupt_expected,
        "spans_path": spans_path,
    }
    timeout = max(DEADLINE_S - (time.monotonic() - started), 1)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(cfg)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT,
            # one string-hash seed for every child, so dict and set layouts
            # inside dualselmer do not differ from one process to the next
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise ChildFailed(f"child exceeded the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_s(seconds, kernel):
    """Wall seconds in reference seconds (see calibration.py)."""
    return seconds * REFERENCE_S / kernel


def slot_times(op_s, op_slot, op_work):
    """Each op's time read as the median over its slot: its work times the
    slot's median seconds per unit of work.

    Every pass runs each slot once, and a slot's ops are the same work up
    to their size, so the median over the run's passes drops an op that a
    passing stall hit."""
    per_work = {}
    for slot, seconds, work in zip(op_slot, op_s, op_work):
        per_work.setdefault(slot, []).append(seconds / work)
    median = {slot: statistics.median(v) for slot, v in per_work.items()}
    return [median[slot] * work for slot, work in zip(op_slot, op_work)]


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(math.ceil(pct * len(ordered) / 100), 1) - 1]


def end_to_end(args, started, notes) -> tuple[dict, list]:
    children = [run_child(args, started, passes=0) for _ in range(SETUP_RUNS - 1)]
    run = run_child(args, started, passes=None)
    children.append(run)
    ops = slot_times(list(map(reference_s, run["op_s"], run["op_kernel_s"])),
                     run["op_slot"], run["op_work"])
    wall_ops = slot_times(run["op_s"], run["op_slot"], run["op_work"])
    setups = [reference_s(c["setup_s"], c["setup_kernel_s"]) for c in children]
    not_answered = run["failed"] + run["refused"]
    notes.append(
        f"{len(ops)} ops in {run['passes']} passes of {len(set(run['op_slot']))} slots, "
        f"{run['timed_wall_s']:.3f} s timed wall; op_tail_s is p{TAIL_PERCENTILE} of "
        f"{len(ops)} slot-median op times; setup_s is the median of {SETUP_RUNS} "
        f"fresh processes")
    notes.append(
        f"times are reference seconds; in wall seconds the run read ops_per_s "
        f"{len(wall_ops) / sum(wall_ops):.4g}, op_p50_s {statistics.median(wall_ops):.4g}, "
        f"op_tail_s {nearest_rank(wall_ops, TAIL_PERCENTILE):.4g}, setup_s "
        f"{statistics.median(c['setup_s'] for c in children):.4g}; kernel median "
        f"{statistics.median(run['op_kernel_s']) * 1e3:.4g} ms, reference "
        f"{REFERENCE_S * 1e3:.4g} ms")
    notes.append(
        f"fail_ratio {not_answered / run['timed']:.4f} "
        f"({not_answered} of {run['timed']} timed ops: {run['refused']} refused "
        f"by a resource bound (exit 1), {run['failed']} wrong); "
        f"success_ratio = 1 - fail_ratio")
    metrics = {
        "ops_per_s": (len(ops) / sum(ops), "1/s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "op_tail_s": (nearest_rank(ops, TAIL_PERCENTILE), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024, "MB"),
        "success_ratio": (1 - not_answered / run["timed"], "ratio"),
    }
    return metrics, children


def per_layer(args, started, notes) -> tuple[dict, list]:
    stem = f"{args.workload}-seed{args.seed}"
    pass_ops = len(next(workloads.WORKLOADS[args.workload].passes(args.seed)))
    passes = math.ceil(OVERHEAD_OPS / pass_ops)
    traced = run_child(args, started, passes=passes, traced=True,
                       spans_path=str(OUT / f"spans-{stem}.jsonl"))
    # The first ops run again untraced. Pairing each op with its own
    # untraced time keeps a mixed pass from comparing different cases.
    plain = run_child(args, started, passes=passes,
                      max_ops=min(OVERHEAD_OPS, args.max_ops or OVERHEAD_OPS))
    n = len(plain["op_s"])
    overhead = statistics.median(
        reference_s(t, tk) / reference_s(u, uk) for t, tk, u, uk in zip(
            traced["op_s"], traced["op_kernel_s"], plain["op_s"], plain["op_kernel_s"]))
    metrics = {name: (traced["layer"][name], tracer.unit_of(name))
               for name in tracer.PER_LAYER}
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    notes.append(f"traced {traced['timed']} ops; overhead over the first {n}; "
                 f"spans in .bench_out/spans-{stem}.jsonl")
    if traced["absent"]:
        notes.append("not in the program, read as 0: " + ", ".join(traced["absent"]))

    # exact-count check against the previous traced run of this seed, made
    # by the same program and benchmark code
    fingerprint = tree_sha256("src", "bench")
    counts_path = OUT / f"counts-{stem}-max{args.max_ops}.json"
    mismatch = []
    if counts_path.exists():
        before = json.loads(counts_path.read_text())
        if before["tree_sha256"] == fingerprint:
            mismatch = sorted(k for k in before["counts"].keys() | traced["counts"].keys()
                              if before["counts"].get(k) != traced["counts"].get(k))
            notes.append("exact counts " + (
                "differ from the previous run: nondeterminism in " + ", ".join(mismatch)
                if mismatch else "match the previous run of this seed"))
    counts_path.write_text(json.dumps(
        {"tree_sha256": fingerprint, "counts": traced["counts"]}, indent=1, sort_keys=True))
    if mismatch:
        traced["failed"] += 1
        traced["errors"].append({"problem": "nondeterministic counts: " + ", ".join(mismatch)})
    return metrics, [plain, traced]


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "dualselmer" / "cli.py").is_file():
        print(f"bench: no dualselmer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    prov = provenance(args)
    OUT.mkdir(exist_ok=True)
    notes = []
    try:
        if args.trace:
            metrics, children = per_layer(args, started, notes)
        else:
            metrics, children = end_to_end(args, started, notes)
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    errors = [e for c in children for e in c["errors"]]

    print("provenance: " + json.dumps(prov, sort_keys=True))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    for error in errors:
        print(f"FAILED: {json.dumps(error)}")
    record = {"provenance": prov, "notes": notes, "errors": errors,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
