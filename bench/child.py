"""One benchmark process: import dualselmer from the working tree, run the
workload's first op untimed (that is the set-up time), run the passes, check
every op, and print one JSON line for run.py.

Config (one JSON argument): root, workload, seed, seconds, passes, max_ops,
traced, corrupt, spans_path. With passes = null the run is timed: whole
passes while the next one is predicted to end within `seconds`, at least
one. With an integer it runs exactly that many passes, so a traced run does
the same work every time and its counts can be compared exactly.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
import time
import traceback


def run_op(cli, argv, tracer=None, op_id=0):
    """Call the real entry point with stdout and stderr captured. Returns
    (exit code or None on an escaped exception, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.op_id = op_id
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception:
            rc = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), seconds


def main() -> None:
    cfg = json.loads(sys.argv[1])
    import workloads
    from calibration import kernel_s

    workload = workloads.WORKLOADS[cfg["workload"]]
    sys.path.insert(0, str(cfg["root"]) + "/src")

    for _ in range(3):  # the first readings of a fresh process run cold
        setup_kernel_s = kernel_s()
    t0 = time.perf_counter()
    from dualselmer import cli

    setup = run_op(cli, workload.setup_op)
    setup_s = time.perf_counter() - t0
    setup_kernel_s = math.sqrt(setup_kernel_s * kernel_s())
    records = [(workload.setup_op, setup)]

    tracer = None
    if cfg["traced"]:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    timed = []
    kernel = [kernel_s()]  # kernel[i] and kernel[i + 1] bracket op i
    max_ops = cfg["max_ops"]
    longest = 0.0
    passes = 0
    timed_start = time.perf_counter()
    for n, ops in enumerate(workload.passes(cfg["seed"])):
        if cfg["passes"] is not None:
            if n == cfg["passes"]:
                break
        elif n and time.perf_counter() - timed_start + longest > cfg["seconds"]:
            break
        pass_start = time.perf_counter()
        for argv in ops:
            if len(timed) == max_ops:
                break
            timed.append((argv, run_op(cli, argv, tracer, len(timed))))
            kernel.append(kernel_s())
        passes = n + 1
        longest = max(longest, time.perf_counter() - pass_start)
        if len(timed) == max_ops:
            break
    timed_wall = time.perf_counter() - timed_start
    records += timed

    # everything below is outside the timed region
    errors = []
    for i, (argv, (rc, out, err, _)) in enumerate(records):
        try:
            problem = workload.check(argv, rc, out, cfg["corrupt"])
        except (ValueError, KeyError, TypeError) as exc:  # unparsable output
            problem = f"output not as expected: {exc!r}"
        if problem is not None:
            errors.append({"op": i - 1, "argv": list(argv), "problem": problem,
                           "stderr": err[-400:]})
    failed_ops = {e["op"] for e in errors}
    result = {
        "setup_s": setup_s,
        "timed_wall_s": timed_wall,
        "passes": passes,
        "setup_kernel_s": setup_kernel_s,
        "op_s": [r[3] for _, r in timed if r[0] is not None],
        # geometric mean of the kernel readings right before and after each op
        "op_kernel_s": [math.sqrt(kernel[i] * kernel[i + 1])
                        for i, (_, r) in enumerate(timed) if r[0] is not None],
        "op_slot": [workload.slot(argv) for argv, r in timed if r[0] is not None],
        "op_work": [workload.work(argv) for argv, r in timed if r[0] is not None],
        "attempted": len(records),
        "timed": len(timed),
        "failed": len(failed_ops),
        # refused by a documented bound (exit 1) yet as pinned: not wrong,
        # but no answer either
        "refused": sum(1 for i, (_, r) in enumerate(timed)
                       if r[0] == 1 and i not in failed_ops),
        "errors": errors[:5],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        values, counts = tracer.metrics()
        result.update(layer=values, counts=counts, absent=tracer.absent)
        if cfg["spans_path"]:
            tracer.write_spans(cfg["spans_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
