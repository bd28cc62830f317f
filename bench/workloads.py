"""The benchmark's two workloads: the argv streams made from a seed, the
fixed first op of each workload, and the correctness check of every op.

A stream is a sequence of passes. Every pass of a workload runs one op in
each of the workload's slots; a slot is one fixed argv, or the primes of one
size and 2-adic class. The seed only chooses the order of a pass and which prime of a
slot's pool comes next. A run measures whole passes, and run.py reads each
op's time as the median of its slot over the run, scaled by the op's size
(`work`), so two seeds differ in the order of the work, not in its amount.

The checks use nothing from dualselmer: pinned stdout digests and exit codes
taken at the commit that defined the benchmark, the published summary of
the paper example, and a stdlib Legendre-symbol point count.
"""
from __future__ import annotations

import hashlib
import json
import math
import random


# Stored a-invariants of the registry curves, for the stdlib oracle.
A_INVARIANTS = {
    "21a4": (1, 0, 0, 1, 0),
    "1950y1": (1, 0, 0, -355303, -89334583),
    "11a1": (0, -1, 1, -10, -20),
    "37a1": (0, 0, 1, -1, 0),
    "389a1": (0, 1, 1, -2, 0),
    "5077a1": (0, 0, 1, -7, 6),
}

PAPER_EXAMPLE_SUMMARY = {
    "P0": [2, 3, 13],
    "P1": [3],
    "P2": [],
    "rank": 1,
    "verdict": "CompletelyFaithfulConditional",
}
PAPER_EXAMPLE_SHA256 = "c9fc41a945f937f95baad93e9bbbaac90856cd15a9d296a824fbc10f0187b553"

# (E, A, p) -> (exit code, sha256 of stdout), pinned at the commit that
# defined the benchmark. Exit 1 is the field-size bound of make_field
# ("cardinality q^f exceeds the enumeration bound"); exit 2 is E not good
# ordinary at p.
CLASSIFY_PINS = {
    ("21a4", "11a1", 7): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("21a4", "37a1", 5): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("11a1", "21a4", 5): (0, "c66cdafbe9e49271bead5842e751e5dbbdf9901949a99e72e755333797334007"),
    ("11a1", "21a4", 7): (0, "16d4c3876c9b00898471bbc63a92a743f3cc2e963f24597f290428456ad625c8"),
    ("11a1", "1950y1", 5): (0, "8444aac4f1c4b74a9ce2b7ad87ca5d005ed2d867cbc145e379181e657b22f125"),
    ("11a1", "389a1", 7): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("11a1", "5077a1", 5): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("37a1", "11a1", 5): (0, "07b659f7a4678a8e40dbb7673e59dcafb05ba78ad5ab29f42048f59cf96c2312"),
    ("37a1", "11a1", 7): (0, "316f9b2b34ce14b4aaf5869f6068414a69e11b3a9202252217e81d90708f67a5"),
    ("37a1", "389a1", 5): (0, "2d0673a30bafe4091c1e145405cffa94c54fb2e3778c993e3b9ccfc2eacf02b6"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _expect_digest(pinned: str, corrupt: bool) -> str:
    # --corrupt-expected flips one hex digit, so the self-test can prove
    # that a digest mismatch is reported as a failure
    if not corrupt:
        return pinned
    return pinned[:-1] + ("0" if pinned[-1] != "0" else "1")


PAPER_EXAMPLE = ("paper-example",)


def _check_paper_example(rc, out, corrupt):
    if rc != 0:
        return f"paper-example: exit {rc}, expected 0"
    summary = json.loads(out)["summary"]
    for key, want in PAPER_EXAMPLE_SUMMARY.items():
        if summary[key] != want:
            return f"paper-example: summary {key} = {summary[key]!r}, published {want!r}"
    if _sha256(out) != _expect_digest(PAPER_EXAMPLE_SHA256, corrupt):
        return "paper-example: stdout digest differs from the pinned one"
    return None


def _classify_argv(E, A, p):
    return ("classify", "--p", str(p), "--label-E", E, "--label-A", A)


class ClassifyMix:
    """The desk check: `paper-example` (E = 21a4, A = 1950y1, p = 5) and
    `classify` over ten (E, A, p) cases, each once per pass, in a seeded
    order. The cases keep every kind of op of the full E x A x {5, 7} grid:
    psi_7 factoring over a large extension (11a1/21a4 at 7, the slowest),
    p = 5 and p = 7 answers, a large-q point count that the field-size bound
    then refuses (5077a1), two cheap refusals by that bound (37a1 at 5,
    389a1 at 7) and an exit 2 (21a4 is not good ordinary at 7)."""

    name = "classify_mix"
    setup_op = _classify_argv("11a1", "21a4", 5)
    ops = (PAPER_EXAMPLE,) + tuple(_classify_argv(*case) for case in CLASSIFY_PINS)

    def passes(self, seed: int):
        rng = random.Random(seed)
        while True:
            order = list(self.ops)
            rng.shuffle(order)
            yield order

    def slot(self, argv):
        return " ".join(argv)

    def work(self, argv):
        return 1  # every op of a slot is the same argv

    def check(self, argv, rc, out, corrupt=False):
        if tuple(argv) == PAPER_EXAMPLE:
            return _check_paper_example(rc, out, corrupt)
        key = (argv[4], argv[6], int(argv[2]))
        want_rc, want_sha = CLASSIFY_PINS[key]
        if want_rc == 1 and rc == 0:
            # refused by a bound at this commit, answered now: no pinned
            # digest exists, so check the report's invariants instead
            return _classify_invariants(json.loads(out))
        if rc != want_rc:
            return f"{key}: exit {rc}, pinned {want_rc}"
        if _sha256(out) != _expect_digest(want_sha, corrupt):
            return f"{key}: stdout digest differs from the pinned one"
        return None


def _classify_invariants(report):
    s = report["summary"]
    if not (set(s["P1"]) <= set(s["P0"]) and set(s["P2"]) <= set(s["P0"])):
        return "P1 or P2 is not a subset of P0"
    n = {"P1": 0, "P2": 0}
    for ev in report["evidence"]:
        if ev["class"] in n:
            n[ev["class"]] += ev["primes_in_Kcyc"]
    if (s["n1_cyc"], s["n2_cyc"]) != (n["P1"], n["P2"]):
        return "n1_cyc/n2_cyc do not match the per-prime evidence"
    rk = report["inputs"]["rk_zp"]
    want_rank = None if rk is None else rk + s["n1_cyc"] + 2 * s["n2_cyc"]
    if s["rank"] != want_rank:
        return f"rank {s['rank']} breaks rk_zp + n1_cyc + 2 n2_cyc = {want_rank}"
    return None


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def legendre_trace(ai, q: int) -> int:
    """a_q = q + 1 - #E(F_q) for an odd prime q, counted as
    -sum_x chi(4x^3 + b2 x^2 + 2 b4 x + b6) with chi by Euler's criterion.
    The count includes the singular point at a bad prime, so the same sum
    gives 1, -1 or 0 at split, nonsplit or additive reduction."""
    a1, a2, a3, a4, a6 = ai
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    half = (q - 1) // 2
    total = 0
    for x in range(q):
        r = pow((((4 * x + b2) * x + 2 * b4) * x + b6) % q, half, q)
        total += 1 if r == 1 else (-1 if r == q - 1 else 0)
    return -total


def _discriminant(ai) -> int:
    a1, a2, a3, a4, a6 = ai
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def _two_adic_valuation(n: int) -> int:
    return (n & -n).bit_length() - 1


class AqSweep:
    """`euler --label L --q q --p 5 --json` with a new prime q every op.

    A pass has five slots, one per curve that is good ordinary at 5. Slot j
    takes its primes from a pool: the POOL primes nearest to anchors[j]
    (log-spaced over [2000, 20000]) whose q - 1 has 2-adic valuation
    valuations[j], because that valuation sets the Tonelli-Shanks cost per
    element. The seed shuffles each pool; pass n takes the n-th prime of
    each, so a run of up to POOL passes never repeats a q.
    """

    name = "aq_sweep"
    setup_op = ("euler", "--label", "21a4", "--q", "10007", "--p", "5", "--json")
    p = 5
    labels = ("21a4", "11a1", "37a1", "389a1", "5077a1")
    anchors = (2000, 3557, 6325, 11247, 20000)
    valuations = (1, 2, 1, 2, 3)
    POOL = 16

    def __init__(self):
        setup_q = int(self.setup_op[4])  # kept out, so every timed q is new
        self.pools = []
        for label, anchor, v in zip(self.labels, self.anchors, self.valuations):
            disc = _discriminant(A_INVARIANTS[label])
            near = sorted(range(anchor // 2, anchor * 2), key=lambda q: (abs(q - anchor), q))
            pool = []
            for q in near:
                if (q != setup_q and disc % q and _two_adic_valuation(q - 1) == v
                        and _is_prime(q)):
                    pool.append(q)
                    if len(pool) == self.POOL:
                        break
            self.pools.append(sorted(pool))

    def passes(self, seed: int):
        rng = random.Random(seed)
        orders = [rng.sample(pool, len(pool)) for pool in self.pools]
        n = 0
        while True:
            ops = [("euler", "--label", label, "--q", str(order[n % self.POOL]),
                    "--p", str(self.p), "--json")
                   for label, order in zip(self.labels, orders)]
            rng.shuffle(ops)
            n += 1
            yield ops

    def slot(self, argv):
        return argv[2]  # the label: one slot per curve

    def work(self, argv):
        # count_points enumerates F_q, so an op's cost grows as q; within a
        # pool q varies by a few percent
        return int(argv[4])

    def check(self, argv, rc, out, corrupt=False):
        label, q, p = argv[2], int(argv[4]), int(argv[6])
        if rc != 0:
            return f"{label} q={q}: exit {rc}, expected 0"
        ai = A_INVARIANTS[label]
        payload = json.loads(out)
        a_q = legendre_trace(ai, q) + (1 if corrupt else 0)
        if _discriminant(ai) % q:
            if a_q * a_q > 4 * q:
                return f"{label} q={q}: oracle a_q = {a_q} breaks the Hasse bound"
            want = [1, -a_q, q]
        else:
            want = [1, -a_q] if a_q else [1]
        if payload["q"] != q or payload["coefficients"] != want:
            return f"{label} q={q}: Euler factor {payload['coefficients']}, oracle {want}"
        a_p = legendre_trace(ai, p)
        root = payload["unit_root"]
        b, prec = int(root["value"]), root["precision"]
        if root["p"] != p or b % p == 0 or (b * b - a_p * b + p) % p ** prec:
            return f"{label} q={q}: unit root {b} fails b^2 - a_p b + p = 0 mod p^{prec}"
        return None


WORKLOADS = {w.name: w for w in (ClassifyMix(), AqSweep())}
