import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dualselmer import classify, curve, lfunc, registry, torsion
from dualselmer import cli
from dualselmer.cli import EXIT_COMPUTATION, EXIT_HYPOTHESIS, EXIT_OK, EXIT_USAGE, main
from dualselmer.errors import RegistryError
from dualselmer.integers import is_prime
from dualselmer.registry import load_registry, parse_registry

from helpers import check_trace_by_point_orders

FIRST_PRIME_ABOVE_COUNT_BOUND = 10 ** 12 + 39
LAST_PRIME_BELOW_COUNT_BOUND = 10 ** 12 - 11

PAPER_ARGS = [
    "classify",
    "--p", "5",
    "--label-E", "21a4",
    "--label-A", "1950y1",
    "--lambda", "0",
    "--mu", "0",
    "--rk-zp", "0",
]


# -- registry -----------------------------------------------------------------


def test_default_registry_contents():
    table = load_registry()
    assert table["21a4"].a_invariants == (1, 0, 0, 1, 0)
    assert table["1950y1"].a_invariants == (1, 0, 0, -355303, -89334583)
    assert len(table) >= 4


def test_registry_rejects_duplicates():
    with pytest.raises(RegistryError):
        parse_registry("a:0,0,0,1,0\na:0,0,0,1,1\n")


def test_registry_rejects_bad_shapes():
    with pytest.raises(RegistryError):
        parse_registry("a:1,2,3\n")
    with pytest.raises(RegistryError):
        parse_registry("no-colon-line\n")
    with pytest.raises(RegistryError):
        parse_registry("sing:0,0,0,0,0\n")


def test_registry_skips_blank_and_comments():
    table = parse_registry("# comment\n\nx:0,0,0,1,0\n")
    assert list(table) == ["x"]


def test_custom_registry_flag(tmp_path, capsys):
    path = tmp_path / "curves.txt"
    path.write_text("mycurve:1,0,0,1,0\n")
    rc = main(["--registry", str(path), "euler", "--label", "mycurve", "--q", "3"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out == "1 - T\n"


def test_missing_registry_exit_1(capsys):
    rc = main(["--registry", "/nonexistent/curves.txt", "classify", "--p", "5",
               "--label-E", "21a4", "--label-A", "1950y1"])
    assert rc == EXIT_COMPUTATION
    err = capsys.readouterr().err
    assert "/nonexistent/curves.txt" in err
    assert "Traceback" not in err


def test_undecodable_registry_exit_1(tmp_path, capsys):
    path = tmp_path / "curves.txt"
    path.write_bytes(b"\xff\xfe\x00x:1,0,0,1,0\n")
    rc = main(["--registry", str(path), "euler", "--label", "x", "--q", "3"])
    assert rc == EXIT_COMPUTATION
    assert str(path) in capsys.readouterr().err


def test_load_registry_unreadable_path_raises_registry_error(tmp_path):
    with pytest.raises(RegistryError, match="cannot read registry"):
        load_registry(str(tmp_path / "absent.txt"))
    with pytest.raises(RegistryError, match="cannot read registry"):
        load_registry(str(tmp_path))  # a directory


# -- classify -----------------------------------------------------------------


def test_classify_paper_example_json(capsys):
    rc = main(PAPER_ARGS)
    assert rc == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["schema_version"] == 1
    assert data["summary"]["P0"] == [2, 3, 13]
    assert data["summary"]["P1"] == [3]
    assert data["summary"]["P2"] == []
    assert data["summary"]["n1_cyc"] == 1
    assert data["summary"]["n2_cyc"] == 0
    assert data["summary"]["rank"] == 1
    assert data["summary"]["verdict"] == "CompletelyFaithfulConditional"
    assert data["hypotheses"]["pro_p_status"] == "Verified"
    assert any("conditional" in c for c in data["summary"]["caveats"])


def test_classify_rejects_p4(capsys):
    rc = main(["classify", "--p", "4", "--label-E", "21a4", "--label-A", "1950y1"])
    assert rc == EXIT_HYPOTHESIS
    assert "p must be a prime >= 5" in capsys.readouterr().err


def test_classify_without_invariants_inconclusive(capsys):
    rc = main(["classify", "--p", "5", "--label-E", "21a4", "--label-A", "1950y1"])
    assert rc == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["summary"]["verdict"] == "Inconclusive"
    assert data["summary"]["rank"] is None
    assert any("not supplied" in c for c in data["summary"]["caveats"])


def test_classify_cm_curve_exit_2(capsys):
    rc = main(
        ["classify", "--p", "5", "--curve-E", "0,0,0,0,1", "--label-A", "1950y1"]
    )
    assert rc == EXIT_HYPOTHESIS
    assert "complex multiplication" in capsys.readouterr().err


def test_classify_non_ordinary_exit_2(capsys):
    # 37a1 has a_5 = -2? pick p where E is not ordinary: 21a4 at 7 is bad
    rc = main(["classify", "--p", "7", "--label-E", "21a4", "--label-A", "1950y1"])
    assert rc == EXIT_HYPOTHESIS
    assert "ordinary" in capsys.readouterr().err


def test_classify_non_minimal_exit_1(capsys):
    # 21a4 scaled by u = 2 trips the per-prime minimality check
    rc = main(
        ["classify", "--p", "5", "--label-E", "21a4", "--curve-A", "2,0,0,16,0"]
    )
    assert rc == EXIT_COMPUTATION


@pytest.mark.parametrize("c,big_q", [(49, 1047779), (20000, 15709483633)])
def test_classify_at_a_bad_prime_above_1e6(c, big_q, capsys):
    # y^2 + y = x^3 - x + c is bad at big_q, so classify needs a_q of E at
    # big_q, which the former count bound 10^6 refused (exit 1)
    A = f"0,0,1,-1,{c}"
    assert curve.WeierstrassCurve(0, 0, 1, -1, c).discriminant % big_q == 0
    rc = main(["classify", "--p", "5", "--label-E", "11a1", "--curve-A", A])
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert big_q in report["summary"]["P0"]
    (ev,) = [ev for ev in report["evidence"] if ev["q"] == big_q]
    assert ev["reduction_over_Q"]["type"] == "good"
    check_trace_by_point_orders(
        load_registry()["11a1"], big_q, ev["reduction_over_Q"]["trace"]
    )


def test_classify_at_a_bad_prime_above_count_bound_exit_1(capsys):
    # y^2 + y = x^3 - x + 48113 has the one bad prime 1000030244579 > 10^12
    rc = main(["classify", "--p", "5", "--label-E", "11a1", "--curve-A", "0,0,1,-1,48113"])
    assert rc == EXIT_COMPUTATION
    assert "q = 1000030244579 exceeds the point-count bound" in capsys.readouterr().err


def test_classify_precision_flag_removed(capsys):
    rc = main(["classify", "--p", "5", "--label-E", "21a4", "--label-A", "1950y1",
               "--precision", "5"])
    assert rc == EXIT_USAGE
    assert "--precision" in capsys.readouterr().err


def test_classify_singular_inline_curve_exit_2(capsys):
    rc = main(["classify", "--p", "5", "--curve-E", "0,0,0,0,0",
               "--label-A", "1950y1"])
    assert rc == EXIT_HYPOTHESIS
    err = capsys.readouterr().err
    assert "discriminant" in err and "is 0" in err


def test_euler_singular_inline_curve_exit_2(capsys):
    rc = main(["euler", "--curve", "0,0,0,-3,2", "--q", "5"])
    assert rc == EXIT_HYPOTHESIS
    assert "discriminant" in capsys.readouterr().err


def test_classify_text_mode(capsys):
    rc = main(PAPER_ARGS + ["--text"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "P0 (bad primes of A away from p): {2, 3, 13}" in out
    assert "P1 = {3}, P2 = {}" in out
    assert "verdict: CompletelyFaithfulConditional" in out
    assert out.index("P0 ") < out.index("reduction of E") < out.index("verdict")


def test_classify_requires_one_curve_source(capsys):
    rc = main(
        ["classify", "--p", "5", "--label-E", "21a4", "--curve-E", "1,0,0,1,0",
         "--label-A", "1950y1"]
    )
    assert rc == EXIT_USAGE
    rc = main(["classify", "--p", "5", "--label-A", "1950y1"])
    assert rc == EXIT_USAGE


def test_classify_unknown_label(capsys):
    rc = main(["classify", "--p", "5", "--label-E", "nope", "--label-A", "1950y1"])
    assert rc == EXIT_USAGE


# -- paper-example ------------------------------------------------------------


def test_paper_example_matches_classify_summary(capsys):
    rc = main(["paper-example"])
    assert rc == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["summary"]["P0"] == [2, 3, 13]
    assert data["summary"]["P1"] == [3]
    assert data["summary"]["rank"] == 1
    assert data["summary"]["verdict"] == "CompletelyFaithfulConditional"
    assert any("paper-conditional" in c for c in data["summary"]["caveats"])
    evidence = {ev["q"]: ev for ev in data["evidence"]}
    assert evidence[2]["torsion_profile"]["x_factor_degrees"] == [3, 3, 3, 3]
    assert evidence[13]["torsion_profile"]["x_factor_degrees"] == [3, 3, 3, 3]
    assert evidence[3]["reduction_over_Q"]["type"] == "split_multiplicative"


def test_paper_example_byte_identical(capsys):
    assert main(["paper-example"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["paper-example"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second


def test_paper_example_json_round_trip(capsys):
    assert main(["paper-example"]) == EXIT_OK
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == out


# -- euler ---------------------------------------------------------------------


def test_euler_split(capsys):
    rc = main(["euler", "--label", "21a4", "--q", "3"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out == "1 - T\n"


def test_euler_good_with_unit_root(capsys):
    rc = main(
        ["euler", "--label", "21a4", "--q", "5", "--p", "5", "--precision", "1"]
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "1 + 2T + 5T^2" in out
    assert "unit root: 3 (mod 5^1)" in out


def test_euler_json(capsys):
    rc = main(
        ["euler", "--label", "21a4", "--q", "5", "--p", "5", "--precision", "3",
         "--json"]
    )
    assert rc == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["coefficients"] == [1, 2, 5]
    assert data["unit_root"]["value"] == "113"


def test_euler_composite_q(capsys):
    rc = main(["euler", "--label", "21a4", "--q", "21"])
    assert rc == EXIT_HYPOTHESIS
    assert "not prime" in capsys.readouterr().err


def test_euler_not_ordinary_exit_2(capsys):
    rc = main(["euler", "--label", "21a4", "--q", "2", "--p", "7"])
    assert rc == EXIT_HYPOTHESIS


# -- torsion --------------------------------------------------------------------


def test_euler_above_enumeration_bound_exit_1_fast(capsys):
    # q = 10^12 + 39 is the first prime above the point-count bound
    start = time.perf_counter()
    rc = main(["euler", "--label", "21a4", "--q", str(FIRST_PRIME_ABOVE_COUNT_BOUND)])
    elapsed = time.perf_counter() - start
    assert rc == EXIT_COMPUTATION
    assert "point-count bound 1000000000000" in capsys.readouterr().err
    assert elapsed < 1.0


def test_count_bound_neighbours_are_consecutive_primes():
    assert is_prime(LAST_PRIME_BELOW_COUNT_BOUND) and is_prime(FIRST_PRIME_ABOVE_COUNT_BOUND)
    assert not any(
        is_prime(n)
        for n in range(LAST_PRIME_BELOW_COUNT_BOUND + 1, FIRST_PRIME_ABOVE_COUNT_BOUND)
    )


@pytest.mark.parametrize("q", [1000003, LAST_PRIME_BELOW_COUNT_BOUND])
def test_euler_above_old_bound_exit_0_fast(q, capsys):
    start = time.perf_counter()
    rc = main(["euler", "--label", "11a1", "--q", str(q), "--p", "5", "--json"])
    elapsed = time.perf_counter() - start
    assert rc == EXIT_OK
    assert elapsed < 1.0
    payload = json.loads(capsys.readouterr().out)
    one, minus_a_q, q_out = payload["coefficients"]
    assert (one, q_out) == (1, q)
    check_trace_by_point_orders(load_registry()["11a1"], q, -minus_a_q)


def test_euler_checks_p_before_counting(monkeypatch, capsys):
    # an invalid --p needs no point count of F_q
    calls = []
    monkeypatch.setattr(lfunc, "euler_factor", lambda *args: calls.append(args))
    rc = main(["euler", "--label", "21a4", "--q", "999983", "--p", "4"])
    assert rc == EXIT_HYPOTHESIS
    assert calls == []
    assert "p must be a prime >= 5" in capsys.readouterr().err


def test_euler_prime_near_enumeration_bound(capsys):
    # q = 999983, the largest prime under the former count bound 10^6
    rc = main(["euler", "--label", "21a4", "--q", "999983", "--json"])
    assert rc == EXIT_OK
    one, minus_a_q, q = json.loads(capsys.readouterr().out)["coefficients"]
    assert (one, q) == (1, 999983)
    assert minus_a_q * minus_a_q <= 4 * q


def test_torsion_command(capsys):
    rc = main(["torsion", "--label", "21a4", "--p", "5", "--q", "2", "--f", "4"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "x-factor degrees over F_(2^4): [3, 3, 3, 3]" in out
    assert "point degrees: [6, 6, 6, 6]" in out
    assert "tower torsion: false" in out


def test_torsion_json(capsys):
    rc = main(
        ["torsion", "--label", "21a4", "--p", "5", "--q", "13", "--f", "4",
         "--json"]
    )
    assert rc == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["x_factor_degrees"] == [3, 3, 3, 3]
    assert data["tower_torsion"] is False


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_torsion_factors_psi_p_once(monkeypatch, capsys, extra):
    calls = []
    original = torsion.torsion_point_degrees

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(torsion, "torsion_point_degrees", counting)
    rc = main(["torsion", "--label", "1950y1", "--p", "5", "--q", "7", "--f", "1",
               *extra])
    assert rc == EXIT_OK
    assert len(calls) == 1
    out = capsys.readouterr().out
    assert ("true" in out) and ("false" not in out)


def test_classify_decides_hypotheses_once(monkeypatch, capsys):
    calls = {"is_good_ordinary": [], "is_cm": []}

    def counting(name, original):
        def wrapper(*args):
            calls[name].append(args)
            return original(*args)
        return wrapper

    # every module binding of the two predicates
    originals = {name: getattr(curve, name) for name in calls}
    for module in (curve, classify, cli):
        for name, original in originals.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, original))
    rc = main(["classify", "--p", "5", "--label-E", "21a4", "--label-A", "1950y1"])
    assert rc == EXIT_OK
    table = load_registry()
    assert [(c.a_invariants, p) for c, p in calls["is_good_ordinary"]] == [
        (table["21a4"].a_invariants, 5)
    ]
    assert sorted(c[0].a_invariants for c in calls["is_cm"]) == sorted(
        (table["21a4"].a_invariants, table["1950y1"].a_invariants)
    )
    assert json.loads(capsys.readouterr().out)["hypotheses"]["ordinary_ok"] is True


def test_torsion_bad_reduction_exit_2(capsys):
    rc = main(["torsion", "--label", "21a4", "--p", "5", "--q", "3", "--f", "4"])
    assert rc == EXIT_HYPOTHESIS


# -- usage errors ------------------------------------------------------------------


def test_usage_error_codes():
    assert main([]) == EXIT_USAGE
    assert main(["classify"]) == EXIT_USAGE
    assert main(["classify", "--p", "x"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["euler", "--label", "21a4"]) == EXIT_USAGE  # missing --q


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["euler", "--label", "21a4", "--q", "5", "--p", "5", "--precision", "0"],
         "--precision"),
        (["euler", "--label", "21a4", "--q", "5", "--p", "5", "--precision", "-3"],
         "--precision"),
        (["classify", "--p", "5", "--label-E", "21a4", "--label-A", "21a4",
          "--rk-zp", "-1"], "--rk-zp"),
        (["classify", "--p", "5", "--label-E", "21a4", "--label-A", "1950y1",
          "--lambda", "-1", "--mu", "0", "--rk-zp", "0"], "--lambda"),
        (["classify", "--p", "5", "--label-E", "21a4", "--label-A", "1950y1",
          "--lambda", "0", "--mu", "-2", "--rk-zp", "0"], "--mu"),
    ],
)
def test_out_of_range_flags_exit_64_at_parse_time(argv, flag):
    rc, out, err = _run_in_fresh_process(argv)
    assert rc == EXIT_USAGE
    assert flag in err
    assert "Traceback" not in err
    assert out == ""


def test_console_script_when_installed():
    exe = shutil.which("dualselmer")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "euler", "--label", "21a4", "--q", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout == "1 - T\n"


def _src_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def _run_in_fresh_process(argv):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from dualselmer.cli import main; raise SystemExit(main(sys.argv[1:]))",
         *argv],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("module", ["dualselmer", "dualselmer.cli"])
def test_python_m_runs_the_cli(module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "paper-example"],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == EXIT_OK
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        STDOUT_SHA256[("paper-example",)]
    )


def test_classify_p19_answers(capsys):
    # psi_19 has degree 180; the profile needs no factoring of it over
    # F_(2^18) or F_(5^9)
    start = time.perf_counter()
    rc = main(["classify", "--p", "19", "--label-E", "21a4", "--label-A", "1950y1"])
    elapsed = time.perf_counter() - start
    assert rc == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["summary"]["P0"] == [2, 3, 5, 13]
    assert elapsed < 10.0


def test_module_invocation_help():
    proc = subprocess.run(
        [sys.executable, "-c", "from dualselmer.cli import main; raise SystemExit(main(['--help']))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "classify" in proc.stdout


# -- repeated calls in one process ---------------------------------------------


def test_build_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize(
    "first,first_rc,second",
    [
        ([*PAPER_ARGS, "--text"], EXIT_OK, PAPER_ARGS),
        (["euler", "--label", "11a1", "--q", "101", "--p", "5", "--json"], EXIT_OK,
         ["euler", "--label", "11a1", "--q", "101", "--p", "5"]),
        (["classify", "--p", "x"], EXIT_USAGE, ["euler", "--label", "21a4", "--q", "5"]),
        (["--help"], EXIT_OK, ["torsion", "--label", "21a4", "--p", "5", "--q", "2", "--f", "4"]),
    ],
    ids=["text-then-json", "euler-json-then-plain", "usage-error-then-ok", "help-then-ok"],
)
def test_second_call_matches_a_fresh_process(first, first_rc, second, capsys):
    assert main(first) == first_rc
    capsys.readouterr()
    rc = main(second)
    out, err = capsys.readouterr()
    assert (rc, out, err) == _run_in_fresh_process(second)


def test_load_registry_returns_a_new_dict_each_call():
    table = load_registry()
    curve_11a1 = table["11a1"]
    table.clear()
    table["21a4"] = curve_11a1
    assert load_registry()["21a4"].a_invariants == (1, 0, 0, 1, 0)


def test_registry_path_is_read_on_every_call(tmp_path, capsys):
    path = tmp_path / "curves.txt"
    argv = ["--registry", str(path), "euler", "--label", "c", "--q", "3"]
    path.write_text("c:1,0,0,1,0\n")  # 21a4, split multiplicative at 3
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == "1 - T\n"
    path.write_text("c:0,-1,1,-10,-20\n")  # 11a1, good at 3
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == "1 + T + 3T^2\n"


def test_classify_reads_the_registry_once(monkeypatch, tmp_path, capsys):
    path = tmp_path / "curves.txt"
    path.write_text("21a4:1,0,0,1,0\n1950y1:1,0,0,-355303,-89334583\n")
    reads = []
    real = registry.load_registry
    monkeypatch.setattr(
        registry, "load_registry", lambda path=None: reads.append(path) or real(path)
    )
    assert main(["--registry", str(path), *PAPER_ARGS]) == EXIT_OK
    assert reads == [str(path)]
    assert main(["euler", "--curve", "1,0,0,1,0", "--q", "3"]) == EXIT_OK
    assert main(["classify", "--p", "5", "--curve-E", "1,0,0,1,0",
                 "--curve-A", "1,0,0,-355303,-89334583"]) == EXIT_OK
    assert reads == [str(path)]


def test_curve_flags_are_checked_before_the_registry_is_read(capsys):
    rc = main(["--registry", "/nonexistent/curves.txt", "classify", "--p", "5",
               "--label-E", "21a4"])
    assert rc == EXIT_USAGE
    assert "give exactly one of --curve-A or --label-A" in capsys.readouterr().err


# the flags of each subcommand in groups: a well-formed argv takes one flag
# of each group, or none where the group holds None
FUZZ_FLAGS = {
    "classify": [["--p"], ["--curve-E", "--label-E"], ["--curve-A", "--label-A"],
                 ["--lambda", None], ["--mu", None], ["--rk-zp", None],
                 ["--json", "--text", None]],
    "paper-example": [["--json", "--text", None]],
    "euler": [["--curve", "--label"], ["--q"], ["--p", None], ["--precision", None],
              ["--json", None]],
    "torsion": [["--curve", "--label"], ["--p"], ["--q"], ["--f"], ["--json", None]],
}
SMALL_INT = st.integers(-2, 6).map(str)
CURVE = st.lists(st.integers(-12, 12), min_size=5, max_size=5).map(
    lambda a: ",".join(map(str, a))
)
LABEL = st.sampled_from(["21a4", "1950y1", "11a1", "37a1", "389a1", "5077a1"])
FLAG_VALUES = {
    "--p": st.sampled_from(["-5", "0", "1", "2", "3", "4", "5", "7", "9", "11", "13"]),
    "--q": st.sampled_from(["-3", "0", "1", "2", "3", "5", "7", "11", "25", "101", "1009"]),
    "--f": SMALL_INT, "--lambda": SMALL_INT, "--mu": SMALL_INT, "--rk-zp": SMALL_INT,
    "--precision": SMALL_INT,
    "--curve": CURVE, "--curve-E": CURVE, "--curve-A": CURVE,
    "--label": LABEL, "--label-E": LABEL, "--label-A": LABEL,
}
GARBAGE = st.sampled_from(
    ["", "x", "-", "--", "-h", "--help", "--p", "--cur", "--json", "--text", "1.5",
     "0x10", "1e3", "1_0", " 7", "-1", "1,2", "a,b,c,d,e", "0,0,0,0,0", "nope",
     "classify", "\u0663"]
)


@st.composite
def fuzz_argv(draw):
    """A well-formed argv with small numeric values, then up to two edits,
    each deleting a token or inserting a garbage one."""
    argv = []
    if draw(st.booleans()):
        argv += ["--registry", draw(st.sampled_from(
            [str(resources.files("dualselmer") / "curves.txt"), "/nonexistent/curves.txt"]
        ))]
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv.append(command)
    for group in FUZZ_FLAGS[command]:
        flag = draw(st.sampled_from(group))
        if flag is not None:
            argv.append(flag)
            if flag in FLAG_VALUES:
                argv.append(draw(FLAG_VALUES[flag]))
    for _ in range(draw(st.integers(0, 2))):
        if argv and draw(st.booleans()):
            del argv[draw(st.integers(0, len(argv) - 1))]
        else:
            argv.insert(draw(st.integers(0, len(argv))), draw(GARBAGE))
    return argv


@settings(max_examples=300, deadline=None)
@given(fuzz_argv())
def test_argv_fuzz_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (EXIT_OK, EXIT_COMPUTATION, EXIT_HYPOTHESIS, EXIT_USAGE)
    assert "Traceback" not in err.getvalue()


# -- pinned output bytes -------------------------------------------------------------

# sha256 of stdout; the paper example and the first six classify cases are
# the digests that the benchmark pins, the torsion case was taken from the
# release before polynomials became int vectors, and classify at p = 13 from
# the release that still factored psi_p
STDOUT_SHA256 = {
    ("paper-example",):
        "c9fc41a945f937f95baad93e9bbbaac90856cd15a9d296a824fbc10f0187b553",
    ("classify", "--p", "5", "--label-E", "11a1", "--label-A", "21a4"):
        "c66cdafbe9e49271bead5842e751e5dbbdf9901949a99e72e755333797334007",
    ("classify", "--p", "7", "--label-E", "11a1", "--label-A", "21a4"):
        "16d4c3876c9b00898471bbc63a92a743f3cc2e963f24597f290428456ad625c8",
    ("classify", "--p", "5", "--label-E", "11a1", "--label-A", "1950y1"):
        "8444aac4f1c4b74a9ce2b7ad87ca5d005ed2d867cbc145e379181e657b22f125",
    ("classify", "--p", "5", "--label-E", "37a1", "--label-A", "11a1"):
        "07b659f7a4678a8e40dbb7673e59dcafb05ba78ad5ab29f42048f59cf96c2312",
    ("classify", "--p", "7", "--label-E", "37a1", "--label-A", "11a1"):
        "316f9b2b34ce14b4aaf5869f6068414a69e11b3a9202252217e81d90708f67a5",
    ("classify", "--p", "5", "--label-E", "37a1", "--label-A", "389a1"):
        "2d0673a30bafe4091c1e145405cffa94c54fb2e3778c993e3b9ccfc2eacf02b6",
    ("torsion", "--label", "11a1", "--p", "7", "--q", "3", "--f", "6", "--json"):
        "7b128736bfee3ea1aedadf7ceed84c4daaa6d7ad55a1aaddfc0591fa427f6a81",
    ("classify", "--p", "13", "--label-E", "21a4", "--label-A", "1950y1"):
        "85971e4904397051d0c4c2ce1625875cb67917833ad3350851cca50b8ecd322b",
    # refused by the field-size bound while the profile came from factoring
    # psi_p over F_(q^f); their profiles are checked against that factoring
    # in test_classify
    ("classify", "--p", "5", "--label-E", "21a4", "--label-A", "37a1"):
        "700e4e5ff9ac546a7effebff24d6d82ec318cf4b0629cc501109cfa5014f1fc8",
    ("classify", "--p", "7", "--label-E", "11a1", "--label-A", "389a1"):
        "67469b73f763a2f99468aff1417196ca80139388c84f2718332de2be5de48751",
    ("classify", "--p", "5", "--label-E", "11a1", "--label-A", "5077a1"):
        "1dd1603420c7d6b0aa14765941bba67dad4b969f24e023c85441e7e1fa8bef8e",
}


@pytest.mark.parametrize("argv", list(STDOUT_SHA256), ids=" ".join)
def test_stdout_bytes_pinned(argv, capsys):
    rc = main(list(argv))
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]
