import argparse
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eiskron import relations
from eiskron.cli import NUMERIC_CHECKS, build_parser, main


# numeric argv whose residual or tail estimate leaves the float range
# (inf or nan), though the weight and the automorphy factor stay inside it
NONFINITE_ARGV = [
    ["numeric", "--check", "modularity", "--weight", "100", "--tau", "1e3,1"],
    ["numeric", "--check", "modularity", "--weight", "140", "--tau", "0.5,20"],
    ["numeric", "--check", "relation", "--weight", "160", "--tau", "0.1,0.02"],
    ["numeric", "--check", "diff", "--weight", "160", "--tau", "0.3,1e-8"],
]


# numeric argv whose tau puts a Fourier phase outside the float range
# (2 pi |tau| 81 overflows): bad input, one error line and exit 2, not a
# NaN report, numpy warnings or a cmath domain error
FLOAT_EDGE_ARGV = [
    ["numeric", "--check", "asymptotics", "--weight", "2", "--tau", "0,1e306", "--json"],
    ["numeric", "--check", "relation", "--tau", "1e306,1"],
    ["numeric", "--check", "relation", "--tau", "3e307,1"],
]

# each subcommand's options as (option string, default, required): the
# shared ones are declared once, and every subcommand must still take them
OPTION_SETS = {
    "expand": {("--level", None, True), ("--weight", None, True), ("--a", None, True),
               ("--order", 40, False), ("--json", False, False)},
    "bg-series": {("--level", None, True), ("--weight", None, True), ("--a", None, True),
                  ("--order", 40, False), ("--json", False, False)},
    "verify": {("--level", None, True), ("--weight", None, True), ("--split", None, True),
               ("--a", None, True), ("--b", None, True), ("--order", 40, False),
               ("--json", False, False)},
    "scan": {("--level-max", None, True), ("--weight-max", 6, False),
             ("--order", 40, False), ("--parallel", 1, False), ("--json", False, False)},
    "recurrences": {("--degree-max", 10, False), ("--json", False, False)},
    "numeric": {("--check", None, True), ("--tau", complex(0.3, 1.1), False),
                ("--weight", None, False), ("--split", None, False),
                ("--seed", None, False), ("--json", False, False)},
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_option_sets_unchanged():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {name: {(s, a.default, a.required) for a in p._actions if a.dest != "help"
                   for s in a.option_strings}
            for name, p in sub.choices.items()} == OPTION_SETS


class TestExpand:
    def test_level_one_weight_four(self, capsys):
        code, out, _ = run(capsys, "expand", "--level", "1", "--weight", "4",
                           "--a", "0,0", "--order", "4")
        assert code == 0
        assert "(-1/120)" in out and "(-2)*q" in out and "(-18)*q^2" in out \
            and "(-56)*q^3" in out

    def test_fractional_exponent_series(self, capsys):
        code, out, _ = run(capsys, "expand", "--level", "4", "--weight", "3",
                           "--a", "1,0", "--order", "6", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["level"] == 4 and doc["order"] == 6
        assert any(e["n"] % 4 != 0 for e in doc["coeffs"])

    def test_excluded_index_exits_2(self, capsys):
        code, _, err = run(capsys, "expand", "--level", "4", "--weight", "2",
                           "--a", "0,0")
        assert code == 2
        assert "error" in err

    def test_json_round_trip(self, capsys):
        from eiskron.qseries import QExpansion
        from eiskron.eisenstein import EisensteinIndex, eisenstein_qexp
        code, out, _ = run(capsys, "expand", "--level", "3", "--weight", "2",
                           "--a", "1,2", "--order", "12", "--json")
        assert code == 0
        f = QExpansion.from_json(out)
        g = eisenstein_qexp(EisensteinIndex(2, 3, 1, 2), 12)
        assert f.coeffs == g.coeffs

    def test_malformed_pair_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "expand", "--level", "3", "--weight", "2", "--a", "xy")
        assert exc.value.code == 2


class TestBgSeries:
    def test_integer_exponents(self, capsys):
        code, out, _ = run(capsys, "bg-series", "--level", "3", "--weight", "3",
                           "--a", "1", "--order", "8", "--json")
        assert code == 0
        doc = json.loads(out)
        assert all(e["n"] % 3 == 0 for e in doc["coeffs"])
        assert doc["coeffs"][0]["n"] == 0
        assert doc["coeffs"][0]["c"][0] == [-1, 9]


class TestVerify:
    ARGS = ["verify", "--level", "3", "--weight", "2", "--split", "0,0",
            "--a", "1,0", "--b", "0,1"]

    def test_basic_instance(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--order", "40")
        assert code == 0
        assert "verified" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["residual_zero"] is True
        assert doc["first_nonzero_exponent"] is None
        assert doc["instance"]["c"] == [2, 2]

    def test_zero_c_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--level", "3", "--weight", "2",
                           "--split", "0,0", "--a", "1,0", "--b", "2,0")
        assert code == 2 and "error" in err

    def test_bad_split_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--level", "3", "--weight", "2",
                         "--split", "1,0", "--a", "1,0", "--b", "0,1")
        assert code == 2

    def test_level_zero_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--level", "0", "--weight", "2",
                             "--split", "0,0", "--a", "1,0", "--b", "0,1")
        assert code == 2 and out == "" and "level must be >= 1" in err

    def test_failing_instance_exits_1(self, capsys, monkeypatch):
        # alpha + 1 in every plan: the residual is E^(2)_a, whose constant
        # term B_2(1/3)/2 is nonzero
        plan = relations._plan

        def mutated(k1, k2):
            p = plan(k1, k2)
            return p._replace(negated=(p.negated[0] + 1, *p.negated[1:]))

        monkeypatch.setattr(relations, "_plan", mutated)
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 1
        assert out == "FAILED: first nonzero exponent 0/3\n"

    def test_weight_eight(self, capsys):
        code, _, _ = run(capsys, "verify", "--level", "2", "--weight", "8",
                         "--split", "3,3", "--a", "1,0", "--b", "0,1")
        assert code == 0


@pytest.mark.parametrize("order", ["0", "-5"])
@pytest.mark.parametrize("argv", [TestVerify.ARGS,
                                  ["scan", "--level-max", "3", "--weight-max", "3"]])
def test_nonpositive_order_exits_2(capsys, argv, order):
    code, out, err = run(capsys, *argv, "--order", order, "--json")
    assert code == 2 and out == "" and "order must be >= 1" in err


class TestScan:
    def test_small_scan(self, capsys):
        code, out, _ = run(capsys, "scan", "--level-max", "3",
                           "--weight-max", "3", "--order", "24", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["failed"] == 0 and doc["instances"] == doc["passed"]

    def test_level_one_empty(self, capsys):
        # nothing to verify must not pass vacuously
        code, out, err = run(capsys, "scan", "--level-max", "1", "--json")
        assert code == 2
        assert out == "" and "nothing to verify" in err

    def test_weight_one_empty(self, capsys):
        code, out, _ = run(capsys, "scan", "--level-max", "3", "--weight-max", "1")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    def test_bad_parallel_exits_2(self, capsys, workers):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "scan", "--level-max", "2", "--parallel", workers)
        assert exc.value.code == 2

    def test_parallel_clamped_to_cpu_count(self, monkeypatch):
        # read the parsed value; no worker process is started
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        parse = build_parser().parse_args
        # the CPUs this process may run on, not the machine's: taskset -c 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert parse(["scan", "--level-max", "2", "--parallel", "2"]).parallel == 1
        # where the OS reports no affinity, the CPU count
        monkeypatch.delattr(os, "sched_getaffinity")
        assert parse(["scan", "--level-max", "2", "--parallel", "64"]).parallel == 2
        assert parse(["scan", "--level-max", "2", "--parallel", "1"]).parallel == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert parse(["scan", "--level-max", "2", "--parallel", "4"]).parallel == 1

    def test_parallel_matches_serial(self, capsys):
        _, out1, _ = run(capsys, "scan", "--level-max", "3", "--weight-max", "3",
                         "--order", "16", "--parallel", "1", "--json")
        _, out2, _ = run(capsys, "scan", "--level-max", "3", "--weight-max", "3",
                         "--order", "16", "--parallel", "8", "--json")
        assert out1 == out2


class TestRecurrences:
    def test_degree_ten(self, capsys):
        code, out, _ = run(capsys, "recurrences", "--degree-max", "10", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_pass"]
        # 10 identities for each (k1, k2) with k1 + k2 <= 10
        assert len(doc["checks"]) == 10 * sum(d + 1 for d in range(11))

    def test_negative_degree_exits_2(self, capsys):
        code, out, err = run(capsys, "recurrences", "--degree-max", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: --degree-max must be >= 0\n"


class TestNumeric:
    def test_relation(self, capsys):
        code, out, _ = run(capsys, "numeric", "--check", "relation",
                           "--weight", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] and all(r["pass"] for r in doc["reports"])
        assert all(r["residual"] < 1e-8 for r in doc["reports"])

    def test_relation_evaluates_each_point_once(self, capsys, monkeypatch):
        # four point pairs, three points each: 12 Fourier grids serve all
        # five splits of weight 6
        from eiskron import numeric as nm
        calls, evaluate = [], nm.eval_E_fourier_upto

        def counting(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(nm, "eval_E_fourier_upto", counting)
        code, out, _ = run(capsys, "numeric", "--check", "relation",
                           "--weight", "6", "--json")
        assert code == 0 and len(json.loads(out)["reports"]) == 5 * 4
        assert len(calls) == 12

    def test_diff(self, capsys):
        code, out, _ = run(capsys, "numeric", "--check", "diff",
                           "--weight", "4", "--json")
        assert code == 0
        assert json.loads(out)["pass"]

    def test_bracket(self, capsys):
        code, out, _ = run(capsys, "numeric", "--check", "bracket",
                           "--split", "2,1", "--json")
        assert code == 0
        assert json.loads(out)["pass"]

    def test_modularity(self, capsys):
        code, out, _ = run(capsys, "numeric", "--check", "modularity",
                           "--weight", "3", "--tau", "0,1.3", "--json")
        assert code == 0
        assert json.loads(out)["pass"]

    def test_modularity_tail_bounds_both_truncated_sums(self, capsys):
        # the left side is a Fourier sum at gamma tau: the S image of the
        # default tau has Im 0.85 against Im tau = 1.1, so the two reports'
        # tails differ, each tail(gamma tau) + |c tau + d|^k tail(tau)
        from eiskron import numeric as nm
        code, out, _ = run(capsys, "numeric", "--check", "modularity", "--json")
        assert code == 0
        T, S = json.loads(out)["reports"]
        tau = complex(0.3, 1.1)

        def tail(t):
            return nm.fourier_tail_estimate(3, nm.NumericConfig(tau=t))

        assert T["tail_estimate"] == pytest.approx(tail(tau + 1) + tail(tau), rel=1e-12)
        assert S["tail_estimate"] == pytest.approx(tail(-1 / tau) + abs(tau) ** 3 * tail(tau),
                                                   rel=1e-12)
        assert S["tail_estimate"] > 1e50 * T["tail_estimate"]

    def test_modularity_image_near_the_axis_names_the_typed_tau(self, capsys):
        # S sends 1e8 + 1e-3 i to about -1e-8 + 1e-19 i, where |q| is 1.0:
        # the error names the tau given and the gamma, not the image
        code, out, err = run(capsys, "numeric", "--check", "modularity",
                             "--tau", "1e8,1e-3")
        assert code == 2 and out == ""
        assert err == ("error: the image of tau (100000000+0.001j) under gamma "
                       "((0, -1), (1, 0)) is too close to the real axis\n")

    def test_diff_reports_the_step_it_runs(self, capsys, monkeypatch):
        # the report's h is the step the check was given, from one constant
        from eiskron import numeric as nm
        steps, check = [], nm.check_diff_relation

        def recording(*args):
            steps.append(args[3:])
            return check(*args)

        monkeypatch.setattr(nm, "check_diff_relation", recording)
        monkeypatch.setattr(nm, "FD_STEP", 2e-4)
        code, out, _ = run(capsys, "numeric", "--check", "diff", "--json")
        assert code == 0
        assert json.loads(out)["reports"][0]["params"]["h"] == 2e-4 and steps == [(2e-4,)]

    def test_asymptotics(self, capsys):
        code, out, _ = run(capsys, "numeric", "--check", "asymptotics",
                           "--weight", "2", "--tau", "0,1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"][0]["limit_error"] < 1e-6

    def test_seed_reproducibility(self, capsys):
        args = ["numeric", "--check", "relation", "--weight", "2",
                "--seed", "123", "--json"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_bad_weight_exits_2(self, capsys):
        code, _, _ = run(capsys, "numeric", "--check", "asymptotics",
                         "--weight", "5")
        assert code == 2

    @pytest.mark.parametrize("check", ["relation", "diff", "modularity", "asymptotics"])
    def test_weight_zero_exits_2(self, capsys, check):
        code, _, _ = run(capsys, "numeric", "--check", check, "--weight", "0")
        assert code == 2

    @pytest.mark.parametrize("check,option", [
        ("relation", ["--split", "1,0"]),
        ("diff", ["--split", "9,9"]),
        ("bracket", ["--weight", "7"]),
        ("modularity", ["--split", "1,0"]),
        ("modularity", ["--seed", "5"]),
        ("asymptotics", ["--split", "1,0"]),
        ("asymptotics", ["--seed", "5"]),
    ])
    def test_inapplicable_option_exits_2(self, capsys, check, option):
        # an option the check does not read must not be silently ignored
        code, out, err = run(capsys, "numeric", "--check", check, *option)
        assert code == 2 and out == ""
        assert f"{option[0]} does not apply" in err

    @pytest.mark.parametrize("check,explicit", [
        ("relation", ["--weight", "2", "--seed", "20240901"]),
        ("diff", ["--weight", "1", "--seed", "20240901"]),
        ("bracket", ["--split", "1,0", "--seed", "20240901"]),
        ("modularity", ["--weight", "3"]),
        ("asymptotics", ["--weight", "2"]),
    ])
    def test_default_output_unchanged(self, capsys, check, explicit):
        # each check's defaults are the ones the options always had
        _, default, _ = run(capsys, "numeric", "--check", check, "--json")
        code, given, _ = run(capsys, "numeric", "--check", check, *explicit, "--json")
        assert code == 0 and default == given

    @pytest.mark.parametrize("check,argv", [
        pytest.param("relation", ["--weight", "200"], id="relation"),
        pytest.param("modularity", ["--weight", "200"], id="modularity"),
        *(pytest.param(argv[2], argv[3:], id=" ".join(argv[2:]))
          for argv in NONFINITE_ARGV),
    ])
    def test_weight_beyond_float_range_exits_2(self, capsys, check, argv):
        # 80**199 and 81**200 overflow a float, and so does a weight-100
        # automorphy factor times E at tau = 1000 + i: bad input, not a
        # failed check with an inf or nan residual
        code, out, err = run(capsys, "numeric", "--check", check, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "float range" in err

    def test_automorphy_factor_beyond_float_range_exits_2(self, capsys):
        # |tau|^150 = 1e450 at tau = 1000 + i: bad input, one error line
        code, out, err = run(capsys, "numeric", "--check", "modularity",
                             "--weight", "150", "--tau", "1e3,1")
        assert code == 2 and out == ""
        assert err == ("error: weight 150 leaves the float range at tau (1000+1j): "
                       "|c tau + d|^150 overflows\n")

    def test_weight_150_runs_and_fails(self, capsys):
        # in range: the check runs, and its residual (about 1e137) fails
        code, out, _ = run(capsys, "numeric", "--check", "modularity",
                           "--weight", "150")
        assert code == 1 and out.count("FAIL") == 2

    def test_tau_without_imaginary_part_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "numeric", "--check", "relation", "--tau", "0.3")
        assert exc.value.code == 2
        assert "expected 're,im'" in capsys.readouterr().err

    @pytest.mark.parametrize("check", ["relation", "diff", "bracket", "modularity",
                                       "asymptotics"])
    def test_tau_where_q_rounds_to_one_exits_2(self, capsys, check):
        # |e(tau)| rounds to 1.0 below Im tau ~ 8.8e-18: bad input, one
        # error line, not a ZeroDivisionError from the tail estimate
        code, out, err = run(capsys, "numeric", "--check", check, "--tau", "0,1e-18")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "too close to the real axis" in err

    @pytest.mark.parametrize("argv", FLOAT_EDGE_ARGV + [
        ["numeric", "--check", "modularity", "--tau", "3e307,1"]])
    def test_tau_beyond_float_range_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: tau ") and err.count("\n") == 1
        assert err.rstrip().endswith("leaves the float range at fourier_terms = 80")

    def test_bad_tau_exits_2(self, capsys):
        # a NaN or infinite tau is bad input, not a failed check
        for argv in (["relation", "--tau", "0,-1"],
                     ["asymptotics", "--weight", "1", "--tau", "nan,1"],
                     ["relation", "--weight", "4", "--tau", "0.3,inf"],
                     ["relation", "--tau", "nan,nan"]):
            code, out, _ = run(capsys, "numeric", "--check", *argv)
            assert code == 2 and out == "", argv


@st.composite
def cli_argv(draw):
    """argv for any subcommand, bad values included, with the weight and
    |tau| drawn jointly large: one size scales both.  Scans stay at
    N <= 3, k <= 3, order <= 12, and the relation check, whose cost grows
    as k^2, at k <= 30, so that an example takes milliseconds."""
    size = draw(st.integers(0, 8))
    weight = draw(st.integers(-1, 2 + 20 * size))
    small = st.integers(-1, 4)
    level = str(draw(st.integers(0, 4)))
    order = str(draw(st.integers(0, 12)))
    command = draw(st.sampled_from(
        ["expand", "bg-series", "verify", "scan", "recurrences", "numeric", "numeric"]))
    if command == "expand":
        argv = ["--level", level, "--weight", str(weight),
                f"--a={draw(small)},{draw(small)}", "--order", order]
    elif command == "bg-series":
        argv = ["--level", level, "--weight", str(weight),
                f"--a={draw(small)}", "--order", order]
    elif command == "verify":
        k1 = draw(st.integers(-1, max(weight, 0)))
        k2 = weight - 2 - k1 + draw(st.sampled_from([0, 0, 0, 1]))
        argv = ["--level", level, "--weight", str(weight),
                f"--split={k1},{k2}", f"--a={draw(small)},{draw(small)}",
                f"--b={draw(small)},{draw(small)}", "--order", order]
    elif command == "scan":
        argv = ["--level-max", str(draw(st.integers(1, 3))),
                "--weight-max", str(draw(st.integers(1, 3))), "--order", order,
                "--parallel", str(draw(st.sampled_from([1, 1, 2, 0])))]
    elif command == "recurrences":
        argv = ["--degree-max", str(draw(st.integers(-2, 8)))]
    else:
        check = draw(st.sampled_from(sorted(NUMERIC_CHECKS)))
        edge = st.floats(295, 308)  # exponents up to the float range's edge
        re = draw(st.floats(-1, 1)) * 10.0 ** draw(st.integers(0, size) | edge)
        im = draw(st.sampled_from([0.0, -1.0, math.nan, math.inf])
                  if draw(st.integers(0, 7)) == 0 else
                  (st.floats(-size - 9, size / 2) | edge).map(lambda e: 10.0 ** e))
        argv = ["--check", check, f"--tau={re!r},{im!r}"]
        if check == "bracket":
            k1 = draw(st.integers(-1, max(weight - 2, 0)))
            argv += [f"--split={k1},{max(weight - 2, 0) - k1}"]
        elif check == "asymptotics":
            argv += ["--weight", str(draw(st.integers(0, 3)))]
        else:
            argv += ["--weight", str(min(weight, 30) if check == "relation" else weight)]
    return [command, *argv] + (["--json"] if draw(st.booleans()) else [])


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=100, deadline=None)
@given(argv=cli_argv())
@example(argv=NONFINITE_ARGV[0] + ["--json"])
@example(argv=NONFINITE_ARGV[1] + ["--json"])
@example(argv=NONFINITE_ARGV[2] + ["--json"])
@example(argv=NONFINITE_ARGV[3] + ["--json"])
@example(argv=FLOAT_EDGE_ARGV[0])
@example(argv=FLOAT_EDGE_ARGV[1])
@example(argv=FLOAT_EDGE_ARGV[2])
def test_fuzzed_argv_exits_cleanly(argv):
    # any argv ends in exit 0, 1 or 2 and no exception; exit 2 prints one
    # error line and nothing on stdout; --json prints strict JSON
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1
    elif "--json" in argv:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
