import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from test_cli_golden import GOLDEN
from weylhull import arrangements as arr_mod
from weylhull import cli, coefficients, cones, mc, verify, walks
from weylhull.absorption import WalkFamily, absorption_probability, absorption_probability_float
from weylhull.coefficients import EXACT_N_CAP, b_prefix

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_exact_json_round_trip(capsys):
    code, out = run(capsys, "exact", "--family", "walk-B", "--steps", "10", "--dim", "2",
                    "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["seed"] if "seed" in payload["config"] else True
    assert payload["result"]["absorb"] == "2562451/10321920"
    assert payload["result"]["non_absorb_float"] == pytest.approx(7759469 / 10321920)


def test_exact_float_mode(capsys):
    code, out = run(capsys, "exact", "--family", "walk-B", "--steps", "100000", "--dim", "2",
                    "--float", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert 0 < payload["result"]["non_absorb_float"] < 1


def test_coeffs_big_ints_are_strings(capsys):
    code, out = run(capsys, "coeffs", "--type", "B", "--n", "60", "--kmax", "2",
                    "--format", "json")
    assert code == 0
    payload = json.loads(out)
    coeffs = payload["result"]["coefficients"]
    assert isinstance(coeffs[0], str)
    assert int(coeffs[0]) > 2**53


def test_simulate_csv_columns(capsys):
    code, out = run(capsys, "simulate", "--model", "gaussian", "--family", "walk-B",
                    "--steps", "3", "--dim", "1", "--samples", "20000", "--seed", "42",
                    "--format", "csv")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    assert header == ["family", "n", "d", "model", "samples", "seed", "p_hat", "stderr",
                      "ci_lo", "ci_hi", "exact", "z_score", "ambiguous_fraction"]
    row = dict(zip(header, lines[1].split(",")))
    assert abs(float(row["p_hat"]) - 0.375) < 0.02
    assert row["seed"] == "42"


def test_simulate_reproducible(capsys):
    args = ("simulate", "--model", "uniform-sphere", "--family", "walk-B", "--steps", "4",
            "--dim", "2", "--samples", "20000", "--format", "json")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_arrangement_charpoly(capsys, tmp_path):
    path = tmp_path / "b3.arr"
    path.write_text("dim 3\n# mirrors\n1 0 0\n0 1 0\n0 0 1\n1 -1 0\n1 0 -1\n0 1 -1\n"
                    "1 1 0\n1 0 1\n0 1 1\n")
    code, out = run(capsys, "arrangement", "charpoly", "--file", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["a"] == [15, 23, 9, 1]


def test_arrangement_intersect(capsys):
    code, out = run(capsys, "arrangement", "intersect", "--type", "B", "--n", "3",
                    "--codim", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["count"] == 18


def test_cone_volumes(capsys):
    code, out = run(capsys, "cone", "volumes", "--type", "B", "--n", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["v"] == ["3/8", "1/2", "1/8"]


def test_cone_crofton(capsys):
    code, out = run(capsys, "cone", "crofton", "--type", "B", "--n", "3", "--codim", "1",
                    "--samples", "20000", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert abs(result["h_estimate"] - result["exact"]) < 5 * max(result["stderr"], 1e-9)


def test_asympt_table(capsys):
    code, out = run(capsys, "asympt", "--case", "B", "--regime", "fixed", "--d", "2",
                    "--n-grid", "1000,10000", "--format", "csv")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "n,d,exact_float,asymptotic,ratio"
    assert len(lines) == 3


def test_verify_suite_exit_codes(capsys):
    code, out = run(capsys, "verify", "--suite", "combinatorics", "--format", "plain")
    assert code == 0
    assert "[pass] criterion 1" in out


def test_verify_times_each_criterion_on_stderr(capsys):
    assert cli.main(["verify", "--suite", "combinatorics"]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == dict(GOLDEN)["verify --suite combinatorics"]
    matches = [re.fullmatch(r"criterion (\d+): \d+\.\d\d s", line) for line in captured.err.splitlines()]
    assert all(matches)
    assert [int(m.group(1)) for m in matches] == list(verify.SUITES["combinatorics"])


@pytest.mark.parametrize("kind, n", [("A", 7), ("B", 5), ("D", 6)])
def test_charpoly_and_intersect_past_the_whitney_cap(capsys, kind, n):
    chi = arr_mod.reflection_characteristic_polynomial(kind, n)
    code, out = run(capsys, "arrangement", "charpoly", "--type", kind, "--n", str(n), "--format", "json")
    assert code == 0
    assert json.loads(out)["result"] == {"a": list(chi.a), "regions": arr_mod.zaslavsky_region_count(chi)}
    code, out = run(capsys, "arrangement", "intersect", "--type", kind, "--n", str(n), "--codim", "2",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["result"] == {"count": arr_mod.intersected_region_count(chi, 2)}


@pytest.mark.parametrize("argv", [
    "arrangement regions --type B --n 5",
    # χ of B10 takes seconds; the cap is checked first
    "arrangement regions --type B --n 10",
])
def test_capped_arrangement_is_a_usage_error(capsys, monkeypatch, argv):
    def no_chi(arr):
        raise AssertionError("χ was computed before the enumeration cap was checked")

    monkeypatch.setattr(arr_mod, "characteristic_polynomial", no_chi)
    assert cli.main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: .* capped at \d+ .*\n", captured.err)


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["exact", "--family", "bogus", "--steps", "3", "--dim", "1"])
    assert exc.value.code == 2


def test_domain_error_exit_two(capsys):
    code = cli.main(["simulate", "--model", "lattice-simple", "--family", "bridge-A",
                     "--steps", "4", "--dim", "1", "--samples", "10"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    "cone crofton --type B --n 3 --codim 1 --samples 0",
    "cone crofton --type B --n 3 --codim 1 --samples -5",
    "cone crofton --type A --n 4 --codim 1 --samples 0",
])
def test_sample_count_below_one_is_a_usage_error(capsys, argv):
    assert cli.main(argv.split()) == 2
    assert "samples must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf"])
def test_nonpositive_tol_is_a_usage_error(capsys, tol):
    # a nan band once counted every sample as ambiguous at d = 2 and as outside at d = 3
    argv = f"simulate --model gaussian --family walk-B --steps 6 --dim 2 --samples 2000 --tol={tol}"
    assert cli.main(argv.split()) == 2
    assert "tol must be positive" in capsys.readouterr().err


def test_simulate_past_the_cap_fails_before_sampling(capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the exact reference was checked")

    monkeypatch.setattr(walks, "estimate_absorption", no_sampling)
    argv = f"simulate --model gaussian --family walk-B --steps {EXACT_N_CAP + 1} --dim 2 --samples 3000"
    assert cli.main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"capped at n={EXACT_N_CAP}" in captured.err


@pytest.mark.parametrize("threads, env", [("0", None), ("-4", None), (None, "0"), (None, "abc")])
def test_thread_count_below_one_is_a_usage_error(capsys, monkeypatch, threads, env):
    argv = "simulate --model gaussian --family walk-B --steps 6 --dim 3 --samples 100".split()
    if threads is not None:
        argv += ["--threads", threads]
    if env is not None:
        monkeypatch.setenv("WEYLHULL_THREADS", env)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    if env == "abc":
        assert "WEYLHULL_THREADS" in captured.err


def test_fixed_regime_without_d_is_a_usage_error(capsys):
    assert cli.main(["asympt", "--case", "B", "--regime", "fixed"]) == 2
    assert "--d" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "exact --family wendel --steps 5,7 --dim 2",
    "simulate --model gaussian --family wendel --steps 5,7 --dim 2 --samples 100",
])
def test_wendel_with_a_step_list_is_a_usage_error(capsys, argv):
    assert cli.main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "wendel takes one integer point count r" in captured.err


def test_clt_regime_uses_a_zero_d_it_is_given(capsys):
    # a given d is used even when it is 0, which is no dimension, rather than
    # replaced by round(u log n)
    assert cli.main("asympt --case B --regime clt --d 0".split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "dimension must be >= 1" in captured.err
    code, out = run(capsys, *"asympt --case B --regime clt --d 3 --n-grid 1000 --format csv".split())
    assert code == 0 and out.splitlines()[-1].startswith("1000,3,")


def test_ld_regime_with_d_is_a_usage_error(capsys):
    # the ld regime sets d from --x, so an echoed --d would not be the one used
    assert cli.main("asympt --case B --regime ld --d 5 --n-grid 1000000".split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--d" in captured.err


@pytest.mark.parametrize("argv, message", [
    # only ld reads --x, so an echoed x would not be the one used
    ("asympt --case B --regime clt --x 3 --n-grid 1000 --format csv", "only the ld regime uses --x"),
    ("asympt --case A --regime fixed --d 2 --x 0.5 --n-grid 1000", "only the ld regime uses --x"),
] + [(f"asympt --case B --regime ld --x {x} --n-grid 1000", "--x must be a positive finite number")
     for x in ("-1", "0", "nan", "inf")])
def test_x_is_the_ld_regimes_positive_tail_parameter(capsys, argv, message):
    assert cli.main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_ld_regime_rounding_to_d_zero_is_a_usage_error(capsys):
    # round(x u log n) = round(0.01 * 0.5 * log 1000) = 0 is no dimension; it
    # is rejected with the n it occurs at, not tabulated as d = 1
    assert cli.main("asympt --case B --regime ld --x 0.01 --n-grid 1000".split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "n=1000" in captured.err and "d = round(x u log n) = 0" in captured.err
    assert cli.main("asympt --case B --regime ld --x 0.5 --n-grid 1000,100000,1".split()) == 2
    assert "n=1;" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # a range of more than sys.maxsize roots has no len()
    ("exact --family walk-B --steps 100000000000000000000 --dim 2 --float",
     f"absorption tails take at most {sys.maxsize} steps per walk"),
    ("asympt --case B --regime clt --n-grid 1e20", "absorption tails take at most"),
    # Wendel's r factor pairs are one tuple, whose length a C ssize_t must hold
    ("exact --family wendel --steps 100000000000000000000 --dim 2",
     f"wendel takes at most {sys.maxsize} points"),
    ("exact --family wendel --steps 100000000000000000000 --dim 2 --float", "wendel takes at most"),
    # float("1e400") is inf, which has no int
    ("asympt --case B --regime clt --n-grid 1e400", "--n-grid must list finite step counts"),
])
def test_step_counts_too_large_for_the_tails_are_a_usage_error(capsys, argv, message):
    assert cli.main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("argv, message", [
    # a range of 2^63 roots has no len(); the cap is checked before runs are built
    ("coeffs --type B --n 9223372036854775808 --kmax 10", "exact computation capped at n=5000"),
    # (u log n)^(d-1) overflows a double and the whole term underflows to 0
    ("asympt --case A --regime fixed --d 400 --n-grid 1000", "underflows to 0 at n=1000, d=400"),
])
def test_inputs_past_the_numeric_range_are_a_usage_error(capsys, argv, message):
    assert cli.main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("error: ") and message in captured.err


def test_coeffs_kmax_is_clamped_to_n(capsys):
    # [0] * kmax once raised OverflowError; a row has n + 1 coefficients
    code, out = run(capsys, *"coeffs --type B --n 4 --kmax 100000000000000000000 --format json".split())
    assert code == 0
    assert json.loads(out)["result"]["coefficients"] == list(coefficients.b_row(4).coeffs)
    code, out = run(capsys, *"coeffs --type B --n 3 --kmax 5 --format json".split())
    assert json.loads(out)["result"]["coefficients"] == [15, 23, 9, 1]
    # far below the n * min(kmax, n) cap
    code, out = run(capsys, *"coeffs --type B --n 1500 --kmax 3 --format json".split())
    with _no_digit_limit():
        assert code == 0 and [int(c) for c in json.loads(out)["result"]["coefficients"]] == list(b_prefix(1500, 3))


def test_fixed_regime_past_the_factorial_range(capsys):
    # (d - 1)! as a float overflows from d = 172; log space keeps the term
    code, out = run(capsys, *"asympt --case A --regime fixed --d 200 --n-grid 1000 --format csv".split())
    assert code == 0
    n, d, exact, approx, ratio = out.splitlines()[-1].split(",")
    want = 2 * math.exp(199 * math.log(math.log(1000)) - math.lgamma(200)) / 1000
    assert (n, d) == ("1000", "200") and float(approx) == pytest.approx(want, rel=1e-6)
    # the ratio, about 1.8e208, is printed in .6e like the other columns, not in 209 digits
    assert re.fullmatch(r"\d\.\d{6}e[+-]\d+", ratio)
    assert float(ratio) == pytest.approx(float(exact) / float(approx), rel=1e-5)


def test_a_grid_without_step_counts_is_a_usage_error(capsys):
    assert cli.main("asympt --case B --regime fixed --d 2 --n-grid ,".split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--n-grid must list finite step counts; got ','" in captured.err


@pytest.mark.parametrize("regime", ["fixed --d 2", "clt"])
def test_only_the_ld_regime_echoes_x(capsys, regime):
    # the fixed and clt regimes use no x, so their configs name none
    base = f"asympt --case B --regime {regime} --n-grid 1000 --format".split()
    code, out = run(capsys, *base, "json")
    assert code == 0 and "x" not in json.loads(out)["config"]
    code, out = run(capsys, *base, "csv")
    assert code == 0 and not any(line.startswith("# x=") for line in out.splitlines())
    code, out = run(capsys, *"asympt --case B --regime ld --n-grid 1000 --format json".split())
    assert code == 0 and json.loads(out)["config"]["x"] == 0.5


def test_ld_regime_defaults_to_x_one_half(capsys):
    base = "asympt --case D --regime ld --n-grid 1000,100000 --format csv".split()
    code, out = run(capsys, *base)
    assert code == 0 and "# x=0.5" in out.splitlines()
    assert run(capsys, *base, "--x", "0.5") == (0, out)


@pytest.mark.parametrize("kind, d", [("walk-B", 165), ("bridge-A", 183), ("walk-B", 199)])
def test_float_tails_below_the_smallest_normal_double_warn(capsys, kind, d):
    # 2.97e-319 (relative error 5e-5), 2e-323 (off by 1/3) and 0.0 (exact about 10^-434.8)
    family = WalkFamily(kind, 200, d)
    assert cli.main(["exact", "--family", kind, "--steps", "200", "--dim", str(d), "--float"]) == 0
    out, err = capsys.readouterr()
    printed = float(next(l.split(": ")[1] for l in out.splitlines() if l.startswith("absorb_float: ")))
    assert printed == absorption_probability_float(family) < sys.float_info.min
    assert printed != absorption_probability(family).absorb > 0
    [line] = err.splitlines()
    assert "absorb_float" in line and "smallest normal double" in line and "without --float" in line


@pytest.mark.parametrize("kind, d", [("walk-B", 29), ("walk-B", 200), ("bridge-A", 199)])
def test_normal_or_exactly_zero_float_tails_do_not_warn(capsys, kind, d):
    # n <= d + lineality makes the absorb tail exactly 0, which the float route prints exactly
    assert cli.main(["exact", "--family", kind, "--steps", "200", "--dim", str(d), "--float"]) == 0
    assert capsys.readouterr().err == ""


def test_seed_random_changes_output(capsys):
    args = ("simulate", "--model", "gaussian", "--family", "walk-B", "--steps", "3",
            "--dim", "1", "--samples", "16384", "--seed", "random", "--format", "json")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert json.loads(out1)["config"]["seed"] != json.loads(out2)["config"]["seed"]


def test_seed_outside_64_bits_is_a_usage_error(capsys):
    for seed in (str(2**64), "-1"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--model", "gaussian", "--family", "walk-B", "--steps", "3",
                      "--dim", "1", "--samples", "10", "--seed", seed])
        assert exc.value.code == 2


@contextmanager
def _no_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("fmt", ["json", "plain"])
def test_exact_at_cap_round_trips(capsys, fmt):
    # the value has far more than the default 4300 digits
    limit = sys.get_int_max_str_digits()
    code, out = run(capsys, "exact", "--family", "walk-B", "--steps", str(EXACT_N_CAP),
                    "--dim", "3", "--format", fmt)
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    if fmt == "json":
        text = json.loads(out)["result"]["absorb"]
    else:
        text = next(l.split(": ", 1)[1] for l in out.splitlines() if l.startswith("absorb: "))
    with _no_digit_limit():
        num, den = (int(x) for x in text.split("/"))
    assert Fraction(num, den) == absorption_probability(WalkFamily("walk-B", EXACT_N_CAP, 3)).absorb


def test_coeffs_past_digit_limit_round_trip(capsys):
    code, out = run(capsys, "coeffs", "--type", "B", "--n", str(EXACT_N_CAP), "--kmax", "3",
                    "--format", "json")
    assert code == 0
    with _no_digit_limit():
        got = [int(c) for c in json.loads(out)["result"]["coefficients"]]
    assert got == list(b_prefix(EXACT_N_CAP, 3))


@pytest.mark.parametrize("argv", [
    "exact --family walk-B --steps {n} --dim 2",
    "exact --family joint-B --steps 2500,{rest} --dim 2 --format json",
    # a tail drops the zero and unit roots, but the cap still counts steps
    "exact --family bridge-A --steps {n} --dim 2",
    "exact --family wendel --steps {n} --dim 2",
    "coeffs --type B --n {n} --kmax 3",
])
def test_exact_past_the_cap_is_a_usage_error(capsys, argv):
    # rows, prefixes and products share one check on the total step count
    assert cli.main(argv.format(n=EXACT_N_CAP + 1, rest=EXACT_N_CAP + 1 - 2500).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"capped at n={EXACT_N_CAP}; got n={EXACT_N_CAP + 1}" in captured.err
    assert "use the float route" in captured.err


def test_exact_float_computes_the_pmf_once(capsys, monkeypatch):
    # one float_tails call serves both tails
    calls = []
    product_pmf = coefficients.product_pmf

    def counted(*args, **kwargs):
        calls.append(args)
        return product_pmf(*args, **kwargs)

    monkeypatch.setattr(coefficients, "product_pmf", counted)
    code, out = run(capsys, *"exact --family walk-B --steps 2000 --dim 2 --float".split())
    assert code == 0 and "absorb_float: " in out
    assert len(calls) == 1


def test_float_tails_print_as_probabilities(capsys):
    # the large tail once printed as 1.0000000000000009 here
    code, out = run(capsys, "exact", "--family", "walk-B", "--steps", "200", "--dim", "29", "--float",
                    "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert 0.0 < result["absorb_float"] < 1e-3
    assert 0.0 <= result["non_absorb_float"] <= 1.0


def test_one_step_bridge_is_a_usage_error(capsys):
    # one step leaves a bridge no hull points, so no probability to print
    for dim in ("1", "2"):
        code, out = run(capsys, "exact", "--family", "bridge-A", "--steps", "1", "--dim", dim)
        assert code == 2 and out == ""


def _fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run a script in a new interpreter that imports weylhull from src/."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


_NO_NUMPY_UNTIL_SAMPLING = """
import contextlib, hashlib, io, sys

def loaded(*packages):
    return sorted(m for m in sys.modules if m.split(".")[0] in packages)

import weylhull
assert not loaded("numpy", "scipy"), loaded("numpy", "scipy")[:5]
from weylhull import cli
assert not loaded("numpy", "scipy"), loaded("numpy", "scipy")[:5]

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv.split()) == 0, argv
    return out.getvalue()

for argv in ("exact --family walk-B --steps 10 --dim 2",
             "exact --family bridge-A --steps 9 --dim 2 --format json",
             "coeffs --type B --n 60 --kmax 3",
             "arrangement charpoly --type D --n 4"):
    run(argv)
    assert not loaded("numpy", "scipy"), (argv, loaded("numpy", "scipy")[:5])
    # nor the thread pool, which only a multi-threaded sampling run starts
    assert "concurrent.futures" not in sys.modules, argv
# cone volumes loads NumPy through cones, but not SciPy
run("cone volumes --type D --n 4")
assert not loaded("scipy"), loaded("scipy")[:5]
out = run(sys.argv[1])
assert "scipy.special" in sys.modules
print(hashlib.sha256(out.encode()).hexdigest())
"""


def test_exact_paths_run_without_scipy():
    # a module-level NumPy or SciPy import would cost every CLI child most of its start-up
    argv = "exact --family walk-B --steps 100000 --dim 2 --float"
    proc = _fresh(_NO_NUMPY_UNTIL_SAMPLING, argv)
    assert proc.stdout.strip() == dict(GOLDEN)[argv]


_HASH_STDOUT = """
import contextlib, hashlib, io, sys
from weylhull import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(sys.argv[1:]) == 0
assert "numpy" in sys.modules
print(hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_simulate_imports_what_it_samples_with():
    # the sampling modules are imported by the command, not when cli loads
    argv = "simulate --model gaussian --family walk-B --steps 6 --dim 2 --samples 20000 --format json"
    assert _fresh(_HASH_STDOUT, *argv.split()).stdout.strip() == dict(GOLDEN)[argv]


def test_parser_reads_the_library_constants():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    def option(command, flag):
        return next(a for a in commands[command]._actions if flag in a.option_strings)

    assert option("simulate", "--model").choices == walks.MODEL_FAMILIES
    assert option("simulate", "--tol").default == walks.DEFAULT_TOL
    assert tuple(option("verify", "--suite").choices) == tuple(verify.SUITES)
    for command in ("simulate", "cone", "verify"):
        assert option(command, "--seed").default == mc.DEFAULT_SEED
    # each criterion sits in the one suite its record names, and "all" runs them in order
    assert verify.SUITES["all"] == tuple(verify.CRITERIA)
    for number, (_, _, suite) in verify.CRITERIA.items():
        assert [s for s, ks in verify.SUITES.items() if number in ks] == [suite, "all"]


_SIMULATE = """
import sys
from weylhull import cli
assert cli.main(sys.argv[1:]) == 0
# the d >= 3 fallback ran, so NNLS was first imported on the pool's threads
assert "scipy.optimize" in sys.modules
"""


def test_first_nnls_import_on_pool_threads_keeps_the_estimate():
    argv = "simulate --model gaussian --family walk-B --steps 8 --dim 3 --samples 40000".split()
    outs = [_fresh(_SIMULATE, *argv, "--threads", threads).stdout for threads in ("1", "2")]
    lines = [[l for l in out.splitlines() if not l.startswith("# threads=")] for out in outs]
    assert lines[0] == lines[1]
    assert len(lines[0]) == len(outs[0].splitlines()) - 1


@pytest.mark.parametrize("argv", [
    "coeffs --type B --n {n}",
    "coeffs --type A --n {n} --format json",
    "cone volumes --type D --n {n}",
    "cone steiner --type B --n {n}",
    "cone crofton --type A --n {n} --codim 2 --samples 10",
    # a prefix whose n * min(kmax, n) passes the cap's square does a full row's work
    "coeffs --type B --n {n} --kmax {n}",
    "coeffs --type D --n 5000 --kmax 100000000000000000000",
])
def test_full_rows_past_the_cap_are_a_usage_error(capsys, monkeypatch, argv):
    def no_row(*args):
        raise AssertionError("a full row was built past the cap")

    monkeypatch.setattr(coefficients, "product_prefix", no_row)
    assert cli.main(argv.format(n=cli.FULL_ROW_N_CAP + 1).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"capped at n={cli.FULL_ROW_N_CAP}" in captured.err
    assert ("--kmax" in captured.err) == argv.startswith("coeffs")


@pytest.mark.parametrize("grid", [0, -1, cli.STEINER_GRID_CAP + 1, 10**9])
def test_steiner_grid_outside_its_range_is_a_usage_error(capsys, monkeypatch, grid):
    import numpy as np

    def no_call(*args):
        raise AssertionError("the grid was checked too late")

    # --grid 10^9 once asked np.linspace for 8 GB; here nothing is allocated
    monkeypatch.setattr(np, "linspace", no_call)
    monkeypatch.setattr(cones, "weyl_intrinsic_volumes", no_call)
    assert cli.main(f"cone steiner --type B --n 3 --grid {grid}".split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [captured.err.strip()]
    assert f"--grid must lie in [1, {cli.STEINER_GRID_CAP}]; got {grid}" in captured.err


def test_steiner_grid_of_one_point(capsys):
    code, out = run(capsys, *"cone steiner --type B --n 3 --grid 1 --format csv".split())
    assert code == 0 and out.splitlines()[-2:] == ["lambda,cdf", "0.000000,0.0208333333"]


class _Reached(Exception):
    pass


@pytest.mark.parametrize("action", ["volumes", "steiner", "crofton --codim 2"])
def test_cone_commands_run_at_the_cap(monkeypatch, action):
    def reached(kind, n):
        raise _Reached(n)

    monkeypatch.setattr(cones, "weyl_intrinsic_volumes", reached)
    with pytest.raises(_Reached):
        cli.main(f"cone {action} --type B --n {cli.FULL_ROW_N_CAP}".split())


def test_coeffs_runs_at_the_cap(capsys):
    n = cli.FULL_ROW_N_CAP
    code, out = run(capsys, "coeffs", "--type", "B", "--n", str(n), "--format", "csv")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == ["k", "coefficient"] and len(rows) == n + 2
    with _no_digit_limit():
        assert int(rows[1][1]) == math.prod(range(1, 2 * n, 2))
    assert rows[-1] == [str(n), "1"]
