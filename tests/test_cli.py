import json
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from weylhull import cli
from weylhull.absorption import WalkFamily, absorption_probability
from weylhull.coefficients import EXACT_N_CAP, b_prefix


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


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["exact", "--family", "bogus", "--steps", "3", "--dim", "1"])
    assert exc.value.code == 2


def test_domain_error_exit_two(capsys):
    code = cli.main(["simulate", "--model", "lattice-simple", "--family", "bridge-A",
                     "--steps", "4", "--dim", "1", "--samples", "10"])
    assert code == 2


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


def test_one_step_bridge_is_a_usage_error(capsys):
    # one step leaves a bridge no hull points, so no probability to print
    for dim in ("1", "2"):
        code, out = run(capsys, "exact", "--family", "bridge-A", "--steps", "1", "--dim", dim)
        assert code == 2 and out == ""
