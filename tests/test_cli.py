import ast
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import fowlerlab
from fowlerlab import cli
from fowlerlab.fowler import FowlerParams, constant_solution, max_value

from readme_outputs import readme_command_lines


def run_cli(args):
    return cli.main(args)


def test_fowler_subcommand(tmp_path, capsys):
    rc = run_cli(["fowler", "--n", "5", "--k0", "1", "--epsilon", "0.4",
                  "--outdir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "T = " in out
    summary = json.loads((tmp_path / "orbit_summary.json").read_text())
    assert summary["period"] > 0
    assert (tmp_path / "orbit.csv").exists()


def test_fowler_constant_mode(tmp_path, capsys):
    rc = run_cli(["fowler", "--constant", "--n", "6", "--outdir",
                  str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mode-0 rotation" in out
    summary = json.loads((tmp_path / "orbit_summary.json").read_text())
    assert summary["is_constant"] is True
    assert summary["mode0_rotation"] == pytest.approx(2.0)  # sqrt(n-2), n=6


def test_fowler_ckn_and_bad_epsilon(tmp_path, capsys):
    rc = run_cli(["fowler", "--problem", "ckn", "--n", "5", "--a", "0.5",
                  "--b", "0.7", "--epsilon", "0.3", "--outdir",
                  str(tmp_path / "ok")])
    assert rc == 0
    rc = run_cli(["fowler", "--n", "5", "--epsilon", "5.0", "--outdir",
                  str(tmp_path / "bad")])
    assert rc == 1
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert "no periodic orbit" in record["message"]


@pytest.mark.parametrize("argv", [
    ["fowler", "--n", "5", "--epsilon", "5.0"],
    ["verify", "--suite", "no-such-criterion"],
    ["expand", "--n", "5", "--epsilon-frac", "0.8", "--t0=-360"],
    # the shot orbit is fine, its period quadrature is refused: orbit.csv
    # and orbit.json used to be written first
    ["fowler", "--n", "5", "--epsilon-frac", "1e-150"]],
    ids=["fowler", "verify", "expand", "fowler-slow"])
def test_a_command_failing_after_parsing_leaves_no_directory(argv, tmp_path,
                                                             capsys):
    # the writers make the output directory, so none appears without a file
    outdir = tmp_path / "fresh" / "out"
    assert run_cli(argv + ["--outdir", str(outdir)]) == 1
    assert len(capsys.readouterr().out.strip().splitlines()) == 1
    assert not (tmp_path / "fresh").exists()


def test_a_slow_orbit_writes_every_file(tmp_path, capsys):
    # max_value's bracket failed for n = 3 from 1e-8 xi* down, and the
    # period quadrature was NaN at 1e-120 xi*
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["fowler", "--n", "3", "--epsilon-frac", "1e-120",
                      "--outdir", str(tmp_path)])
    assert rc == 0 and capsys.readouterr().out.startswith("T = ")
    assert sorted(os.listdir(tmp_path)) == ["orbit.csv", "orbit.json",
                                            "orbit_summary.json"]
    summary = json.loads((tmp_path / "orbit_summary.json").read_text())
    rel = abs(summary["period_quadrature"] - summary["period"])
    assert rel <= 1e-9 * summary["period"]


def test_fowler_reports_the_orbit_maximum(tmp_path, capsys):
    # the largest of the 2048 samples read 1.8 % low here: T/2 falls between
    # two samples, and the slow orbit is sharply peaked there
    rc = run_cli(["fowler", "--n", "3", "--epsilon-frac", "1e-120",
                  "--outdir", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "orbit_summary.json").read_text())
    params = FowlerParams.conformal(3, 1.0)
    assert summary["max_xi"] == max_value(summary["epsilon"], params)
    assert capsys.readouterr().out.rstrip().endswith(
        f"max xi = {summary['max_xi']!r}")


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_orbit_tolerance_is_an_error_record(tol, tmp_path, capsys):
    # it used to hang the shooting solve
    rc = run_cli(["fowler", "--n", "5", "--epsilon-frac", "0.5",
                  f"--orbit-tol={tol}", "--outdir", str(tmp_path)])
    assert rc == 1
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record == {"error": "ValueError", "message":
                      f"tol must be positive and finite, got tol = {tol}"}


def test_epsilon_outside_the_orbit_range_names_the_bound(tmp_path, capsys):
    records = []
    for frac in ("-0.5", "0", "1.5"):
        rc = run_cli(["fowler", f"--epsilon-frac={frac}", "--outdir",
                      str(tmp_path)])
        assert rc == 1
        records.append(json.loads(
            capsys.readouterr().out.strip().splitlines()[-1]))
    assert {r["error"] for r in records} == {"ValueError"}
    messages = [r["message"] for r in records]
    params = FowlerParams.conformal(5)
    xistar = constant_solution(params)
    for msg, bound, frac in zip(messages, ("be positive", "be positive",
                                           "lie below xi*"), (-0.5, 0.0, 1.5)):
        named = params.named(("eps", frac * xistar), ("xi*", xistar))
        assert msg == (f"no periodic orbit with minimum eps: eps must {bound} "
                       f"({named})")


def test_floquet_subcommand_constant_formula(tmp_path, capsys):
    rc = run_cli(["floquet", "--n", "5", "--constant", "--modes", "6",
                  "--outdir", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "floquet.json").read_text())
    sigmas = [m["sigma"] for m in payload["modes"]]
    assert sigmas[:5] == pytest.approx([1.0] * 5)
    assert sigmas[5] == pytest.approx(7.0 ** 0.5)


def test_index_set_subcommand(tmp_path, capsys):
    rc = run_cli(["index-set", "--n", "5", "--constant", "--cutoff", "4",
                  "--outdir", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "index_set.json").read_text())
    assert payload["values"][0] == pytest.approx(1.0)
    assert payload["values"][1] == pytest.approx(2.0)


def test_expand_subcommand(tmp_path):
    rc = run_cli(["expand", "--n", "5", "--epsilon-frac", "0.8", "--order",
                  "2", "--outdir", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "expansion.json").read_text())
    assert len(payload["terms"]) == 3
    assert (tmp_path / "expansion_eval.csv").exists()


@pytest.mark.parametrize("order, amplitude", [("2", "1e152"),
                                               ("1", "1.3e154")])
def test_expand_just_inside_the_finite_range_writes_finite_files(
        order, amplitude, tmp_path):
    # the largest amplitudes whose terms of this order are finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["expand", "--n", "5", "--epsilon-frac", "0.8",
                      "--order", order, "--amplitude", amplitude,
                      "--outdir", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "expansion.json").read_text(),
                         parse_constant=lambda name: pytest.fail(name))
    assert len(payload["terms"]) == 2 * int(order) - 1
    with open(tmp_path / "expansion_eval.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert np.isfinite(np.array(rows, dtype=float)).all()


@pytest.mark.parametrize("flag, t0, window", [
    ("--window=nan", 5.0, math.nan), ("--window=0", 5.0, 0.0),
    ("--t0=nan", math.nan, 12.0), ("--t0=inf", math.inf, 12.0)])
def test_expand_refuses_a_non_finite_window(flag, t0, window, tmp_path,
                                            capsys):
    # these used to exit 0 with an expansion_eval.csv of nan rows
    outdir = tmp_path / "out"
    rc = run_cli(["expand", "--n", "5", "--epsilon-frac", "0.8", flag,
                  "--outdir", str(outdir)])
    assert rc == 1
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record == {"error": "ValueError",
                      "message": f"expand needs a finite t0 and a finite "
                                 f"positive window (t0 = {t0!r}, "
                                 f"window = {window!r})"}
    assert not outdir.exists()


@pytest.mark.parametrize("order, t0", [("2", "-349"), ("1", "-400")])
def test_expand_just_after_the_overflowing_windows_writes_finite_files(
        order, t0, tmp_path):
    # e^{-2t} passes the largest double below t = -354.9; the refused
    # windows (-360 at order 2, -750 at order 1) are REFUSED rows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["expand", "--n", "5", "--epsilon-frac", "0.8",
                      "--order", order, f"--t0={t0}", "--outdir",
                      str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "expansion_eval.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert np.isfinite(np.array(rows, dtype=float)).all()


def test_config_file_merging(tmp_path, capsys):
    conf = tmp_path / "run.ini"
    conf.write_text("n = 6\nconstant = true\n")
    rc = run_cli(["fowler", "--config", str(conf), "--outdir", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "orbit_summary.json").read_text())
    assert summary["is_constant"] is True
    assert summary["epsilon"] == pytest.approx(4.0)  # xi* for n = 6, K0 = 1


def test_config_rejects_unknown_key(tmp_path):
    conf = tmp_path / "run.ini"
    conf.write_text("frobnicate = 3\n")
    with pytest.raises(SystemExit):
        run_cli(["fowler", "--config", str(conf), "--outdir", str(tmp_path)])


def test_config_loses_to_a_flag_given_at_its_default(tmp_path):
    # --n 5 is the default value; it used to lose to the file's n = 6
    conf = tmp_path / "run.ini"
    conf.write_text("n = 6\nconstant = true\n")
    rc = run_cli(["fowler", "--config", str(conf), "--n", "5",
                  "--outdir", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "orbit_summary.json").read_text())
    assert summary["is_constant"] is True
    assert summary["epsilon"] == pytest.approx(1.5 ** 1.5)  # xi* for n = 5


def test_config_suite_is_a_comma_separated_list(tmp_path, capsys):
    # `suite = xi2` used to be split into the names 'x', 'i', '2'
    conf = tmp_path / "run.ini"
    conf.write_text("suite = xi2, remark\n")
    assert run_cli(["verify", "--config", str(conf), "--outdir",
                    str(tmp_path)]) == 0
    names = [r["name"] for r in
             json.loads((tmp_path / "verify.json").read_text())]
    assert names == ["second_order_operator_identity", "dimension4_example"]
    # --suite on the command line replaces the file's list
    assert run_cli(["verify", "--config", str(conf), "--suite", "remark",
                    "--outdir", str(tmp_path)]) == 0
    names = [r["name"] for r in
             json.loads((tmp_path / "verify.json").read_text())]
    assert names == ["dimension4_example"]


@pytest.mark.parametrize("line, flag, message", [
    ("problem = cnk", "--problem", "invalid choice: 'cnk'"),
    ("n = 5.5", "--n", "invalid int value: '5.5'")], ids=["problem", "n"])
def test_config_value_is_checked_by_its_flag(tmp_path, capsys, line, flag,
                                             message):
    # `problem = cnk` used to run the conformal problem and exit 0, and
    # `n = 5.5` to end in a raw ValueError traceback
    conf = tmp_path / "run.ini"
    conf.write_text(line + "\n")
    with pytest.raises(SystemExit) as info:
        run_cli(["fowler", "--config", str(conf), "--outdir", str(tmp_path)])
    assert info.value.code == 2  # argparse usage error
    assert f"argument {flag}: {message}" in capsys.readouterr().err


def test_config_keys_are_option_strings(tmp_path):
    # `modes` is construct's second spelling of --max-degree; `help` names
    # no destination, so a file cannot print help and exit
    parser = cli.build_parser()
    conf = tmp_path / "run.ini"
    argv = ["construct", "--config", str(conf)]
    sub = parser._subparser_map["construct"]
    conf.write_text("modes = 1\nepsilon_frac = 0.25\nconstant = no\n")
    assert cli._config_defaults(parser.parse_args(argv), sub) == {
        "max_degree": 1, "epsilon_frac": 0.25, "constant": False}
    conf.write_text("help = 1\n")
    with pytest.raises(SystemExit, match="unknown config key: help"):
        cli._config_defaults(parser.parse_args(argv), sub)


def test_verify_subcommand_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        rc = run_cli(["verify", "--suite", "xi2", "--suite", "remark",
                      "--outdir", str(d)])
        assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert (d1 / "verify.json").read_bytes() == (d2 / "verify.json").read_bytes()


def test_construct_subcommand(tmp_path, capsys):
    rc = run_cli(["construct", "--n", "5", "--epsilon-frac", "0.5", "--beta",
                  "1.5", "--max-degree", "2", "--outdir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "construct.json").read_text())
    assert report["trace"]["converged"] is True
    assert abs(report["fit"]["slope_plain"] / 1.5 - 1.0) < 0.05
    assert (tmp_path / "field.csv").exists()


def test_construct_short_window_error_names_the_orbit(tmp_path, capsys):
    # n = 3 at 0.1 xi* has T = 14.47, longer than the default window of 12
    rc = run_cli(["construct", "--n", "3", "--epsilon-frac", "0.1", "--beta",
                  "1.5", "--outdir", str(tmp_path)])
    assert rc == 1
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    params = FowlerParams.conformal(3)
    named = params.named(("eps", 0.1 * constant_solution(params)))
    assert re.fullmatch(r"window \[5\.0, 17\.0\] must cover at least one orbit "
                        rf"period \({re.escape(named)}, T = 14\.468\d*\)",
                        record["message"])


def test_construct_reports_a_zero_grid_step_as_a_record(tmp_path, capsys):
    # --h 0 used to die with a ZeroDivisionError traceback
    rc = run_cli(["construct", "--n", "5", "--epsilon-frac", "0.5", "--h", "0",
                  "--outdir", str(tmp_path)])
    assert rc == 1
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record == {"error": "ValueError",
                      "message": "grid needs a finite t0 and a finite positive "
                                 "window and h (t0 = 5.0, window = 12.0, "
                                 "h = 0.0)"}


def test_construct_refuses_a_forcing_degree_above_the_retained_ones(
        tmp_path, capsys):
    # a degree-1 forcing projects to nothing on degree 0 alone: the
    # construction used to converge to the orbit and then fail its fit
    rc = run_cli(["construct", "--n", "5", "--epsilon-frac", "0.5", "--beta",
                  "1.5", "--max-degree", "0", "--outdir", str(tmp_path)])
    assert rc == 1
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record == {"error": "ValueError",
                      "message": "forcing degree 1 above the retained "
                                 "degrees 0..0: no forcing component of a "
                                 "retained degree seeds the construction"}


def test_construct_modes_alias_and_multi_component(tmp_path):
    rc = run_cli(["construct", "--n", "5", "--epsilon-frac", "0.5",
                  "--beta", "1.5,2.5", "--kappa", "0.05,0.02",
                  "--kdegree", "1,2", "--modes", "2",
                  "--outdir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "construct.json").read_text())
    assert report["target_rate"] == pytest.approx(1.5)  # min of the rates
    assert report["trace"]["converged"] is True


CKN_CONSTRUCT = ["construct", "--problem", "ckn", "--n", "5", "--a", "0.5",
                 "--b", "0.7", "--epsilon-frac", "0.4", "--nu", "2.4"]


def test_ckn_construct_perturbs_the_given_degree(tmp_path):
    # a degree-2 perturbation and the orbit generate even degrees only
    rc = run_cli(CKN_CONSTRUCT + ["--kdegree", "2", "--outdir", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "field.csv", newline="") as fh:
        columns = dict(zip(*[next(csv.reader(fh)),
                             np.loadtxt(fh, delimiter=",").T]))
    # the perturbation 0.05 e^{-2.4 t} starts at 3.1e-7 at t0 = 5
    assert np.max(np.abs(columns["degree_2"])) > 0.5 * 0.05 * math.exp(-12.0)
    assert np.max(np.abs(columns["degree_1"])) < 1e-15


@pytest.mark.parametrize("flag,value", [("--kdegree", "1,2"),
                                        ("--kappa", "0.05,0.3")])
def test_ckn_construct_takes_one_perturbation(tmp_path, flag, value):
    with pytest.raises(SystemExit, match="one --kdegree and one --kappa"):
        run_cli(CKN_CONSTRUCT + [flag, value, "--outdir", str(tmp_path)])
    assert not (tmp_path / "construct.json").exists()


@pytest.mark.parametrize("args", [
    ["--n", "5", "--epsilon-frac", "0.5", "--kappa", "0"],
    ["--problem", "ckn", "--n", "5", "--a", "0.5", "--b", "0.7",
     "--epsilon-frac", "0.4", "--nu", "2.4", "--kappa", "0"],
], ids=["conformal-flat", "ckn-zero-amplitude"])
def test_construct_unperturbed_writes_null_fit(tmp_path, capsys, args):
    # the solution is the orbit itself: nothing decays, so nothing is fitted
    rc = run_cli(["construct", *args, "--outdir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "construct.json").read_text())
    assert report["fit"] is None and report["target_rate"] is None
    assert report["trace"]["converged"] is True
    assert report["trace"]["iterations"] == 1
    assert (tmp_path / "field.csv").exists()
    assert "no decay fit" in capsys.readouterr().out


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(fowlerlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "fowlerlab", "--help"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0
    assert "usage: fowlerlab" in done.stdout


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def test_floquet_ckn_json_has_no_bare_nan(tmp_path, capsys):
    rc = run_cli(["floquet", "--problem", "ckn", "--n", "5", "--a", "0.5",
                  "--b", "0.7", "--epsilon-frac", "0.4", "--modes", "12",
                  "--outdir", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "floquet.json").read_text(),
                         parse_constant=_reject_constant)
    assert len(payload["modes"]) == 12
    assert all(m["bound_margin"] is None for m in payload["modes"])


def test_write_json_refuses_non_finite(tmp_path):
    # json.dump used to stream into the file and stop at the first NaN,
    # leaving a truncated report in place of the one already there
    path = tmp_path / "bad.json"
    path.write_text('{"x": 1.0}\n')
    with pytest.raises(ValueError):
        cli.write_json({"a": 1.0, "x": float("nan")}, path)
    assert path.read_text() == '{"x": 1.0}\n'


def test_verify_takes_no_orbit_flags(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        run_cli(["verify", "--n", "7", "--outdir", str(tmp_path)])
    assert info.value.code == 2  # argparse usage error
    assert "unrecognized arguments: --n 7" in capsys.readouterr().err
    conf = tmp_path / "run.ini"
    conf.write_text("n = 7\n")
    with pytest.raises(SystemExit, match="unknown config key: n"):
        run_cli(["verify", "--config", str(conf), "--outdir", str(tmp_path)])


def test_config_defaults_do_not_reach_the_next_call(tmp_path):
    # every subcommand copies the common flags' actions from one parent, so
    # a config default set on them lasts only as long as their parser
    conf = tmp_path / "run.ini"
    conf.write_text("n = 6\nconstant = true\n")
    for argv in (["floquet", "--modes", "2"], ["fowler"]):
        assert run_cli(argv + ["--config", str(conf), "--outdir",
                               str(tmp_path)]) == 0
    assert run_cli(["fowler", "--constant", "--outdir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "orbit_summary.json").read_text())
    assert summary["epsilon"] == pytest.approx(1.5 ** 1.5)  # n = 5
    parser = cli.build_parser()
    for sub in parser._subparser_map.values():
        assert sub.get_default("n") in (5, None)


COMMON = ["--config", "--outdir", "--problem", "--n", "--k0", "--a", "--b",
          "--epsilon", "--epsilon-frac", "--constant", "--orbit-tol"]


def test_every_subcommand_lists_its_options_in_order(capsys):
    expected = {
        "fowler": COMMON,
        "floquet": COMMON + ["--modes"],
        "index-set": COMMON + ["--cutoff", "--max-degree", "--resonance-tol"],
        "expand": COMMON + ["--order", "--amplitude", "--t0", "--window"],
        "construct": COMMON + ["--beta", "--nu", "--kappa", "--kdegree",
                               "--max-degree", "--modes", "--t0", "--window",
                               "--h", "--tol"],
        "verify": ["--config", "--outdir", "--suite"],
    }
    assert list(cli.build_parser()._subparser_map) == list(expected)
    for name, options in expected.items():
        with pytest.raises(SystemExit):
            run_cli([name, "--help"])
        # option lines start "  -"; metavars are upper case
        lines = re.findall(r"^  (-.*?)(?:  |$)", capsys.readouterr().out,
                           re.M)
        listed = [o for line in lines
                  for o in re.findall(r"(?<![\w-])--?[a-z][\w-]*", line)]
        assert listed == ["-h", "--help"] + options, name


def test_write_csv_bytes_are_those_of_the_csv_module(tmp_path):
    # columns as arrays or as texts spelled once for both writers, NaN and
    # infinities written as their repr
    rng = np.random.default_rng(3)
    columns = [np.linspace(0.0, 1.0, 65), rng.normal(size=65) * 1e-300,
               rng.normal(size=65) * 1e12, np.full(65, -0.0),
               np.r_[np.nan, np.inf, -np.inf, 5e-324, rng.normal(size=61)]]
    header = ["t", "s_-1.0000", "degree_2", "xi_prime", "texts"]
    cli.write_csv(header, columns[:3] + [cli.FloatTexts(c)
                                         for c in columns[3:]],
                  tmp_path / "fast.csv")
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in np.column_stack(columns).tolist():
            writer.writerow([repr(v) for v in row])
    assert ((tmp_path / "fast.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())
    with pytest.raises(ValueError, match=r"unequal lengths \[65, 64\]"):
        cli.write_csv(header[:2], [columns[0], columns[1][1:]],
                      tmp_path / "short" / "bad.csv")
    assert not (tmp_path / "short").exists()


def _json_dumps_bytes(payload):
    """What `cli.write_json` promises: json.dumps's bytes and a newline,
    shared float texts read back as the floats they spell."""
    def floats(obj):
        if isinstance(obj, cli.FloatTexts):
            return [float(x) for x in obj]
        if isinstance(obj, dict):
            return {k: floats(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [floats(v) for v in obj]
        return obj
    return (json.dumps(floats(payload), indent=1, sort_keys=True,
                       allow_nan=False, default=cli._json_default)
            + "\n").encode()


def _drawn_payloads():
    """Nested payloads of every type `write_json` meets, numpy's included."""
    st = pytest.importorskip("hypothesis").strategies
    floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        [-0.0, 5e-324, -5e-324, 1e300, -1e300, 1.7976931348623157e308])
    numpy = (st.builds(np.float64, floats)
             | st.builds(np.float32, st.floats(-1e38, 1e38))
             | st.builds(np.int64, st.integers(-2 ** 63, 2 ** 63 - 1))
             | st.builds(np.bool_, st.booleans())
             | st.lists(floats, max_size=5).map(np.array)
             | st.lists(st.integers(-9, 9), max_size=5).map(np.array))
    leaves = (st.none() | st.booleans() | st.integers() | floats | st.text()
              | numpy)
    float_lists = (st.lists(floats, max_size=8)
                   | st.lists(st.builds(np.float64, floats), max_size=8))
    return st.recursive(leaves, lambda inner: (
        st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
        | float_lists | float_lists.map(tuple)
        | st.dictionaries(st.text(), inner, max_size=5)), max_leaves=25)


@pytest.mark.parametrize("source", ["readme", "drawn"])
def test_write_json_bytes_are_those_of_json_dumps(source, tmp_path,
                                                  monkeypatch):
    path = tmp_path / "out.json"
    if source == "drawn":
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(_drawn_payloads())
        # numpy floats whose sum overflows: no warning, written as json does
        @hypothesis.example({"a": [np.float64(1e308)] * 2})
        def check(payload):
            cli.write_json(payload, path)
            assert path.read_bytes() == _json_dumps_bytes(payload)
        check()
        return
    # every README command's report, the orbit's shared texts included
    written, real = [], cli.write_json
    monkeypatch.setattr(cli, "write_json", lambda payload, path: (
        written.append((payload, path)), real(payload, path)))
    for i, line in enumerate(readme_command_lines()):
        argv = line.split()[1:] + ["--outdir", str(tmp_path / str(i))]
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli(argv) == 0, line
    assert len(written) == 13
    assert any(isinstance(p.get("t"), cli.FloatTexts) for p, _ in written
               if isinstance(p, dict))
    for payload, where in written:
        with open(where, "rb") as fh:
            assert fh.read() == _json_dumps_bytes(payload), where


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["float", "float list", "mixed list",
                                   "texts"])
def test_write_json_refuses_non_finite_as_json_dumps_does(tmp_path, bad,
                                                          where):
    # the first non-finite value in json's order names the error, whether
    # it sits alone, in a list of floats or in texts shared with write_csv
    values = [0.5, -0.0, bad, -bad, 1e300]
    value = {"float": bad, "float list": values,
             "mixed list": [1, "s", None, *values],
             "texts": cli.FloatTexts(values)}[where]
    payload = {"a": [1.0, 2.0], "b": value, "c": math.nan}
    with pytest.raises(ValueError) as expected:
        _json_dumps_bytes(payload)
    path = tmp_path / "kept" / "report.json"
    path.parent.mkdir()
    path.write_text('{"x": 1.0}\n')
    with pytest.raises(ValueError) as got:
        cli.write_json(payload, path)
    assert str(got.value) == str(expected.value)
    assert str(got.value).endswith(f": {bad!r}")
    assert path.read_text() == '{"x": 1.0}\n'
    with pytest.raises(ValueError):
        cli.write_json(payload, tmp_path / "none" / "report.json")
    assert not (tmp_path / "none").exists()


CONFORMAL_CONSTRUCT = ["construct", "--n", "5", "--epsilon-frac", "0.5"]
CKN_BASE = CKN_CONSTRUCT[:-2]  # without --nu
INDEX_SET = ["index-set", "--n", "5", "--constant"]
EXPAND = ["expand", "--n", "5", "--epsilon-frac", "0.8"]


REFUSED = [
    (INDEX_SET + ["--cutoff", "inf"], "cutoff = inf"),
    (INDEX_SET + ["--cutoff", "nan"], "cutoff = nan"),
    (INDEX_SET + ["--resonance-tol", "inf"], "tol = inf"),
    (INDEX_SET + ["--resonance-tol", "nan"], "tol = nan"),
    (CKN_BASE + ["--nu", "inf"], "nu = inf"),
    (CKN_BASE + ["--nu", "nan"], "nu = nan"),
    (CKN_CONSTRUCT + ["--kappa", "nan"], "amplitude = nan"),
    (CKN_CONSTRUCT + ["--tol", "nan"], "tol = nan"),
    (CONFORMAL_CONSTRUCT + ["--kappa", "nan"], "kappa = nan"),
    (CONFORMAL_CONSTRUCT + ["--beta", "inf"], "beta = inf"),
    (CONFORMAL_CONSTRUCT + ["--beta", "nan"], "beta = nan"),
    (CONFORMAL_CONSTRUCT + ["--tol", "nan"], "tol = nan"),
    (CONFORMAL_CONSTRUCT + ["--tol", "inf"], "tol = inf"),
    (CONFORMAL_CONSTRUCT + ["--tol", "-1"], "tol = -1.0"),
    (CONFORMAL_CONSTRUCT + ["--k0", "nan"], "k0 = nan"),
    (["fowler", "--n", "5", "--k0", "nan"], "k0 = nan"),
    (["fowler", "--n", "5", "--k0", "inf"], "k0 = inf"),
    (EXPAND + ["--amplitude", "nan"], "a = [nan, 0.0, 0.0, 0.0, 0.0]"),
    (EXPAND + ["--amplitude", "inf"], "a = [inf, 0.0, 0.0, 0.0, 0.0]"),
    (EXPAND + ["--amplitude=-inf"], "a = [-inf, 0.0, 0.0, 0.0, 0.0]"),
    (EXPAND + ["--amplitude", "1e300"], "a = [1e+300, 0.0, 0.0, 0.0, 0.0]"),
    (EXPAND + ["--order", "1", "--amplitude", "1e160"],
     "a = [1e+160, 0.0, 0.0, 0.0, 0.0]"),
    # finite |a|^2, but order-2 coefficients past the largest double
    (EXPAND + ["--order", "2", "--amplitude", "5e152"],
     "a = [5e+152, 0.0, 0.0, 0.0, 0.0]"),
    (EXPAND + ["--order", "2", "--amplitude", "1e153"],
     "a = [1e+153, 0.0, 0.0, 0.0, 0.0]"),
    (EXPAND + ["--order", "2", "--amplitude", "1.3e154"],
     "a = [1.3e+154, 0.0, 0.0, 0.0, 0.0]"),
    (CONFORMAL_CONSTRUCT + ["--max-degree", "-1", "--kappa", "0"],
     "max_degree = -1"),
    (CONFORMAL_CONSTRUCT + ["--window", "0.1"],
     "7 points, fewer than 9 (t0 = 5.0, window = 0.1, h = 0.015625)"),
    (INDEX_SET + ["--max-degree", "-1"], "max_degree = -1"),
    (INDEX_SET + ["--cutoff", "0.99"], "smallest exponent = 1.0, cutoff = 0.99"),
    (["index-set", "--n", "5", "--epsilon-frac", "0.5", "--cutoff", "0.99"],
     "cutoff = 0.99"),
    # count vectors past index_set.MAX_COUNT_VECTORS
    (INDEX_SET + ["--cutoff", "1e6"], "cutoff = 1000000.0"),
    (CKN_BASE + ["--nu", "400"], "cutoff = 401.0"),
    # e^{-mu t} times a coefficient past the largest double
    (EXPAND + ["--order", "2", "--t0=-360"],
     "t0 = -360.0, window = 12.0, order = 2, amplitude = 0.5"),
    (EXPAND + ["--order", "1", "--t0=-750"],
     "t0 = -750.0, window = 12.0, order = 1, amplitude = 0.5")]


@pytest.mark.parametrize("argv, named", REFUSED, ids=[
    f"{argv[0]}{'-ckn' if 'ckn' in argv else ''}-{named.replace(' = ', '=')}"
    for argv, named in REFUSED])
def test_refused_inputs_end_in_one_record_before_any_sweep(argv, named,
                                                          tmp_path, capsys,
                                                          monkeypatch):
    # these used to end in an OverflowError traceback, an untyped "cannot
    # convert float NaN to integer", 300 sweeps and a ConstructionError, or
    # an error record that blamed eps
    def no_sweep(*args):
        raise AssertionError("a construction sweep ran")

    monkeypatch.setattr(cli.cylinder, "_iterate", no_sweep)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(argv + ["--outdir", str(tmp_path)])
    assert rc == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ValueError"
    assert record["message"].endswith(named)


@pytest.mark.parametrize("argv", [INDEX_SET + ["--cutoff", "1e6"],
                                  CKN_BASE + ["--nu", "400"]],
                         ids=["index-set", "construct-ckn"])
def test_an_index_set_past_the_bound_is_refused_within_a_second(
        argv, tmp_path, capsys):
    # these ran for minutes: the count vectors grow like a power of the
    # cutoff, and a CKN construction enumerates up to nu + 1
    start = time.perf_counter()
    rc = run_cli(argv + ["--outdir", str(tmp_path)])
    assert time.perf_counter() - start < 1.0
    assert rc == 1 and len(capsys.readouterr().out.strip().splitlines()) == 1


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("top", [1, 2, 3])
def test_index_set_base_holds_exactly_the_degrees_up_to_the_bound(
        n, top, tmp_path):
    # the mode count used to reach the first mode of degree top + 1
    assert run_cli(["index-set", "--n", str(n), "--constant", "--max-degree",
                    str(top), "--outdir", str(tmp_path)]) == 0
    base = json.loads((tmp_path / "index_set.json").read_text())["base"]
    assert [(b["degree"], b["multiplicity"]) for b in base] == [
        (k, fowlerlab.spheres.multiplicity(k, n)) for k in range(1, top + 1)]


CKN_FLAT_NECK = ["--problem", "ckn", "--n", "5", "--a", "1.48", "--b", "1.48",
                 "--constant"]
FLAT_NECK = FowlerParams.ckn(5, 1.48, 1.48)
CONFORMAL5, CKN5 = FowlerParams.conformal(5), FowlerParams.ckn(5, 0.5, 0.7)


def _named(params, frac, *pairs):
    """The escaped name of the orbit at frac xi* (xi* itself at frac None)."""
    xistar = constant_solution(params)
    orbit = ("xi*", xistar) if frac is None else ("eps", frac * xistar)
    return re.escape(params.named(orbit, *pairs))


FLAT_NECK_OVERFLOW = (r"constant-orbit monodromy overflows \("
                      + _named(FLAT_NECK, None, ("lambda", 10.0))
                      + r", T = 272\.06\d*\)")
TYPED_REFUSALS = [
    (["floquet"] + CKN_FLAT_NECK, "IntegrationError", FLAT_NECK_OVERFLOW),
    (["index-set"] + CKN_FLAT_NECK, "IntegrationError", FLAT_NECK_OVERFLOW),
    (CONFORMAL_CONSTRUCT + ["--t0", "800"], "WindowError",
     r"the weight e\^\{nu t\} overflows on the window \("
     + _named(CONFORMAL5, 0.5, ("t0", 800.0), ("window", 12.0), ("rate", 1.5))
     + r"\)"),
    (CKN_CONSTRUCT + ["--t0", "800"], "WindowError",
     r"the weight e\^\{nu t\} overflows on the window \("
     + _named(CKN5, 0.4, ("t0", 800.0), ("window", 12.0), ("rate", 2.4))
     + r"\)"),
    (CONFORMAL_CONSTRUCT + ["--k0", "2.25", "--t0", "800"], "WindowError",
     r"the weight e\^\{nu t\} overflows on the window \("
     + _named(FowlerParams.conformal(5, 2.25), 0.5, ("t0", 800.0),
              ("window", 12.0), ("rate", 1.5)) + r"\)"),
    (CONFORMAL_CONSTRUCT + ["--window", "260"], "WindowError",
     r"the kernel pair e\^\{sigma \(t - t0\)\} overflows on the window \("
     + _named(CONFORMAL5, 0.5, ("t0", 5.0), ("window", 260.0))
     + r", rate = 2\.7488\d*\)"),
    (CONFORMAL_CONSTRUCT + ["--t0=-1000"], "WindowError",
     r"the forcing e\^\{-beta t\} overflows on the window \("
     + _named(CONFORMAL5, 0.5, ("t0", -1000.0), ("window", 12.0),
              ("rate", 1.5)) + r"\)"),
    (CKN_CONSTRUCT + ["--t0=-1000"], "WindowError",
     r"the forcing e\^\{-nu t\} overflows on the window \("
     + _named(CKN5, 0.4, ("t0", -1000.0), ("window", 12.0), ("rate", 2.4))
     + r"\)"),
    (CONFORMAL_CONSTRUCT + ["--window", "1e12"], "ValueError",
     r"grid of 6\.4e\+13 points, more than MAX_GRID_POINTS = 131072 "
     r"\(t0 = 5\.0, window = 1000000000000\.0, h = 0\.015625\)"),
    (CONFORMAL_CONSTRUCT + ["--h", "1e-9", "--window", "1"], "ValueError",
     r"grid of 1e\+09 points, more than MAX_GRID_POINTS = 131072 "
     r"\(t0 = 5\.0, window = 1\.0, h = 1e-09\)"),
    (INDEX_SET + ["--max-degree", "0"], "ValueError",
     r"the index set sums exponents of degrees 1\.\.max_degree, got "
     r"max_degree = 0"),
    (CONFORMAL_CONSTRUCT + ["--kappa", "5000"], "PositivityError",
     r"forcing profile K is not positive on the grid: min K = -1\.734\d* at "
     r"t = 5\.0 \(k0 = 1\.0\)"),
    (CKN_CONSTRUCT + ["--kappa", "1e6"], "PositivityError",
     r"base field not positive on the grid \("
     + _named(CKN5, 0.4, ("t0", 5.0), ("window", 12.0)) + r"\)"),
    (CKN_CONSTRUCT + ["--kappa", "1e200"], "PositivityError",
     r"base field not positive on the grid \("
     + _named(CKN5, 0.4, ("t0", 5.0), ("window", 12.0)) + r"\)"),
    (CKN_CONSTRUCT + ["--kdegree", "0", "--kappa", "1e200"], "WindowError",
     r"the power b\^e or a factor A, B, C, D of the map is not finite on "
     r"the window \(" + _named(CKN5, 0.4, ("t0", 5.0), ("window", 12.0))
     + r"\)")]


@pytest.mark.parametrize("argv, error, message", TYPED_REFUSALS, ids=[
    "floquet-ckn-flat-neck", "index-set-ckn-flat-neck", "weight", "weight-ckn",
    "weight-k0", "kernel-pair", "forcing", "forcing-ckn", "grid-window", "grid-h",
    "index-set-degree-0", "profile-not-positive", "base-not-positive-ckn",
    "base-power-overflow-ckn", "forcing-overflow-ckn"])
def test_overflowing_closed_forms_and_windows_end_in_one_typed_record(
        argv, error, message, tmp_path, capsys, monkeypatch):
    # these used to end in an OverflowError traceback, RuntimeWarnings and a
    # ConstructionError after 4 window shifts, a PositivityError, or an
    # _ArrayMemoryError traceback
    def no_sweep(*args):
        raise AssertionError("a construction sweep ran")

    monkeypatch.setattr(cli.cylinder, "_iterate", no_sweep)
    outdir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(argv + ["--outdir", str(outdir)])
    assert rc == 1 and not outdir.exists()
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == error
    assert re.fullmatch(message, record["message"]), record["message"]


def test_index_set_prints_the_floor_warning_of_each_summed_datum(
        tmp_path, capsys):
    # sigma_1 reads 1.3628 on this slow orbit against the exact 1, and the
    # datum's floor warning used to reach floquet.json but not this command
    assert run_cli(["index-set", "--n", "5", "--epsilon-frac", "1e-9",
                    "--outdir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("mu: 1.36278")
    assert re.fullmatch(
        r"warning: monodromy kept at the orbit's accuracy floor \("
        + _named(CONFORMAL5, 1e-9, ("lambda", 4.0), ("N", 8192))
        + r", estimate = 0\.007\d*\)", lines[1]), lines[1]
    saved = json.loads((tmp_path / "index_set.json").read_text())
    assert saved["warnings"] == []


UNFITTED = [
    (CONFORMAL_CONSTRUCT + ["--t0", "20"], r"520 in the window \[20\.5, "
     r"28\.615\d*\]", r"7\.78\d*e-15"),
    (CONFORMAL_CONSTRUCT + ["--t0", "30"], r"520 in the window \[30\.5, "
     r"38\.615\d*\]", r"3\.78\d*e-21"),
    (CKN_CONSTRUCT + ["--t0", "20"], r"475 in the window \[20\.5, "
     r"27\.912\d*\]", r"2\.14\d*e-23")]


@pytest.mark.parametrize("argv, window, top", UNFITTED,
                         ids=["t0-20", "t0-30", "ckn-t0-20"])
def test_a_perturbation_below_the_floor_ends_in_one_named_record(
        argv, window, top, tmp_path, capsys):
    # these converge, then the whole fit window lies below UNDERFLOW_FLOOR;
    # the record used to name no parameter
    outdir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(argv + ["--outdir", str(outdir)])
    assert rc == 1 and not outdir.exists()
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ValueError"
    assert re.fullmatch(
        rf"not enough usable points for a decay fit: 0 of {window} are "
        rf"finite, above the floor 1e-14 and at t > 0, fewer than 4 "
        rf"\(largest value {top}\)", record["message"]), record["message"]


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_the_readme_command_block_is_the_benchmark_command_list():
    # the README's command lines against README_COMMANDS as
    # perfbench/workloads.py states it
    lines = readme_command_lines()
    with open(os.path.join(ROOT, "perfbench", "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    (pairs,) = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["README_COMMANDS"]]
    assert lines == [f"fowlerlab {command}" for _, command in pairs]
