"""Tests of the benchmark itself: a trimmed pass of each workload passes
its checks, each check rejects a perturbed result, and the tracer's self times
add up to the traced pass."""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fowlerlab import cli, fowler  # noqa: E402


def trimmed(name, seed, workdir):
    """The workload as the benchmark draws it, with its inputs cut down to
    a few of each kind: no `verify` of all criteria on `cli`; conformal
    n = 5 in the lower band and one CKN orbit on `spectra`; one profile per
    forcing degree, one resonant profile and one rate on `scan`."""
    wl = workloads.make(name, seed, workdir)
    if name == "cli":
        wl.commands = [c for c in wl.commands if c[0] != "verify_all"]
    elif name == "spectra":
        wl.specs = [s for s in wl.specs if s["n"] == 5 and (
            s["kind"] == "ckn" or s["frac"] < 0.5)]
    else:
        wl.profiles = wl.profiles[::6]
        wl.rates = wl.rates[:1]
    return wl


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """One trimmed pass of each workload: (workload, summary)."""
    out = {}
    for name in ("cli", "spectra", "scan"):
        wl = trimmed(name, 7, str(tmp_path_factory.mktemp(name)))
        wl.prepare()
        out[name] = (wl, wl.summarize(wl.run_pass()))
    yield out
    for wl, _ in out.values():
        wl.close()


@pytest.mark.parametrize("name, failed", [("cli", 1), ("spectra", 0), ("scan", 0)])
def test_tiny_pass_passes_its_checks(tiny, name, failed):
    wl, summary = tiny[name]
    assert wl.check(summary) == []
    assert wl.failed(summary) == failed


def test_small_neck_is_the_only_failed_cli_operation(tiny):
    _, summary = tiny["cli"]
    assert [k for k, r in summary.items() if r["failed"]] == ["fowler_small_neck"]
    assert summary["fowler_small_neck"]["error"]["error"] == "IntegrationError"


def _rejected(check, summary, edit):
    bad = copy.deepcopy(summary)
    edit(bad)
    return check(bad)


def _files(summary, name, fname):
    return summary[name]["files"][fname]


CLI_PERTURBATIONS = {
    "period": lambda s: _files(s, "fowler_orbit", "orbit_summary.json").update(
        period_quadrature=_files(s, "fowler_orbit", "orbit_summary.json")[
            "period"] * (1 + 1e-5)),
    "xi_star": lambda s: _files(s, "fowler_constant", "orbit_summary.json").update(
        epsilon=4.0 + 1e-6),
    "omega": lambda s: _files(s, "fowler_constant", "orbit_summary.json").update(
        mode0_rotation=2.0 + 1e-6),
    "sigma": lambda s: _files(s, "floquet_constant", "floquet.json")["modes"][3]
    .update(sigma=_files(s, "floquet_constant", "floquet.json")["modes"][3]["sigma"] + 1e-5),
    "index_value": lambda s: _files(s, "index_set_constant", "index_set.json")[
        "values"].pop(),
    "expand": lambda s: _files(s, "expand", "expansion.json")["terms"][0][
        "coeff"].__setitem__(0, _files(s, "expand", "expansion.json")["terms"][0][
            "coeff"][0] * (1 + 1e-6)),
    "slope": lambda s: _files(s, "construct_ckn", "construct.json")["fit"].update(
        slope=_files(s, "construct_ckn", "construct.json")["fit"]["slope"] * 1.1),
    "converged": lambda s: _files(s, "construct_conformal", "construct.json")[
        "trace"].update(converged=False),
    "verify": lambda s: _files(s, "verify_named", "verify.json")[0].update(
        passed=False),
    "exit_code": lambda s: s["expand"].update(rc=1),
    "error_record": lambda s: s["verify_named"].update(
        rc=1, failed=True, files={},
        error={"error": "RuntimeError", "message": "criterion raised"}),
}


@pytest.mark.parametrize("kind", sorted(CLI_PERTURBATIONS))
def test_cli_checks_reject_perturbed_results(tiny, kind):
    _, summary = tiny["cli"]
    assert _rejected(checks.check_cli, summary, CLI_PERTURBATIONS[kind])


def _conformal(summary):
    return next(o for o in summary if o["kind"] == "conformal")


def _shift_sigmas(s, delta):
    o = _conformal(s)
    o["sigmas"] = [x + delta for x in o["sigmas"]]
    for f in o["factors"]:
        f["sigma"] += delta


SPECTRA_PERTURBATIONS = {
    "sigma": lambda s: _shift_sigmas(s, 1e-5),
    "degree2_sigma": lambda s: _conformal(s)["factors"][-1].update(
        sigma=_conformal(s)["factors"][-1]["sigma"] + 1e-5),
    "q_plus": lambda s: _conformal(s)["factors"][0]["q_plus"].__setitem__(
        5, _conformal(s)["factors"][0]["q_plus"][5] + 1e-5),
    "determinant": lambda s: s[-1]["factors"][0].update(det_defect=1e-6),
    "monotone": lambda s: s[-1].update(sigmas=s[-1]["sigmas"][::-1]),
    "index_value": lambda s: s[-1]["index_set"]["values"].__setitem__(
        0, s[-1]["index_set"]["values"][0] + 1e-6),
    "degree_caps": lambda s: _conformal(s)["index_set"]["caps"].__setitem__(
        -1, [9, 9]),
    "resonant_solution": lambda s: s[-1]["solves"][0].update(
        u=[[v * (1 + 1e-4) for v in row] for row in s[-1]["solves"][0]["u"]]),
    "resonance_flag": lambda s: s[0]["solves"][0].update(resonant=False),
}


@pytest.mark.parametrize("kind", sorted(SPECTRA_PERTURBATIONS))
def test_spectra_checks_reject_perturbed_results(tiny, kind):
    _, summary = tiny["spectra"]
    assert _rejected(checks.check_spectra, summary, SPECTRA_PERTURBATIONS[kind])


def _resonant(s):
    return next(c for c in s if c["resonant"])


SCAN_PERTURBATIONS = {
    "slope": lambda s: s[0].update(slope_plain=s[0]["slope_plain"] * 1.1),
    "ckn_slope": lambda s: s[-1].update(slope_plain=s[-1]["slope_plain"] * 0.9),
    "converged": lambda s: s[0].update(converged=False),
    "residual": lambda s: s[-1].update(residual_ratio=0.1),
    "resonant_log_slope": lambda s: _resonant(s).update(
        slope_log=_resonant(s)["slope_log"] * 1.1),
    "resonant_plain_above": lambda s: _resonant(s).update(
        slope_plain=_resonant(s)["target"] * 1.01),
}


@pytest.mark.parametrize("kind", sorted(SCAN_PERTURBATIONS))
def test_scan_checks_reject_perturbed_results(tiny, kind):
    _, summary = tiny["scan"]
    assert _rejected(checks.check_scan, summary, SCAN_PERTURBATIONS[kind])


def test_brute_force_sums_small_case():
    sums = [v for v, _ in checks.brute_force_sums([1.0, 2.5], 4.0)]
    assert sums == pytest.approx([1.0, 2.0, 2.5, 3.0, 3.5, 4.0])


def test_self_times_add_up_and_tracer_restores_the_library(tmp_path):
    original = fowler.periodic_orbit
    wl = trimmed("spectra", 3, str(tmp_path))
    tracer = spans.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        with tracer.region(spans.ROOT_REGION):
            wl.run_pass(tracer.region)
        elapsed = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert fowler.periodic_orbit is original and cli.periodic_orbit is original
    total = sum(tracer.self_s.values())
    assert elapsed - 1e-3 < total <= elapsed
    values = spans.layer_values(tracer, elapsed)
    names = {n for n, _, _ in spans.LAYER_METRICS}
    assert set(values) | set(spans.RUN_WIDE) == names
    # the root region and the orbit evaluations are spans among others
    assert spans.spans_closed(tracer) > 1 + values["fowler.orbit_value.calls"]
    assert 0 < spans.span_cost() < 1e-4
    # every span's self time is reported (the root's as bench.glue.s)
    assert set(tracer.self_s) - {spans.ROOT_REGION} <= {
        n[:-2] for n in names if n.endswith(".s")}
    assert values["floquet.monodromy.calls"] > 0
    assert values["floquet.kernel_basis.rhs_evals"] > 0
    assert values["expansion.solve_resonant_mode.calls"] == 4


def test_benchmark_json_names_every_metric():
    cfg = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in cfg["workloads"]] == ["cli", "spectra", "scan"]
    assert [(m["name"], m["unit"], m["better"]) for m in cfg["per_layer"]] == \
        spans.LAYER_METRICS
    assert {m["name"] for m in cfg["end_to_end"]} == {"pass_s", "setup_s",
                                                      "peak_rss_mb"}


def test_run_refuses_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
