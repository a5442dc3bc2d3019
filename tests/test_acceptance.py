"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a PASS/FAIL line for its criterion and asserts both the
criterion's own verdict and the key measured numbers against the pinned
tolerances, so a silently weakened criterion cannot slip through.
"""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fowlerlab import acceptance


def _report(fn, **kwargs):
    out = fn(**kwargs)
    status = "PASS" if out["passed"] else "FAIL"
    print(f"{status}  {out['name']}  ({out['runtime_s']:.2f}s)")
    return out


def test_criterion_1_constant_floquet_closed_form():
    out = _report(acceptance.check_constant_floquet)
    assert out["passed"]
    assert out["details"]["max_abs_error"] < 1e-9
    assert out["details"]["modes"] == 12
    assert out["runtime_s"] < 1.0


def test_criterion_2_nonconstant_kernel():
    out = _report(acceptance.check_nonconstant_kernel)
    assert out["passed"]
    assert out["details"]["max_sigma_error"] < 1e-6
    assert out["details"]["max_factor_error"] < 1e-6
    assert len(out["details"]["cases"]) == 9
    assert out["runtime_s"] < 30.0


def test_criterion_3_lower_bound_audit():
    out = _report(acceptance.check_lower_bound)
    assert out["passed"]
    for rec in out["details"]["records"]:
        if rec["orbit"] == "nonconstant":
            assert rec["min_margin"] > 0.0
        if rec["n"] >= 6:
            assert abs(rec["mu2"] - 2.0) < 1e-9


def test_criterion_4_hamiltonian_and_period():
    out = _report(acceptance.check_hamiltonian_period)
    assert out["passed"]
    assert out["details"]["max_drift"] < 1e-9
    assert out["details"]["max_period_disagreement"] < 1e-6
    steps = out["details"]["ratio_steps"]
    assert all(b < a for a, b in zip(steps, steps[1:]))


def test_criterion_5_xi2_operator_identity():
    out = _report(acceptance.check_xi2_identity)
    assert out["passed"]
    assert out["details"]["max_defect"] < 1e-6
    assert {r["n"] for r in out["details"]["records"]} == {6, 7, 8}
    assert out["runtime_s"] < 10.0


def test_criterion_6_translate_orders():
    out = _report(acceptance.check_translate_orders)
    assert out["passed"]
    assert out["details"]["order_1"]["relative_error"] < 0.10
    assert out["details"]["order_2"]["relative_error"] < 0.10


def test_criterion_7_index_set_oracle():
    out = _report(acceptance.check_index_oracle)
    assert out["passed"]
    assert out["details"]["oracle_mismatches"] == 0
    for rec in out["details"]["mu2_records"]:
        assert rec["error"] < 1e-9


def test_brute_force_oracle_matches_a_per_count_enumeration():
    # the array enumeration against one dot product per count vector
    rng = np.random.default_rng(4)
    tol = 1e-9
    for _ in range(40):
        rho = np.sort(rng.uniform(0.5, 2.5, size=int(rng.integers(1, 5))))
        cutoff = float(rng.uniform(3.0, 6.0))
        caps = [int(math.floor(cutoff / r + tol)) for r in rho]
        ref = sorted({round(s / tol) for s in (
            float(np.dot(c, rho))
            for c in itertools.product(*[range(m + 1) for m in caps]))
            if 0.0 < s <= cutoff + tol})
        assert acceptance._brute_force_sums(rho, cutoff, tol) == ref


def test_criterion_8_contraction_construction():
    out = _report(acceptance.check_contraction)
    assert out["passed"]
    recs = out["details"]["records"]
    for rec in recs:
        if not rec.get("resonant"):
            assert rec["relative_error"] < 0.05
            assert out["runtime_s"] < 240.0
    resonant = [r for r in recs if r.get("resonant")][0]
    assert resonant["log_model_preferred"]
    assert resonant["plain_slope_drifts_below"]
    assert resonant["relative_error"] < 0.05


def test_criterion_9_first_order_expansion():
    out = _report(acceptance.check_first_order_expansion)
    assert out["passed"]
    assert 1.0 < out["details"]["gamma"] < 2.0


def test_criterion_10_dimension4_example():
    out = _report(acceptance.check_remark_example)
    assert out["passed"]
    assert 14.0 <= out["details"]["refinement_ratio"] <= 18.0
    assert out["details"]["grad_k_error"] < 1e-4
    grad = out["details"]["grad_k_origin"]
    assert np.max(np.abs(np.asarray(grad) - 0.125)) < 1e-4


def test_criterion_11_ckn_branch():
    out = _report(acceptance.check_ckn)
    assert out["passed"]
    d = out["details"]
    assert d["constant_sigma_error"] < 1e-9
    assert d["ordering_ok"]
    assert d["sigma_next"] > d["sigma_first"] + 1e-6
    assert d["qplus_min"] > 0.0
    assert d["relative_error"] < 0.05


def test_run_suite_selection_and_unknown_name():
    reports = acceptance.run_suite(["xi2"])
    assert len(reports) == 1
    assert reports[0]["name"] == "second_order_operator_identity"
    with pytest.raises(KeyError):
        acceptance.run_suite(["nonexistent-suite"])


def test_remark_example_pointwise():
    # u0 = |x|^{-1} solves -Lap u0 = u0^3 exactly: for |x|^a in R^4 the radial
    # Laplacian is a (a + 2) |x|^{a-2}, so -Lap u0 = |x|^{-3} = u0^3
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.normal(size=4)
        x *= rng.uniform(0.3, 0.8) / np.linalg.norm(x)
        r = np.linalg.norm(x)
        lap_u0 = (-1.0) * (-1.0 + 2.0) * r ** (-3.0)
        assert_allclose(-lap_u0, r ** (-3.0), rtol=1e-14)
    report = acceptance.remark_example_check()
    assert 14.0 <= report["refinement_ratio"] <= 18.0
    assert report["grad_k_error"] < 1e-4


def _pointwise_laplacian(x, h):
    """Reference: the stencil Laplacian of the example u, one point and one
    stencil entry at a time."""
    acc = 0.0
    for axis in range(x.size):
        vals = []
        for k in (-2, -1, 0, 1, 2):
            y = x.copy()
            y[axis] += k * h
            r = np.linalg.norm(y)
            s = float(np.sum(y))
            vals.append((1.0 + s * (1.0 - math.log(r)) / 16.0) / r)
        acc += float(acceptance.cylinder._D2_INTERIOR @ vals) / (h * h)
    return acc


def test_stacked_laplacian_is_that_of_each_point():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(200, 4))
    x *= rng.uniform(0.3, 0.7, (200, 1)) / np.linalg.norm(x, axis=1)[:, None]
    for h in (0.02, 0.01):
        got = acceptance._fd_laplacian(acceptance._example_u, x, h)
        assert_allclose(got, [_pointwise_laplacian(p, h) for p in x],
                        rtol=1e-10)


@pytest.fixture
def orbit_shots(monkeypatch):
    """Count the periodic orbits the criteria shoot; the orbit itself is
    replaced by a cheap stand-in, so only the sharing is under test."""
    shots = []

    def shoot(epsilon, params, **kwargs):
        shots.append(object())
        return shots[-1]

    monkeypatch.setattr(acceptance, "periodic_orbit", shoot)
    return shots


def _orbit_probe(name, monkeypatch, fail=False):
    """A registered criterion reading the shared construction orbit."""
    @acceptance._wrap(name, shares=True)
    def probe(share):
        orb = acceptance._construction_orbit(share)
        if fail:
            raise RuntimeError("probe failed")
        return True, {"orbit": id(orb)}
    monkeypatch.setitem(acceptance.SUITES, name, probe)
    return probe


def test_run_suite_shoots_the_construction_orbit_once_per_run(
        orbit_shots, monkeypatch):
    first = _orbit_probe("probe_a", monkeypatch)
    _orbit_probe("probe_b", monkeypatch)
    reports = acceptance.run_suite(["probe_a", "probe_b"])
    assert len(orbit_shots) == 1
    assert {r["details"]["orbit"] for r in reports} == {id(orbit_shots[0])}
    acceptance.run_suite(["probe_b", "probe_a"])  # the next run: its own
    assert len(orbit_shots) == 2
    first()  # a criterion called on its own shoots its own
    first()
    assert len(orbit_shots) == 4


def test_a_raising_criterion_leaves_no_shared_orbit(orbit_shots, monkeypatch):
    _orbit_probe("probe_a", monkeypatch)
    _orbit_probe("probe_fail", monkeypatch, fail=True)
    with pytest.raises(RuntimeError, match="probe failed"):
        acceptance.run_suite(["probe_a", "probe_fail"])
    assert len(orbit_shots) == 1
    acceptance.run_suite(["probe_a"])
    assert len(orbit_shots) == 2


def test_one_run_constructs_each_forcing_rate_once(monkeypatch):
    construct, rates = acceptance.cylinder.contraction_construct, []

    def counted(orbit, profile, **kwargs):
        rates.append(profile.components[0][2])
        return construct(orbit, profile, **kwargs)

    monkeypatch.setattr(acceptance.cylinder, "contraction_construct", counted)
    reports = acceptance.run_suite(["construct", "first-order"])
    assert all(r["passed"] for r in reports)
    assert sorted(rates) == [1.0, 1.5, 2.5]


def test_construction_criteria_report_the_same_in_any_order(monkeypatch):
    shoot, shots = acceptance.periodic_orbit, []
    monkeypatch.setattr(acceptance, "periodic_orbit",
                        lambda *args: shots.append(args) or shoot(*args))

    def stable(reports):
        return [{k: v for k, v in r.items() if k != "runtime_s"}
                for r in reports]

    names = ["construct", "first_order_expansion_of_constructed"]
    alone = stable(acceptance.run_suite([names[0]])
                   + acceptance.run_suite([names[1]]))
    assert len(shots) == 2 and all(r["passed"] for r in alone)
    assert stable(acceptance.run_suite(names)) == alone
    assert stable(acceptance.run_suite(names[::-1])) == alone[::-1]
    assert len(shots) == 4


def test_every_criterion_is_reached_by_its_name_and_its_alias():
    names = [fn.criterion_name for fn in acceptance.ALL_CRITERIA]
    aliases = [fn.criterion_alias for fn in acceptance.ALL_CRITERIA]
    assert len(acceptance.SUITES) == 22
    assert len(set(names + aliases)) == 22 and None not in aliases
    for fn in acceptance.ALL_CRITERIA:
        assert acceptance.SUITES[fn.criterion_name] is fn
        assert acceptance.SUITES[fn.criterion_alias] is fn
    assert acceptance.SUITES["xi2"] is acceptance.check_xi2_identity


def test_a_criterion_without_an_alias_has_none():
    @acceptance._wrap("probe", shares=True)
    def probe(share):
        return True, {}
    assert (probe.criterion_name, probe.criterion_alias) == ("probe", None)
    assert probe()["name"] == "probe"


def test_all_criteria_are_the_eleven_in_definition_order():
    # the list the module kept by hand before it was formed from the
    # decorated criteria
    assert acceptance.ALL_CRITERIA == [
        acceptance.check_constant_floquet, acceptance.check_nonconstant_kernel,
        acceptance.check_lower_bound, acceptance.check_hamiltonian_period,
        acceptance.check_xi2_identity, acceptance.check_translate_orders,
        acceptance.check_index_oracle, acceptance.check_contraction,
        acceptance.check_first_order_expansion,
        acceptance.check_remark_example, acceptance.check_ckn]
    assert [fn.criterion_name for fn in acceptance.ALL_CRITERIA] == [
        "constant_floquet_closed_form", "nonconstant_kernel_factors",
        "exponent_lower_bound", "hamiltonian_and_period",
        "second_order_operator_identity", "translate_expansion_orders",
        "index_set_oracle", "contraction_construction",
        "first_order_expansion_of_constructed", "dimension4_example",
        "ckn_branch"]


def test_a_wrapped_probe_joins_no_criteria_list():
    before, suites = list(acceptance.ALL_CRITERIA), dict(acceptance.SUITES)

    @acceptance._wrap("probe", "p")
    def probe():
        return True, {}
    assert probe()["passed"]
    assert acceptance.ALL_CRITERIA == before
    assert acceptance.SUITES == suites
