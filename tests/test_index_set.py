import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fowlerlab import cli, floquet, index_set, spheres
from fowlerlab.fowler import FowlerParams, constant_orbit


def brute_force_sums(rho, cutoff, tol):
    rho = np.asarray(rho, dtype=float)
    caps = [int(math.floor(cutoff / r + tol)) for r in rho]
    sums = set()
    for counts in itertools.product(*[range(c + 1) for c in caps]):
        s = float(np.dot(counts, rho))
        if 0.0 < s <= cutoff + tol:
            sums.add(round(s / tol))
    return sorted(sums)


def test_constant_orbit_example():
    # n = 5 constant orbit: exponents (1 x5, sqrt 7), cutoff 3
    rho = [1.0] * 5 + [math.sqrt(7.0)]
    iset = index_set.generate(rho, 3.0, degrees=[1] * 5 + [2])
    assert_allclose(iset.values, [1.0, 2.0, math.sqrt(7.0), 3.0], atol=1e-12)
    s1, s2, res = index_set.split(iset)
    assert_allclose(s1, [1.0, math.sqrt(7.0)])
    assert_allclose(s2, [2.0, 3.0])
    assert res.size == 0


def test_mu2_is_min_of_2_and_next_exponent():
    for rho_next in (1.7, 2.0, 2.4, math.sqrt(7.0)):
        iset = index_set.generate([1.0, rho_next], 3.0)
        assert_allclose(iset.values[1], min(2.0, rho_next), atol=1e-12)


def test_constructed_resonance():
    # 2 is both the second exponent and 1 + 1; 3 and 4 are sums only
    iset = index_set.generate([1.0, 2.0], 4.0)
    _, _, res = index_set.split(iset)
    assert_allclose(res, [2.0])
    assert iset.resonant.sum() == 1


def test_irrational_pair_has_no_resonance():
    iset = index_set.generate([1.0, math.sqrt(2.0)], 4.0, tol=1e-9)
    _, _, res = index_set.split(iset)
    assert res.size == 0


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(0)
    tol = 1e-9
    for _ in range(10):
        k = int(rng.integers(1, 5))
        rho = np.sort(rng.uniform(0.5, 2.5, size=k))
        cutoff = float(rng.uniform(3.0, 6.0))
        mine = index_set.generate(rho, cutoff, tol)
        assert [round(v / tol) for v in mine.values] == \
            brute_force_sums(rho, cutoff, tol)


def test_strict_monotonicity_and_closure():
    rho = [0.9, 1.3, 2.01]
    iset = index_set.generate(rho, 5.5, tol=1e-9)
    gaps = np.diff(iset.values)
    assert np.all(gaps > iset.tol)
    vals = iset.values
    for a in vals:
        for b in vals:
            if a + b <= iset.cutoff + iset.tol:
                assert np.min(np.abs(vals - (a + b))) <= iset.tol


def test_resonance_flags_match_provenance():
    iset = index_set.generate([1.0, 2.0, 2.5], 5.0)
    for value, combos, flag in zip(iset.values, iset.combos, iset.resonant):
        has_single = any(sum(c) == 1 for c in combos)
        has_multi = any(sum(c) >= 2 for c in combos)
        assert flag == (has_single and has_multi), value


def test_near_resonance_warning():
    # a sum and a single exponent 5e-8 apart, just beyond the 1e-8 tolerance
    iset = index_set.generate([1.0, 2.0 + 5e-8], 3.0, tol=1e-8)
    assert iset.warnings, "expected a near-resonance warning"


def test_degree_caps_examples():
    rho = [1.0] * 5 + [math.sqrt(7.0)]
    iset = index_set.generate(rho, 3.0, degrees=[1] * 5 + [2])
    # sigma~ = 2 from two degree-1 factors
    k, m = index_set.degree_caps(iset, 2.0, 5)
    assert k == 2
    assert m == 1 + 5 + 14 - 1  # constants + degree 1 + degree 2, index from 0
    # target 3 = 1+1+1: K = 3
    k3, m3 = index_set.degree_caps(iset, 3.0, 5)
    assert k3 == 3
    assert m3 == 1 + 5 + 14 + 30 - 1


def test_degree_caps_prefers_highest_degree_combination():
    # 4.0 = 1+1+1+1 (K=4) = 1+1+2 (K=2+3=5) = 2+2 (K=6): max total degree 6
    iset = index_set.generate([1.0, 2.0], 4.0, degrees=[1, 3])
    k, _ = index_set.degree_caps(iset, 4.0, 4)
    assert k == 6


def test_degree_caps_rejects_single_only_value():
    iset = index_set.generate([1.0, 1.7], 3.0, degrees=[1, 2])
    with pytest.raises(ValueError, match="multi-sum"):
        index_set.degree_caps(iset, 1.7, 5)


def test_degree_caps_mixed_degree_target():
    # a value reachable only with one degree-2 factor plus degree-1 factors
    # caps the total degree at 1 + 2 = 3
    rho6 = math.sqrt(7.0)  # the degree-2 exponent of the n = 5 constant orbit
    iset = index_set.generate([1.0] * 5 + [rho6], rho6 + 1.0 + 0.1,
                              degrees=[1] * 5 + [2])
    k, m = index_set.degree_caps(iset, rho6 + 1.0, 5)
    assert k == 3
    assert m == 1 + 5 + 14 + 30 - 1


def test_generate_errors():
    with pytest.raises(ValueError):
        index_set.generate([], 3.0)
    with pytest.raises(ValueError, match=r"^all exponents must be positive, "
                                         r"got rho\[0\] = -1\.0$"):
        index_set.generate([-1.0, 2.0], 3.0)
    with pytest.raises(ValueError, match=r"got rho\[1\] = -0\.5$"):
        index_set.generate([2.0, -0.5, 0.0], 3.0)  # the first one is named
    with pytest.raises(ValueError, match=r"^all exponents must be finite, "
                                         r"got rho\[0\] = nan$"):
        index_set.generate([math.nan, 1.0], 3.0)
    with pytest.raises(ValueError, match=r"^cutoff must be at least the "
                       r"smallest exponent, got smallest exponent = 1\.0, "
                       r"cutoff = 0\.5$"):
        index_set.generate([1.0], 0.5)
    with pytest.raises(ValueError):
        index_set.generate([1.0], 3.0, tol=0.0)
    with pytest.raises(ValueError, match=r"^degrees must align with the "
                       r"exponent list, got 3 degrees for 2 exponents$"):
        index_set.generate([1.0, 2.0], 3.0, degrees=[1, 2, 3])


def test_multiplicity_collapse_keeps_largest_degree():
    iset = index_set.generate([1.0, 1.0, 1.0], 2.0, degrees=[1, 1, 3])
    assert len(iset.base) == 1
    assert iset.base[0].multiplicity == 3
    assert iset.base[0].degree == 3


def test_to_dict_serializable():
    import json
    iset = index_set.generate([1.0, 2.0], 4.0, degrees=[1, 2])
    payload = json.dumps(cli.index_set_payload(iset))
    assert "resonant" in payload


def _recursive_enumeration(rho, cutoff, tol, degrees):
    """The depth-first enumeration `generate` replaced, kept as its oracle:
    (values, combos, single, multi, warnings) built the earlier way."""
    base = index_set._collapse(np.asarray(rho, dtype=float),
                               np.asarray(degrees, dtype=int), tol)
    vals = [b.value for b in base]
    found = {}

    def visit(i, total, counts):
        if i == len(base):
            if sum(counts):
                key = round(total / tol)
                for k in (key - 1, key, key + 1):
                    if k in found and abs(found[k][0] - total) <= tol:
                        found[k][1].append(tuple(counts))
                        return
                found[key] = [total, [tuple(counts)]]
            return
        max_count = int(np.floor((cutoff - total) / vals[i] + tol))
        for c in range(max_count + 1):
            counts.append(c)
            visit(i + 1, total + c * vals[i], counts)
            counts.pop()

    visit(0, 0.0, [])
    entries = sorted(found.values(), key=lambda ent: ent[0])
    values = np.array([ent[0] for ent in entries])
    combos = [ent[1] for ent in entries]
    single = np.array([any(sum(c) == 1 for c in cs) for cs in combos])
    multi = np.array([any(sum(c) >= 2 for c in cs) for cs in combos])
    warnings = [
        f"values {values[i]:.12g} and {values[i + 1]:.12g} differ by "
        f"{g:.3e}, within 100x the resonance tolerance {tol:g}"
        for i, g in enumerate(np.diff(values))
        if tol < g <= index_set.NEAR_RESONANCE_FACTOR * tol]
    return values, combos, single, multi, warnings


def _oracle_draws():
    # the draws of the index-set acceptance criterion
    rng = np.random.default_rng(20240801)
    for _ in range(10):
        k = int(rng.integers(1, 5))
        rho = np.sort(rng.uniform(0.5, 2.5, size=k))
        yield rho, float(rng.uniform(3.0, 6.0)), 1e-9, np.zeros(k, dtype=int)


def _readme_constant_spectrum():
    # the README constant spectrum through the first mode of degree 4: four
    # distinct exponents, those `index-set --n 5 --constant --cutoff 4`
    # summed before its degree range stopped at --max-degree
    orbit = constant_orbit(FowlerParams.conformal(5, 1.0))
    data = floquet.exponent_sequence(
        orbit, spheres.index_of_last_degree(5, 3) + 1)
    return ([d.sigma for d in data], 4.0, index_set.DEFAULT_TOL,
            [d.degree for d in data])


LEVEL_CASES = [*_oracle_draws(), _readme_constant_spectrum(),
               # 2 + 5e-9 and 1 + 1 are one value at tol 1e-8: the first
               # found, 0 + 1 * (2 + 5e-9), represents it
               ([1.0, 2.0 + 5e-9, 3.0 + 2e-7], 6.0, 1e-8, [1, 2, 3]),
               ([1.0, 1.0 + 3e-9, 2.0 - 4e-9], 5.0, 1e-8, [1, 1, 2]),
               # 0.7 + 1.3 + 7.5e-9 is within tol of 2 and of 2 + 1.5e-8,
               # which lie in the keys on either side of its own
               ([0.7, 1.3 + 7.5e-9, 2.0, 2.0 + 1.5e-8], 2.5, 1e-8,
                [1, 1, 2, 2])]


@pytest.mark.parametrize(
    "rho, cutoff, tol, degrees", LEVEL_CASES,
    ids=[f"draw{i}" for i in range(10)]
    + ["readme", "coincidence", "collapse", "two-neighbours"])
def test_level_enumeration_is_bitwise_the_recursive_one(rho, cutoff, tol,
                                                        degrees):
    iset = index_set.generate(rho, cutoff, tol, degrees=degrees)
    values, combos, single, multi, warnings = _recursive_enumeration(
        rho, cutoff, tol, degrees)
    assert iset.values.tobytes() == values.tobytes()
    assert iset.combos == combos
    assert iset.single.tolist() == single.tolist()
    assert iset.multi.tolist() == multi.tolist()
    assert iset.warnings == warnings


def test_the_bound_admits_a_level_of_exactly_its_length(monkeypatch):
    rho, cutoff, tol, degrees = _readme_constant_spectrum()
    # 8 count vectors, the zero vector among them: 0..4 times 1, 0|1 times
    # 1 plus sqrt 7, and sqrt 15 (5 passes the cutoff)
    monkeypatch.setattr(index_set, "MAX_COUNT_VECTORS", 8)
    iset = index_set.generate(rho, cutoff, tol, degrees=degrees)
    assert iset.values.size == 7
    monkeypatch.setattr(index_set, "MAX_COUNT_VECTORS", 7)
    with pytest.raises(ValueError, match=r"more than 7 count vectors \(8 over "
                       r"the first 3 of 4 distinct exponents\); lower the "
                       r"cutoff, got cutoff = 4\.0$"):
        index_set.generate(rho, cutoff, tol, degrees=degrees)

