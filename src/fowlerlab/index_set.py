"""Index sets of Floquet exponents: all finite sums sum_i n_i rho_i <= cutoff.

The set splits into the singles (one n_i = 1, rest zero) and the multi-sums
(total count >= 2); a value realizable both ways is resonant and forces a
t-power in the matching expansion coefficient.  Exponents carrying numerical
error make the exact-arithmetic dichotomy "resonant or not" a tolerance
decision, so the tolerance is explicit everywhere and near-coincidences just
outside it are reported as warnings.  The count vectors number about
cutoff^k / (k! prod rho_i) for k distinct exponents, so an enumeration is
refused before it builds more than MAX_COUNT_VECTORS of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import spheres
from .fowler import output_fields

DEFAULT_TOL = 1e-8
NEAR_RESONANCE_FACTOR = 100.0
MAX_COUNT_VECTORS = 1_000_000  # the most one enumeration builds


@dataclass(frozen=True)
class BaseExponent:
    """A distinct exponent value with its multiplicity and largest degree."""

    value: float
    multiplicity: int
    degree: int  # largest harmonic degree among the collapsed entries


@dataclass
class IndexSet:
    base: list            # distinct BaseExponent, increasing
    cutoff: float
    tol: float
    values: np.ndarray    # strictly increasing distinct sums <= cutoff
    combos: list          # per value: list of count-vectors over base
    single: np.ndarray    # bool: achievable with total count 1
    multi: np.ndarray     # bool: achievable with total count >= 2
    warnings: list = field(default_factory=list)

    @property
    def resonant(self) -> np.ndarray:
        return self.single & self.multi

    def to_dict(self) -> dict:
        return dict(output_fields(self),
                    base=[asdict(b) for b in self.base],
                    resonant=self.resonant.tolist())


def _collapse(rho, degrees, tol):
    order = np.argsort(rho)
    base = []
    for idx in order:
        v, d = float(rho[idx]), int(degrees[idx])
        if base and abs(v - base[-1][0]) <= tol:
            base[-1][1] += 1
            base[-1][2] = max(base[-1][2], d)
        else:
            base.append([v, 1, d])
    return [BaseExponent(value=v, multiplicity=m, degree=d) for v, m, d in base]


def generate(rho, cutoff: float, tol: float = DEFAULT_TOL, degrees=None) -> IndexSet:
    """Enumerate all sums sum n_i rho_i in (0, cutoff], deduplicated at tol.

    `rho` may repeat values (multiplicities); equal values are collapsed for
    value generation and retained (with their largest degree) for the degree
    bookkeeping.  The count vectors are built one level per distinct
    exponent, in lexicographic order, each n_i capped by what the cutoff
    leaves; a total within tol of one found earlier joins it.  A level
    longer than MAX_COUNT_VECTORS is refused before it is built.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.size == 0:
        raise ValueError("exponent list must be nonempty")
    for bad, what in ((~np.isfinite(rho), "finite"), (rho <= 0, "positive")):
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(f"all exponents must be {what}, got rho[{i}] = "
                             f"{float(rho.flat[i])!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got tol = {tol!r}")
    if not math.isfinite(cutoff):
        raise ValueError(f"cutoff must be finite, got cutoff = {cutoff!r}")
    if cutoff < np.min(rho):
        raise ValueError(f"cutoff must be at least the smallest exponent, got "
                         f"smallest exponent = {float(np.min(rho))!r}, "
                         f"cutoff = {cutoff!r}")
    if degrees is None:
        degrees = np.zeros(rho.size, dtype=int)
    degrees = np.asarray(degrees, dtype=int)
    if degrees.shape != rho.shape:
        raise ValueError(f"degrees must align with the exponent list, got "
                         f"{degrees.size} degrees for {rho.size} exponents")

    base = _collapse(rho, degrees, tol)
    # (total, counts, terms: the count sum) over the exponents placed so far
    level = [(0.0, (), 0)]
    for i, b in enumerate(base, 1):
        caps = [math.floor((cutoff - total) / b.value + tol)
                for total, _, _ in level]
        size = sum(caps) + len(level)
        if size > MAX_COUNT_VECTORS:
            raise ValueError(
                f"the index set needs more than {MAX_COUNT_VECTORS} count "
                f"vectors ({size} over the first {i} of {len(base)} distinct "
                f"exponents); lower the cutoff, got cutoff = {cutoff!r}")
        level = [(total + c * b.value, counts + (c,), terms + c)
                 for (total, counts, terms), cap in zip(level, caps)
                 for c in range(cap + 1)]
    found = {}  # rounded value -> [value, [combos], single, multi]
    # level[0] is all zeros, not a sum; islice copies no list
    for total, counts, terms in itertools.islice(level, 1, None):
        key = round(total / tol)
        for k in (key - 1, key, key + 1):  # a value already within tol
            if k in found and abs(found[k][0] - total) <= tol:
                entry = found[k]
                break
        else:
            entry = found[key] = [total, [], False, False]
        entry[1].append(counts)
        entry[2] |= terms == 1
        entry[3] |= terms >= 2
    del level  # its tuples go; the combos keep their counts
    entries = sorted(found.values(), key=lambda ent: ent[0])
    values = np.array([ent[0] for ent in entries])
    combos = [ent[1] for ent in entries]
    single = np.array([ent[2] for ent in entries])
    multi = np.array([ent[3] for ent in entries])

    warnings = []
    gaps = np.diff(values)
    for i, g in enumerate(gaps):
        if tol < g <= NEAR_RESONANCE_FACTOR * tol:
            warnings.append(
                f"values {values[i]:.12g} and {values[i + 1]:.12g} differ by "
                f"{g:.3e}, within 100x the resonance tolerance {tol:g}")
    return IndexSet(base=base, cutoff=float(cutoff), tol=float(tol),
                    values=values, combos=combos, single=single, multi=multi,
                    warnings=warnings)


def split(iset: IndexSet):
    """(singles, multi-sums, resonances): the two sublists and their overlap."""
    s1 = iset.values[iset.single]
    s2 = iset.values[iset.multi]
    res = iset.values[iset.resonant]
    return s1, s2, res


def degree_caps(iset: IndexSet, target: float, n: int):
    """Degree bookkeeping for a multi-sum value.

    Over all stored combinations realizing `target` with total count >= 2,
    K is the maximum of sum_i n_i * degree_i; M is the last index (counting
    eigenfunctions of -Delta_theta from 0 in increasing order with
    multiplicity) whose harmonic degree is <= K.  Returns (K, M).
    """
    idx = np.where(np.abs(iset.values - target) <= iset.tol)[0]
    if idx.size == 0 or not iset.multi[idx[0]]:
        raise ValueError(f"target {target!r} is not a multi-sum value")
    combos = [c for c in iset.combos[idx[0]] if sum(c) >= 2]
    kmax = max(sum(c_i * b.degree for c_i, b in zip(c, iset.base))
               for c in combos)
    return int(kmax), spheres.index_of_last_degree(n, int(kmax))
