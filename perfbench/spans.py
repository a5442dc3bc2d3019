"""Spans and counters around the public functions of each fowlerlab module.

`Tracer.install()` replaces each traced function, in every fowlerlab module
that binds it, by a wrapper that opens a span; `uninstall()` puts the
originals back.  A span's self time is its duration minus the time its
child spans cover, so the self times of all spans opened inside a root
region add up to the root's duration.  Counters sit at the same
boundaries: calls per span, evaluation points, and the right-hand-side
evaluations and steps of every `solve_ivp` a module calls, charged to the
innermost open span.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

from fowlerlab import (acceptance, cylinder, expansion, floquet, fowler,
                       index_set, periodic, spheres)


class _Frame:
    __slots__ = ("name", "child")

    def __init__(self, name):
        self.name = name
        self.child = 0.0


class Tracer:
    """Per-pass self times (`self_s`) and counters (`counts`) by span name."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []

    # -- spans -----------------------------------------------------------

    def reset(self):
        self.self_s.clear()
        self.counts.clear()

    def _close(self, frame, start):
        elapsed = time.perf_counter() - start
        self._stack.pop()
        self.self_s[frame.name] += elapsed - frame.child
        self.counts[frame.name + ".calls"] += 1
        if self._stack:
            self._stack[-1].child += elapsed

    @contextlib.contextmanager
    def region(self, name):
        frame = _Frame(name)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, start)

    def span(self, name, fn, after=None):
        """`fn` wrapped in a span; `after(args, result)` may add counters."""
        def traced(*args, **kwargs):
            frame = _Frame(name)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, start)
            if after is not None:
                after(args, result)
            return result
        return traced

    # -- counters --------------------------------------------------------

    def _add(self, key, amount):
        self.counts[key] += amount

    def _count_points(self, name):
        # methods called as (self, t, ...): count the evaluation points
        return lambda args, result: self._add(name + ".points",
                                              getattr(args[1], "size", 1))

    def _counted_solve_ivp(self, solve_ivp):
        def counted(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            owner = self._stack[-1].name if self._stack else "untraced"
            self.counts[owner + ".rhs_evals"] += int(sol.nfev)
            self.counts[owner + ".steps"] += len(sol.t) - 1
            return sol
        return counted

    def _reuse_counter(self, name, work_key, fn):
        """Count calls of `fn` that finished without adding to `work_key`:
        answers served from a cache."""
        def counted(*args, **kwargs):
            before = self.counts[work_key]
            result = fn(*args, **kwargs)
            self.counts[name + ".reuse"] += self.counts[work_key] == before
            return result
        return counted

    # -- installation ----------------------------------------------------

    def _replace_function(self, original, replacement):
        """Rebind `original` to `replacement` in every fowlerlab module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("fowlerlab"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _replace_attr(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        functions = [
            ("fowler.periodic_orbit", fowler.periodic_orbit, None),
            ("fowler.period_quadrature", fowler.period_quadrature, None),
            ("floquet.monodromy", floquet.monodromy, None),
            ("floquet.kernel_basis", floquet.kernel_basis, None),
            ("floquet.exponent_sequence", floquet.exponent_sequence, None),
            ("index_set.generate", index_set.generate,
             lambda args, r: self._add("index_set.generate.values", len(r.values))),
            ("index_set.degree_caps", index_set.degree_caps, None),
            ("expansion.solve_resonant_mode", expansion.solve_resonant_mode, None),
            ("expansion.translate_expansion", expansion.translate_expansion, None),
            ("expansion.evaluate_terms", expansion.evaluate_terms, None),
            ("expansion.xi2_identity_defect", expansion.xi2_identity_defect, None),
            # _iterate returns the sweep count last; a construction its
            # IterationTrace last
            ("cylinder.sweep", cylinder._iterate,
             lambda args, r: self._add("cylinder.construct.sweeps", r[-1])),
            ("cylinder.construct", cylinder.contraction_construct,
             lambda args, r: self._add("cylinder.construct.escalations",
                                       r[-1].escalations)),
            ("cylinder.construct", cylinder.ckn_construct,
             lambda args, r: self._add("cylinder.construct.escalations",
                                       r[-1].escalations)),
            ("cylinder.residual", cylinder.residual_M, None),
            ("cylinder.residual", cylinder.residual_N, None),
            ("cylinder.decay_rate_fit", cylinder.decay_rate_fit, None),
        ]
        for fn in vars(spheres).values():
            if (callable(fn) and not isinstance(fn, type)
                    and getattr(fn, "__module__", None) == spheres.__name__
                    and not fn.__name__.startswith("_")):
                functions.append(("spheres", fn, None))
        for name, fn, after in functions:
            self._replace_function(fn, self.span(name, fn, after))
        # mode_datum is answered from the orbit's cache when it runs no
        # monodromy; the inverse context lookup when it builds no context
        mode_datum = floquet.mode_datum
        self._replace_function(mode_datum, self.span(
            "floquet.mode_datum",
            self._reuse_counter("floquet.mode_datum",
                                "floquet.monodromy.calls", mode_datum)))
        self._replace_function(cylinder._context_cache, self._reuse_counter(
            "cylinder.inverse_setup", "cylinder.inverse_setup.calls",
            cylinder._context_cache))
        for mod in (fowler, floquet, cylinder):
            self._replace_attr(mod, "solve_ivp",
                               self._counted_solve_ivp(mod.solve_ivp))
        for owner, attr, name, after in (
                (fowler.FowlerOrbit, "value", "fowler.orbit_value",
                 self._count_points("fowler.orbit_value")),
                (fowler.FowlerOrbit, "derivative", "fowler.orbit_value",
                 self._count_points("fowler.orbit_value")),
                (periodic.PeriodicFunction, "_eval", "periodic.eval",
                 self._count_points("periodic.eval")),
                (cylinder.ModeSolveContext, "__init__", "cylinder.inverse_setup",
                 None),
                (cylinder.ModeSolveContext, "_setup_fundamental_pair",
                 "cylinder.fundamental_pair", None),
                (cylinder.ModeSolveContext, "solve", "cylinder.inverse_solve",
                 None)):
            self._replace_attr(owner, attr,
                               self.span(name, getattr(owner, attr), after))
        for i, crit in enumerate(acceptance.ALL_CRITERIA):
            traced = self.span("acceptance." + crit.criterion_name, crit)
            traced.criterion_name = crit.criterion_name
            self._replace_item(acceptance.ALL_CRITERIA, i, traced)
            for key, value in list(acceptance.SUITES.items()):
                if value is crit:
                    self._replace_item(acceptance.SUITES, key, traced)

    def _replace_item(self, container, key, replacement):
        self._patches.append((container, key, container[key]))
        container[key] = replacement

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, (list, dict)):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# the per-layer metrics a traced run reports
# ---------------------------------------------------------------------------

CRITERIA = ("constant_floquet_closed_form", "nonconstant_kernel_factors",
            "exponent_lower_bound", "hamiltonian_and_period",
            "second_order_operator_identity", "translate_expansion_orders",
            "index_set_oracle", "contraction_construction",
            "first_order_expansion_of_constructed", "dimension4_example",
            "ckn_branch")
CLI_REGIONS = ("fowler_orbit", "fowler_constant", "fowler_ckn",
               "floquet_constant", "index_set_constant", "expand",
               "construct_conformal", "construct_ckn", "verify_all",
               "verify_named", "fowler_small_neck")
ROOT_REGION = "bench.pass"

# (name, unit, better).  A ".s" name is the self time per pass of the span
# it names; any other name is a counter per pass.  Every span has its self
# time listed, so the self times add up to the traced pass.
LAYER_METRICS = [
    ("fowler.periodic_orbit.s", "s", "lower"),
    ("fowler.periodic_orbit.calls", "count", "lower"),
    ("fowler.periodic_orbit.rhs_evals", "count", "lower"),
    ("fowler.period_quadrature.s", "s", "lower"),
    ("fowler.orbit_value.s", "s", "lower"),
    ("fowler.orbit_value.calls", "count", "lower"),
    ("fowler.orbit_value.points", "count", "lower"),
    ("floquet.monodromy.s", "s", "lower"),
    ("floquet.monodromy.calls", "count", "lower"),
    ("floquet.monodromy.rhs_evals", "count", "lower"),
    ("floquet.monodromy.steps", "count", "lower"),
    ("floquet.kernel_basis.s", "s", "lower"),
    ("floquet.kernel_basis.calls", "count", "lower"),
    ("floquet.kernel_basis.rhs_evals", "count", "lower"),
    ("floquet.kernel_basis.steps", "count", "lower"),
    ("floquet.mode_datum.s", "s", "lower"),
    ("floquet.mode_datum.calls", "count", "lower"),
    ("floquet.mode_datum.reuse", "count", "higher"),
    ("floquet.exponent_sequence.s", "s", "lower"),
    ("periodic.eval.s", "s", "lower"),
    ("periodic.eval.calls", "count", "lower"),
    ("periodic.eval.points", "count", "lower"),
    ("index_set.generate.s", "s", "lower"),
    ("index_set.generate.calls", "count", "lower"),
    ("index_set.generate.values", "count", "lower"),
    ("index_set.degree_caps.s", "s", "lower"),
    ("expansion.solve_resonant_mode.s", "s", "lower"),
    ("expansion.solve_resonant_mode.calls", "count", "lower"),
    ("expansion.translate_expansion.s", "s", "lower"),
    ("expansion.evaluate_terms.s", "s", "lower"),
    ("expansion.xi2_identity_defect.s", "s", "lower"),
    ("cylinder.inverse_setup.s", "s", "lower"),
    ("cylinder.inverse_setup.calls", "count", "lower"),
    ("cylinder.inverse_setup.reuse", "count", "higher"),
    ("cylinder.inverse_solve.s", "s", "lower"),
    ("cylinder.inverse_solve.calls", "count", "lower"),
    ("cylinder.sweep.s", "s", "lower"),
    ("cylinder.construct.s", "s", "lower"),
    ("cylinder.construct.sweeps", "count", "lower"),
    ("cylinder.construct.escalations", "count", "lower"),
    ("cylinder.residual.s", "s", "lower"),
    ("cylinder.decay_rate_fit.s", "s", "lower"),
    ("cylinder.fundamental_pair.s", "s", "lower"),
    ("cylinder.fundamental_pair.rhs_evals", "count", "lower"),
    ("spheres.s", "s", "lower"),
] + [(f"acceptance.{c}.s", "s", "lower") for c in CRITERIA] + [
    (f"cli.{c}.s", "s", "lower") for c in CLI_REGIONS] + [
    # the traced pass, the part of it outside every library span (the
    # benchmark's own loop), traced minus untraced pass time, the time the
    # spans themselves add (see span_cost), and the calibration kernel's
    # median time in the run; all as measured
    ("bench.pass_traced.s", "s", "lower"),
    ("bench.glue.s", "s", "lower"),
    ("bench.trace_overhead.s", "s", "lower"),
    ("bench.span_cost.s", "s", "lower"),
    ("bench.calibration.s", "s", "lower"),
]


RUN_WIDE = ("bench.trace_overhead.s", "bench.span_cost.s", "bench.calibration.s")


def _noop():
    pass


def span_cost(calls: int = 20000) -> float:
    """Seconds a span adds around one call: a no-op in a span against a
    bare one.  Spans with counters cost a little more, so this times the
    spans closed in a pass is a lower bound on the tracer's own time."""
    traced = Tracer().span("noop", _noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        _noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    return ((time.perf_counter() - t1) - (t1 - t0)) / calls


def spans_closed(tracer: Tracer) -> int:
    """Spans closed since the last reset: every close adds one `.calls`."""
    return sum(v for k, v in tracer.counts.items() if k.endswith(".calls"))


def layer_values(tracer: Tracer, pass_s: float) -> dict:
    """This pass's value of every per-layer metric but the run-wide ones."""
    values = {}
    for name, unit, _ in LAYER_METRICS:
        if name.startswith("bench."):
            continue
        if unit == "s":
            values[name] = tracer.self_s.get(name[:-2], 0.0)
        else:
            values[name] = tracer.counts.get(name, 0)
    values["bench.pass_traced.s"] = pass_s
    values["bench.glue.s"] = tracer.self_s.get(ROOT_REGION, 0.0)
    return values
