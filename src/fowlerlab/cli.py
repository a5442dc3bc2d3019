"""Command-line front end: every pipeline as a subcommand.

Subcommands: fowler, floquet, index-set, expand, verify, construct.
Parameters come from flags or an INI-style flat config file (`--config`),
with flags winning.  Reports are JSON (floats via repr: shortest exact
round-trip), in the bytes of `json.dumps` with indent 1 and sorted keys;
orbits and fields are CSV.  What a report holds is decided here too: the
result's compared dataclass fields (`output_fields`) and the command's own
extras.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import fields
from json.encoder import encode_basestring_ascii

import numpy as np

from . import acceptance, cylinder, expansion, floquet, index_set, spheres
from .fowler import (FowlerParams, constant_orbit, constant_solution,
                     max_value, periodic_orbit, period_quadrature)


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


class FloatTexts(list):
    """The repr of each float of a 1-D array, spelled once for every writer:
    `write_json` emits the texts as a list of numbers and `write_csv` as a
    column.  `nonfinite` is the array's first NaN or infinity (None if it
    has none), which `write_json` refuses as `json.dumps` would and
    `write_csv` writes as its repr."""

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        super().__init__(map(float.__repr__, values.tolist()))
        finite = np.isfinite(values)
        self.nonfinite = (None if finite.all()
                          else float(values[np.argmin(finite)]))


def _refuse(value):
    """Raise the ValueError of json's indenting encoder under allow_nan=False
    for the non-finite float `value`."""
    raise ValueError("Out of range float values are not JSON compliant: "
                     + repr(value))


def _float_list(items):
    """The items' reprs when every item is a float, each checked finite,
    else None."""
    try:
        texts = list(map(float.__repr__, items))
    except TypeError:  # an item that is not a float
        return None
    if not all(map(math.isfinite, items)):
        _refuse(next(x for x in items if not math.isfinite(x)))
    return texts


def _encode(obj, pad, out):
    """Append to `out` the chunks of `json.dumps(obj, indent=1,
    sort_keys=True, allow_nan=False, default=_json_default)` nested at the
    indentation `pad`, type by type in json's order.  Dictionary keys are
    str.  A list of floats is spelled by one join over float.__repr__, where
    json's indenting encoder, which is pure Python, takes a generator step
    per item."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            _refuse(obj)
        out.append(float.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + " "
        out.append("{")
        for i, (key, value) in enumerate(sorted(obj.items())):
            out.append(f"{',' if i else ''}\n{inner}"
                       f"{encode_basestring_ascii(key)}: ")
            _encode(value, inner, out)
        out.append(f"\n{pad}}}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + " "
        if isinstance(obj, FloatTexts):
            if obj.nonfinite is not None:
                _refuse(obj.nonfinite)
            texts = obj
        else:
            texts = _float_list(obj)
        out.append("[\n" + inner)
        if texts is not None:
            out.append((",\n" + inner).join(texts))
        else:
            for i, item in enumerate(obj):
                if i:
                    out.append(",\n" + inner)
                _encode(item, inner, out)
        out.append(f"\n{pad}]")
    else:
        _encode(_json_default(obj), pad, out)


def write_json(payload, path):
    """`payload` as `json.dumps(payload, indent=1, sort_keys=True,
    allow_nan=False, default=_json_default)` writes it, byte for byte (see
    `_encode`), and a newline.  A non-finite float raises json's ValueError
    before the file is opened: any file at `path` is left as it was and no
    directory is made; otherwise the file's directory is made if missing."""
    out = []
    _encode(payload, "", out)
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("".join(out) + "\n")


def write_csv(header, columns, path):
    """One row per index of the equal-length `columns` (arrays or
    `FloatTexts`), floats via repr.

    The bytes are those of `csv.writer`'s excel dialect: comma-separated,
    CRLF-terminated, and no field (a float repr or a header name) needs
    quoting.  Rows stream through the file's buffer, never held as one
    string.  Columns of unequal length raise ValueError.  The file's
    directory is made if it is missing."""
    columns = [c if isinstance(c, FloatTexts) else FloatTexts(c)
               for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"columns of unequal lengths "
                         f"{[len(c) for c in columns]}")
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(row) + "\r\n"
                      for row in zip(*columns))


def output_fields(result) -> dict:
    """A result's compared dataclass fields by name, arrays as lists: what
    its result file holds.  A `compare=False` field, a work count or a
    cache, stays out of every result file."""
    out = {f.name: getattr(result, f.name) for f in fields(result) if f.compare}
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in out.items()}


def orbit_payload(orbit) -> dict:
    """`orbit.json`: the orbit's fields, its params described."""
    return dict(output_fields(orbit), params=orbit.params.describe())


def mode_payload(datum) -> dict:
    """A `floquet.json` mode: the datum's fields, `lam` as `lambda`, and
    its kernel factors, if it has them, at 256 points of [0, T)."""
    d = output_fields(datum)
    d["lambda"] = d.pop("lam")
    if datum.q_plus is not None:
        ts = np.linspace(0.0, datum.period, 257)[:-1]
        d["q_plus"] = datum.q_plus(ts).tolist()
        d["q_minus"] = datum.q_minus(ts).tolist()
    return d


def index_set_payload(iset) -> dict:
    """The index set's fields, each base exponent's fields and the
    resonant flags."""
    return dict(output_fields(iset),
                base=[output_fields(b) for b in iset.base],
                resonant=iset.resonant.tolist())


def term_payload(term) -> dict:
    """An expansion term, its coefficient at 128 points of a period."""
    ts = np.linspace(0.0, term.coeff.period, 129)[:-1]
    return {"mu": term.mu, "t_power": term.t_power,
            "degree": term.mode.degree, "dimension": term.mode.dimension,
            "period": term.coeff.period, "coeff_t": ts.tolist(),
            "coeff": term.coeff(ts).tolist()}


def _load_config(path):
    parser = configparser.ConfigParser()
    with open(path) as fh:
        text = fh.read()
    if not text.lstrip().startswith("["):
        text = "[run]\n" + text
    parser.read_string(text)
    merged = {}
    for section in parser.sections():
        merged.update(dict(parser[section]))
    return merged


def _config_defaults(args, sub) -> dict:
    """The config file's values as defaults of the subcommand `sub`'s flags.

    Each `key = value` becomes the token `--key=value` and `sub` itself
    parses them, so a bad value is a usage error naming its flag.  A switch
    (`constant`) is given when its value reads true.  A repeatable flag
    (`suite`) reads a comma-separated list, which that flag given on the
    command line replaces.
    """
    tokens, dests = [], []
    for key, raw in _load_config(args.config).items():
        flag = "--" + key.replace("_", "-")
        action = sub._option_string_actions.get(flag)
        # help has no destination in `args`: a file cannot reach it
        if action is None or not hasattr(args, action.dest):
            raise SystemExit(f"unknown config key: {key}")
        dests.append(action.dest)
        if action.nargs != 0:
            tokens.append(f"{flag}={raw}")
        elif raw.strip().lower() in ("1", "true", "yes", "on"):
            tokens.append(flag)
    parsed = vars(sub.parse_args(tokens))
    defaults = {}
    for dest in dests:
        value = parsed[dest]
        if isinstance(value, list):
            if getattr(args, dest) is not None:
                continue  # given on the command line
            value = [x.strip() for item in value for x in item.split(",")
                     if x.strip()]
        defaults[dest] = value
    return defaults


def _params_from(args) -> FowlerParams:
    if args.problem == "ckn":
        if args.a is None or args.b is None:
            raise SystemExit("CKN problem requires --a and --b")
        return FowlerParams.ckn(args.n, args.a, args.b)
    return FowlerParams.conformal(args.n, args.k0)


def _orbit_from(args):
    params = _params_from(args)
    if args.constant:
        return constant_orbit(params)
    xistar = constant_solution(params)
    eps = args.epsilon if args.epsilon is not None else args.epsilon_frac * xistar
    return periodic_orbit(eps, params, tol=args.orbit_tol)


def _parent_parsers():
    """The I/O flags of every subcommand, and those plus the orbit flags of
    every subcommand but `verify`, as parents: each subcommand copies their
    actions instead of adding its own.  The copies share Action objects, so
    the parents are made anew for every parser."""
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--config", help="INI-style flat config file")
    io.add_argument("--outdir", default=".")
    common = argparse.ArgumentParser(add_help=False, parents=[io])
    common.add_argument("--problem", choices=("conformal", "ckn"),
                        default="conformal")
    common.add_argument("--n", type=int, default=5, help="ambient dimension")
    common.add_argument("--k0", type=float, default=1.0,
                        help="curvature value at the singularity (conformal)")
    common.add_argument("--a", type=float, default=None,
                        help="CKN parameter a")
    common.add_argument("--b", type=float, default=None,
                        help="CKN parameter b")
    common.add_argument("--epsilon", type=float, default=None,
                        help="orbit minimum (absolute)")
    common.add_argument("--epsilon-frac", type=float, default=0.5,
                        help="orbit minimum as a fraction of the constant "
                             "solution")
    common.add_argument("--constant", action="store_true",
                        help="use the constant solution")
    common.add_argument("--orbit-tol", type=float, default=1e-10)
    return io, common


def _cmd_fowler(args):
    orbit = _orbit_from(args)
    # the orbit maximum itself: T/2 falls between two of the even count of
    # samples, so their largest reads low
    max_xi = (orbit.epsilon if orbit.is_constant
              else max_value(orbit.epsilon, orbit.params))
    # the summary, its period quadrature included, is formed before any
    # file is written: a refused quadrature leaves no file behind
    summary = {"period": orbit.period, "energy": orbit.energy,
               "max_xi": max_xi, "epsilon": orbit.epsilon,
               "is_constant": orbit.is_constant,
               "energy_drift": orbit.energy_drift}
    if orbit.is_constant:
        params = orbit.params
        omega = math.sqrt(params.q * (params.e - 1.0))
        summary["mode0_rotation"] = omega
        line = (f"constant solution xi* = {orbit.epsilon!r}, mode-0 rotation "
                f"omega = {omega!r}")
    else:
        summary["period_quadrature"] = period_quadrature(orbit.epsilon,
                                                         orbit.params)
        line = (f"T = {orbit.period!r}  H = {orbit.energy!r}  "
                f"max xi = {max_xi!r}")
    # the samples are spelled once for orbit.csv and orbit.json
    samples = {name: FloatTexts(getattr(orbit, name))
               for name in ("t", "xi", "xi_prime")}
    write_csv(list(samples), list(samples.values()),
              os.path.join(args.outdir, "orbit.csv"))
    write_json(dict(orbit_payload(orbit), **samples),
               os.path.join(args.outdir, "orbit.json"))
    write_json(summary, os.path.join(args.outdir, "orbit_summary.json"))
    print(line)
    return 0


def _cmd_floquet(args):
    orbit = _orbit_from(args)
    data = floquet.exponent_sequence(orbit, args.modes, with_factors=True)
    rows = []
    print(f"{'i':>3} {'lambda':>10} {'type':>5} {'sigma/omega':>14} "
          f"{'bound margin':>13}")
    # the conformal exponent bound has no CKN counterpart
    margins = (floquet.lower_bound_check(data, orbit).margins
               if orbit.params.kind == "conformal" else [None] * len(data))
    for d, margin in zip(data, margins):
        margin_text = f"{'-':>13}" if margin is None else f"{margin:>13.6f}"
        rate = d.sigma if d.sigma is not None else d.omega
        print(f"{d.index:>3} {d.lam:>10.4f} {d.type:>5} {rate:>14.8f} "
              f"{margin_text}")
        rows.append(dict(mode_payload(d), bound_margin=margin))
    write_json({"params": orbit.params.describe(), "epsilon": orbit.epsilon,
                "period": orbit.period, "modes": rows},
               os.path.join(args.outdir, "floquet.json"))
    return 0


def _cmd_index_set(args):
    if args.max_degree == 0:
        raise ValueError("the index set sums exponents of degrees "
                         "1..max_degree, got max_degree = 0")
    orbit = _orbit_from(args)
    # modes 1..count are those of degrees 1..max_degree
    count = spheres.index_of_last_degree(orbit.params.n, args.max_degree)
    data = floquet.exponent_sequence(orbit, count)
    iset = index_set.generate([d.sigma for d in data], args.cutoff,
                              tol=args.resonance_tol,
                              degrees=[d.degree for d in data])
    singles, multis, resonances = index_set.split(iset)
    payload = dict(index_set_payload(iset), singles=singles.tolist(),
                   multi_sums=multis.tolist(), resonances=resonances.tolist(),
                   angular_normalization="pole (zonal value 1 at <axis,theta>=1)")
    write_json(payload, os.path.join(args.outdir, "index_set.json"))
    print("mu:", " ".join(repr(float(v)) for v in iset.values))
    if len(resonances):
        print("resonant:", " ".join(repr(float(v)) for v in resonances))
    # each datum's warning once, not once per mode of its eigenvalue
    for w in iset.warnings + list(dict.fromkeys(d.warning for d in data
                                                if d.warning)):
        print("warning:", w)
    return 0


def _cmd_expand(args):
    if not cylinder.valid_window(args.t0, args.window):
        raise ValueError(f"expand needs a finite t0 and a finite positive "
                         f"window (t0 = {args.t0!r}, window = {args.window!r})")
    orbit = _orbit_from(args)
    if orbit.params.kind != "conformal":
        raise SystemExit("expand applies to the conformal problem")
    a = np.zeros(orbit.params.n)
    a[0] = args.amplitude
    terms = expansion.translate_expansion(orbit, a, args.order)
    ts = np.linspace(args.t0, args.t0 + args.window, 257)
    svals = np.linspace(-1.0, 1.0, 33)
    # overflow of e^{-mu t} times a coefficient is refused before any file
    with np.errstate(over="ignore", invalid="ignore"):
        total = (orbit.value(ts)[:, None]
                 + expansion.evaluate_terms(terms, ts, svals))
    if not np.isfinite(total).all():
        raise ValueError(
            f"the expansion terms overflow on the window; raise t0 or lower "
            f"the amplitude, got t0 = {args.t0!r}, window = {args.window!r}, "
            f"order = {args.order!r}, amplitude = {args.amplitude!r}")
    payload = {"order": args.order, "amplitude": args.amplitude,
               "angular_normalization": "pole (zonal value 1 at <axis,theta>=1)",
               "terms": [term_payload(t) for t in terms]}
    write_json(payload, os.path.join(args.outdir, "expansion.json"))
    write_csv(["t"] + [f"s_{s:.4f}" for s in svals], [ts, *total.T],
              os.path.join(args.outdir, "expansion_eval.csv"))
    print(f"wrote {len(terms)} terms (order {args.order})")
    return 0


def _parse_components(args):
    degrees = [int(x) for x in str(args.kdegree).split(",")]
    kappas = [float(x) for x in str(args.kappa).split(",")]
    betas = [float(x) for x in str(args.beta).split(",")]
    if not len(degrees) == len(kappas) == len(betas):
        raise SystemExit("--kdegree/--kappa/--beta lists must have equal length")
    return tuple(zip(degrees, kappas, betas))


def _cmd_construct(args):
    orbit = _orbit_from(args)
    if orbit.params.kind == "conformal":
        components = _parse_components(args)
        profile = cylinder.ForcingProfile(k0=orbit.params.c,
                                          components=components)
        v, trace = cylinder.contraction_construct(
            orbit, profile, t0=args.t0, window=args.window,
            max_degree=args.max_degree, tol=args.tol, h=args.h)
        ref = cylinder.orbit_field(orbit, v.t, max_degree=args.max_degree)
        flat = profile.is_flat
        base_rate = None if flat else profile.min_rate
    else:
        if "," in f"{args.kdegree}{args.kappa}":
            raise SystemExit("the CKN perturbation takes one --kdegree and "
                             "one --kappa value")
        amplitude = float(args.kappa)
        v, ref, trace = cylinder.ckn_construct(
            orbit, args.nu, amplitude=amplitude, degree=int(args.kdegree),
            t0=args.t0, window=args.window, max_degree=args.max_degree,
            tol=args.tol, h=args.h)
        flat = amplitude == 0.0
        base_rate = None if flat else args.nu
    # a flat profile's (or a zero CKN perturbation's) solution is the orbit
    # itself: there is no decay to fit and no rate to compare with
    fit = None if flat else cylinder.perturbation_fit(v, ref, orbit)[1]
    write_csv(["t"] + [f"degree_{m.degree}" for m in v.modes],
              [v.t, *v.coeffs], os.path.join(args.outdir, "field.csv"))
    report = {"trace": output_fields(trace),
              "fit": output_fields(fit) if fit else None,
              "target_rate": base_rate,
              "angular_normalization": "pole (zonal value 1 at <axis,theta>=1)",
              "params": orbit.params.describe(), "epsilon": orbit.epsilon}
    write_json(report, os.path.join(args.outdir, "construct.json"))
    print(f"converged = {trace.converged} after {trace.iterations} iterations"
          f" (t0 = {trace.t0})")
    if flat:
        print("unperturbed: the solution is the orbit itself, no decay fit")
    else:
        print(f"fitted decay slope {float(fit.slope)!r} (target {base_rate!r}, "
              f"log-corrected: {fit.log_corrected})")
    return 0 if trace.converged else 1


def _cmd_verify(args):
    names = args.suite or ["all"]
    reports = acceptance.run_suite(names)
    # timings stay on stdout: the JSON report is byte-identical across runs
    stable = [{k: v for k, v in r.items() if k != "runtime_s"}
              for r in reports]
    write_json(stable, os.path.join(args.outdir, "verify.json"))
    failed = 0
    for r in reports:
        status = "PASS" if r["passed"] else "FAIL"
        failed += not r["passed"]
        print(f"{status}  {r['name']}  ({r['runtime_s']:.2f}s)")
    if failed:
        print(f"{failed} criterion(s) failed; details in verify.json")
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fowlerlab",
        description="Fowler orbits, Floquet spectra, index sets, expansion "
                    "terms and cylinder constructions")
    subs = parser.add_subparsers(dest="command", required=True)
    io, common = _parent_parsers()

    p = subs.add_parser("fowler", parents=[common],
                        help="compute one periodic orbit")
    p.set_defaults(func=_cmd_fowler)

    p = subs.add_parser("floquet", parents=[common],
                        help="mode spectrum at an orbit")
    p.add_argument("--modes", type=int, default=12)
    p.set_defaults(func=_cmd_floquet)

    p = subs.add_parser("index-set", parents=[common],
                        help="exponent sums and resonances")
    p.add_argument("--cutoff", type=float, default=4.0)
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--resonance-tol", type=float, default=index_set.DEFAULT_TOL)
    p.set_defaults(func=_cmd_index_set)

    p = subs.add_parser("expand", parents=[common],
                        help="translate-family expansion terms")
    p.add_argument("--order", type=int, choices=(1, 2), default=2)
    p.add_argument("--amplitude", type=float, default=0.5)
    p.add_argument("--t0", type=float, default=cylinder.DEFAULT_T0)
    p.add_argument("--window", type=float, default=cylinder.DEFAULT_WINDOW)
    p.set_defaults(func=_cmd_expand)

    p = subs.add_parser("construct", parents=[common],
                        help="contraction construction run")
    p.add_argument("--beta", default="1.5",
                   help="forcing decay rate(s), comma separated (conformal)")
    p.add_argument("--nu", type=float, default=2.4,
                   help="target decay rate (CKN)")
    p.add_argument("--kappa", default="0.05",
                   help="forcing / perturbation amplitude(s), comma separated")
    p.add_argument("--kdegree", default="1",
                   help="harmonic degree(s) of the forcing, comma separated")
    p.add_argument("--max-degree", "--modes", dest="max_degree", type=int,
                   default=2, help="largest retained zonal degree")
    p.add_argument("--t0", type=float, default=cylinder.DEFAULT_T0)
    p.add_argument("--window", type=float, default=cylinder.DEFAULT_WINDOW)
    p.add_argument("--h", type=float, default=cylinder.DEFAULT_H,
                   help="t-grid spacing")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_construct)

    # the criteria fix their own orbits
    p = subs.add_parser("verify", parents=[io],
                        help="run acceptance criteria")
    p.add_argument("--suite", action="append",
                   help="criterion name (repeatable; comma-separated in a "
                        "config file); default all")
    p.set_defaults(func=_cmd_verify)

    parser._subparser_map = {name: sp for name, sp in
                             subs.choices.items()}
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # config values become defaults, so every flag on the command line
        # wins, one given at its default value too
        sub = parser._subparser_map[args.command]
        sub.set_defaults(**_config_defaults(args, sub))
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, RuntimeError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
