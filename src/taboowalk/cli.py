"""Command-line interface: limits, tails, curves, simulation, verification.

Exit codes: 0 success (or verified), 1 verification-suite failure,
2 invalid input, 3 numerical non-convergence.  ``main`` parses --x/--y/--z
once and writes every result: the subcommand returns its record body and
manifest extras, and main emits ``{"query": ..., **record, "manifest": ...}``
on stdout or, for a file output, writes the sidecar ``<file>.manifest.json``.
``verify`` takes no points and prints a text report.
All numbers are emitted with repr/%.17g formatting, locale-independent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import signal
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .curves import TimeGrid, hitting_cdf, minus_from_plus, taboo_cdf, tail_extract
from .errors import (
    ExtrapolationUnstable,
    InvalidQuery,
    ModelError,
    NotConverged,
    QueryOutsideBox,
    TabooWalkError,
)
from .kernels import QuadratureConfig, default_config, rho, transition_probability, trig_identity_check
from .limits import TabooQuery, Variant, hitting_limit, minus_atom, taboo_limit, taboo_tail
from .model import is_simple_1d, load_model
from .simulate import (
    SimConfig,
    absorption_limit_bracket,
    estimate_taboo_curve,
    fit_tail_order,
    sampler_workers,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL = 3

_INPUT_ERRORS = (ModelError, InvalidQuery, QueryOutsideBox, OSError)
_NUMERICAL_ERRORS = (NotConverged, ExtrapolationUnstable)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _csv_rows(cols, consts) -> list[str]:
    """CSV rows of the array columns cols, each followed by the constant
    columns consts; every number formatted as by _fmt."""
    row = ",".join(["%.17g"] * len(cols) + [_fmt(c) for c in consts])
    return [row % vals for vals in zip(*(c.tolist() for c in cols))]


def _parse_vec(text: str, d: int) -> tuple[int, ...]:
    try:
        vec = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidQuery(f"cannot parse lattice point {text!r}: {exc}") from exc
    if len(vec) != d:
        raise InvalidQuery(f"lattice point {text!r} is not a {d}-vector")
    return vec


def _checked(convert, ok, what: str):
    """argparse ``type=`` that converts a flag value and rejects it unless ok."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    return parse


_COUNT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_POSITIVE = _checked(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")
_T_LIST = _checked(
    lambda text: [float(t) for t in text.split(",")],
    lambda ts: all(0.0 <= t < math.inf for t in ts) and max(ts) > 0.0,
    "a comma-separated list of finite times >= 0, one of them > 0",
)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2, sort_keys=False))


def _manifest(args, cfg, query: dict, extras: dict, outputs: list[str], warnings: list[str]) -> dict:
    """The run record; a command that takes --rel-tol, the quadrature
    setting, records it in a quadrature block."""
    return {
        "tool": "taboowalk",
        "version": __version__,
        "command": args.command,
        "argv": args._argv,
        "model_file": args.model,
        "model_sha256": hashlib.sha256(Path(args.model).read_bytes()).hexdigest(),
        "query": query,
        **({"quadrature": {"rel_tol": cfg.rel_tol}} if "rel_tol" in vars(args) else {}),
        "outputs": outputs,
        "warnings": warnings,
        **extras,
    }


def _sim_manifest(sim: SimConfig) -> dict:
    """How a command ran its Monte Carlo, worker threads included."""
    return {"horizon": sim.horizon, "n_paths": sim.n_paths, "max_jumps": sim.max_jumps,
            "workers": sampler_workers(sim.n_paths)}


def _quad_config(args, d: int) -> QuadratureConfig:
    """default_config(d), or the --rel-tol of the command."""
    return QuadratureConfig(args.rel_tol) if vars(args).get("rel_tol") else default_config(d)


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed points and returns (record body,
# manifest extras, exit code, output files, warnings) for main to write
# ---------------------------------------------------------------------------

def _cmd_limit(args, model, cfg, x, y, z):
    if args.verify and z is None:
        raise InvalidQuery("--verify needs --z")
    record: dict = {"method": "closed-form"}
    q = TabooQuery(x, y, z) if z is not None else None
    record["limit"] = taboo_limit(model, q, cfg) if q else hitting_limit(model, x, y, cfg)
    variant = Variant.MINUS if args.minus else Variant.PLUS
    record["variant"] = variant.value
    extras: dict = {"seed": args.seed}
    if args.minus:  # same limit as the plus variant, with an atom at t = 0
        record["atom_at_zero"] = minus_atom(model, x, y)
    if args.verify:
        radius = args.radius or {1: 100, 2: 60}.get(model.d, 15)
        lo, hi = absorption_limit_bracket(model, q, radius)
        sim = SimConfig(horizon=200.0 / model.a, n_paths=args.paths, seed=args.seed)
        est = estimate_taboo_curve(model, q, [sim.horizon], sim, variant)[0]
        extras["sim"] = _sim_manifest(sim)
        record["verify"] = {
            "oracle": {"lower": lo, "upper": hi, "midpoint": 0.5 * (lo + hi), "radius": radius},
            "monte_carlo": {
                "t": sim.horizon,
                "probability": est.probability,
                "std_error": est.std_error,
                "n_paths": est.n_paths,
                "seed": est.seed,
                "truncated_paths": est.truncated_paths,
                "undecided_paths": est.undecided_paths,
            },
        }
    return record, extras, EXIT_OK, [], []


def _cmd_tail(args, model, cfg, x, y, z):
    q = TabooQuery(x, y, z)
    tail = taboo_tail(model, q, cfg)  # the minus variant has the same tail
    record = {"order": tail.order.value, "constant": tail.constant}
    if tail.exponent is not None:
        record["exponent"] = tail.exponent
    if tail.rate_bound is not None:
        record["rate_bound"] = tail.rate_bound
    record["variant"] = (Variant.MINUS if args.minus else Variant.PLUS).value
    code = EXIT_OK
    if args.extract:
        try:
            record["extracted_constant"] = tail_extract(model, q, cfg).constant
        except ExtrapolationUnstable as exc:
            record["extracted_constant"] = None
            record["extraction_error"] = str(exc)
            record["partial_estimates"] = exc.estimates
            code = EXIT_NUMERICAL
    return record, {"seed": None}, code, [], []


def _cmd_curve(args, model, cfg, x, y, z):
    grid = TimeGrid(step=args.step, n_steps=max(2, int(round(args.horizon / args.step))))
    if z is None:
        names, targets, curves = ["xy"], [y], [hitting_cdf(model, x, y, grid, cfg, strict=False)]
    else:
        names, targets = ["xyz", "xzy"], [y, z]
        curves = list(taboo_cdf(model, TabooQuery(x, y, z), grid, cfg, strict=False))
    if args.minus:
        curves = [minus_from_plus(c, model, x, t, strict=False) for c, t in zip(curves, targets)]
    limits = [c.limit for c in curves]
    lines = [",".join(["t", *(f"H_{n}" for n in names), *(f"limit_{n}" for n in names)])]
    lines.extend(_csv_rows((grid.times, *(c.values for c in curves)), limits))
    lines.append("# " + " ".join(f"limit_{n}={_fmt(v)}" for n, v in zip(names, limits)))
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    warnings = list(dict.fromkeys(w for c in curves for w in c.warnings))
    extras = {"grid": {"step": grid.step, "n_steps": grid.n_steps}, "seed": None, "minus": args.minus}
    return {}, extras, EXIT_OK, [args.out], warnings


def _cmd_simulate(args, model, cfg, x, y, z):
    sim = SimConfig(horizon=max(args.t_list), n_paths=args.paths, seed=args.seed)
    ests = estimate_taboo_curve(model, TabooQuery(x, y, z), args.t_list, sim)
    record = {
        "seed": args.seed,
        "n_paths": args.paths,
        "estimates": [
            {
                "t": t,
                "probability": e.probability,
                "std_error": e.std_error,
                "truncated_paths": e.truncated_paths,
                "undecided_paths": e.undecided_paths,
            }
            for t, e in zip(args.t_list, ests)
        ],
    }
    return record, {"seed": args.seed, "sim": _sim_manifest(sim)}, EXIT_OK, [], []


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _suite_rows_identities(model, cfg):
    rows = []
    for x in range(1, 11):  # rho of the simple walk on Z, whatever the model
        got = trig_identity_check(x)
        want = 2.0 * np.pi * x
        rows.append((f"trig x={x}", got, want, 1e-8 * want, abs(got - want) <= 1e-8 * want))
    if is_simple_1d(model):  # rho(x) = |x| exactly (Lemma 5)
        for x in (1, 3, 7, -5):
            got = rho(model, (x,), cfg)
            rows.append((f"rho({x})", got, abs(x), 0.0, got == abs(x)))
    rho0 = rho(model, (0,) * model.d, cfg)
    rows.append(("rho(0)", rho0, 1.0, 0.0, rho0 == 1.0))
    p0 = transition_probability(model, 0.0, (0,) * model.d, (0,) * model.d, cfg).value
    rows.append(("p(0;x,x)", p0, 1.0, 1e-12, abs(p0 - 1.0) <= 1e-12))
    return rows


def _default_queries(model):
    if model.d == 1:
        return [TabooQuery((2,), (5,), (0,)), TabooQuery((0,), (3,), (0,)), TabooQuery((3,), (3,), (0,))]
    e1 = tuple(1 if i == 0 else 0 for i in range(model.d))
    e2 = tuple(1 if i == 1 else 0 for i in range(model.d))
    zero = (0,) * model.d
    return [TabooQuery(e1, e2, zero)]


def _suite_rows_limits(model, cfg):
    rows = []
    radius = {1: 100, 2: 60}.get(model.d, 12)
    if is_simple_1d(model):
        table = [
            (TabooQuery((2,), (5,), (0,)), 0.4),
            (TabooQuery((0,), (3,), (0,)), 1.0 / 6.0),
            (TabooQuery((3,), (3,), (0,)), 5.0 / 6.0),
            (TabooQuery((-1,), (2,), (0,)), 0.0),
            (TabooQuery((7,), (5,), (0,)), 1.0),
        ]
        for q, want in table:
            got = taboo_limit(model, q, cfg)
            rows.append((f"limit {q.x+q.y+q.z}", got, want, 0.0, got == want))
            lo, hi = absorption_limit_bracket(model, q, radius)
            rows.append(
                (f"oracle {q.x+q.y+q.z}", 0.5 * (lo + hi), want, 1e-3, lo - 1e-12 <= want <= hi + 1e-12)
            )
    else:
        for q in _default_queries(model):
            got = taboo_limit(model, q, cfg)
            lo, hi = absorption_limit_bracket(model, q, radius)
            tag = " (heuristic escape)" if model.d == 2 else ""  # d = 2: allowance, not a proven bound
            rows.append((f"limit-in-bracket {q.x+q.y+q.z}{tag}", got, 0.5 * (lo + hi), hi - lo, lo <= got <= hi))
    return rows


def _suite_rows_tails(model, cfg):
    rows = []
    if is_simple_1d(model):
        q = TabooQuery((2,), (5,), (0,))
        horizon = 40.0 / model.a
        ts = [10.0 / model.a, 15.0 / model.a, 20.0 / model.a, 30.0 / model.a, horizon]
        sim = SimConfig(horizon=horizon, n_paths=200_000, seed=20240817)
        ests = estimate_taboo_curve(model, q, ts, sim)
        limit = taboo_limit(model, q, cfg)
        samples = [(t, max(limit - e.probability, 1e-12)) for t, e in zip(ts, ests)]
        fit = fit_tail_order(samples)
        want = taboo_tail(model, q, cfg)
        rows.append(
            (f"fit order {q.x+q.y+q.z}", fit.order.value, want.order.value, "", fit.order is want.order)
        )
    elif model.d <= 2:
        q = _default_queries(model)[0]
        closed = taboo_tail(model, q, cfg).constant
        est = tail_extract(model, q, cfg).constant
        tol = 0.10 * abs(closed)
        rows.append((f"extract {q.x+q.y+q.z}", est, closed, tol, abs(est - closed) <= tol))
    else:
        q = _default_queries(model)[0]
        c = taboo_tail(model, q, cfg).constant
        rows.append(("C_d positive", c, "> 0", "", c > 0))
    return rows


def _suite_rows_curves(model, cfg):
    rows = []
    q = _default_queries(model)[0]
    grid = TimeGrid(step=0.05 / model.a, n_steps=800)
    cur_a, cur_b = taboo_cdf(model, q, grid, cfg)
    rows.append(("H(0) = 0", cur_a.values[0], 0.0, 0.0, cur_a.values[0] == 0.0))
    rows.append(("residual", cur_a.residual, 0.0, 1e-8, cur_a.residual <= 1e-8))
    for tag, cur in (("", cur_a), (" H_xzy", cur_b)):
        min_inc = float(np.min(np.diff(cur.values)))
        rows.append((f"monotone{tag}", min_inc, ">= -1e-9", 1e-9, min_inc >= -1e-9))
        top = float(np.max(cur.values))
        rows.append((f"bounded by limit{tag}", top, cur.limit, 1e-6, top <= cur.limit + 1e-6))
    return rows


_SUITES = {
    "identities": _suite_rows_identities,
    "limits": _suite_rows_limits,
    "tails": _suite_rows_tails,
    "curves": _suite_rows_curves,
}


def _cmd_verify(args, model, cfg) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    any_fail = False
    for name in names:
        rows = _SUITES[name](model, cfg)
        print(f"== suite: {name} ==")
        for label, got, want, tol, ok in rows:
            any_fail |= not ok
            got_s = _fmt(got) if isinstance(got, float) else str(got)
            want_s = _fmt(want) if isinstance(want, float) else str(want)
            tol_s = _fmt(tol) if isinstance(tol, float) else str(tol)
            print(f"  {'PASS' if ok else 'FAIL'}  {label:<28} measured={got_s} expected={want_s} tol={tol_s}")
    print("verify:", "FAIL" if any_fail else "PASS")
    return EXIT_VERIFY_FAILED if any_fail else EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad, unknown or missing flag: main() reports it as input
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="taboowalk",
        description="Hitting-time and taboo-hitting-time probabilities for lattice random walks.",
    )
    parser.add_argument("--version", action="version", version=f"taboowalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_z: bool, rel_tol: bool = False):
        p.add_argument("model", help="model JSON file")
        p.add_argument("--x", required=True, help="start point, comma-separated ints")
        p.add_argument("--y", required=True, help="target point")
        p.add_argument("--z", required=need_z, default=None, help="taboo point")
        if rel_tol:  # only where it changes a number the command computes
            p.add_argument("--rel-tol", type=_POSITIVE, help="quadrature relative tolerance")

    p = sub.add_parser("limit", help="limit probability H(infinity)")
    add_common(p, False, rel_tol=True)
    p.add_argument("--minus", action="store_true", help="clock from the first jump")
    p.add_argument("--verify", action="store_true", help="cross-check with oracle and Monte Carlo")
    p.add_argument("--paths", type=_COUNT, default=100_000)
    p.add_argument("--seed", type=int, default=20240501)
    p.add_argument("--radius", type=_COUNT, default=None, help="absorption-oracle box radius")
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("tail", help="tail order and constant")
    add_common(p, True, rel_tol=True)
    p.add_argument("--minus", action="store_true")
    p.add_argument("--extract", action="store_true", help="also extract the constant numerically")
    p.set_defaults(func=_cmd_tail)

    p = sub.add_parser("curve", help="c.d.f. curve to CSV")
    add_common(p, False, rel_tol=True)
    p.add_argument("--minus", action="store_true")
    p.add_argument("--step", type=_POSITIVE, required=True)
    p.add_argument("--horizon", type=_POSITIVE, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("simulate", help="Monte Carlo estimates")
    add_common(p, True)
    p.add_argument("--t-list", type=_T_LIST, required=True, help="comma-separated times")
    p.add_argument("--paths", type=_COUNT, default=100_000)
    p.add_argument("--seed", type=int, default=20240501)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--suite", choices=[*_SUITES, "all"], default="all")
    p.add_argument("--rel-tol", type=_POSITIVE, default=None)
    p.set_defaults(func=_cmd_verify)
    return parser


def _report(exc: Exception, code: int) -> int:
    _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
    return code


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        return _report(exc, EXIT_INPUT_ERROR)
    args._argv = argv
    try:
        model = load_model(args.model)
        cfg = _quad_config(args, model.d)
        if args.command == "verify":
            return args.func(args, model, cfg)
        x, y = _parse_vec(args.x, model.d), _parse_vec(args.y, model.d)
        z = _parse_vec(args.z, model.d) if args.z is not None else None
        record, extras, code, outputs, warnings = args.func(args, model, cfg, x, y, z)
        query = {"x": list(x), "y": list(y), "z": list(z) if z is not None else None}
        manifest = _manifest(args, cfg, query, extras, outputs, warnings)
        if outputs:
            Path(outputs[0] + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        else:
            _emit({"query": query, **record, "manifest": manifest})
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        return code
    except _NUMERICAL_ERRORS as exc:
        return _report(exc, EXIT_NUMERICAL)
    except _INPUT_ERRORS as exc:
        return _report(exc, EXIT_INPUT_ERROR)
    except TabooWalkError as exc:
        return _report(exc, EXIT_NUMERICAL)


def entrypoint() -> None:
    # a closed stdout ends the command silently by SIGPIPE, as for other Unix filters
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
