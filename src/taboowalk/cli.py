"""Command-line interface: limits, tails, curves, simulation, verification.

Exit codes: 0 success (or verified), 1 verification-suite failure,
2 invalid input, 3 numerical non-convergence.  Every file output gets a
sidecar ``<file>.manifest.json``; stdout records embed the manifest.
All numbers are emitted with repr/%.17g formatting, locale-independent.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
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
from .limits import (
    TabooQuery,
    Variant,
    hitting_limit,
    taboo_limit,
    taboo_limit_minus,
    taboo_tail,
    taboo_tail_minus,
)
from .model import is_simple_1d, load_model
from .simulate import (
    SimConfig,
    absorption_limit_bracket,
    estimate_taboo_curve,
    fit_tail_order,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL = 3

_INPUT_ERRORS = (ModelError, InvalidQuery, QueryOutsideBox, OSError)
_NUMERICAL_ERRORS = (NotConverged, ExtrapolationUnstable)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


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
_POINTS = _checked(int, lambda v: v >= 16 and v % 2 == 0, "an even integer >= 16")
_POSITIVE = _checked(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")
_T_LIST = _checked(
    lambda text: [float(t) for t in text.split(",")],
    lambda ts: all(0.0 <= t < math.inf for t in ts) and max(ts) > 0.0,
    "a comma-separated list of finite times >= 0, one of them > 0",
)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2, sort_keys=False))


def _model_sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _manifest(args, command: str, query: dict, extras: dict, outputs: list[str], warnings: list[str]) -> dict:
    cfg = _quad_config(args)
    return {
        "tool": "taboowalk",
        "version": __version__,
        "command": command,
        "argv": args._argv,
        "model_file": args.model,
        "model_sha256": _model_sha256(args.model),
        "query": query,
        "quadrature": dataclasses.asdict(cfg) if cfg is not None else None,
        "outputs": outputs,
        "warnings": warnings,
        **extras,
    }


def _write_manifest(path: str, manifest: dict) -> None:
    side = path + ".manifest.json"
    Path(side).write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _quad_config(args) -> QuadratureConfig | None:
    if getattr(args, "points", None) is None and getattr(args, "rel_tol", None) is None:
        return None
    base = default_config(getattr(args, "_model_d", 1))
    return QuadratureConfig(
        points_per_axis=base.points_per_axis if args.points is None else args.points,
        refinement_limit=base.refinement_limit,
        rel_tol=base.rel_tol if args.rel_tol is None else args.rel_tol,
    )


def _query_dict(x, y, z=None) -> dict:
    out = {"x": list(x), "y": list(y)}
    out["z"] = list(z) if z is not None else None
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_limit(args) -> int:
    model = load_model(args.model)
    args._model_d = model.d
    cfg = _quad_config(args)
    x = _parse_vec(args.x, model.d)
    y = _parse_vec(args.y, model.d)
    z = _parse_vec(args.z, model.d) if args.z is not None else None
    record: dict = {"query": _query_dict(x, y, z), "method": "closed-form"}
    if z is None:
        record["limit"] = hitting_limit(model, x, y, cfg)
        record["variant"] = Variant.PLUS.value
    else:
        q = TabooQuery(x, y, z)
        if args.minus:
            lv = taboo_limit_minus(model, q, cfg)
            record["limit"] = lv.value
            record["variant"] = lv.variant.value
            record["atom_at_zero"] = lv.atom_at_zero
        else:
            record["limit"] = taboo_limit(model, q, cfg)
            record["variant"] = Variant.PLUS.value
    if args.verify and z is not None:
        q = TabooQuery(x, y, z)
        radius = args.radius or {1: 100, 2: 60}.get(model.d, 15)
        lo, hi = absorption_limit_bracket(model, q, radius)
        horizon = 200.0 / model.a
        est = estimate_taboo_curve(
            model, q, [horizon],
            SimConfig(horizon=horizon, n_paths=args.paths, seed=args.seed),
        )[0]
        record["verify"] = {
            "oracle": {"lower": lo, "upper": hi, "midpoint": 0.5 * (lo + hi), "radius": radius},
            "monte_carlo": {
                "t": horizon,
                "probability": est.probability,
                "std_error": est.std_error,
                "n_paths": est.n_paths,
                "seed": est.seed,
                "undecided_paths": est.undecided_paths,
            },
        }
    record["manifest"] = _manifest(args, "limit", record["query"], {"seed": args.seed}, [], [])
    _emit(record)
    return EXIT_OK


def _tail_record(model, q, minus, cfg) -> dict:
    tail = taboo_tail_minus(model, q, cfg) if minus else taboo_tail(model, q, cfg)
    rec = {"order": tail.order.value, "constant": tail.constant}
    if tail.exponent is not None:
        rec["exponent"] = tail.exponent
    if tail.rate_bound is not None:
        rec["rate_bound"] = tail.rate_bound
    rec["variant"] = Variant.MINUS.value if minus else Variant.PLUS.value
    return rec


def _cmd_tail(args) -> int:
    model = load_model(args.model)
    args._model_d = model.d
    cfg = _quad_config(args)
    q = TabooQuery(*(_parse_vec(v, model.d) for v in (args.x, args.y, args.z)))
    record = {"query": _query_dict(q.x, q.y, q.z)}
    record.update(_tail_record(model, q, args.minus, cfg))
    code = EXIT_OK
    if args.extract:
        try:
            est = tail_extract(model, q, cfg)
            record["extracted_constant"] = est.constant
        except ExtrapolationUnstable as exc:
            record["extracted_constant"] = None
            record["extraction_error"] = str(exc)
            record["partial_estimates"] = exc.estimates
            code = EXIT_NUMERICAL
    record["manifest"] = _manifest(args, "tail", record["query"], {"seed": None}, [], [])
    _emit(record)
    return code


def _cmd_curve(args) -> int:
    model = load_model(args.model)
    args._model_d = model.d
    cfg = _quad_config(args)
    x = _parse_vec(args.x, model.d)
    y = _parse_vec(args.y, model.d)
    z = _parse_vec(args.z, model.d) if args.z is not None else None
    n_steps = max(2, int(round(args.horizon / args.step)))
    grid = TimeGrid(step=args.step, n_steps=n_steps)
    warnings: list[str] = []
    lines = []
    if z is None:
        curve = hitting_cdf(model, x, y, grid, cfg, strict=False)
        if args.minus:
            curve = minus_from_plus(curve, model, strict=False)
        warnings.extend(curve.warnings)
        lines.append("t,H_xy,limit_xy")
        for t, v in zip(curve.times, curve.values):
            lines.append(f"{_fmt(t)},{_fmt(v)},{_fmt(curve.limit)}")
        lines.append(f"# limit_xy={_fmt(curve.limit)}")
    else:
        q = TabooQuery(x, y, z)
        cur_a, cur_b = taboo_cdf(model, q, grid, cfg, strict=False)
        if args.minus:
            cur_a = minus_from_plus(cur_a, model, strict=False)
            cur_b = minus_from_plus(cur_b, model, strict=False)
        warnings.extend(cur_a.warnings)
        lines.append("t,H_xyz,H_xzy,limit_xyz,limit_xzy")
        for t, va, vb in zip(cur_a.times, cur_a.values, cur_b.values):
            lines.append(
                f"{_fmt(t)},{_fmt(va)},{_fmt(vb)},{_fmt(cur_a.limit)},{_fmt(cur_b.limit)}"
            )
        lines.append(f"# limit_xyz={_fmt(cur_a.limit)} limit_xzy={_fmt(cur_b.limit)}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest = _manifest(
        args,
        "curve",
        _query_dict(x, y, z),
        {"grid": {"step": grid.step, "n_steps": grid.n_steps}, "seed": None, "minus": args.minus},
        [args.out],
        list(dict.fromkeys(warnings)),
    )
    _write_manifest(args.out, manifest)
    for w in dict.fromkeys(warnings):
        print(f"warning: {w}", file=sys.stderr)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    model = load_model(args.model)
    args._model_d = model.d
    q = TabooQuery(*(_parse_vec(v, model.d) for v in (args.x, args.y, args.z)))
    t_list = args.t_list
    sim = SimConfig(horizon=max(t_list), n_paths=args.paths, seed=args.seed)
    ests = estimate_taboo_curve(model, q, t_list, sim)
    record = {
        "query": _query_dict(q.x, q.y, q.z),
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
            for t, e in zip(t_list, ests)
        ],
    }
    record["manifest"] = _manifest(
        args, "simulate", record["query"],
        {"seed": args.seed, "sim": {"horizon": sim.horizon, "n_paths": sim.n_paths, "max_jumps": sim.max_jumps}},
        [], [],
    )
    _emit(record)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _suite_rows_identities(model, cfg):
    rows = []
    for x in range(1, 11):
        got = trig_identity_check(x, cfg)
        want = 2.0 * np.pi * x
        rows.append((f"trig x={x}", got, want, 1e-8 * want, abs(got - want) <= 1e-8 * want))
    if is_simple_1d(model):
        for x in (1, 3, 7, -5):
            got = rho(model, (x,), cfg)
            rows.append((f"rho({x})", got, abs(x), 1e-6, abs(got - abs(x)) <= 1e-6))
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
            rows.append(
                (f"limit-in-bracket {q.x+q.y+q.z}", got, 0.5 * (lo + hi), hi - lo, lo <= got <= hi)
            )
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
    min_inc = float(np.min(np.diff(cur_a.values)))
    rows.append(("monotone", min_inc, ">= -1e-9", 1e-9, min_inc >= -1e-9))
    bound = cur_a.limit + 1e-6
    rows.append(("bounded by limit", float(np.max(cur_a.values)), cur_a.limit, 1e-6,
                 float(np.max(cur_a.values)) <= bound))
    return rows


_SUITES = {
    "identities": _suite_rows_identities,
    "limits": _suite_rows_limits,
    "tails": _suite_rows_tails,
    "curves": _suite_rows_curves,
}


def _cmd_verify(args) -> int:
    model = load_model(args.model)
    args._model_d = model.d
    cfg = _quad_config(args)
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

def build_parser() -> argparse.ArgumentParser:
    # flag values that fail their type check raise ArgumentError, which
    # main() reports as an invalid-input record
    parser = argparse.ArgumentParser(
        prog="taboowalk",
        exit_on_error=False,
        description="Hitting-time and taboo-hitting-time probabilities for lattice random walks.",
    )
    parser.add_argument("--version", action="version", version=f"taboowalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_z: bool):
        p.add_argument("model", help="model JSON file")
        p.add_argument("--x", required=True, help="start point, comma-separated ints")
        p.add_argument("--y", required=True, help="target point")
        p.add_argument("--z", required=need_z, default=None, help="taboo point")
        p.add_argument("--points", type=_POINTS, default=None, help="quadrature points per axis")
        p.add_argument("--rel-tol", type=_POSITIVE, default=None, help="quadrature relative tolerance")

    p = sub.add_parser("limit", exit_on_error=False, help="limit probability H(infinity)")
    add_common(p, need_z=False)
    p.add_argument("--minus", action="store_true", help="clock from the first jump")
    p.add_argument("--verify", action="store_true", help="cross-check with oracle and Monte Carlo")
    p.add_argument("--paths", type=_COUNT, default=100_000)
    p.add_argument("--seed", type=int, default=20240501)
    p.add_argument("--radius", type=_COUNT, default=None, help="absorption-oracle box radius")
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("tail", exit_on_error=False, help="tail order and constant")
    add_common(p, need_z=True)
    p.add_argument("--minus", action="store_true")
    p.add_argument("--extract", action="store_true", help="also extract the constant numerically")
    p.set_defaults(func=_cmd_tail)

    p = sub.add_parser("curve", exit_on_error=False, help="c.d.f. curve to CSV")
    add_common(p, need_z=False)
    p.add_argument("--minus", action="store_true")
    p.add_argument("--step", type=_POSITIVE, required=True)
    p.add_argument("--horizon", type=_POSITIVE, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("simulate", exit_on_error=False, help="Monte Carlo estimates")
    add_common(p, need_z=True)
    p.add_argument("--t-list", type=_T_LIST, required=True, help="comma-separated times")
    p.add_argument("--paths", type=_COUNT, default=100_000)
    p.add_argument("--seed", type=int, default=20240501)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", exit_on_error=False, help="run a verification suite")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--suite", choices=[*_SUITES, "all"], default="all")
    p.add_argument("--points", type=_POINTS, default=None)
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
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        return _report(exc, EXIT_NUMERICAL)
    except _INPUT_ERRORS as exc:
        return _report(exc, EXIT_INPUT_ERROR)
    except TabooWalkError as exc:
        return _report(exc, EXIT_NUMERICAL)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
