"""Library-side process of the benchmark: one fresh interpreter per trial.

    python perfbench/child.py setup WALK.json [WALK.json ...]
    python perfbench/child.py cli [--trace SPANS.json] -- CLI-ARGS...
    python perfbench/child.py queries [--trace SPANS.json] STREAM.json RESULTS.json

``setup`` imports taboowalk and loads the walks, then exits.  ``cli`` runs
``taboowalk.cli.main`` on the given arguments and exits with its code.
``queries`` answers a generated query stream and writes each answer and
its latency; the benchmark checks the answers in its own process.  With
``--trace`` the span tracer is installed after the import and the spans
are written once, at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# rho values at |r| >= this are compared with the exact d = 1 asymptote
RHO_CHECK_MIN = 12


def _import_taboowalk():
    t0 = time.perf_counter()
    import taboowalk

    src = (HERE.parent / "src").resolve()
    if Path(taboowalk.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported {taboowalk.__file__}, expected the copy in {src}")
    return taboowalk, time.perf_counter() - t0


def _start_trace(path):
    if not path:
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _query_answer(tw, model, q, extract):
    limit = tw.taboo_limit(model, q)
    swap = tw.taboo_limit(model, q.swapped())
    tail = float(tw.taboo_tail(model, q).constant)
    ext = float(tw.tail_extract(model, q).constant) if extract else None
    return {"limit": limit, "swap": swap, "tail": tail, "extract": ext}


def _rho_values(tw, model, q):
    """rho at the displacements taboo_limit used, for the d = 1 check."""
    out = {}
    if model.d != 1:
        return out
    x, y = q.rel_x[0], q.rel_y[0]
    for r in (x, y, y - x):
        if abs(r) >= RHO_CHECK_MIN:
            try:
                out[str(r)] = tw.rho(model, (r,))
            except tw.TabooWalkError as exc:
                out[str(r)] = f"{type(exc).__name__}: {exc}"
    return out


def _run_queries(tw, tracer, stream_path, out_path):
    stream = json.loads(Path(stream_path).read_text())
    models = {k: tw.load_model(v) for k, v in stream["walks"].items()}
    results = []
    for i, item in enumerate(stream["queries"]):
        model = models[item["walk"]]
        if tracer is not None:
            tracer.op = i
        rec = {"id": i}
        t0 = time.perf_counter()
        try:
            q = tw.TabooQuery(item["x"], item["y"], item["z"])
            rec.update(_query_answer(tw, model, q, item["extract"]))
        except Exception as exc:  # a raising query is a failed op, not a crash
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["latency_s"] = time.perf_counter() - t0
        if "error" not in rec:
            with tracer.paused() if tracer is not None else contextlib.nullcontext():
                rec["rho"] = _rho_values(tw, model, q)
        results.append(rec)
    Path(out_path).write_text(json.dumps({"results": results}))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="child.py")
    sub = p.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("setup")
    s.add_argument("walks", nargs="+")
    c = sub.add_parser("cli")
    c.add_argument("--trace")
    c.add_argument("cli_args", nargs=argparse.REMAINDER)
    q = sub.add_parser("queries")
    q.add_argument("--trace")
    q.add_argument("stream")
    q.add_argument("out")
    args = p.parse_args(argv)

    tw, import_s = _import_taboowalk()
    if args.mode == "setup":
        for w in args.walks:
            tw.load_model(w)
        return 0
    tracer = _start_trace(args.trace)
    try:
        if args.mode == "cli":
            import taboowalk.cli

            cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
            return taboowalk.cli.main(cli_args)
        _run_queries(tw, tracer, args.stream, args.out)
        return 0
    finally:
        if tracer is not None:
            tracer.dump(args.trace, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())
