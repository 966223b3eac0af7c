"""taboowalk benchmark: end-to-end metrics per workload, per-layer metrics
from a separate traced run.

    python3 perfbench/run.py --workload verify-d3 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --quick

Each trial runs in a fresh child process (perfbench/child.py) with BLAS
threads pinned.  ``--trace 0`` times set-up, then repeats trials until the
next one would overrun ``--seconds`` (but at least the workload's
``min_trials``), and reports medians.  ``--trace 1`` runs pairs of an
untraced and a traced trial, in alternating order, in the same way (at
least ``TRACE_MIN_PAIRS``)
and reports the median per-layer metrics of the traced trials and the
median tracing overhead of the pairs.  Every trial's outputs are checked.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ops of a known-defect probe are reported
beside it, not in it.  Details go to ``.perfbench/<workload>/``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

THREADS = "1"
_THREAD_VARS = ("TABOOWALK_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = THREADS  # before numpy loads in this process too

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
CHILD = HERE / "child.py"
SETUP_REPEATS = 3       # set-up processes timed before and again after the trials
RUN_LIMIT_S = 170.0     # every trial must end by then
TRACE_MIN_PAIRS = 2     # untraced/traced pairs behind trace.overhead_s


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({v: THREADS for v in _THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Trial:
    """One child process: its exit code, wall and CPU time, and peak RSS."""

    def __init__(self, args: list[str], trial_dir: Path, timeout: float):
        trial_dir.mkdir(parents=True, exist_ok=True)
        self.dir = trial_dir
        out_path = trial_dir / "stdout.txt"
        with open(out_path, "wb") as out, open(trial_dir / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(CHILD), *args], stdout=out,
                                    stderr=err, cwd=ROOT, env=_child_env())
            timer = threading.Timer(max(1.0, timeout), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - t0
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = out_path.read_text(encoding="utf-8", errors="replace")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src" / "taboowalk").rglob("*")):
        if p.suffix in (".py", ".json"):
            digest.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": int(THREADS),
        "thread_vars": list(_THREAD_VARS),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


class Runner:
    """Runs the trials of one workload and checks each one."""

    def __init__(self, workload, seed: int, quick: bool):
        self.w = workload
        self.seed = seed
        self.quick = quick
        self.dir = OUT / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.t0 = time.perf_counter()
        self.streams = []
        if hasattr(workload, "write_streams"):
            self.streams = workload.write_streams(seed, self.dir, quick)

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.t0)

    def setup_times(self, repeats: int, tag: str) -> list[float]:
        times = []
        for i in range(repeats):
            t = Trial(["setup", *self.w.walks], self.dir / f"setup-{tag}{i}", self.remaining())
            if t.code != 0:
                raise SystemExit(f"set-up process failed (exit {t.code}): {t.stdout[-400:]}")
            times.append(t.wall_s)
        return times

    def warm_up(self) -> None:
        """Fill the bytecode and file caches; users do not pay this on every run."""
        self.setup_times(1, "warm")

    def trial(self, i: int, trace: bool, part: int | None = None):
        """Trial i; on queries-mixed it answers stream ``part`` (default i mod streams)."""
        tdir = self.dir / f"trial{i}"
        tdir.mkdir(parents=True)
        spans = tdir / "spans.json"
        targs = ["--trace", str(spans)] if trace else []
        if self.streams:
            stream_path = self.streams[(i if part is None else part) % len(self.streams)]
            res = tdir / "results.json"
            t = Trial(["queries", *targs, str(stream_path), str(res)], tdir, self.remaining())
            results = json.loads(res.read_text())["results"] if t.code == 0 else []
            outcome = self.w.check(results, json.loads(stream_path.read_text()), ROOT)
            outcome.check(t.code == 0, "queries process", "exit_code", f"exit {t.code}")
        else:
            args = ["cli", *targs, "--", *self.w.cli_args(self.seed, tdir, self.quick)]
            t = Trial(args, tdir, self.remaining())
            outcome = self.w.check(t.code, t.stdout, tdir, self.quick)
        t.outcome = outcome
        t.trace = json.loads(spans.read_text()) if trace and spans.exists() else None
        return t


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, list, dict]:
    runner.warm_up()
    # set-up is sampled on both sides of the trials, so that one slow
    # stretch of a shared machine does not set the run's median
    setup = runner.setup_times(SETUP_REPEATS, "pre")
    trials = []
    start = time.perf_counter()
    while True:
        trials.append(runner.trial(len(trials), trace=False))
        used = time.perf_counter() - start
        if trials[-1].wall_s > runner.remaining() - 10.0:  # room for the set-up runs after
            break
        if len(trials) >= runner.w.min_trials and used + trials[-1].wall_s > seconds:
            break
    setup += runner.setup_times(SETUP_REPEATS, "post")
    wall = statistics.median(t.wall_s for t in trials)
    if runner.streams:
        lat = [x for t in trials for x in t.outcome.latencies]
        p50, p90 = statistics.median(lat), statistics.quantiles(lat, n=10, method="inclusive")[-1]
    else:
        # a CLI command is one query; a run has too few commands to resolve
        # a 90th percentile, so both latency figures are the median command
        lat = [t.wall_s for t in trials]
        p50 = p90 = wall
    values = {
        "wall_s": wall,
        "cpu_s": statistics.median(t.cpu_s for t in trials),
        "peak_rss_mb": statistics.median(t.peak_rss_mb for t in trials),
        "setup_s": statistics.median(setup),
        "query_p50_s": p50,
        "query_p90_s": p90,
    }
    samples = {"trials": len(trials), "setup_samples": len(setup), "query_samples": len(lat),
               "beyond_p90": sum(x > p90 for x in lat) if runner.streams else None,
               "wall_s": [t.wall_s for t in trials], "setup_s": setup}
    return values, trials, samples


def layer_value(name: str, summary: dict, extra: dict) -> float:
    """Value of a per-layer metric named <module>.<function>.<field>."""
    if name in extra:
        return extra[name]
    funcs = summary["functions"]
    head, fld = name.rsplit(".", 1)
    if head.startswith("module."):
        return module_self_s(summary).get(head.split(".", 1)[1], 0.0)
    a = funcs.get(head)
    if a is None:
        return 0.0  # never called on this workload
    if fld in ("points", "states"):
        return a["work"]
    if fld == "paths_per_s":
        return a["work"] / a["total_s"] if a["total_s"] > 0 else 0.0
    return a[fld]


def module_self_s(summary: dict) -> dict[str, float]:
    mods: dict[str, float] = {}
    for f, a in summary["functions"].items():
        mods[f.split(".")[0]] = mods.get(f.split(".")[0], 0.0) + a["self_s"]
    return mods


def breakdown(summary: dict, wall_s: float) -> list[str]:
    """Self time per module and the top functions; names the dominant layer."""
    funcs = summary["functions"]
    mods = module_self_s(summary)
    outside = wall_s - summary["root_s"]
    lines = [f"  {m:<11} self {s:9.4f} s  {100 * s / wall_s:5.1f} %"
             for m, s in sorted(mods.items(), key=lambda kv: -kv[1])]
    lines.append(f"  {'(untraced)':<11} self {outside:9.4f} s  {100 * outside / wall_s:5.1f} %"
                 "  interpreter start, imports, the child's own code")
    top = sorted(funcs.items(), key=lambda kv: -kv[1]["self_s"])[:8]
    lines.append("  top functions by self time:")
    lines += [f"    {f:<40} self {a['self_s']:9.4f} s  calls {a['calls']}" for f, a in top]
    dominant = max(mods, key=mods.get) if mods else "none"
    lines.insert(0, f"dominant layer: {dominant}")
    return lines


def run_traced(runner: Runner, layer_names: list[str], seconds: float) -> tuple[dict, list, dict]:
    """Pairs of an untraced and a traced trial on the same input; medians."""
    from tracer import summarize

    runner.warm_up()
    pairs = []
    start = time.perf_counter()
    while True:
        # alternate which trial of a pair runs first, so drift does not bias the overhead
        order = (False, True) if len(pairs) % 2 == 0 else (True, False)
        by_trace = {tr: runner.trial(2 * len(pairs) + k, trace=tr, part=0) for k, tr in enumerate(order)}
        plain, traced = by_trace[False], by_trace[True]
        if traced.trace is None:
            raise SystemExit(f"traced trial wrote no spans (exit {traced.code})")
        pairs.append((plain, traced, summarize(traced.trace)))
        used = time.perf_counter() - start
        if plain.wall_s + traced.wall_s > runner.remaining():
            break
        if len(pairs) >= TRACE_MIN_PAIRS and used * (1 + 1 / len(pairs)) > seconds:
            break
    per_pair = []
    for plain, traced, summary in pairs:
        extra = {"trace.overhead_s": traced.wall_s - plain.wall_s,
                 "taboowalk.import_s": traced.trace["import_s"]}
        per_pair.append({n: layer_value(n, summary, extra) for n in layer_names})
    values = {n: statistics.median(v[n] for v in per_pair) for n in layer_names}
    plain, traced, summary = pairs[0]
    info = {"pairs": len(pairs),
            "untraced_wall_s": [p.wall_s for p, _, _ in pairs],
            "traced_wall_s": [t.wall_s for _, t, _ in pairs],
            "bindings_wrapped": traced.trace["bindings"], "spans": summary["spans"],
            "functions": summary["functions"],
            "breakdown": breakdown(summary, traced.wall_s)}
    return values, [t for p in pairs for t in p[:2]], info


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool, spec: dict) -> dict:
    from workloads import WORKLOADS

    runner = Runner(WORKLOADS[name], seed, quick)
    if trace:
        values, trials, info = run_traced(runner, [m["name"] for m in spec["per_layer"]], seconds)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values, trials, info = run_untraced(runner, seconds)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    failures = [f for t in trials for f in t.outcome.failures]
    inputs = [t.outcome.inputs for t in trials]
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "quick": quick,
        "environment": environment(),
        "inputs": [inp for i, inp in enumerate(inputs) if inp not in inputs[:i]],
        "checks_run": sum(t.outcome.checks for t in trials),
        "attempted": sum(t.outcome.ops for t in trials),
        "failed": sum(t.outcome.failed_ops for t in trials),
        "failures": failures,
        "probe_attempted": sum(t.outcome.probe_ops for t in trials),
        "probe_failed": sum(t.outcome.probe_failed_ops for t in trials),
        "probe_failures": [f for t in trials for f in t.outcome.probe_failures],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "info": info,
    }
    (runner.dir / "result.json").write_text(json.dumps(result, indent=1))
    return result


def report(res: dict) -> None:
    print(f"== {res['workload']}  seed={res['seed']} seconds={res['seconds']} "
          f"trace={res['trace']} quick={res['quick']}")
    print("environment: " + json.dumps(res["environment"]))
    print("inputs: " + json.dumps(res["inputs"]))
    for k, m in res["metrics"].items():
        print(f"  {k:<48} {m['value']:.6g} {m['unit']}")
    info = res["info"]
    if res["trace"]:
        walls = "; ".join(f"{p:.4f} / {t:.4f}" for p, t in
                          zip(info["untraced_wall_s"], info["traced_wall_s"]))
        print(f"tracing: {info['bindings_wrapped']} bindings wrapped, {info['spans']} spans per "
              f"trial, {info['pairs']} pairs untraced / traced s: {walls}")
        print("\n".join(info["breakdown"]))
    else:
        lat = (f"{info['query_samples']} query latencies ({info['beyond_p90']} beyond p90)"
               if info["beyond_p90"] is not None else "latency = median command time")
        print(f"samples: {info['trials']} trials, {info['setup_samples']} set-up runs, {lat}")
    print(f"  ops {res['attempted']} op, ops_failed {res['failed']} op, checks run {res['checks_run']}")
    if res["probe_attempted"]:
        print(f"  known-defect probe (far queries, not gated): ops {res['probe_attempted']} op, "
              f"failed {res['probe_failed']} op")
    for tag, failures in (("FAILED", res["failures"]), ("KNOWN DEFECT", res["probe_failures"])):
        seen = set()
        for op, check, detail in failures:
            if (op, check) not in seen:
                seen.add((op, check))
                print(f"  {tag} {op}: {check}: {detail}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="tiny inputs, for a smoke test")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "taboowalk" / "__init__.py").is_file():
        print(f"error: no taboowalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        p.error(f"unknown workload {args.workload!r}; choose from {names} or all")
    todo = names if args.workload == "all" else [args.workload]

    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.quick, spec)
               for n in todo]
    for res in results:
        report(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    checked = all(r["checks_run"] > 0 for r in results)
    print(json.dumps({"correct": failed == 0 and checked,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
