"""The four workloads: their inputs, the child command of one trial, and
the checks of its outputs against truths computed here, never against
outputs of an earlier taboowalk version.

A check failure is ``(op, check, detail)``; ``op`` names the CLI command
or the query that failed.  Far queries on ``queries-mixed`` are a
known-defect probe: their checks run and every failure is listed, but
they count apart from the gated ``attempted``/``failed`` ops.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import quad

import querystream

WALK_DIR = "perfbench/walks"
NN3 = f"{WALK_DIR}/nn3.json"
NS1 = f"{WALK_DIR}/ns1.json"
TOL_COMPLEMENT = 1e-6   # H_xyz + H_xzy = 1 in d <= 2, at the quadrature tolerance
TOL_MONOTONE = 1e-9
TOL_ABOVE_LIMIT = 1e-6
TOL_RHO = 1e-7          # relative, against the d = 1 linear asymptote
TOL_BRACKET = 1e-9
BRACKET_RADIUS = 40     # box of the d = 2 absorption bracket, (2R+1)^2 states
BRACKET_QUERIES = 4     # near d = 2 queries per stream checked against it


@dataclass
class Outcome:
    """What the checks of one trial found."""

    ops: int = 0
    checks: int = 0
    failures: list = field(default_factory=list)
    probe_ops: int = 0              # known-defect probe ops, not gated
    probe_failures: list = field(default_factory=list)
    latencies: list | None = None   # per-query seconds, queries-mixed only
    inputs: dict = field(default_factory=dict)

    def check(self, ok: bool, op: str, name: str, detail: str = "", probe: bool = False) -> bool:
        self.checks += 1
        if not ok:
            (self.probe_failures if probe else self.failures).append((op, name, detail))
        return ok

    @property
    def failed_ops(self) -> int:
        return len({op for op, _, _ in self.failures})

    @property
    def probe_failed_ops(self) -> int:
        return len({op for op, _, _ in self.probe_failures})


def _walk(path: str, root: Path) -> dict:
    return json.loads((root / path).read_text())


@lru_cache(maxsize=None)
def rho_asymptote_1d(jumps: tuple) -> tuple[float, float]:
    """(slope, c) of rho(x) = slope |x| + c + o(1) for a finite-range d = 1 walk.

    With a = sum a(z), B = sum a(z) z^2 and phi the characteristic exponent,
    slope = a/B and c = (a/2pi) int_{-pi}^{pi} [1/(-phi) - 2/(B t^2)] dt
    - 2a/(pi^2 B); the remainder decays exponentially in |x|.  The integral
    is done here by adaptive quadrature, independently of taboowalk.
    """
    full = {}
    for z, r in jumps:
        full[z] = full[-z] = r
    a = sum(full.values())
    b = sum(r * z * z for z, r in full.items())
    b4 = sum(r * z**4 for z, r in full.items())

    def g(t):
        if t < 1e-3:  # series limit, avoids cancellation
            return b4 / (6.0 * b * b)
        neg_phi = sum(r * 2.0 * math.sin(z * t / 2.0) ** 2 for z, r in full.items())
        return 1.0 / neg_phi - 2.0 / (b * t * t)

    integral, _ = quad(g, 0.0, math.pi, epsabs=1e-14, epsrel=1e-13, limit=200)
    return a / b, (a / math.pi) * integral - 2.0 * a / (math.pi**2 * b)


def _jumps_1d(walk: dict) -> tuple:
    return tuple((e["z"][0], float(e["rate"])) for e in walk["jumps"])


def absorption_bracket(walk: dict, x, y, z, radius: int) -> tuple[float, float]:
    """Bracket [lo, hi] for H_{x,y,z}(inf) = P_x(the walk hits y before z),
    hitting times counted from the first jump, on the sup-norm box of the
    given radius: mass that leaves the box counts as failure in ``lo`` and
    as success in ``hi``.  A sparse solve of the embedded jump chain,
    independent of taboowalk's quadratures.
    """
    d = walk["d"]
    steps, probs = [], []
    total = 2.0 * sum(float(e["rate"]) for e in walk["jumps"])
    for e in walk["jumps"]:
        for sign in (1, -1):
            steps.append([sign * c for c in e["z"]])
            probs.append(float(e["rate"]) / total)
    side = 2 * radius + 1
    coords = np.stack(np.meshgrid(*[np.arange(-radius, radius + 1)] * d, indexing="ij"),
                      axis=-1).reshape(-1, d)

    def index(points):
        return np.ravel_multi_index(tuple((np.asarray(points) + radius).T), (side,) * d)

    iy, iz = int(index([y])[0]), int(index([z])[0])
    free = np.ones(len(coords), dtype=bool)
    free[[iy, iz]] = False
    rows, cols, vals = [], [], []
    b = np.zeros((len(coords), 2))  # one step into y, into z
    for step, prob in zip(steps, probs):
        dest = coords + step
        inside = np.all(np.abs(dest) <= radius, axis=1) & free
        src, dst = np.nonzero(inside)[0], index(dest[inside])
        b[src[dst == iy], 0] += prob
        b[src[dst == iz], 1] += prob
        keep = (dst != iy) & (dst != iz)
        rows.append(src[keep])
        cols.append(dst[keep])
        vals.append(np.full(int(keep.sum()), prob))
    trans = sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(len(coords),) * 2)
    h = spla.splu((sp.identity(len(coords), format="csc") - trans).tocsc()).solve(b)
    h[iy], h[iz] = (1.0, 0.0), (0.0, 1.0)  # h[:, 0] hits y first, h[:, 1] hits z first
    lo, hi = 0.0, 1.0
    for step, prob in zip(steps, probs):
        dest = np.asarray(x) + step
        if np.all(np.abs(dest) <= radius):
            j = int(index([dest])[0])
            lo += prob * h[j, 0]
            hi -= prob * h[j, 1]
    return lo, hi


# ---------------------------------------------------------------------------
# CLI workloads: one trial is one CLI command in a fresh process
# ---------------------------------------------------------------------------

CLI_MIN_TRIALS = 1

class VerifyD3:
    name = "verify-d3"
    min_trials = CLI_MIN_TRIALS
    walks = (NN3,)

    def cli_args(self, seed, trial_dir, quick):
        return ["verify", NN3] + (["--suite", "identities"] if quick else [])

    def check(self, code, stdout, trial_dir, quick) -> Outcome:
        out = Outcome(ops=1)
        op = "verify"
        out.check(code == 0, op, "exit_code", f"exit {code}")
        rows = [ln.strip() for ln in stdout.splitlines() if ln.startswith("  PASS") or ln.startswith("  FAIL")]
        out.check(bool(rows), op, "verify_rows_present")
        for row in rows:
            out.check(row.startswith("PASS"), op, "verify_row", row)
        out.check(stdout.rstrip().endswith("verify: PASS"), op, "verify_summary")
        # fixed by the verify suites for a d = 3 walk
        out.inputs = {"suites": "identities" if quick else "all", "verify_rows": len(rows),
                      "grid_steps": 0 if quick else 800,
                      "absorption_states": 0 if quick else 25**3, "mc_paths": 0}
        return out


class OracleD3:
    name = "oracle-d3"
    min_trials = CLI_MIN_TRIALS
    walks = (NN3,)

    def cli_args(self, seed, trial_dir, quick):
        args = ["limit", NN3, "--x", "1,0,0", "--y", "0,1,0", "--z", "0,0,0",
                "--verify", "--seed", str(seed)]
        return args + (["--radius", "4", "--paths", "2000"] if quick else [])

    def check(self, code, stdout, trial_dir, quick) -> Outcome:
        out = Outcome(ops=1)
        op = "limit --verify"
        if not out.check(code == 0, op, "exit_code", f"exit {code}"):
            return out
        try:
            rec = json.loads(stdout)
        except ValueError as exc:
            out.check(False, op, "json_output", str(exc))
            return out
        lim = rec["limit"]
        orc = rec["verify"]["oracle"]
        mc = rec["verify"]["monte_carlo"]
        out.check(0.0 <= lim <= 1.0, op, "limit_in_unit_interval", repr(lim))
        out.check(orc["lower"] <= lim <= orc["upper"], op, "limit_in_oracle_bracket",
                  f"{lim!r} not in [{orc['lower']!r}, {orc['upper']!r}]")
        bound = lim + 5.0 * mc["std_error"]
        out.check(mc["probability"] <= bound, op, "monte_carlo_below_limit",
                  f"P={mc['probability']!r} > limit + 5 sigma = {bound!r}")
        out.inputs = {"radius": orc["radius"], "absorption_states": (2 * orc["radius"] + 1) ** 3,
                      "mc_paths": mc["n_paths"], "mc_seed": mc["seed"]}
        return out


class CurveD1:
    name = "curve-d1"
    min_trials = CLI_MIN_TRIALS
    walks = (NS1,)
    step = 0.05

    def horizon(self, quick):
        return 10.0 if quick else 1000.0

    def cli_args(self, seed, trial_dir, quick):
        return ["curve", NS1, "--x=-2", "--y", "1", "--z", "3", "--step", str(self.step),
                "--horizon", str(self.horizon(quick)), "--out", str(trial_dir / "curve.csv")]

    def check(self, code, stdout, trial_dir, quick) -> Outcome:
        out = Outcome(ops=1)
        op = "curve"
        if not out.check(code == 0, op, "exit_code", f"exit {code}"):
            return out
        n_steps = round(self.horizon(quick) / self.step)
        path = trial_dir / "curve.csv"
        side = Path(str(path) + ".manifest.json")
        if out.check(side.exists(), op, "manifest_sidecar"):
            grid = json.loads(side.read_text()).get("grid", {})
            out.check(grid.get("n_steps") == n_steps, op, "manifest_grid", repr(grid))
        if not out.check(path.exists(), op, "csv_written"):
            return out
        with open(path, newline="") as fh:
            lines = [row for row in csv.reader(fh)]
        header, data = lines[0], [r for r in lines[1:] if not r[0].startswith("#")]
        out.check(header == ["t", "H_xyz", "H_xzy", "limit_xyz", "limit_xzy"], op, "csv_header", repr(header))
        out.check(len(data) == n_steps + 1, op, "csv_rows", f"{len(data)} rows, want {n_steps + 1}")
        cols = list(zip(*[[float(v) for v in r] for r in data]))
        lim_a, lim_b = cols[3][0], cols[4][0]
        for name, vals, lim in (("H_xyz", cols[1], lim_a), ("H_xzy", cols[2], lim_b)):
            out.check(0.0 <= lim <= 1.0, op, "limit_in_unit_interval", f"{name} limit {lim!r}")
            worst = min(b - a for a, b in zip(vals, vals[1:]))
            out.check(worst >= -TOL_MONOTONE, op, "monotone", f"{name} min increment {worst!r}")
            top = max(vals)
            out.check(top <= lim + TOL_ABOVE_LIMIT, op, "below_limit", f"{name} max {top!r} > limit {lim!r}")
        out.check(abs(lim_a + lim_b - 1.0) <= TOL_COMPLEMENT, op, "complement_sums_to_one",
                  f"{lim_a!r} + {lim_b!r}")
        out.inputs = {"grid_steps": n_steps, "step": self.step, "csv_rows": len(data)}
        return out


# ---------------------------------------------------------------------------
# queries-mixed: one trial answers a whole seeded stream in one process
# ---------------------------------------------------------------------------

class QueriesMixed:
    name = "queries-mixed"
    walks = tuple(querystream.WALKS.values())
    # Trials alternate between the seed's streams, so a run's latencies come
    # from three times as many distinct queries while each process still starts
    # with cold caches on 100 queries.
    streams_per_run = 3
    min_trials = streams_per_run  # every stream of the seed is answered

    def n_queries(self, quick):
        return 20 if quick else 100

    def write_streams(self, seed, run_dir, quick) -> list[Path]:
        paths = []
        for part in range(self.streams_per_run):
            path = run_dir / f"stream{part}.json"
            path.write_text(json.dumps(querystream.generate(seed, self.n_queries(quick), part)))
            paths.append(path)
        return paths

    def check(self, results: list, stream: dict, root: Path) -> Outcome:
        """Checks every answer.  Far queries hit the aliasing defect of
        ROADMAP item 1 at this commit; they form the known-defect probe."""
        walks = {k: _walk(v, root) for k, v in stream["walks"].items()}
        far = sum(q["far"] for q in stream["queries"])
        out = Outcome(ops=len(stream["queries"]) - far, probe_ops=far)
        out.latencies = [r["latency_s"] for r in results]
        answers = {r["id"]: r for r in results}
        bracketed = 0
        for i, q in enumerate(stream["queries"]):
            walk = walks[q["walk"]]
            op = f"query {i} {q['walk']} x={q['x']} y={q['y']} z={q['z']}"
            r = answers.get(i)

            def check(ok, name, detail=""):
                return out.check(ok, op, name, detail, probe=q["far"])

            if not check(r is not None, "answered"):
                continue
            if not check("error" not in r, "no_exception", r.get("error", "")):
                continue
            for key in ("limit", "swap"):
                check(0.0 <= r[key] <= 1.0, "limit_in_unit_interval", f"{key}={r[key]!r}")
            if walk["d"] <= 2:
                # an algebraic identity of the rho formula in d <= 2: it
                # guards the limit formula, not the rho values
                s = r["limit"] + r["swap"]
                check(abs(s - 1.0) <= TOL_COMPLEMENT, "complement_sums_to_one", repr(s))
            check(r["tail"] >= 0.0, "tail_constant_nonnegative", repr(r["tail"]))
            if r["extract"] is not None:
                check(r["extract"] >= 0.0, "tail_constant_nonnegative", f"extracted {r['extract']!r}")
            if walk["d"] == 1:
                slope, c = rho_asymptote_1d(_jumps_1d(walk))
                for disp, val in r["rho"].items():
                    want = slope * abs(int(disp)) + c
                    ok = isinstance(val, float) and abs(val - want) <= TOL_RHO * want
                    check(ok, "rho_linear_asymptote", f"rho({disp})={val!r}, want {want!r}")
            elif walk["d"] == 2 and not q["far"] and bracketed < BRACKET_QUERIES:
                bracketed += 1
                lo, hi = absorption_bracket(walk, q["x"], q["y"], q["z"], BRACKET_RADIUS)
                check(lo - TOL_BRACKET <= r["limit"] <= hi + TOL_BRACKET, "limit_in_absorption_bracket",
                      f"{r['limit']!r} not in [{lo!r}, {hi!r}]")
        out.inputs = querystream.properties(stream["queries"])
        out.inputs["absorption_bracket_states"] = (2 * BRACKET_RADIUS + 1) ** 2
        return out


WORKLOADS = {w.name: w for w in (VerifyD3(), OracleD3(), CurveD1(), QueriesMixed())}
