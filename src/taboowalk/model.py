"""Random-walk model definition, validation, and spectral scalars.

A walk is given by its dimension d and a finite symmetric table of jump
rates a(z) > 0, z in Z^d \\ {0}, with a(z) = a(-z).  The total rate
a = sum_z a(z) is the parameter of the exponential holding times.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import (
    AsymmetricRates,
    EmptySupport,
    ModelError,
    NonpositiveRate,
    NotIrreducible,
    SingularHessian,
    ZeroJumpInSupport,
)

Vec = tuple[int, ...]
JumpsLike = Union[Mapping[Sequence[int], float], Iterable[tuple[Sequence[int], float]]]


def as_vec(v: Sequence[int], d: int | None = None) -> Vec:
    """Coerce a lattice point to a tuple of ints, checking dimension if given."""
    if isinstance(v, (int, np.integer)):
        v = (v,)
    out = tuple(int(c) for c in v)
    if any(c != float(raw) for c, raw in zip(out, v)):
        raise ValueError(f"lattice point has non-integer coordinates: {v!r}")
    if d is not None and len(out) != d:
        raise ValueError(f"expected a {d}-vector, got {out!r}")
    return out


@dataclass(frozen=True)
class WalkModel:
    """Validated symmetric homogeneous irreducible walk on Z^d.

    ``jumps`` holds the full two-sided support, sorted, as ((z, rate), ...).
    Instances are immutable, hashable, and safe to share across threads.
    Construct via :func:`validate_model` or :func:`load_model`.
    """

    d: int
    jumps: tuple[tuple[Vec, float], ...]
    total_rate: float

    @cached_property
    def support(self) -> np.ndarray:
        return np.array([z for z, _ in self.jumps], dtype=np.int64)

    @cached_property
    def rates(self) -> np.ndarray:
        return np.array([r for _, r in self.jumps], dtype=float)

    @cached_property
    def jump_cdf(self) -> np.ndarray:
        c = np.cumsum(self.rates) / self.total_rate
        c[-1] = 1.0
        return c

    @cached_property
    def _rate_map(self) -> dict[Vec, float]:
        return dict(self.jumps)

    @property
    def a(self) -> float:
        return self.total_rate

    def rate(self, z: Sequence[int]) -> float:
        """Jump rate a(z); 0 when z is outside the support."""
        return self._rate_map.get(as_vec(z, self.d), 0.0)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "jumps": [{"z": list(z), "rate": r} for z, r in self.jumps],
        }


@dataclass(frozen=True)
class SpectralScalars:
    """gamma_d, the jump-covariance matrix B, and det B for a walk."""

    gamma_d: float
    hessian: np.ndarray
    det_b: float


def _lattice_covolume(vectors: list[Vec], d: int) -> int | None:
    """|det| of the integer lattice spanned by ``vectors``; None if rank < d.

    Exact integer row reduction (Hermite-style): repeatedly shrink each
    pivot column with Euclidean steps until one nonzero entry remains.
    """
    rows = [list(v) for v in vectors]
    det = 1
    r = 0
    for c in range(d):
        while True:
            live = [i for i in range(r, len(rows)) if rows[i][c] != 0]
            if not live:
                break
            if len(live) == 1:
                i = live[0]
                rows[r], rows[i] = rows[i], rows[r]
                break
            i = min(live, key=lambda i: abs(rows[i][c]))
            for j in live:
                if j == i:
                    continue
                q = rows[j][c] // rows[i][c]
                rows[j] = [x - q * y for x, y in zip(rows[j], rows[i])]
        if r < len(rows) and rows[r][c] != 0:
            det *= abs(rows[r][c])
            r += 1
    return det if r == d else None


def support_generates_lattice(vectors: Iterable[Sequence[int]], d: int) -> bool:
    """True iff the integer combinations of ``vectors`` are all of Z^d."""
    vecs = [as_vec(v, d) for v in vectors]
    return _lattice_covolume(vecs, d) == 1


def _symmetrize(d: int, jumps: JumpsLike) -> dict[Vec, float]:
    items = jumps.items() if isinstance(jumps, Mapping) else jumps
    listed: dict[Vec, float] = {}
    for z, rate in items:
        zv = as_vec(z, d)
        if zv in listed:
            raise ValueError(f"jump {zv} listed more than once")
        listed[zv] = float(rate)
    full: dict[Vec, float] = {}
    for zv, rate in listed.items():
        neg = tuple(-c for c in zv)
        if neg in listed and listed[neg] != rate:
            raise AsymmetricRates(f"a({zv}) = {rate} but a({neg}) = {listed[neg]}")
        full[zv] = rate
        full[neg] = rate  # mirror implied when only one direction is listed
    return full


def validate_model(d: int, jumps: JumpsLike) -> WalkModel:
    """Validate a candidate jump table and return a certified WalkModel.

    Checks: nonempty support, no zero jump, strictly positive finite rates,
    symmetry a(z) = a(-z) (one direction may be omitted and is mirrored),
    and irreducibility (the support must generate Z^d as a group, decided
    by an exact integer-lattice covolume computation; for d = 1 this
    degenerates to a gcd test).
    """
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    d = int(d)
    table = _symmetrize(d, jumps)
    if not table:
        raise EmptySupport("jump table is empty")
    zero = (0,) * d
    if zero in table:
        raise ZeroJumpInSupport("the zero vector is not a jump")
    for z, rate in table.items():
        if not (rate > 0.0) or not np.isfinite(rate):
            raise NonpositiveRate(f"a({z}) = {rate} must be strictly positive")
    if not support_generates_lattice(table.keys(), d):
        raise NotIrreducible("jump support does not generate Z^d")
    ordered = tuple(sorted(table.items()))
    total = float(sum(rate for _, rate in ordered))
    return WalkModel(d=d, jumps=ordered, total_rate=total)


def char_exponent(model: WalkModel, theta: Sequence[float]) -> float:
    """Characteristic exponent phi(theta) = sum_z a(z) (cos(z, theta) - 1).

    Evaluated as -2 sum_z a(z) sin^2((z, theta)/2), which is exact near
    theta = 0 where the cosine form loses all precision.  phi(0) = 0 and
    phi(theta) < 0 elsewhere on (-pi, pi]^d for an irreducible walk.
    """
    th = np.asarray(theta, dtype=float)
    if th.shape != (model.d,):
        raise ValueError(f"theta must be a {model.d}-vector, got shape {th.shape}")
    half = model.support @ th / 2.0
    return float(-2.0 * model.rates @ np.sin(half) ** 2)


def char_exponent_grid(model: WalkModel, theta: np.ndarray) -> np.ndarray:
    """Vectorized phi over an (m, d) array of angles."""
    half = theta @ model.support.T / 2.0
    return -2.0 * np.sin(half) ** 2 @ model.rates


def spectral_scalars(model: WalkModel) -> SpectralScalars:
    """B_ij = sum_z a(z) z_i z_j and gamma_d = (2 pi)^(-d/2) / sqrt(det B)."""
    support = model.support.astype(float)
    b = (support * model.rates[:, None]).T @ support
    det = float(np.linalg.det(b))
    if not np.isfinite(det) or det <= 0.0:
        raise SingularHessian(f"det B = {det}")
    gamma = (2.0 * np.pi) ** (-model.d / 2.0) / np.sqrt(det)
    return SpectralScalars(gamma_d=gamma, hessian=b, det_b=det)


def tilde_gamma(model: WalkModel, z: Sequence[int]) -> float:
    """Constant of the difference asymptotics: gamma_d (z, B^-1 z) / 2.

    Closed form of the defining Gaussian integral; returns 0 for z = 0.
    """
    zv = np.asarray(as_vec(z, model.d), dtype=float)
    if not zv.any():
        return 0.0
    sc = spectral_scalars(model)
    quad = float(zv @ np.linalg.solve(sc.hessian, zv))
    return sc.gamma_d * quad / 2.0


def is_simple_1d(model: WalkModel) -> bool:
    """True iff the walk is the nearest-neighbor walk on Z (any total rate)."""
    return model.d == 1 and set(z for z, _ in model.jumps) == {(1,), (-1,)}


def model_from_dict(obj: dict) -> WalkModel:
    """Build a model from the JSON object {"d": ..., "jumps": [{"z", "rate"}]}."""
    try:
        d = obj["d"]
        raw = [(entry["z"], entry["rate"]) for entry in obj["jumps"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model object: {exc}") from exc
    return validate_model(d, raw)


def load_model(path) -> WalkModel:
    """Read a model file; malformed content raises ModelError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return model_from_dict(json.load(fh))
        except (ValueError, TypeError) as exc:
            raise ModelError(f"malformed model file {path}: {exc}") from exc


def save_model(model: WalkModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(), fh, indent=2)
        fh.write("\n")


def simple_walk_1d(a: float = 1.0) -> WalkModel:
    """Nearest-neighbor walk on Z with rates a/2 in each direction."""
    return validate_model(1, {(1,): a / 2.0})


def nearest_neighbor_walk(d: int, a: float = 1.0) -> WalkModel:
    """2d-neighbor walk on Z^d with rate a/(2d) per neighbor."""
    jumps = {}
    for i in range(d):
        z = [0] * d
        z[i] = 1
        jumps[tuple(z)] = a / (2 * d)
    return validate_model(d, jumps)
