"""Seeded taboo-query stream for the ``queries-mixed`` workload.

``generate(seed, n_queries, part)`` returns one stream; the benchmark
writes the streams each trial answers to
``.perfbench/queries-mixed/stream<part>.json``.

A quarter of the queries go to the d = 1 walk {+-1: 0.4, +-2: 0.1},
three quarters to the d = 2 walk in ``walks/w2.json``.  Near coordinates
lie in [-6, 6]; nothing else is made to repeat, so a query reuses an
earlier displacement only as often as that range makes it happen
(``repeat_displacement_share`` records how often).  A fixed share per
walk is far: one of x or y is moved from z by a uniform distance, |r| in
[64, 5000] in d = 1 (20 % of the d = 1 queries) and a sup-norm distance
in [20, 100] in d = 2 (2.5 %; one costs 0.3 to 0.5 s, as much as five to
eight near queries).  A fixed 5 % of the d = 1 queries also ask
for ``tail_extract`` (in d = 2 one extraction costs about 2 s, which
would swamp the stream).  Far distances are stratified: the k far
queries of a walk take one distance from each of k equal slices of the
range, so the costly far class varies little from seed to seed.  The
same seed and part give the same stream; parts are independent streams
of one seed.
"""

from __future__ import annotations

import json
import random

WALKS = {"d1": "perfbench/walks/ns1.json", "d2": "perfbench/walks/w2.json"}
DIMS = {"d1": 1, "d2": 2}
NEAR = 6
FAR_RANGE = {"d1": (64, 5000), "d2": (20, 100)}
# shares of the stream; far and extract shares are per walk
WALK_SHARE = {"d1": 0.25, "d2": 0.75}
FAR_SHARE = {"d1": 0.20, "d2": 0.025}
EXTRACT_SHARE = {"d1": 0.05, "d2": 0.0}


def _near_point(rng, d):
    return [rng.randint(-NEAR, NEAR) for _ in range(d)]


def _far_point(rng, walk, base, stratum, n_strata):
    lo, hi = FAR_RANGE[walk]
    dist = lo + int((hi - lo + 1) * (stratum + rng.random()) / n_strata)
    if DIMS[walk] == 1:
        return [base[0] + rng.choice((-1, 1)) * dist]
    # a lattice point at sup-norm distance dist from base
    other = rng.randint(-dist, dist)
    sign = rng.choice((-1, 1))
    off = [sign * dist, other] if rng.random() < 0.5 else [other, sign * dist]
    return [b + o for b, o in zip(base, off)]


def _query(rng, walk, far, extract, stratum=0, n_strata=1):
    d = DIMS[walk]
    while True:
        x, y, z = _near_point(rng, d), _near_point(rng, d), _near_point(rng, d)
        if far:
            if rng.random() < 0.5:
                x = _far_point(rng, walk, z, stratum, n_strata)
            else:
                y = _far_point(rng, walk, z, stratum, n_strata)
        if y != z:
            return {"walk": walk, "x": x, "y": y, "z": z, "far": far, "extract": extract}


def _canon(r):
    neg = tuple(-c for c in r)
    return max(tuple(r), neg)


def properties(queries) -> dict:
    """Input properties the library's caches and grids depend on."""
    seen: dict[str, set] = {w: set() for w in WALKS}
    repeats = 0
    for q in queries:
        rel_x = [a - b for a, b in zip(q["x"], q["z"])]
        rel_y = [a - b for a, b in zip(q["y"], q["z"])]
        disps = {_canon(rel_x), _canon(rel_y), _canon([b - a for a, b in zip(rel_x, rel_y)])}
        if disps <= seen[q["walk"]]:
            repeats += 1
        seen[q["walk"]] |= disps
    n = len(queries)
    return {
        "queries": n,
        "far_share": sum(q["far"] for q in queries) / n,
        "extract_share": sum(q["extract"] for q in queries) / n,
        "repeat_displacement_share": repeats / n,
        "distinct_displacements": sum(len(s) for s in seen.values()),
    }


def generate(seed: int, n_queries: int, part: int = 0) -> dict:
    rng = random.Random(f"{seed}:{part}")
    queries = []
    for walk in WALKS:
        n = round(WALK_SHARE[walk] * n_queries)
        n_far = round(FAR_SHARE[walk] * n)
        n_ext = round(EXTRACT_SHARE[walk] * n)
        kinds = [("far", i) for i in range(n_far)] + [("extract", 0)] * n_ext
        kinds += [("near", 0)] * (n - n_far - n_ext)
        rng.shuffle(kinds)
        for kind, stratum in kinds:
            if kind == "far":
                queries.append(_query(rng, walk, True, False, stratum, n_far))
            else:
                queries.append(_query(rng, walk, False, kind == "extract"))
    # interleave the walks without reordering each walk's own queries
    walk_of = [q["walk"] for q in queries]
    rng.shuffle(walk_of)
    per_walk = {w: iter([q for q in queries if q["walk"] == w]) for w in WALKS}
    return {"seed": seed, "part": part, "walks": WALKS,
            "queries": [next(per_walk[w]) for w in walk_of]}
