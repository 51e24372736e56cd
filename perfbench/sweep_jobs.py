"""Seeded equation-ideal jobs for the sweep workload.

A job is the JSON shape ``veralg falsify --spec`` accepts.  The generator
does not call veralg: the top-degree basis monomials it draws from were
recorded once into ``data/top_basis.json`` (see ``record.py``), and the
admissible operation changes follow the recorded admissibility table of
the pinned ``op2_table`` example.

The sweep runs a corpus: a fixed number of jobs drawn from each stratum
(variety, generators, bound) with CORPUS_SEED, which was fixed before its
draws were looked at.  The run seed orders the corpus, which decides the job that
fills the memos (such as sigma on words) that the others reuse.  The
corpus is fixed because the cost of a job depends so much on its draw
that four corpora of this size took 6.8 s to 10.4 s in total; a run seed
that redrew the jobs would swamp every change worth measuring.  No job is ever
filtered or redrawn for being slow or for failing.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

CORPUS_SEED = 1
FIELD = ["t1", "t2"]
DET = "a11*a22 - a12*a21"

# (generators, bound, jobs per variety).  AllLinear at (2, 5) is left out:
# its jobs average 3.7 s, so one of them would be a third of a pass.
VARIETIES = ("alllinear", "commutative", "anticommutative", "lie", "jordan", "alternative")
STRATA = tuple(
    (variety, gens, bound, quota)
    for gens, bound, quota in ((2, 2, 5), (2, 3, 4), (2, 4, 2), (2, 5, 1), (3, 2, 4), (3, 3, 1))
    for variety in VARIETIES
    if (variety, gens, bound) != ("alllinear", 2, 5)
)

# Coefficients of the ideal generator, in Q(t1, t2).
COEFFICIENTS = (
    "1", "-1", "2", "-1/2", "t1", "t2", "t1*t2", "t2^2 - t1",
    "(t1 + t2)/(t1 - 1)", "1/t2", "t1 - t2", "3/(t2 + 1)",
)

# Nonzero values for the product coefficients a and b.
SCALARS = ("1", "2", "-1", "1/2", "t1", "t2", "t1 + 1")

# Drawn by an earlier prototype of this generator: the case solver's
# coefficients grow without bound and the job does not finish in 500 s.
RUNAWAY_JOB = {
    "kind": "equation-ideal",
    "field": ["t1", "t2"],
    "variety": "commutative",
    "gens": 2,
    "bound": 3,
    "system": {"phi": "swap", "a": "2", "b": "0"},
    "generator": "(t1*t2) * (x2 (x1 x1)) + (t2^2 - t1) * (x1 (x1 x2))"
    " + ((t1 + t2)/(t1 - 1)) * (x1 (x1 x1))",
    "tail": 4,
    "candidates": ["(x2 (x1 x1))", "(x1 (x1 x1))", "(x1 (x2 x2))", "(x1 (x1 x2))"],
    "hints": [DET],
}


def stratum_key(variety, gens, bound):
    return f"{variety}/{gens}/{bound}"


def load_top_basis():
    with open(DATA / "top_basis.json", encoding="utf-8") as handle:
        return json.load(handle)


def draw_system(rng, variety):
    """An admissible (phi, a, b), by the recorded admissibility table."""
    phi = rng.choice(("id", "swap"))
    if variety in ("alllinear", "powerassociative"):
        # admissible iff a != b and a != -b
        while True:
            a, b = rng.choice(SCALARS), rng.choice(("0",) + SCALARS)
            if a != b and {a, b} != {"1", "-1"}:
                break
    elif variety == "alternative":
        # admissible iff exactly one of a, b is zero
        a, b = rng.choice(SCALARS), "0"
        if rng.random() < 0.5:
            a, b = b, a
    else:
        # x2 x1 folds onto x1 x2: only (a, 0) with a != 0
        a, b = rng.choice(SCALARS), "0"
    return {"phi": phi, "a": a, "b": b}


def draw_job(rng, variety, gens, bound, top_basis):
    top = top_basis[stratum_key(variety, gens, bound)]
    monomials = rng.sample(top, rng.randint(1, min(3, len(top))))
    generator = " + ".join(f"({rng.choice(COEFFICIENTS)}) * {m}" for m in monomials)
    return {
        "kind": "equation-ideal",
        "field": list(FIELD),
        "variety": variety,
        "gens": gens,
        "bound": bound,
        "system": draw_system(rng, variety),
        "generator": generator,
        "tail": bound + 1,
        "candidates": rng.sample(top, min(4, len(top))),
        "hints": [DET] if gens == 2 else [],
    }


def corpus(corpus_seed, top_basis):
    """The jobs of a corpus, in the order they were drawn."""
    rng = random.Random(f"veralg-sweep/{corpus_seed}")
    jobs = [
        draw_job(rng, variety, gens, bound, top_basis)
        for variety, gens, bound, quota in STRATA
        for _ in range(quota)
    ]
    rng.shuffle(jobs)
    return jobs


def order(seed, count):
    """The run seed's permutation of corpus positions."""
    positions = list(range(count))
    random.Random(f"veralg-sweep-order/{seed}").shuffle(positions)
    return positions
