"""Deterministic inputs for the maintenance benchmark.

Everything the engine sees is drawn here from the seed before anything
is timed: the base relations and every round's explicit insert/erase
list.  The round stream repeats ``cycles`` times a cycle of
``singles_per_batch`` single-edit rounds followed by one batch round.
Its length is fixed, so the work of a pass over it does not depend on
how fast the engine runs.  Edits toggle uniformly drawn keys: a key
that is live is erased, an absent key is inserted.  Keys within one
batch round are distinct.

This module does not import the engine.
"""

import hashlib
import marshal
import random
from dataclasses import dataclass
from typing import Callable

SINGLE = "single"
BATCH = "batch"


@dataclass(frozen=True)
class Round:
    kind: str  # SINGLE or BATCH
    edits: tuple  # ((relation, sign, keys, value), ...), sign "+" or "-"


@dataclass(frozen=True)
class Inputs:
    catalog: dict  # relation -> (arity, is_function)
    rules: tuple  # rule texts
    base: dict  # relation -> [(keys, value)] in key order
    rounds: list  # [Round]
    fingerprint: str  # sha256 over catalog, rules, base and rounds


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    catalog: dict
    rules: tuple
    singles_per_batch: int
    cycles: int  # cycles in the stream; a pass applies all of them
    # Tail percentile per round kind: the highest of TAIL_LADDER that
    # keeps at least ten samples beyond it in the fewest passes a run
    # makes.  Fixing it keeps the tail comparable between runs whose
    # pass counts differ.
    tail: dict
    full: dict  # size parameters
    tiny: dict  # size parameters for the self-test
    base: Callable  # (rng, size) -> {relation: [(keys, value)]}
    draw: Callable  # (rng, size) -> [(relation, keys, value)] toggled together


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _unary_base(rng, size):
    dom, n = size["domain"], size["keys"]
    return {
        rel: [((k,), None) for k in sorted(rng.sample(range(dom), n))]
        for rel in ("A", "B")
    }


def _unary_draw(rng, size):
    return [(rng.choice(("A", "B")), (rng.randrange(size["domain"]),), None)]


def _graph_base(rng, size):
    v = size["vertices"]
    cells = sorted(rng.sample(range(v * v), size["edges"]))
    return {"E": [((c // v, c % v), None) for c in cells]}


def _graph_draw(rng, size):
    v = size["vertices"]
    return [("E", (rng.randrange(v), rng.randrange(v)), None)]


def _int_value(rng):
    return rng.randrange(-1000, 1001)


def _float_value(rng):
    return rng.uniform(-1000.0, 1000.0)


def _aggregate_base(rng, size):
    width = size["slots_per_group"]
    cells = sorted(rng.sample(range(size["groups"] * width), size["tuples"]))
    keys = [(c // width, c % width) for c in cells]
    return {
        "E": [(k, None) for k in keys],
        "E2": [(k, _int_value(rng)) for k in keys],
        "EF": [(k, _float_value(rng)) for k in keys],
    }


def _aggregate_draw(rng, size):
    k = (rng.randrange(size["groups"]), rng.randrange(size["slots_per_group"]))
    return [("E", k, None), ("E2", k, _int_value(rng)), ("EF", k, _float_value(rng))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="unary",
            why="key-prefix atoms: no sensitivity index, work in store cursors"
            " and commits, lftj with a disjunction merge, and direct heads",
            catalog={"A": (1, False), "B": (1, False)},
            rules=("C(x) <- A(x), B(x).", "U(x) <- (A(x) ; B(x))."),
            singles_per_batch=40,
            cycles=90,
            tail={SINGLE: 99.0, BATCH: 90.0},
            full={"keys": 100_000, "domain": 400_000, "batch": 100},
            tiny={"keys": 200, "domain": 800, "batch": 20},
            base=_unary_base,
            draw=_unary_draw,
        ),
        Workload(
            name="graph",
            why="triangle and support-counted 2-path: sensitivity indices"
            " (intervals over scantree) dominate bootstrap and maintenance",
            catalog={"E": (2, False)},
            rules=(
                "T(x,y,z) <- E(x,y), E(y,z), E(x,z).",
                "P(x,z) <- E(x,y), E(y,z).",
            ),
            singles_per_batch=4,
            cycles=24,
            tail={SINGLE: 90.0, BATCH: 75.0},
            full={"edges": 5000, "vertices": 500, "batch": 10},
            tiny={"edges": 60, "vertices": 16, "batch": 4},
            base=_graph_base,
            draw=_graph_draw,
        ),
        Workload(
            name="aggregate",
            why="sum, max, float total and count heads: support counts,"
            " SegmentedFloat and scan-backed max via range_scan; no index",
            catalog={"E": (2, False), "E2": (2, True), "EF": (2, True)},
            rules=(
                "S[x]=s <- agg<< s=sum(v) >> E2[x,y]=v.",
                "M[x]=m <- agg<< m=max(v) >> E2[x,y]=v.",
                "FT[x]=t <- agg<< t=total(v) >> EF[x,y]=v.",
                "D[x]=c <- agg<< c=count() >> E(x,y).",
            ),
            singles_per_batch=40,
            cycles=30,
            tail={SINGLE: 99.0, BATCH: 75.0},
            full={"groups": 5000, "slots_per_group": 20, "tuples": 50_000,
                  "batch": 100},
            tiny={"groups": 20, "slots_per_group": 10, "tuples": 100,
                  "batch": 20},
            base=_aggregate_base,
            draw=_aggregate_draw,
        ),
    )
}


def _toggle(state, group):
    """Explicit edits that flip the presence of one key in every relation."""
    first_rel, keys, _ = group[0]
    if keys in state[first_rel]:
        out = tuple((rel, "-", keys, state[rel].pop(keys)) for rel, _, _ in group)
    else:
        out = tuple((rel, "+", keys, value) for rel, keys, value in group)
        for rel, keys, value in group:
            state[rel][keys] = value
    return out


def generate(workload, seed, tiny=False):
    """Draw the base relations and the round stream."""
    size = workload.tiny if tiny else workload.full
    rng = random.Random(f"{workload.name}:{seed}")
    base = workload.base(rng, size)
    state = {rel: dict(records) for rel, records in base.items()}
    rounds = []
    for _ in range(workload.cycles):
        for _ in range(workload.singles_per_batch):
            rounds.append(Round(SINGLE, _toggle(state, workload.draw(rng, size))))
        seen, edits = set(), []
        while len(seen) < size["batch"]:
            group = workload.draw(rng, size)
            tag = (group[0][0], group[0][1])
            if tag not in seen:
                seen.add(tag)
                edits.extend(_toggle(state, group))
        rounds.append(Round(BATCH, tuple(edits)))
    # marshal format 2 writes no back-references, so equal inputs give
    # equal bytes
    blob = marshal.dumps(
        (
            sorted(workload.catalog.items()),
            workload.rules,
            sorted(base.items()),
            [(rnd.kind, rnd.edits) for rnd in rounds],
        ),
        2,
    )
    fingerprint = hashlib.sha256(blob).hexdigest()
    return Inputs(workload.catalog, workload.rules, base, rounds, fingerprint)
