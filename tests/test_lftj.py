import gc
import hashlib
import heapq
import random

import pytest

from conftest import Engine, naive_assignments
from leapjoin import lftj
from leapjoin.driver import bootstrap, maintain
from leapjoin.errors import UserError
from leapjoin.keys import KEY_MAX, KEY_MIN
from leapjoin.lftj import Counter, SensitivityRecorder, evaluate
from leapjoin.parser import parse_rule
from leapjoin.rules import validate_key_order
from leapjoin.store import Relation
from leapjoin.trace import (
    NEXT,
    OPEN,
    SEEK,
    UP,
    render_event,
    seq_edit_distance,
    trace_distance,
)


def unary(name, keys):
    rel = Relation(name, 1)
    txn = rel.begin()
    for k in keys:
        txn.insert((k,))
    return txn.commit()


def intersect(rule, sets):
    """The keys evaluate yields for a rule over unary relations."""
    plan = validate_key_order(parse_rule(rule, {n: (1, False) for n in sets}))
    versions = {name: unary(name, keys) for name, keys in sets.items()}
    return [k for (k,), _ in evaluate(plan, versions)]


class TestLeapfrogJoin:
    def test_worked_example(self):
        sets = {"A": [0, 2, 4, 5, 6], "B": [1, 2, 6, 7]}
        assert intersect("C(x) <- A(x), B(x).", sets) == [2, 6]

    def test_parenthesized_conjunction_evaluates_as_flat(self):
        sets = {"A": [0, 2, 4, 5, 6], "B": [1, 2, 6, 7]}
        want = intersect("C(x) <- A(x), B(x).", sets)
        assert want == [2, 6]
        assert intersect("C(x) <- (A(x), B(x)).", sets) == want
        assert intersect("C(x) <- A(x), (B(x)).", sets) == want

    def test_single_iterator_identity(self):
        assert intersect("C(x) <- A(x).", {"A": [3, 1, 4, 1, 5]}) == [1, 3, 4, 5]

    def test_three_random_sets_match_intersection(self):
        rng = random.Random(31)
        for _ in range(30):
            sets = [set(rng.sample(range(60), rng.randrange(1, 40))) for _ in range(3)]
            want = sorted(sets[0] & sets[1] & sets[2])
            got = intersect(
                "C(x) <- S0(x), S1(x), S2(x).",
                {f"S{i}": s for i, s in enumerate(sets)},
            )
            assert got == want


class TestFullEvaluate:
    def test_unary_outputs_and_sensitivities(self):
        eng = Engine("C(x) <- A(x), B(x). @force_sens", {"A": (1, False), "B": (1, False)})
        eng.load("A", [(0,), (2,), (4,), (5,), (6,)])
        eng.load("B", [(1,), (2,), (6,), (7,)])
        indices = eng.inst.indices
        rec = SensitivityRecorder(indices)
        out = list(evaluate(eng.plan, eng.versions(), recorder=rec))
        assert [k for k, _ in out] == [(2,), (6,)]
        pos = {ap.name: i for i, ap in enumerate(eng.plan.branches[0].atoms)}
        a_sens = [(r.lo, r.hi) for r in indices[(0, pos["A"], 1)].enumerate()]
        b_sens = [(r.lo, r.hi) for r in indices[(0, pos["B"], 1)].enumerate()]
        assert a_sens == [(KEY_MIN, 0), (1, 2), (2, 4), (6, 6), (6, KEY_MAX)]
        assert b_sens == [(KEY_MIN, 1), (2, 2), (4, 6)]

    def test_empty_relation_open_interval_covers_everything(self):
        eng = Engine("C(x) <- A(x), B(x). @force_sens", {"A": (1, False), "B": (1, False)})
        eng.load("B", [(3,), (9,)])
        indices = eng.inst.indices
        rec = SensitivityRecorder(indices)
        out = list(evaluate(eng.plan, eng.versions(), recorder=rec))
        assert out == []
        pos = {ap.name: i for i, ap in enumerate(eng.plan.branches[0].atoms)}
        a_sens = [(r.lo, r.hi) for r in indices[(0, pos["A"], 1)].enumerate()]
        b_sens = [(r.lo, r.hi) for r in indices[(0, pos["B"], 1)].enumerate()]
        assert a_sens == [(KEY_MIN, KEY_MAX)]
        assert b_sens == [(KEY_MIN, 3)]

    def test_recorder_merges_only_when_stream_is_exhausted(self):
        eng = Engine("C(x) <- A(x), B(x). @force_sens", {"A": (1, False), "B": (1, False)})
        eng.load("A", [(0,), (2,), (4,), (5,), (6,)])
        eng.load("B", [(1,), (2,), (6,), (7,)])
        indices = eng.inst.indices
        rec = SensitivityRecorder(indices)
        stream = evaluate(eng.plan, eng.versions(), recorder=rec)
        assert next(stream)[0] == (2,)
        assert next(stream)[0] == (6,)
        assert all(len(ix) == 0 for ix in indices.values())
        assert next(stream, None) is None
        assert rec.added == sum(len(ix) for ix in indices.values()) == 8

    def test_stream_closed_early_adds_nothing(self):
        eng = Engine("C(x) <- A(x), B(x). @force_sens", {"A": (1, False), "B": (1, False)})
        eng.load("A", [(0,), (2,), (4,), (5,), (6,)])
        eng.load("B", [(1,), (2,), (6,), (7,)])
        indices = eng.inst.indices
        rec = SensitivityRecorder(indices)
        stream = evaluate(eng.plan, eng.versions(), recorder=rec)
        next(stream)
        stream.close()
        assert rec.added == 0
        assert all(len(ix) == 0 for ix in indices.values())

    def test_evaluation_leaves_no_cyclic_garbage(self):
        rng = random.Random(17)
        eng = Engine("T(x,y,z) <- E(x,y), E(y,z), E(x,z).", {"E": (2, False)})
        eng.random_fill(rng, per_relation=60, dom=10)
        gc.collect()
        gc.disable()
        try:
            list(evaluate(eng.plan, eng.versions(), trace=[], counter=Counter()))
            stream = evaluate(eng.plan, eng.versions())
            next(stream)
            stream.close()
            assert gc.collect() == 0  # reference counting freed it all
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "rule,spec",
        [
            ("C(x) <- A(x), B(x).", {"A": (1, False), "B": (1, False)}),
            (
                "F(x,y) <- G(x,z), H(y,z), I(x,y,z). @order(x,y,z)",
                {"G": (2, False), "H": (2, False), "I": (3, False)},
            ),
            (
                "F(x,y) <- G(x,z), H(y,z), I(x,y,z), R(z). @order(x,y,z)",
                {"G": (2, False), "H": (2, False), "I": (3, False), "R": (1, False)},
            ),
            ("S(x,y) <- A2(x,y), B2(y,z).", {"A2": (2, False), "B2": (2, False)}),
            (
                "S(x,r) <- A2(x,y), F1[y]=a, add[a,a]=r. @order(x,y)",
                {"A2": (2, False), "F1": (1, True)},
            ),
            (
                "S(x,y) <- A2(x,y), lt(x,y).",
                {"A2": (2, False)},
            ),
            (
                "C(x) <- A(x), (B(x) ; A(x)).",
                {"A": (1, False), "B": (1, False)},
            ),
        ],
    )
    def test_random_instances_match_nested_loop_oracle(self, rule, spec):
        rng = random.Random(hash(rule) & 0xFFFF)
        for trial in range(12):
            eng = Engine(rule, spec)
            eng.random_fill(rng, per_relation=rng.randrange(5, 60), dom=8)
            got = list(evaluate(eng.plan, eng.versions()))
            want = naive_assignments(eng.plan, eng.versions())
            assert got == want, (rule, trial)

    @pytest.mark.parametrize("leaf_capacity", [2, 3, 4])
    @pytest.mark.parametrize(
        "rule,spec",
        [
            (
                "P(y,x) <- A(y), E(x,y), A(x). @order(x,y)",
                {"A": (1, False), "E": (2, False)},
            ),
            ("T(x,y,z) <- E(x,y), E(y,z), E(x,z).", {"E": (2, False)}),
        ],
    )
    def test_reopened_atoms_over_small_leaves_match_oracle(
        self, rule, spec, leaf_capacity
    ):
        """Atoms opened again under every outer key, over many small leaves:
        A(y) from depth 0 at each x, and the triangle's E(x,z) at each y.
        Their levels end, carry their end position up, and re-open."""
        rng = random.Random(29 + leaf_capacity)
        for trial in range(10):
            eng = Engine(rule, spec, leaf_capacity=leaf_capacity)
            eng.random_fill(rng, per_relation=rng.randrange(20, 80), dom=9)
            got = list(evaluate(eng.plan, eng.versions()))
            want = naive_assignments(eng.plan, eng.versions())
            assert got == want, (trial, leaf_capacity)

    def test_seek_monotonicity(self):
        rng = random.Random(33)
        eng = Engine(
            "F(x,y) <- G(x,z), H(y,z), I(x,y,z). @order(x,y,z)",
            {"G": (2, False), "H": (2, False), "I": (3, False)},
        )
        eng.random_fill(rng, per_relation=60, dom=7)
        tr = []
        list(evaluate(eng.plan, eng.versions(), trace=tr))
        seeks = [ev for ev in tr if ev[1] == SEEK]
        assert seeks
        for _, _, _, frm, arg, to in seeks:
            assert frm is None or arg > frm
            assert to is None or to >= arg

    def test_trace_replayable_per_iterator(self):
        rng = random.Random(34)
        eng = Engine(
            "F(x,y) <- G(x,z), H(y,z), I(x,y,z). @order(x,y,z)",
            {"G": (2, False), "H": (2, False), "I": (3, False)},
        )
        eng.random_fill(rng, per_relation=50, dom=6)
        tr = []
        list(evaluate(eng.plan, eng.versions(), trace=tr))
        by_iter = {}
        for ev in tr:
            by_iter.setdefault(ev[0], []).append(ev)
        preds = {ap.name: ap.atom.pred for ap in eng.plan.branches[0].atoms}
        for name, events in by_iter.items():
            cursor = eng.relations[preds[name]].current.cursor()
            for _, op, depth, frm, arg, to in events:
                if op == OPEN:
                    landed = cursor.open()
                elif op == UP:
                    cursor.up()
                    continue
                elif op == NEXT:
                    landed = cursor.next()
                else:
                    landed = cursor.seek_lub(arg)
                assert landed == to, (name, op, depth, frm, arg, to, landed)
                assert landed == (None if cursor.at_end() else cursor.key())

    def test_unbound_atom_rejected(self):
        eng = Engine("C(x) <- A(x), B(x).", {"A": (1, False), "B": (1, False)})
        with pytest.raises(UserError):
            list(evaluate(eng.plan, {"A": eng.relations["A"].current}))

    def test_ops_counter_counts_iterator_operations(self):
        eng = Engine("C(x) <- A(x), B(x).", {"A": (1, False), "B": (1, False)})
        eng.load("A", [(1,), (2,)])
        eng.load("B", [(2,), (3,)])
        ctr = Counter()
        tr = []
        list(evaluate(eng.plan, eng.versions(), counter=ctr, trace=tr))
        assert ctr.ops == len(tr)  # every traced event was counted


def heap_merged(plan, versions, trace, counter):
    """The branches' union as heapq.merge and a per-item dedupe give it."""
    gens = [
        lftj._branch_gen(plan, bi, bp, versions, None, None, trace, counter)
        for bi, bp in enumerate(plan.branches)
    ]
    last = None
    for item in heapq.merge(*gens):
        if item != last:
            yield item
            last = item


class TestBranchUnion:
    """The fold of two-way unions steps the branches as heapq.merge does."""

    @pytest.mark.parametrize(
        "rule,spec,empty",
        [
            (
                "S(x) <- (A2(x,y) ; B2(x,y) ; C2(x,y)). @order(x,y)",
                {n: (2, False) for n in ("A2", "B2", "C2")},
                "B2",
            ),
            (
                "Q(x,v) <- (F[x]=v ; G[x]=v ; H[x]=v ; K[x]=v).",
                {n: (1, True) for n in "FGHK"},
                "K",
            ),
            (
                "S(x) <- (F2[x,y]=v ; G2[x,y]=v ; H2[x,y]=v ; K2[x,y]=v)."
                " @order(x,y)",
                {n: (2, True) for n in ("F2", "G2", "H2", "K2")},
                "F2",
            ),
        ],
    )
    def test_matches_heap_merge(self, rule, spec, empty):
        rng = random.Random(f"{rule}-False")  # the seed string these cases have always used
        arity = next(iter(spec.values()))[0]  # every relation's

        def draw():
            return tuple(rng.randrange(8) for _ in range(arity))

        for trial in range(15):
            eng = Engine(rule, spec, leaf_capacity=4)
            # keys most branches hold: equal items, or equal keys whose
            # function values differ
            shared = {draw(): rng.randrange(3) for _ in range(rng.randrange(25))}
            for name, (_, func) in spec.items():
                if name == empty:
                    continue
                rows = {k: v for k, v in shared.items() if rng.random() < 0.6}
                for k in rows:
                    if rng.random() < 0.5:
                        rows[k] = rng.randrange(3)
                for _ in range(rng.randrange(10)):
                    rows[draw()] = rng.randrange(3)
                rows = sorted(rows.items())
                eng.load(name, [k + (v,) if func else k for k, v in rows])
            want_counter, want_trace = Counter(), []
            want = list(heap_merged(eng.plan, eng.versions(), want_trace, want_counter))
            counter, trace = Counter(), []
            got = list(evaluate(eng.plan, eng.versions(), trace=trace, counter=counter))
            assert got == want == sorted(set(want)), trial
            assert trace == want_trace, trial
            assert counter.ops == want_counter.ops, trial


class TestTraceDistance:
    def test_identical_traces(self):
        t = [("A", OPEN, 1, None, None, 3)]
        assert trace_distance(t, t) == 0

    def test_toy_table_diff_counts_line_edits(self):
        t1 = ["0|0 0 0", "1|10 0 10", "2|0 1 1", "3|30 1 31", "4|0 0 0", "5|0 0 0"]
        t2 = ["0|0 0 0", "1|10 0 10", "2|20 1 21", "3|30 1 31", "4|0 0 0", "5|50 0 50"]
        assert seq_edit_distance(t1, t2) == 4  # two deletions plus two insertions

    def test_random_pairs_match_quadratic_dp(self):
        rng = random.Random(38)

        def dp(a, b):
            n, m = len(a), len(b)
            row = list(range(m + 1))
            for i in range(1, n + 1):
                prev = row[0]
                row[0] = i
                for j in range(1, m + 1):
                    cur = row[j]
                    if a[i - 1] == b[j - 1]:
                        row[j] = prev
                    else:
                        row[j] = 1 + min(row[j], row[j - 1])
                    prev = cur
            return row[m]

        for _ in range(200):
            a = [rng.randrange(6) for _ in range(rng.randrange(0, 30))]
            b = [rng.randrange(6) for _ in range(rng.randrange(0, 30))]
            assert seq_edit_distance(a, b) == dp(a, b)

    def test_trace_distance_groups_by_iterator(self):
        t1 = [("A", NEXT, 1, 1, None, 2), ("B", NEXT, 1, 5, None, 6)]
        t2 = [("A", NEXT, 1, 1, None, 3), ("B", NEXT, 1, 5, None, 6)]
        assert trace_distance(t1, t2) == 2  # one substitution = delete + insert

    def test_render_event_format(self):
        ev = ("A", SEEK, 1, 4, 6, 6)
        assert render_event(ev) == "iter=A op=SEEK depth=1 from=4 arg=6 to=6"
        ev_end = ("A", NEXT, 1, 6, None, None)
        assert render_event(ev_end) == "iter=A op=NEXT depth=1 from=6 arg=- to=END"


class TestSensitivityCompleteness:
    @pytest.mark.parametrize(
        "rule,spec",
        [
            ("C(x) <- A(x), B(x). @force_sens", {"A": (1, False), "B": (1, False)}),
            (
                "F(x,y) <- G(x,z), H(y,z), I(x,y,z). @order(x,y,z) @force_sens",
                {"G": (2, False), "H": (2, False), "I": (3, False)},
            ),
        ],
    )
    def test_single_tuple_perturbations_are_covered(self, rule, spec):
        # for every effective single-tuple change, some recorded interval
        # (with matching argument prefix) contains the changed key at the
        # depth of the change
        rng = random.Random(39)
        eng = Engine(rule, spec)
        eng.random_fill(rng, per_relation=25, dom=5)
        bootstrap(eng.inst, eng.versions())
        base = naive_assignments(eng.plan, eng.versions())
        bp = eng.plan.branches[0]
        for pos, ap in enumerate(bp.atoms):
            rel = eng.relations[ap.atom.pred]
            existing = {k for k, _ in rel.current.records()}
            candidates = [
                t
                for t in _all_tuples(rel.arity, 5)
            ]
            for t in candidates:
                perturbed = dict(eng.versions())
                txn = rel.begin()
                if t in existing:
                    txn.erase(t)
                else:
                    txn.insert(t)
                perturbed[ap.atom.pred] = txn.commit()
                rel.current = txn.base  # roll the relation back after the probe
                changed = naive_assignments(eng.plan, perturbed) != base
                if not changed:
                    continue
                covered = False
                for lvl in range(1, rel.arity + 1):
                    idx = eng.inst.indices.get((0, pos, lvl))
                    if idx is None:
                        continue
                    alpha, key = t[: lvl - 1], t[lvl - 1]
                    if idx.stab(alpha, key):
                        covered = True
                        break
                assert covered, (ap.atom.pred, t)


def _all_tuples(arity, dom):
    if arity == 1:
        return [(k,) for k in range(dom)]
    return [t + (k,) for t in _all_tuples(arity - 1, dom) for k in range(dom)]


DIGEST_CASES = [
    ("T(x,y,z) <- E(x,y), E(y,z), E(x,z).", {"E": (2, False)}, 12, None),
    ("P(x,z) <- E(x,y), E(y,z).", {"E": (2, False)}, 12, None),
    ("M[x]=m <- agg<< m=max(v) >> E2[x,y]=v.", {"E2": (2, True)}, 12, None),
    ("U(x) <- (A(x) ; B(x)).", {"A": (1, False), "B": (1, False)}, 40, None),
    (
        "U(x) <- (A(x) ; B(x)). @force_sens",
        {"A": (1, False), "B": (1, False)},
        40,
        None,
    ),
]

# sha256 of everything evaluator_digest() feeds it; a change to the
# evaluator that moves one trace event, op count or interval moves this
EVALUATOR_DIGEST = "ca63aa5e5cc6b0462d46319b4b630d42b6f822cc9d64db85f1f0ae84dda0bf16"


def evaluator_digest(cases=DIGEST_CASES, seed=900):
    """Hash the evaluator's outputs over bootstrap and five maintain rounds.

    Per case and round: the report, the new-side trace, every
    sensitivity index's sorted records, the oracle, the head records,
    and a plain evaluate's assignments, trace and op count.  A case is
    (rule, relation spec, key domain, function value drawer or None).
    """
    h = hashlib.sha256()

    def put(*items):
        h.update(repr(items).encode())
        h.update(b"\n")

    for i, (rule, spec, dom, value_of) in enumerate(cases):
        rng = random.Random(seed + i)
        eng = Engine(rule, spec, leaf_capacity=4)
        eng.random_fill(rng, per_relation=60, dom=dom, value_of=value_of)
        for rnd in range(6):
            if rnd == 0:
                report = bootstrap(eng.inst, eng.versions())
            else:
                eng.random_edits(rng, rng.randrange(2, 9), dom, value_of)
                report = maintain(eng.inst, eng.versions(), with_trace=True)
            put(rule, rnd, report.to_text(), eng.inst.last_trace)
            for key in sorted(eng.inst.indices):
                put(key, sorted(eng.inst.indices[key].enumerate()))
            if eng.inst.last_oracle is not None:
                put(list(eng.inst.last_oracle.render_lines()))
            for head in eng.inst.heads:
                put(list(head.relation.current.records()))
            ctr, tr = Counter(), []
            out = list(evaluate(eng.plan, eng.versions(), counter=ctr, trace=tr))
            put(out, tr, ctr.ops)
    return h.hexdigest()


class TestEvaluatorDigest:
    def test_outputs_match_pinned_digest(self):
        assert evaluator_digest() == EVALUATOR_DIGEST


def _small_value(rng):
    """Function values from a small domain, so value equalities often hold."""
    return rng.randrange(4)


# rules whose levels run every kind of step: a value bind with a check
# of the same value, a filter and a primitive bind at one level (V); a
# bind and its check on a two-participant level (R); a primitive check
# (Q); a bind in each disjunction branch (D); and levels whose only
# participant is one atom, with sensitivity slots (S, L)
STEP_DIGEST_CASES = [
    (
        "V(x,y,r) <- A(x,y), F[y]=a, G[y]=a, add[a,a]=r, lt(x,y).",
        {"A": (2, False), "F": (1, True), "G": (1, True)},
        12,
        _small_value,
    ),
    ("R(x) <- F[x]=a, G[x]=a.", {"F": (1, True), "G": (1, True)}, 30, _small_value),
    (
        "Q(x,y) <- E2[x,y]=a, F[x]=b, add[b,b]=a. @force_sens",
        {"E2": (2, True), "F": (1, True)},
        12,
        _small_value,
    ),
    ("D(x,a) <- (F[x]=a ; G[x]=a).", {"F": (1, True), "G": (1, True)}, 30, _small_value),
    (
        "S[x]=s <- agg<< s=sum(v) >> E2[x,y]=v. @force_sens",
        {"E2": (2, True)},
        12,
        None,
    ),
    ("L(x,y) <- A(x,y), lt(x,y). @force_sens", {"A": (2, False)}, 12, None),
]

# evaluator_digest over STEP_DIGEST_CASES: pins what each level's value
# binds, checks, filters and primitives let through, and what a level
# with one participant moves, traces and emits
STEP_DIGEST = "93daa5e21f022fa3ba87b81070c6f542926acd23df965a330116081f9d8c03f3"


class TestStepDigest:
    def test_outputs_match_pinned_digest(self):
        assert evaluator_digest(STEP_DIGEST_CASES, seed=950) == STEP_DIGEST
