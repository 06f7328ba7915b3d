import random

import pytest

from conftest import Engine, naive_assignments
from leapjoin.driver import bootstrap
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
        indices = eng.inst.fresh_indices()
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
        indices = eng.inst.fresh_indices()
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
        indices = eng.inst.fresh_indices()
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
        indices = eng.inst.fresh_indices()
        rec = SensitivityRecorder(indices)
        stream = evaluate(eng.plan, eng.versions(), recorder=rec)
        next(stream)
        stream.close()
        assert rec.added == 0
        assert all(len(ix) == 0 for ix in indices.values())

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
                    cursor.open()
                elif op == UP:
                    cursor.up()
                    continue
                elif op == NEXT:
                    cursor.next()
                else:
                    cursor.seek_lub(arg)
                landed = None if cursor.at_end() else cursor.key()
                assert landed == to, (name, op, depth, frm, arg, to, landed)

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


class TestShortCircuit:
    def make(self, rng, n=80):
        eng = Engine(
            "S(x,y) <- A2(x,y), B2(y,z). @order(x,y,z)",
            {"A2": (2, False), "B2": (2, False)},
        )
        eng.random_fill(rng, per_relation=n, dom=6)
        return eng

    def test_same_head_keys_as_counted(self):
        rng = random.Random(35)
        for _ in range(10):
            eng = self.make(rng)
            full = list(evaluate(eng.plan, eng.versions()))
            sc = list(evaluate(eng.plan, eng.versions(), short_circuit=True))
            assert {k[:2] for k, _ in sc} == {k[:2] for k, _ in full}

    def test_at_most_one_witness_below_head_depth(self):
        rng = random.Random(36)
        eng = self.make(rng)
        sc = list(evaluate(eng.plan, eng.versions(), short_circuit=True))
        prefixes = [k[:2] for k, _ in sc]
        assert len(prefixes) == len(set(prefixes))

    def test_short_circuit_skips_iterator_work(self):
        rng = random.Random(37)
        eng = self.make(rng, n=200)
        c1, c2 = Counter(), Counter()
        list(evaluate(eng.plan, eng.versions(), counter=c1))
        list(evaluate(eng.plan, eng.versions(), counter=c2, short_circuit=True))
        assert c2.ops < c1.ops

    def test_gate_requires_prefix_heads(self):
        eng = Engine(
            "S(y) <- A2(x,y). @order(x,y)", {"A2": (2, False)}
        )
        eng.load("A2", [(1, 2)])
        with pytest.raises(UserError):
            list(evaluate(eng.plan, eng.versions(), short_circuit=True))


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
                rel.versions.pop()  # roll the chain back after the probe
                rel._txn_open = False
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
