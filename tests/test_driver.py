import gc
import random
import weakref

import pytest

from conftest import Engine, expected_head, head_snapshot, naive_assignments
from leapjoin.driver import bootstrap, build_oracle, maintain
from leapjoin.errors import IntegrityError, UserError
from leapjoin.heads import ScanBackedAggregate
from leapjoin.keys import KEY_MAX, KEY_MIN


def unary_example():
    eng = Engine(
        "C(x) <- A(x), B(x). @force_sens", {"A": (1, False), "B": (1, False)}
    )
    eng.load("A", [(0,), (2,), (4,), (5,), (6,)])
    eng.load("B", [(1,), (2,), (6,), (7,)])
    return eng


def apply_unary_deltas(eng):
    txn = eng.relations["A"].begin()
    txn.erase((5,))
    txn.insert((8,))
    txn.commit()
    txn = eng.relations["B"].begin()
    txn.erase((2,))
    txn.insert((3,))
    txn.commit()


def sens_set(eng, pred):
    pos = {ap.name: i for i, ap in enumerate(eng.plan.branches[0].atoms)}[pred]
    return [(r.lo, r.hi) for r in eng.inst.indices[(0, pos, 1)].enumerate()]


class TestBootstrap:
    def test_unary_head_and_sensitivities(self):
        eng = unary_example()
        report = bootstrap(eng.inst, eng.versions())
        assert report.head_inserts == 2
        assert sorted(k for k, _ in eng.head_rels["C"].current.records()) == [
            (2,),
            (6,),
        ]
        assert sens_set(eng, "A") == [
            (KEY_MIN, 0), (1, 2), (2, 4), (6, 6), (6, KEY_MAX)
        ]
        assert sens_set(eng, "B") == [(KEY_MIN, 1), (2, 2), (4, 6)]

    def test_all_empty_relations(self):
        eng = Engine(
            "C(x) <- A(x), B(x). @force_sens", {"A": (1, False), "B": (1, False)}
        )
        report = bootstrap(eng.inst, eng.versions())
        assert report.head_inserts == 0
        assert sens_set(eng, "A") == [(KEY_MIN, KEY_MAX)]
        assert sens_set(eng, "B") == [(KEY_MIN, KEY_MAX)]

    def test_random_bootstrap_matches_oracle(self):
        rng = random.Random(51)
        eng = Engine(
            "S(x,y) <- A2(x,y), B2(y,z).", {"A2": (2, False), "B2": (2, False)}
        )
        eng.random_fill(rng, per_relation=60, dom=7)
        bootstrap(eng.inst, eng.versions())
        want = expected_head(
            eng.plan, 0, naive_assignments(eng.plan, eng.versions())
        )
        assert head_snapshot(eng.inst.heads[0]) == want

    @pytest.mark.parametrize(
        "rule,spec",
        [
            ("S(x,y) <- A2(x,y), B2(y,z).", {"A2": (2, False), "B2": (2, False)}),
            ("M[x]=m <- agg<< m=max(v) >> E2[x,y]=v.", {"E2": (2, True)}),
        ],
    )
    def test_second_eval_starts_from_an_empty_version(self, rule, spec):
        eng = Engine(rule, spec)
        eng.random_fill(random.Random(52), per_relation=60, dom=7)
        bootstrap(eng.inst, eng.versions())
        rel = eng.inst.heads[0].relation
        first = list(rel.current.records())
        assert first
        txn = rel.begin()  # a stray record the evaluation does not derive
        txn.insert((99,) * rel.arity, 0 if rel.is_function else None)
        txn.commit()
        n = len(rel.versions)
        bootstrap(eng.inst, eng.versions())
        # one version, staged on a cleared workspace: the stray is gone
        (refilled,) = rel.versions[n:]
        assert refilled.count == len(first)
        assert list(refilled.records()) == first


class TestBuildOracle:
    def test_worked_example_contributions(self):
        eng = unary_example()
        bootstrap(eng.inst, eng.versions())
        old = dict(eng.inst.bound_versions)
        apply_unary_deltas(eng)
        # per-change contributions, probed without consuming
        pos = {ap.name: i for i, ap in enumerate(eng.plan.branches[0].atoms)}
        a_idx = eng.inst.indices[(0, pos["A"], 1)]
        b_idx = eng.inst.indices[(0, pos["B"], 1)]
        assert a_idx.stab((), 5) == []
        assert [(r.lo, r.hi) for r in a_idx.stab((), 8)] == [(6, KEY_MAX)]
        assert [(r.lo, r.hi) for r in b_idx.stab((), 2)] == [(2, 2)]
        assert b_idx.stab((), 3) == []
        oracle, consumed = build_oracle(eng.inst, old, eng.versions())
        assert consumed == 2
        assert oracle.entry(1, ()).merged == [(2, 2), (6, KEY_MAX)]

    def test_no_deltas_empty_oracle(self):
        eng = unary_example()
        bootstrap(eng.inst, eng.versions())
        oracle, consumed = build_oracle(
            eng.inst, eng.inst.bound_versions, eng.versions()
        )
        assert oracle.is_empty() and consumed == 0


class TestMaintain:
    def test_worked_example_end_to_end(self):
        eng = unary_example()
        bootstrap(eng.inst, eng.versions())
        apply_unary_deltas(eng)
        report = maintain(eng.inst, eng.versions())
        assert report.head_erases == 1 and report.head_inserts == 0
        assert sorted(k for k, _ in eng.head_rels["C"].current.records()) == [(6,)]
        assert sens_set(eng, "A") == [
            (KEY_MIN, 0), (1, 2), (2, 2), (2, 4), (6, 6), (6, 8)
        ]
        assert sens_set(eng, "B") == [
            (KEY_MIN, 1), (2, 3), (4, 6), (6, 6), (8, KEY_MAX)
        ]

    def test_maintain_before_eval_rejected(self):
        eng = unary_example()
        with pytest.raises(UserError, match="eval"):
            maintain(eng.inst, eng.versions())

    def test_no_pending_deltas_zeroed_report(self):
        eng = unary_example()
        bootstrap(eng.inst, eng.versions())
        report = maintain(eng.inst, eng.versions())
        assert report.to_text() == (
            "ops_old=0\nops_new=0\noracle_intervals=0\nsens_consumed=0\n"
            "sens_added=0\nhead_inserts=0\nhead_erases=0"
        )

    def test_index_hygiene_repeat_maintain_is_empty(self):
        eng = unary_example()
        bootstrap(eng.inst, eng.versions())
        apply_unary_deltas(eng)
        maintain(eng.inst, eng.versions())
        report = maintain(eng.inst, eng.versions())
        assert report.oracle_intervals == 0
        assert report.sens_consumed == 0

    def test_prefix_point_contributions_without_indices(self):
        # the default unary plan has no indices at all; maintenance relies
        # on surgery keys becoming point intervals
        eng = Engine("C(x) <- A(x), B(x).", {"A": (1, False), "B": (1, False)})
        eng.load("A", [(0,), (2,), (4,), (5,), (6,)])
        eng.load("B", [(1,), (2,), (6,), (7,)])
        assert eng.inst.fresh_indices() == {}
        bootstrap(eng.inst, eng.versions())
        apply_unary_deltas(eng)
        report = maintain(eng.inst, eng.versions())
        assert sorted(k for k, _ in eng.head_rels["C"].current.records()) == [(6,)]
        # changed keys 2,3,5,8 as points; the adjacent pair merges
        assert eng.inst.last_oracle.entry(1, ()).merged == [(2, 3), (5, 5), (8, 8)]
        assert report.oracle_intervals == 3


SHAPES = [
    ("C(x) <- A(x), B(x).", {"A": (1, False), "B": (1, False)}, None),
    ("C(x) <- A(x), B(x). @force_sens", {"A": (1, False), "B": (1, False)}, None),
    (
        "F(x,y) <- G(x,z), H(y,z), I(x,y,z). @order(x,y,z)",
        {"G": (2, False), "H": (2, False), "I": (3, False)},
        None,
    ),
    (
        "F(x,y) <- G(x,z), H(y,z), I(x,y,z), R(z). @order(x,y,z)",
        {"G": (2, False), "H": (2, False), "I": (3, False), "R": (1, False)},
        None,
    ),
    ("S(x,y) <- A2(x,y), B2(y,z).", {"A2": (2, False), "B2": (2, False)}, None),
    ("D[x]=c <- agg<< c=count() >> E(x,y).", {"E": (2, False)}, None),
    ("T[x]=s <- agg<< s=sum(v) >> E2[x,y]=v.", {"E2": (2, True)}, None),
    ("M[x]=m <- agg<< m=max(v) >> E2[x,y]=v.", {"E2": (2, True)}, None),
    ("N[x]=m <- agg<< m=min(v) >> E2[x,y]=v.", {"E2": (2, True)}, None),
    (
        "FT[x]=t <- agg<< t=total(v) >> EF[x,y]=v.",
        {"EF": (2, True)},
        lambda rng: rng.choice([0.125, -2.5, 3.75, 1e8, -0.001, 7.0]) * rng.randrange(1, 9),
    ),
    ("P(x,z,y) <- E(x,z), E(z,y). @order(x,z,y)", {"E": (2, False)}, None),
    ("T(x,y,z), S(x) <- A2(x,y), B2(y,z).", {"A2": (2, False), "B2": (2, False)}, None),
    ("L(x,y) <- A2(x,y), lt(x,y).", {"A2": (2, False)}, None),
    (
        "V(x,y,a) <- A2(x,y), F1[y]=a. @order(x,y)",
        {"A2": (2, False), "F1": (1, True)},
        None,
    ),
    # value equality join; the shallow producer binds regardless of body order
    (
        "W(x,y) <- F1[x]=a, E2[x,y]=a. @order(x,y)",
        {"F1": (1, True), "E2": (2, True)},
        None,
    ),
    (
        "W(x,y) <- E2[x,y]=a, F1[x]=a. @order(x,y)",
        {"F1": (1, True), "E2": (2, True)},
        None,
    ),
]


class TestRandomizedRounds:
    @pytest.mark.parametrize("rule,spec,value_of", SHAPES, ids=[s[0] for s in SHAPES])
    def test_maintained_heads_match_oracle_every_round(self, rule, spec, value_of):
        rng = random.Random(hash(rule) & 0xFFFF)
        eng = Engine(rule, spec)
        eng.random_fill(rng, per_relation=40, dom=10, value_of=value_of)
        bootstrap(eng.inst, eng.versions())
        for _ in range(25):
            eng.random_edits(rng, rng.randrange(1, 5), dom=10, value_of=value_of)
            maintain(eng.inst, eng.versions())
            want = [
                expected_head(eng.plan, i, naive_assignments(eng.plan, eng.versions()))
                for i in range(len(eng.plan.heads))
            ]
            got = [head_snapshot(h) for h in eng.inst.heads]
            assert got == want


class TestOracleSoundness:
    @pytest.mark.parametrize(
        "rule,spec",
        [(s[0], s[1]) for s in SHAPES[:5]],
        ids=[s[0] for s in SHAPES[:5]],
    )
    def test_no_oracle_maintain_matches_oracled(self, rule, spec):
        rng = random.Random(hash(rule) & 0xFFF)
        with_oracle = Engine(rule, spec)
        with_oracle.random_fill(rng, per_relation=40, dom=9)
        without = Engine(rule, spec)
        for name, rel in with_oracle.relations.items():
            rows = [
                keys if not rel.is_function else keys + (val,)
                for keys, val in rel.current.records()
            ]
            without.load(name, rows)
        bootstrap(with_oracle.inst, with_oracle.versions())
        bootstrap(without.inst, without.versions())
        for _ in range(20):
            seed = rng.randrange(1 << 30)
            random.Random(seed)  # keep both engines on one edit stream
            edit_rng1, edit_rng2 = random.Random(seed), random.Random(seed)
            with_oracle.random_edits(edit_rng1, 3, dom=9)
            without.random_edits(edit_rng2, 3, dom=9)
            maintain(with_oracle.inst, with_oracle.versions(), use_oracle=True)
            maintain(without.inst, without.versions(), use_oracle=False)
            assert [head_snapshot(h) for h in with_oracle.inst.heads] == [
                head_snapshot(h) for h in without.inst.heads
            ]


class TestDisjunctionMaintenance:
    def test_union_rule_rounds(self):
        rng = random.Random(53)
        eng = Engine(
            "U(x) <- R(x), (A(x) ; B(x)).",
            {"R": (1, False), "A": (1, False), "B": (1, False)},
        )
        eng.random_fill(rng, per_relation=25, dom=12)
        bootstrap(eng.inst, eng.versions())
        for _ in range(25):
            eng.random_edits(rng, rng.randrange(1, 4), dom=12)
            maintain(eng.inst, eng.versions())
            want = expected_head(
                eng.plan, 0, naive_assignments(eng.plan, eng.versions())
            )
            assert head_snapshot(eng.inst.heads[0]) == want


def head_records(inst):
    return [list(h.relation.current.records()) for h in inst.heads]


def edit(eng, name, keys, value=None, erase=False):
    txn = eng.relations[name].begin()
    if erase:
        txn.erase(keys)
    else:
        txn.insert(keys, value)
    txn.commit()


class TestFailedRound:
    FD_ERROR = r"Q: functional dependency violated at \(1,\): 5 vs 6"

    def test_no_head_commits_when_one_head_raises(self):
        """A round in which one head raises commits no head at all.

        P takes (1,1) directly while Q's functional dependency fails on
        the same assignment; P's staged write is aborted with Q's.
        """
        eng = Engine("P(x,y), Q[x]=v <- F[x,y]=v.", {"F": (2, True)})
        eng.load("F", [(1, 0, 5), (2, 0, 7)])
        bootstrap(eng.inst, eng.versions())
        bound = dict(eng.inst.bound_versions)
        before = head_records(eng.inst)
        edit(eng, "F", (1, 1), 6)
        with pytest.raises(IntegrityError, match=self.FD_ERROR):
            maintain(eng.inst, eng.versions())
        assert head_records(eng.inst) == before
        assert eng.inst.bound_versions == bound
        edit(eng, "F", (1, 1), erase=True)
        maintain(eng.inst, eng.versions())
        assert head_records(eng.inst) == head_records(eng.fresh_reference())
        edit(eng, "F", (1, 1), 6)
        with pytest.raises(IntegrityError, match=self.FD_ERROR):
            maintain(eng.inst, eng.versions())

    def test_failed_bootstrap_leaves_the_instance_as_it_was(self):
        """A re-bootstrap that raises commits no head and swaps no index.

        Before, it committed empty head versions and fresh indices first,
        so after the input was fixed the next round read empty heads.
        """
        eng = Engine("P(x,y), Q[x]=v <- F[x,y]=v.", {"F": (2, True)})
        eng.load("F", [(1, 0, 5), (2, 0, 7)])
        bootstrap(eng.inst, eng.versions())
        bound = dict(eng.inst.bound_versions)
        before = head_records(eng.inst)
        edit(eng, "F", (1, 1), 6)
        with pytest.raises(IntegrityError, match=self.FD_ERROR):
            bootstrap(eng.inst, eng.versions())
        assert head_records(eng.inst) == before
        assert eng.inst.bound_versions == bound
        edit(eng, "F", (1, 1), erase=True)
        maintain(eng.inst, eng.versions())
        want = head_records(eng.fresh_reference())
        assert [len(h) for h in want] == [2, 2]
        assert head_records(eng.inst) == want

    def test_failed_bootstrap_keeps_the_indices(self):
        eng = Engine("P(x,y), Q[x]=v <- F[x,y]=v, G(y).", {"F": (2, True), "G": (1, False)})
        eng.load("F", [(1, 0, 5), (2, 0, 7)])
        eng.load("G", [(0,), (1,)])
        bootstrap(eng.inst, eng.versions())
        indices = eng.inst.indices
        contents = {k: list(ix.enumerate()) for k, ix in indices.items()}
        assert any(contents.values())
        edit(eng, "F", (1, 1), 6)
        with pytest.raises(IntegrityError, match=self.FD_ERROR):
            bootstrap(eng.inst, eng.versions())
        assert eng.inst.indices is indices
        assert {k: list(ix.enumerate()) for k, ix in indices.items()} == contents
        edit(eng, "F", (1, 1), erase=True)
        maintain(eng.inst, eng.versions())
        assert head_records(eng.inst) == head_records(eng.fresh_reference())

    def test_failed_round_leaves_the_indices_as_they_were(self):
        """A raising round's consumed stab hits and new-side merge are undone.

        G's index held [2,+inf] under context (1,); the round consumed it
        and merged [1,1] and [2,2] before Q raised, and undoing both edits
        brought no delta that could restore it.
        """
        eng = Engine("P(x,y), Q[x]=v <- F[x,y]=v, G(y).", {"F": (2, True), "G": (1, False)})
        eng.load("F", [(1, 0, 5), (2, 0, 7), (1, 2, 5)])
        eng.load("G", [(0,), (1,)])
        bootstrap(eng.inst, eng.versions())
        contents = {k: list(ix.enumerate()) for k, ix in eng.inst.indices.items()}
        edit(eng, "G", (2,))
        edit(eng, "F", (1, 1), 6)
        with pytest.raises(IntegrityError, match=self.FD_ERROR):
            maintain(eng.inst, eng.versions())
        assert {k: list(ix.enumerate()) for k, ix in eng.inst.indices.items()} == contents
        edit(eng, "G", (2,), erase=True)
        edit(eng, "F", (1, 1), erase=True)
        maintain(eng.inst, eng.versions())
        ref = eng.fresh_reference()
        assert head_records(eng.inst) == head_records(ref)
        assert {k: list(ix.enumerate()) for k, ix in eng.inst.indices.items()} == {
            k: list(ix.enumerate()) for k, ix in ref.indices.items()
        }

    def test_head_that_raises_after_its_min_max_tree_changed(self, monkeypatch):
        eng = Engine("M[x]=m <- agg<< m=max(v) >> E2[x,y]=v.", {"E2": (2, True)})
        eng.random_fill(random.Random(20), per_relation=60, dom=8)
        bootstrap(eng.inst, eng.versions())
        tree = eng.inst.heads[-1].agg.tree
        before = list(tree.items())
        eng.random_edits(random.Random(21), 6, dom=8)

        def fail(agg, txn, touched, prefix_len):
            assert list(agg.tree.items()) != before  # the tree did change
            raise RuntimeError("injected")

        with monkeypatch.context() as patch:
            patch.setattr(ScanBackedAggregate, "refresh_head", fail)
            with pytest.raises(RuntimeError, match="injected"):
                maintain(eng.inst, eng.versions())
        assert list(tree.items()) == before
        tree.audit()
        maintain(eng.inst, eng.versions())
        assert head_records(eng.inst) == head_records(eng.fresh_reference())


class TestGarbage:
    def test_bootstrap_and_rounds_leave_no_cyclic_garbage(self):
        rng = random.Random(19)
        eng = Engine("T(x,y,z) <- E(x,y), E(y,z), E(x,z).", {"E": (2, False)})
        eng.random_fill(rng, per_relation=200, dom=30)
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            bootstrap(eng.inst, eng.versions())
            for _ in range(10):
                eng.random_edits(rng, rng.randrange(1, 4), dom=30)
                maintain(eng.inst, eng.versions())
            gc.collect()
            # reference counting freed it all: index builds and stabs
            # leave no closure cycle behind
            assert [type(o).__name__ for o in gc.garbage] == []
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()

    def test_dropped_engine_is_freed_by_reference_counting(self):
        eng = Engine("P(x,z) <- E(x,y), E(y,z).", {"E": (2, False)})
        rng = random.Random(22)
        eng.random_fill(rng, per_relation=40, dom=10)
        bootstrap(eng.inst, eng.versions())
        eng.random_edits(rng, 3, dom=10)
        maintain(eng.inst, eng.versions())
        rels = [*eng.relations.values(), *eng.head_rels.values()]
        refs = [weakref.ref(r) for r in rels]
        gc.collect()
        gc.disable()
        try:
            del eng, rels
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()
