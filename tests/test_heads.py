import math
import random
import struct
from fractions import Fraction
from functools import partial
from operator import itemgetter

import pytest

from conftest import Engine, expected_head, head_snapshot, naive_assignments
from leapjoin import scantree
from leapjoin.driver import bootstrap, maintain
from leapjoin.errors import IntegrityError, UserError
from leapjoin.heads import (
    FUNCTION_VALUE,
    GROUPS,
    SegmentedFloat,
    apply_deltas,
    apply_direct,
    apply_group,
    apply_semigroup,
    x_segment,
)
from leapjoin.scantree import ABSENT, LEAF_TARGET, MAX_OP, MIN_OP, ScanTree, wrap64
from leapjoin.store import ERASE, INSERT, Relation, Transaction


SUPPORT, SUM = GROUPS["COUNTED"], GROUPS["GROUP_SUM"]
_target = itemgetter(0)  # a delta's keys; writers take deltas ordered by them


def store(name, arity, func=False):
    return Relation(name, arity, is_function=func)


def records(rel):
    return sorted(rel.current.records())


class TestDirect:
    def test_empty_delta_stream(self):
        rel = store("H", 2)
        txn = rel.begin()
        apply_direct(txn, [])
        v = txn.commit()
        assert v.count == 0

    def test_insert_then_erase_across_rounds(self):
        rel = store("H", 3)
        txn = rel.begin()
        apply_direct(txn, [((1, 2, 3), None, INSERT)])
        txn.commit()
        txn = rel.begin()
        apply_direct(txn, [((1, 2, 3), None, ERASE)])
        txn.commit()
        assert records(rel) == []

    def test_erase_absent_is_integrity_error(self):
        rel = store("H", 1)
        txn = rel.begin()
        with pytest.raises(IntegrityError):
            apply_direct(txn, [((5,), None, ERASE)])
        txn.abort()

    def test_double_insert_is_integrity_error(self):
        rel = store("H", 1)
        txn = rel.begin()
        apply_direct(txn, [((5,), None, INSERT)])
        txn.commit()
        txn = rel.begin()
        with pytest.raises(IntegrityError):
            apply_direct(txn, [((5,), None, INSERT)])
        txn.abort()


class TestCounted:
    def test_two_witnesses_erase_one_keeps_record(self):
        rel = store("S", 2, func=True)
        txn = rel.begin()
        apply_group(txn, [((1, 2), None, INSERT), ((1, 2), None, INSERT)], SUPPORT)
        txn.commit()
        assert records(rel) == [((1, 2), 2)]
        txn = rel.begin()
        apply_group(txn, [((1, 2), None, ERASE)], SUPPORT)
        txn.commit()
        assert records(rel) == [((1, 2), 1)]

    def test_last_witness_removes_record(self):
        rel = store("S", 1, func=True)
        txn = rel.begin()
        apply_group(txn, [((1,), None, INSERT)], SUPPORT)
        txn.commit()
        txn = rel.begin()
        apply_group(txn, [((1,), None, ERASE)], SUPPORT)
        txn.commit()
        assert records(rel) == []

    def test_function_value_change_erase_first(self):
        rel = store("F", 1, func=True)
        txn = rel.begin()
        apply_group(txn, [((7,), 10, INSERT)], FUNCTION_VALUE)
        txn.commit()
        # the routed deltas for a changed value: erase old, insert new
        txn = rel.begin()
        apply_group(txn, [((7,), 10, ERASE), ((7,), 20, INSERT)], FUNCTION_VALUE)
        txn.commit()
        assert records(rel) == [((7,), (20, 1))]

    def test_conflicting_value_while_supported_is_fd_error(self):
        rel = store("F", 1, func=True)
        txn = rel.begin()
        apply_group(txn, [((7,), 10, INSERT)], FUNCTION_VALUE)
        txn.commit()
        txn = rel.begin()
        with pytest.raises(IntegrityError, match="functional"):
            apply_group(txn, [((7,), 11, INSERT)], FUNCTION_VALUE)
        txn.abort()

    def test_underflow_is_integrity_error(self):
        rel = store("S", 1, func=True)
        txn = rel.begin()
        with pytest.raises(IntegrityError):
            apply_group(txn, [((1,), None, ERASE)], SUPPORT)
        txn.abort()

    def test_run_replaces_last_witnesses_of_a_value(self):
        rel = store("F", 1, func=True)
        txn = rel.begin()
        apply_group(txn, [((7,), 10, INSERT), ((7,), 10, INSERT)], FUNCTION_VALUE)
        txn.commit()
        # one run: both witnesses of 10 go, then 20 arrives twice
        txn = rel.begin()
        run = [((7,), 10, ERASE)] * 2 + [((7,), 20, INSERT)] * 2
        apply_group(txn, run, FUNCTION_VALUE)
        txn.commit()
        assert records(rel) == [((7,), (20, 2))]
        # within one run the count reaches zero and the key starts afresh
        txn = rel.begin()
        run = [((8,), 1, INSERT), ((8,), 1, ERASE), ((8,), 2, INSERT)]
        apply_group(txn, run, FUNCTION_VALUE)
        txn.commit()
        assert records(rel) == [((7,), (20, 2)), ((8,), (2, 1))]

    def test_underflow_at_second_delta_of_run(self):
        rel = store("S", 1, func=True)
        txn = rel.begin()
        apply_group(txn, [((1,), None, INSERT)], SUPPORT)
        txn.commit()
        txn = rel.begin()
        with pytest.raises(IntegrityError, match=r"S: support underflow at \(1,\)"):
            apply_group(txn, [((1,), None, ERASE), ((1,), None, ERASE)], SUPPORT)
        txn.abort()
        assert records(rel) == [((1,), 1)]

    def test_fd_violation_mid_run_names_the_first_bad_delta(self):
        rel = store("F", 1, func=True)
        txn = rel.begin()
        run = [((7,), 10, INSERT), ((7,), 10, INSERT), ((7,), 11, INSERT)]
        # a later delta of the run would raise otherwise; the first error wins
        run.append(((7,), 12, ERASE))
        with pytest.raises(
            IntegrityError,
            match=r"F: functional dependency violated at \(7,\): 10 vs 11",
        ):
            apply_group(txn, run, FUNCTION_VALUE)
        txn.abort()


class TestGroupSum:
    def test_insert_insert_erase(self):
        rel = store("T", 1, func=True)
        txn = rel.begin()
        apply_group(
            txn, [((1,), 3, INSERT), ((1,), 5, INSERT), ((1,), 3, ERASE)], SUM
        )
        txn.commit()
        assert records(rel) == [((1,), (5, 1))]

    def test_inverse_pair_removes_record(self):
        rel = store("T", 1, func=True)
        txn = rel.begin()
        apply_group(txn, [((1,), 9, INSERT), ((1,), 9, ERASE)], SUM)
        txn.commit()
        assert records(rel) == []

    def test_outdegree_count_as_sum_of_ones(self):
        rng = random.Random(41)
        edges = {(rng.randrange(5), rng.randrange(30)) for _ in range(60)}
        rel = store("D", 1, func=True)
        txn = rel.begin()
        deltas = [((x,), 1, INSERT) for x, _ in edges]
        apply_group(txn, sorted(deltas, key=_target), SUM)
        txn.commit()
        want = {}
        for x, _ in edges:
            want[(x,)] = want.get((x,), 0) + 1
        assert {k: v[0] for k, v in records(rel)} == want

    def test_order_independence(self):
        rng = random.Random(42)
        deltas = []
        for _ in range(60):
            deltas.append(((rng.randrange(3),), rng.randrange(-50, 50), INSERT))
        for perm_seed in range(5):
            rel = store("T", 1, func=True)
            txn = rel.begin()
            shuffled = deltas[:]
            random.Random(perm_seed).shuffle(shuffled)
            shuffled.sort(key=_target)  # the order within a key still varies
            apply_group(txn, shuffled, SUM)
            txn.commit()
            if perm_seed == 0:
                baseline = records(rel)
            else:
                assert records(rel) == baseline


SALES = [
    (1, 1, 1000.00), (1, 2, 1500.00), (1, 3, 7300.00), (1, 4, 8000.00),
    (1, 5, 15000.00), (2, 6, 2900.00), (2, 7, 3500.00), (2, 8, 1440.00),
    (2, 9, 3300.00), (2, 10, 1245.00), (2, 11, 7024.00), (2, 12, 5510.00),
    (2, 13, 9000.00), (3, 14, 325.00), (3, 15, 4000.00), (3, 16, 5300.00),
]


class TestSemigroup:
    def test_sales_erase_recomputes_group_max(self):
        agg = ScanTree(MAX_OP, LEAF_TARGET, 1)
        head = store("MS", 1, func=True)
        txn = head.begin()
        apply_semigroup(agg, txn, [((r, s), v, INSERT) for r, s, v in SALES])
        txn.commit()
        assert records(head) == [((1,), 15000.0), ((2,), 9000.0), ((3,), 5300.0)]
        txn = head.begin()
        apply_semigroup(agg, txn, [((2, 13), 9000.00, ERASE)])
        txn.commit()
        assert records(head) == [((1,), 15000.0), ((2,), 7024.0), ((3,), 5300.0)]

    def test_insert_into_empty_group(self):
        agg = ScanTree(MAX_OP, LEAF_TARGET, 1)
        head = store("M", 1, func=True)
        txn = head.begin()
        apply_semigroup(agg, txn, [((4, 1), 12.5, INSERT)])
        txn.commit()
        assert records(head) == [((4,), 12.5)]

    def test_group_emptied_removes_head_record(self):
        agg = ScanTree(MAX_OP, LEAF_TARGET, 1)
        head = store("M", 1, func=True)
        txn = head.begin()
        apply_semigroup(agg, txn, [((4, 1), 2, INSERT)])
        txn.commit()
        txn = head.begin()
        apply_semigroup(agg, txn, [((4, 1), 2, ERASE)])
        txn.commit()
        assert records(head) == []

    def test_erase_absent_intermediate_is_integrity_error(self):
        agg = ScanTree(MAX_OP, LEAF_TARGET, 1)
        head = store("M", 1, func=True)
        txn = head.begin()
        with pytest.raises(IntegrityError):
            apply_semigroup(agg, txn, [((4, 1), 2, ERASE)])
        txn.abort()

    def test_shared_intermediate_two_prefix_lengths(self):
        """One intermediate per prefix length, each partitioned by its
        head's group keys, against the same dict reference."""
        rng = random.Random(43)
        aggs = [ScanTree(MAX_OP, LEAF_TARGET, n) for n in (1, 2)]
        coarse = store("A1", 1, func=True)
        fine = store("A2", 2, func=True)
        ref = {}
        for round_ in range(30):
            deltas = []
            for _ in range(rng.randrange(1, 8)):
                k = (rng.randrange(3), rng.randrange(3), rng.randrange(4))
                if k in ref and rng.random() < 0.5:
                    deltas.append((k, ref.pop(k), ERASE))
                elif k not in ref:
                    v = rng.randrange(1000)
                    ref[k] = v
                    deltas.append((k, v, INSERT))
            if not deltas:
                continue
            for agg, head in zip(aggs, (coarse, fine)):
                txn = head.begin()
                apply_semigroup(agg, txn, sorted(deltas, key=_target))
                txn.commit()
                agg.audit()
            by1, by2 = {}, {}
            for (x, y, z), v in ref.items():
                by1[(x,)] = max(by1.get((x,), v), v)
                by2[(x, y)] = max(by2.get((x, y), v), v)
            assert dict(records(coarse)) == by1
            assert dict(records(fine)) == by2

    def test_batches_match_sequential_dict_reference(self):
        rng = random.Random(46)
        grid = [(x, y) for x in range(5) for y in range(8)]
        agg = ScanTree(MAX_OP, LEAF_TARGET, 1)
        ref = {k: rng.randrange(100) for k in grid[::2]}
        apply_deltas(agg, [(k, v, INSERT) for k, v in ref.items()])
        for round_ in range(50):
            # apply moves in order against `live`, so the list is valid
            # when read one delta at a time; its keys come in random order,
            # and a stable sort by key keeps each key's deltas in that order
            live = dict(ref)
            deltas = []
            moves = ["insert-erase", "erase-insert"] + ["any"] * rng.randrange(20)
            rng.shuffle(moves)
            for move in moves:
                absent = [k for k in grid if k not in live]
                # "any" inserts with the absent share, so `live` stays
                # near half the grid
                grow = rng.random() * len(grid) < len(absent)
                if move == "insert-erase" or (move == "any" and grow):
                    k, v = rng.choice(absent), rng.randrange(100)
                    deltas.append((k, v, INSERT))
                    live[k] = v
                    if move == "insert-erase":
                        deltas.append((k, live.pop(k), ERASE))
                else:
                    k = rng.choice(sorted(live))
                    deltas.append((k, live.pop(k), ERASE))
                    if move == "erase-insert":
                        live[k] = rng.randrange(100)
                        deltas.append((k, live[k], INSERT))
            writes = apply_deltas(agg, sorted(deltas, key=_target))
            agg.audit()
            assert dict(agg.records()) == live, f"round {round_}"
            changed = sorted(
                (k, live.get(k, ABSENT))
                for k in ref.keys() | live.keys()
                if ref.get(k, ABSENT) != live.get(k, ABSENT)
            )
            assert writes == changed
            ref = live

    @pytest.mark.parametrize(
        "deltas,message",
        [
            # an insert whose key is pending, or in the tree
            ([((1, 1), 5, INSERT), ((1, 1), 6, INSERT)], "insert of live record"),
            ([((2, 2), 8, INSERT)], "insert of live record"),
            (
                [((2, 2), 9, ERASE), ((2, 2), 8, INSERT), ((2, 2), 7, INSERT)],
                "insert of live record",
            ),
            # an erase whose value differs from the pending or tree one,
            # or whose key is already erased
            ([((1, 1), 5, INSERT), ((1, 1), 6, ERASE)], "erase of absent record"),
            ([((2, 2), 8, ERASE)], "erase of absent record"),
            ([((2, 2), 9, ERASE), ((2, 2), 9, ERASE)], "erase of absent record"),
            (
                [((1, 1), 5, INSERT), ((1, 1), 5, ERASE), ((1, 1), 5, ERASE)],
                "erase of absent record",
            ),
        ],
    )
    def test_batch_errors_from_pending_and_tree(self, deltas, message):
        agg = ScanTree(MAX_OP, LEAF_TARGET, 1)
        apply_deltas(agg, [((2, 2), 9, INSERT)])
        with pytest.raises(IntegrityError, match=f"aggregate {message}"):
            apply_deltas(agg, deltas)
        assert list(agg.records()) == [((2, 2), 9)]

    def test_key_inserted_and_erased_in_one_batch_never_reaches_the_tree(self):
        agg = ScanTree(MAX_OP, LEAF_TARGET, 1)  # an empty tree is bulk-built
        deltas = [((1, 1), 5, INSERT), ((1, 1), 5, ERASE), ((2, 2), 7, INSERT)]
        apply_deltas(agg, deltas)
        assert list(agg.records()) == [((2, 2), 7)]
        agg.audit()

    def test_erase_and_reinsert_of_one_value_changes_nothing(self, monkeypatch):
        agg = ScanTree(MAX_OP, LEAF_TARGET, 1)
        head = store("M", 1, func=True)
        txn = head.begin()
        deltas = [((1, k), k, INSERT) for k in range(40)]
        apply_semigroup(agg, txn, deltas)
        txn.commit()
        root, scan, scans = agg[1,], ScanTree.range_scan, []
        monkeypatch.setattr(
            ScanTree, "range_scan", lambda *args: scans.append(args) or scan(*args)
        )
        txn = head.begin()
        deltas = [((1, 39), 39, ERASE), ((1, 39), 39, INSERT)]
        apply_semigroup(agg, txn, deltas)
        txn.commit()
        assert records(head) == [((1,), 39)]
        assert agg[1,] is root
        assert scans == []

    def test_batch_that_raises_leaves_the_tree_unchanged(self):
        agg = ScanTree(MAX_OP, LEAF_TARGET, 1)
        apply_deltas(agg, [((k // 10, k % 10), k, INSERT) for k in range(100)])
        before = list(agg.records())
        # a valid erase first: the batch is validated before the tree changes
        deltas = [((3, 4), 34, ERASE), ((5, 6), 1, INSERT)]
        with pytest.raises(IntegrityError, match="aggregate insert of live record"):
            apply_deltas(agg, deltas)
        assert list(agg.records()) == before
        agg.audit()

    def test_one_edit_round_work_does_not_grow_with_the_group_count(
        self, monkeypatch
    ):
        """A one-edit round on a max head rebuilds its own group's tree and
        runs no range scan: it builds as many scan-tree nodes over 10,000
        groups as over 100 groups of the same size."""
        built, work = [], []

        def counting(init):
            def counted(node, *args):
                built.append(node)
                init(node, *args)

            return counted

        for groups in (100, 10_000):
            eng = Engine("M[x]=m <- agg<< m=max(v) >> E2[x,y]=v.", {"E2": (2, True)})
            rows = [(x, y, (7 * x + y) % 13) for x in range(groups) for y in range(4)]
            eng.load("E2", rows)
            bootstrap(eng.inst, eng.versions(), with_trace=False)
            txn = eng.relations["E2"].begin()
            txn.insert((50, 9), 99)
            txn.commit()
            del built[:]
            scans = []
            with monkeypatch.context() as patch:
                for node in (scantree._SLeaf, scantree._SNode):
                    patch.setattr(node, "__init__", counting(node.__init__))
                scan = ScanTree.range_scan
                patch.setattr(
                    ScanTree, "range_scan", lambda *a: scans.append(a) or scan(*a)
                )
                maintain(eng.inst, eng.versions())
            work.append((len(built), len(scans)))
            assert eng.head_rels["M"].current.lookup((50,)) == (99,)
        assert work[0] == work[1] and work[0][0] > 0 and work[0][1] == 0, work

    def test_max_bootstrap_builds_the_tree_in_bulk(self, monkeypatch):
        inserts = []
        single = ScanTree.insert

        def counted(tree, key, value=None):
            inserts.append(key)
            return single(tree, key, value)

        monkeypatch.setattr(ScanTree, "insert", counted)
        eng = Engine("M[x]=m <- agg<< m=max(v) >> E2[x,y]=v.", {"E2": (2, True)})
        eng.random_fill(random.Random(47), per_relation=400, dom=30)
        bootstrap(eng.inst, eng.versions())
        assert inserts == []
        agg = eng.inst.heads[0].agg
        agg.audit()
        assert agg.size == eng.relations["E2"].current.count
        want = expected_head(eng.plan, 0, naive_assignments(eng.plan, eng.versions()))
        assert head_snapshot(eng.inst.heads[0]) == want


class TestSegmentedFloat:
    def test_reference_segments_have_every_fourth_bit(self):
        seg = x_segment(0)
        assert seg == sum(1 << i for i in range(0, 52, 4))
        assert x_segment(12) == x_segment(-12) == seg
        assert x_segment(100) == 0

    def test_two_summand_example_stores_two_segments(self):
        acc = SegmentedFloat()
        acc.add(2.0**500)
        acc.add(-1.0)
        assert len(acc.segments) == 2
        assert acc.to_exact() == Fraction(2**500 - 1)
        assert acc.to_float() == (2.0**500, False)

    def test_add_then_subtract_cancels(self):
        acc = SegmentedFloat()
        acc.add(3.141592653589793)
        acc.add(3.141592653589793, sign=-1)
        assert acc.is_zero()
        assert acc.to_float() == (0.0, False)

    def test_non_finite_rejected(self):
        acc = SegmentedFloat()
        with pytest.raises(UserError):
            acc.add(math.inf)

    def test_random_accumulation_matches_rational_oracle(self):
        rng = random.Random(44)
        acc = SegmentedFloat()
        oracle = Fraction(0)
        live = []
        touched_worst = 0
        for _ in range(1000):
            if live and rng.random() < 0.45:
                s = live.pop(rng.randrange(len(live)))
                touched_worst = max(touched_worst, acc.add(s, sign=-1))
                oracle -= Fraction(s)
            else:
                s = math.ldexp(rng.uniform(-1, 1), rng.randint(-400, 400))
                live.append(s)
                touched_worst = max(touched_worst, acc.add(s))
                oracle += Fraction(s)
        assert acc.to_exact() == oracle
        got, overflow = acc.to_float()
        assert not overflow
        assert struct.pack("<d", got) == struct.pack("<d", float(oracle))
        assert touched_worst <= 3

    def test_overflow_reports_signed_infinity(self):
        for sign in (1.0, -1.0):
            acc = SegmentedFloat()
            for _ in range(4):
                acc.add(sign * 1.7e308)
            value, overflow = acc.to_float()
            assert overflow and value == sign * math.inf

    def test_empty_accumulator_is_positive_zero(self):
        value, overflow = SegmentedFloat().to_float()
        assert struct.pack("<d", value) == struct.pack("<d", 0.0)
        assert not overflow


class TestFloatTotalAction:
    def test_interleaved_updates_stay_exact(self):
        rng = random.Random(45)
        rel = store("FT", 1, func=True)
        oracle = {}
        live = {}
        for round_ in range(40):
            deltas = []
            for _ in range(rng.randrange(1, 10)):
                g = (rng.randrange(3),)
                pool = live.setdefault(g, [])
                if pool and rng.random() < 0.45:
                    s = pool.pop(rng.randrange(len(pool)))
                    deltas.append((g, s, ERASE))
                    oracle[g] = (oracle[g][0] - Fraction(s), oracle[g][1] - 1)
                else:
                    s = math.ldexp(rng.uniform(-1, 1), rng.randint(-80, 80))
                    pool.append(s)
                    deltas.append((g, s, INSERT))
                    tot, eta = oracle.get(g, (Fraction(0), 0))
                    oracle[g] = (tot + Fraction(s), eta + 1)
            txn = rel.begin()
            apply_group(txn, sorted(deltas, key=_target), GROUPS["FLOAT_TOTAL"])
            txn.commit()
            got = {}
            for keys, (segs, eta) in rel.current.records():
                got[keys] = (SegmentedFloat(dict(segs)).to_exact(), eta)
            want = {g: v for g, v in oracle.items() if v[1] > 0}
            assert got == want


    def test_run_of_one_key_freezes_once(self, monkeypatch):
        calls = {"frozen": 0, "init": 0}
        frozen, init = SegmentedFloat.frozen, SegmentedFloat.__init__

        def counting_frozen(acc):
            calls["frozen"] += 1
            return frozen(acc)

        def counting_init(acc, segments=None):
            calls["init"] += 1
            init(acc, segments)

        monkeypatch.setattr(SegmentedFloat, "frozen", counting_frozen)
        monkeypatch.setattr(SegmentedFloat, "__init__", counting_init)
        rel = store("FT", 1, func=True)
        k = 12
        summands = [0.1 * (i + 1) for i in range(k)]
        rounds = [
            [((7,), s, INSERT) for s in summands],
            [((7,), s, ERASE) for s in summands[:3]] + [((7,), 2.5, INSERT)],
        ]
        for deltas in rounds:
            calls.update(frozen=0, init=0)
            txn = rel.begin()
            apply_group(txn, deltas, GROUPS["FLOAT_TOTAL"])
            txn.commit()
            assert calls == {"frozen": 1, "init": 1}
        segs, eta = rel.current.lookup((7,))[0]
        assert eta == k - 3 + 1
        want = sum(map(Fraction, summands[3:])) + Fraction(2.5)
        assert SegmentedFloat(segs).to_exact() == want


def exact_float(stored):
    segs, eta = stored
    return SegmentedFloat(segs).to_exact(), eta


# group name -> (group, payload draw, expected record from the live
# payloads of a key, stored record decoded for comparison)
GROUP_CASES = {
    "support": (GROUPS["COUNTED"], lambda rng: None, len, lambda v: v),
    "count": (GROUPS["COUNT"], lambda rng: None, len, lambda v: v),
    "function_value": (
        FUNCTION_VALUE,
        lambda rng: rng.choice([rng.randrange(-3, 4), rng.uniform(-1, 1)]),
        lambda ps: (ps[0], len(ps)),
        lambda v: v,
    ),
    "wrapping_sum": (
        SUM,
        lambda rng: rng.randrange(-(2**63), 2**63),
        lambda ps: (wrap64(sum(ps)), len(ps)),
        lambda v: v,
    ),
    "float_total": (
        GROUPS["FLOAT_TOTAL"],
        lambda rng: math.ldexp(rng.uniform(-1, 1), rng.randint(-60, 60)),
        lambda ps: (sum(map(Fraction, ps)), len(ps)),
        exact_float,
    ),
}


class TestGroupsRandomized:
    @pytest.mark.parametrize("case", sorted(GROUP_CASES))
    def test_random_streams_match_dict_reference(self, case):
        group, draw, expect, decode = GROUP_CASES[case]
        rng = random.Random(f"groups-{case}")
        rel = store("G", 1, func=True)
        live = {}  # key -> live payloads, one per supporting witness
        for round_ in range(60):
            deltas = []
            for k, ps in live.items():
                # erase only what was live before the round, as the
                # sorted stream applies erases before inserts per key
                for p in [p for p in ps if rng.random() < 0.3]:
                    ps.remove(p)
                    deltas.append(((k,), p, ERASE))
            for _ in range(rng.randrange(0, 12)):
                k = rng.randrange(6)
                ps = live.setdefault(k, [])
                # a function head's witnesses all name its current value
                p = ps[0] if ps and group is FUNCTION_VALUE else draw(rng)
                ps.append(p)
                deltas.append(((k,), p, INSERT))
            rng.shuffle(deltas)
            deltas.sort(key=lambda d: (d[0], d[2] != ERASE))
            txn = rel.begin()
            apply_group(txn, deltas, group)
            txn.commit()
            want = {(k,): expect(ps) for k, ps in live.items() if ps}
            got = {k: decode(v) for k, v in rel.current.records()}
            assert got == want, f"round {round_}"


def head_order(deltas):
    """A round's deltas as HeadState.apply hands them on: erases first per key."""
    return sorted(deltas, key=lambda d: (d[0], d[2] != ERASE))


def rejects_round(rel, deltas, apply, message):
    """The round raises message; aborting it leaves the head unchanged."""
    before = records(rel)
    txn = rel.begin()
    with pytest.raises((IntegrityError, UserError), match=message):
        apply(txn, head_order(deltas))
    txn.abort()
    assert records(rel) == before


# group name -> error cases: (bad deltas given the live payloads, message);
# two bad deltas at keys 7 and 8 check that the first in key order raises
GROUP_ERRORS = {
    "support": [
        (lambda live: [((8,), None, ERASE), ((7,), None, ERASE)],
         r"G: support underflow at \(7,\)"),
    ],
    "count": [
        (lambda live: [((7,), None, ERASE)], r"G: support underflow at \(7,\)"),
    ],
    "function_value": [
        (lambda live: [((7,), 1, ERASE)], r"G: support underflow at \(7,\)"),
        (lambda live: [((k,), ps[0] + 1, INSERT) for k, ps in live.items() if ps],
         r"G: functional dependency violated at \(\d,\): "),
        (lambda live: [((k,), ps[0] + 1, ERASE) for k, ps in live.items() if ps],
         r"G: erase of unknown value at \(\d,\)"),
    ],
    "wrapping_sum": [
        (lambda live: [((8,), 1.5, INSERT), ((7,), 2.5, INSERT)],
         r"G: sum\(\) needs integer summands, got 2.5"),
    ],
    "float_total": [
        (lambda live: [((7,), math.inf, INSERT)], r"non-finite summand inf"),
        (lambda live: [((7,), 10**400, INSERT)],
         r"G: summand beyond the double range at \(7,\)"),
        (lambda live: [((7,), 1.0, ERASE)], r"G: support underflow at \(7,\)"),
    ],
}


class TestBatchPath:
    """Each head mechanism against a plain-dict reference.

    Every round goes to the head as one batch in head order.
    """

    @pytest.mark.parametrize("case", sorted(GROUP_CASES))
    def test_group_batches_match_dict_reference(self, case):
        group, draw, expect, decode = GROUP_CASES[case]
        rng = random.Random(f"batch-{case}")
        rel = store("G", 1, func=True)
        live = {}  # key -> live payloads, one per supporting witness
        apply = partial(apply_group, group=group)
        for round_ in range(40):
            deltas = []
            for k, ps in live.items():
                for p in [p for p in ps if rng.random() < 0.3]:
                    ps.remove(p)
                    deltas.append(((k,), p, ERASE))
            for _ in range(rng.randrange(0, 12)):
                k = rng.randrange(6)
                ps = live.setdefault(k, [])
                p = ps[0] if ps and group is FUNCTION_VALUE else draw(rng)
                ps.append(p)
                deltas.append(((k,), p, INSERT))
            txn = rel.begin()
            apply(txn, head_order(deltas))
            txn.commit()
            want = {(k,): expect(ps) for k, ps in live.items() if ps}
            got = {k: decode(v) for k, v in rel.current.records()}
            assert got == want, f"round {round_}"
        for bad, message in GROUP_ERRORS[case]:
            rejects_round(rel, bad(live), apply, message)

    @pytest.mark.parametrize("func", [False, True])
    def test_direct_batches_match_dict_reference(self, func):
        rng = random.Random(f"batch-direct-{func}")
        rel = store("H", 1, func=func)
        draw = (lambda: rng.randrange(4)) if func else (lambda: None)
        live = {}
        for round_ in range(40):
            deltas = []
            for k in rng.sample(range(20), rng.randrange(0, 10)):
                if k in live:
                    deltas.append(((k,), live.pop(k), ERASE))
                    if func and rng.random() < 0.5:  # a changed value
                        live[k] = draw()
                        deltas.append(((k,), live[k], INSERT))
                else:
                    live[k] = draw()
                    deltas.append(((k,), live[k], INSERT))
            txn = rel.begin()
            apply_direct(txn, head_order(deltas))
            txn.commit()
            assert dict(records(rel)) == {(k,): v for k, v in live.items()}
        some = min(live)
        absent = min(set(range(20)) - set(live))
        rejects_round(
            rel,
            [((absent,), draw(), INSERT), ((some,), draw(), INSERT)],
            apply_direct,
            rf"H: direct insert of live record \({some},\)",
        )
        rejects_round(
            rel,
            [((absent,), draw(), ERASE)],
            apply_direct,
            rf"H: direct erase of absent record \({absent},\)",
        )
        if func:
            rejects_round(
                rel,
                [((some,), live[some] + 1, ERASE)],
                apply_direct,
                rf"H: direct erase of absent record \({some},\)",
            )

    @pytest.mark.parametrize("op", [MAX_OP, MIN_OP])
    def test_min_max_refresh_batches_match_dict_reference(self, op):
        rng = random.Random(f"batch-{op.name}")
        agg = ScanTree(op, LEAF_TARGET, 1)
        rel = store("M", 1, func=True)
        pick = max if op is MAX_OP else min
        live = {}
        apply = partial(apply_semigroup, agg)
        for round_ in range(40):
            deltas = []
            for k in rng.sample([(x, y) for x in range(5) for y in range(4)], 6):
                if k in live:
                    deltas.append((k, live.pop(k), ERASE))
                else:
                    live[k] = rng.randrange(100)
                    deltas.append((k, live[k], INSERT))
            txn = rel.begin()
            apply(txn, head_order(deltas))
            txn.commit()
            want = {}
            for (x, _), v in live.items():
                want[(x,)] = pick(want.get((x,), v), v)
            assert dict(records(rel)) == want, f"round {round_}"
        some = min(live)
        rejects_round(
            rel, [(some, 1, INSERT)], apply, r"aggregate insert of live record"
        )

    def test_writers_refuse_a_batch_out_of_key_order(self):
        deltas = [((2,), 1, INSERT), ((1,), 1, INSERT)]
        agg = ScanTree(MAX_OP, LEAF_TARGET, 1)
        for apply, refusal in (
            (apply_direct, "H: direct batch"),
            (partial(apply_group, group=SUM), "H: batch"),
            (partial(apply_semigroup, agg), "aggregate batch"),
        ):
            txn = store("H", 1, func=True).begin()
            message = rf"^{refusal} keys not increasing at \(1,\)"
            with pytest.raises(UserError, match=message):
                apply(txn, deltas)
            txn.abort()
        assert not agg

    def test_bootstrap_makes_no_per_key_transaction_calls(self, monkeypatch):
        calls = []
        eng_direct = Engine("C(x) <- A(x), B(x).", {"A": (1, False), "B": (1, False)})
        eng_counted = Engine("S(x) <- A2(x,y).", {"A2": (2, False)})
        rng = random.Random(48)
        for eng in (eng_direct, eng_counted):
            eng.random_fill(rng, per_relation=200, dom=40)
        for name in ("insert", "erase", "lookup"):
            single = getattr(Transaction, name)

            def counted(txn, *args, _name=name, _single=single, **kwargs):
                calls.append(_name)
                return _single(txn, *args, **kwargs)

            monkeypatch.setattr(Transaction, name, counted)
        for eng in (eng_direct, eng_counted):
            bootstrap(eng.inst, eng.versions())
            assignments = naive_assignments(eng.plan, eng.versions())
            want = expected_head(eng.plan, 0, assignments)
            assert head_snapshot(eng.inst.heads[0]) == want
        assert calls == []


# head kind -> rule over A2(x,y) or F[x,y]=v
APPLY_CASES = {
    "direct": "C(y,x) <- A2(x,y).",
    "direct_function": "C[x,y]=v <- F[x,y]=v.",
    "counted": "S(y) <- A2(x,y).",
    "function_value": "Q[x]=v <- F[x,y]=v.",
    "count": "N[y]=n <- agg<< n=count() >> A2(x,y).",
    "sum": "T[x]=s <- agg<< s=sum(v) >> F[x,y]=v.",
    "total": "T[x]=s <- agg<< s=total(v) >> F[x,y]=v.",
    "max": "M[x]=m <- agg<< m=max(v) >> F[x,y]=v.",
    "min": "M[x]=m <- agg<< m=min(v) >> F[x,y]=v.",
}


def head_delta(head, assignment, delta):
    """The (target, payload, delta) a change routes to ``head``."""
    row = assignment[0] + assignment[1]
    payload = None if head.payload is None else head.payload(row)
    return head.target(row), payload, delta


def arranged(rng, deltas, mode):
    """A round's head deltas in one of the orders a caller may hand on."""
    if mode == "unsorted":
        rng.shuffle(deltas)
    elif mode == "decreasing":
        deltas.sort(key=_target, reverse=True)
    elif mode == "erases_last":
        deltas.sort(key=lambda d: (d[0], d[2] == ERASE))
    else:  # "increasing": the order a batch needs no sort in
        deltas.sort(key=_target)
    return deltas


class TestHeadStateApply:
    """HeadState.apply orders any batch itself, for every head kind."""

    @pytest.mark.parametrize("case", sorted(APPLY_CASES))
    def test_random_batches_match_dict_reference(self, case):
        rng = random.Random(f"apply-{case}")
        eng = Engine(APPLY_CASES[case], {"A2": (2, False), "F": (2, True)})
        head = eng.inst.heads[0]
        func = "F" in APPLY_CASES[case]
        fd = case == "function_value"
        if case == "total":
            draw = lambda: math.ldexp(rng.uniform(-1, 1), rng.randint(-40, 40))
        else:
            draw = lambda: rng.randrange(-(2**62), 2**62)
        live = {}  # (x, y) -> v, or None over A2
        for round_ in range(50):
            mode = rng.choice(["unsorted", "decreasing", "erases_last", "increasing"])
            changes = []
            if mode in ("unsorted", "erases_last"):
                for k in [k for k in live if rng.random() < 0.3]:
                    v = live.pop(k)
                    changes.append(((k, (v,) if func else ()), ERASE))
            fresh = {}  # x -> the round's value for x with no live witness
            for _ in range(rng.randrange(0, 12)):
                k = (rng.randrange(5), rng.randrange(6))
                if k in live:
                    continue
                if not func:
                    v = None
                elif fd:
                    held = [w for (x, _), w in live.items() if x == k[0]]
                    v = held[0] if held else fresh.setdefault(k[0], draw())
                else:
                    v = draw()
                live[k] = v
                changes.append(((k, (v,) if func else ()), INSERT))
            deltas = [head_delta(head, a, delta) for a, delta in changes]
            head.apply(arranged(rng, deltas, mode)).commit()
            assignments = [(k, (v,) if func else ()) for k, v in live.items()]
            want = expected_head(eng.plan, 0, assignments)
            assert head_snapshot(head) == want, f"round {round_} ({mode})"


def per_delta_records(held, deltas, step):
    """A group head's records after ``deltas`` apply one at a time.

    ``held`` maps keys to (value, eta); ``step(value, payload, sign)``
    folds one payload into a normalized value, None for an empty group.
    """
    out = dict(held)
    for keys, payload, delta in deltas:
        value, eta = out.pop(keys, (None, 0))
        sign = 1 if delta == INSERT else -1
        value, eta = step(value, payload, sign), eta + sign
        if eta:
            out[keys] = (value, eta)
    return sorted(out.items())


def add_one(segs, summand, sign):
    acc = SegmentedFloat(segs)
    acc.add(float(summand), sign)
    return acc.frozen()


def wrap_one(total, summand, sign):
    return wrap64((total or 0) + sign * summand)


def float_summand(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1030)])
    if kind == 1:  # subnormal
        return math.ldexp(rng.uniform(-1, 1), -1074 + rng.randrange(60))
    if kind == 2:
        return rng.randrange(-(2**60), 2**60)  # an int, rounded to a double
    return math.ldexp(rng.uniform(-1, 1), rng.randint(-600, 600))


# group -> (reference step, payload draw, bad payloads with their texts)
RUN_FOLDS = {
    "FLOAT_TOTAL": (
        add_one,
        float_summand,
        [
            (math.inf, "non-finite summand inf"),
            (-math.inf, "non-finite summand -inf"),
            (math.nan, "non-finite summand nan"),
            (10**400, "G: summand beyond the double range at (7,)"),
            (-(10**400), "G: summand beyond the double range at (7,)"),
        ],
    ),
    "GROUP_SUM": (
        wrap_one,
        lambda rng: rng.choice(
            [rng.randrange(-(2**63), 2**63), rng.randrange(-3, 4), 2**63 - 1]
        ),
        [
            (1.5, "G: sum() needs integer summands, got 1.5"),
            (2.0, "G: sum() needs integer summands, got 2.0"),
        ],
    ),
}


class TestRunFold:
    """A float total's or a sum's run of one key folds and normalizes once;
    its stored records equal a fold that normalizes after every delta."""

    @pytest.mark.parametrize("name", sorted(RUN_FOLDS))
    def test_run_fold_stores_the_per_delta_records(self, name):
        step, draw, _ = RUN_FOLDS[name]
        rng = random.Random(f"run-fold-{name}")
        rel = store("G", 1, func=True)
        live = {}  # key -> live payloads
        emptied = 0
        for round_ in range(80):
            deltas = []
            for k, ps in sorted(live.items()):
                if rng.random() < 0.25:  # the key's run empties it part-way
                    gone, ps[:] = ps[:], []
                    emptied += 1
                else:
                    gone = [p for p in ps if rng.random() < 0.3]
                    for p in gone:
                        ps.remove(p)
                deltas += [((k,), p, ERASE) for p in gone]
            for _ in range(rng.randrange(0, 40)):
                k = rng.randrange(6)
                live.setdefault(k, []).append(draw(rng))
                deltas.append(((k,), live[k][-1], INSERT))
            deltas = head_order(deltas)
            want = per_delta_records(dict(records(rel)), deltas, step)
            txn = rel.begin()
            apply_group(txn, deltas, GROUPS[name])
            txn.commit()
            assert records(rel) == want, f"round {round_}"
        assert emptied > 20

    @pytest.mark.parametrize("name", sorted(RUN_FOLDS))
    def test_bad_summand_raises_its_text_at_its_delta(self, name):
        step, draw, bads = RUN_FOLDS[name]
        rel = store("G", 1, func=True)
        txn = rel.begin()
        apply_group(txn, [((6,), 1, INSERT), ((7,), 2, INSERT)], GROUPS[name])
        txn.commit()
        before = records(rel)
        for bad, text in bads:
            # the bad summand comes before the support underflow in its run,
            # and after it; and in a later key than the underflow
            cases = [
                ([((7,), 3, INSERT), ((7,), bad, INSERT)] + [((7,), 2, ERASE)] * 4,
                 text),
                ([((7,), 2, ERASE)] * 2 + [((7,), bad, INSERT)],
                 "G: support underflow at (7,)"),
                ([((6,), 1, ERASE), ((6,), 1, ERASE), ((7,), bad, INSERT)],
                 "G: support underflow at (6,)"),
            ]
            for deltas, message in cases:
                txn = rel.begin()
                with pytest.raises((IntegrityError, UserError)) as raised:
                    apply_group(txn, deltas, GROUPS[name])
                txn.abort()
                assert str(raised.value) == message, (bad, deltas)
                assert records(rel) == before


class TestFreshFold:
    """A min/max head reads each changed group's extreme from the root of
    the group's tree, with no range scan: the first extreme in key order,
    whether the round refilled the intermediate or edited it."""

    @pytest.mark.parametrize("prefix_len", [1, 2])
    @pytest.mark.parametrize("op", [MAX_OP, MIN_OP])
    def test_head_is_the_first_extreme_in_key_order(self, op, prefix_len, monkeypatch):
        rng = random.Random(f"fresh-{op.name}-{prefix_len}")
        agg = ScanTree(op, LEAF_TARGET, prefix_len)
        rel = store("M", prefix_len, func=True)
        scans = []
        scan = ScanTree.range_scan
        monkeypatch.setattr(
            ScanTree, "range_scan", lambda *args: scans.append(args) or scan(*args)
        )
        cells = [(x, y, z) for x in range(4) for y in range(3) for z in range(4)]
        ties = [1, 1.0, 0.0, -0.0, -1, -1.0, True]
        live, refilled = {}, 0
        for round_ in range(24):
            refill = not agg
            if round_ % 6 == 5:  # empty the intermediate; the next round refills it
                deltas = [(k, v, ERASE) for k, v in live.items()]
                live = {}
            elif round_ % 6 == 2:  # replace every record by a value unseen so far
                deltas = [(k, v, ERASE) for k, v in live.items()]
                live = {k: rng.choice(ties) + 10 * round_ for k in live}
                deltas += [(k, v, INSERT) for k, v in live.items()]
                refill = True
            else:
                deltas = []
                for k in rng.sample(cells, 20):
                    if k in live:
                        deltas.append((k, live.pop(k), ERASE))
                    else:
                        live[k] = rng.choice(ties)
                        deltas.append((k, live[k], INSERT))
            txn = rel.begin()
            apply_semigroup(agg, txn, head_order(deltas))
            txn.commit()
            assert scans == [], f"round {round_}"
            by_group = {}
            for k, v in sorted(live.items()):
                by_group.setdefault(k[:prefix_len], []).append(v)
            want = [(g, op.fold(vs)) for g, vs in sorted(by_group.items())]
            got = records(rel)
            assert got == want, f"round {round_}"
            if refill:
                # every group's extreme is new: the same extreme, not only an
                # equal one (1 is not 1.0 or True, and 0.0 is not -0.0)
                assert list(map(repr, got)) == list(map(repr, want))
                refilled += 1
        assert refilled == 8

    def test_batch_with_an_erase_and_as_many_writes_as_records_left(self):
        agg = ScanTree(MAX_OP, LEAF_TARGET, 1)
        rel = store("M", 1, func=True)
        for deltas in (
            [((0, 1), 5, INSERT), ((0, 2), 1, INSERT)],
            # two writes, (0, 1) ABSENT and (0, 3), and two records left
            [((0, 1), 5, ERASE), ((0, 3), 2, INSERT)],
        ):
            txn = rel.begin()
            apply_semigroup(agg, txn, deltas)
            txn.commit()
        assert agg.size == 2
        assert records(rel) == [((0,), 2)]
