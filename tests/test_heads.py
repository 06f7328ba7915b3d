import math
import random
import struct
from fractions import Fraction

import pytest

from leapjoin.errors import IntegrityError, UserError
from leapjoin.heads import (
    FUNCTION_VALUE,
    GROUPS,
    ScanBackedAggregate,
    SegmentedFloat,
    apply_direct,
    apply_group,
    apply_semigroup,
    x_segment,
)
from leapjoin.scantree import MAX_OP, wrap64
from leapjoin.store import ERASE, INSERT, Relation


SUPPORT, SUM = GROUPS["COUNTED"], GROUPS["GROUP_SUM"]


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
        with pytest.raises(IntegrityError, match="functional"):
            apply_group(txn, [((7,), 11, INSERT)], FUNCTION_VALUE)
        txn.abort()

    def test_underflow_is_integrity_error(self):
        rel = store("S", 1, func=True)
        txn = rel.begin()
        with pytest.raises(IntegrityError):
            apply_group(txn, [((1,), None, ERASE)], SUPPORT)
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
        apply_group(txn, [((x,), 1, INSERT) for x, _ in edges], SUM)
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
        agg = ScanBackedAggregate(MAX_OP, 2)
        head = store("MS", 1, func=True)
        txn = head.begin()
        apply_semigroup(
            agg, txn, [((r, s), v, INSERT) for r, s, v in SALES], prefix_len=1
        )
        txn.commit()
        assert records(head) == [((1,), 15000.0), ((2,), 9000.0), ((3,), 5300.0)]
        txn = head.begin()
        apply_semigroup(agg, txn, [((2, 13), 9000.00, ERASE)], prefix_len=1)
        txn.commit()
        assert records(head) == [((1,), 15000.0), ((2,), 7024.0), ((3,), 5300.0)]

    def test_insert_into_empty_group(self):
        agg = ScanBackedAggregate(MAX_OP, 2)
        head = store("M", 1, func=True)
        txn = head.begin()
        apply_semigroup(agg, txn, [((4, 1), 12.5, INSERT)], prefix_len=1)
        txn.commit()
        assert records(head) == [((4,), 12.5)]

    def test_group_emptied_removes_head_record(self):
        agg = ScanBackedAggregate(MAX_OP, 2)
        head = store("M", 1, func=True)
        txn = head.begin()
        apply_semigroup(agg, txn, [((4, 1), 2, INSERT)], prefix_len=1)
        apply_semigroup(agg, txn, [((4, 1), 2, ERASE)], prefix_len=1)
        txn.commit()
        assert records(head) == []

    def test_erase_absent_intermediate_is_integrity_error(self):
        agg = ScanBackedAggregate(MAX_OP, 2)
        head = store("M", 1, func=True)
        txn = head.begin()
        with pytest.raises(IntegrityError):
            apply_semigroup(agg, txn, [((4, 1), 2, ERASE)], prefix_len=1)
        txn.abort()

    def test_shared_intermediate_two_prefix_lengths(self):
        rng = random.Random(43)
        agg = ScanBackedAggregate(MAX_OP, 3)
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
            touched = agg.apply_deltas(deltas)
            t1, t2 = coarse.begin(), fine.begin()
            agg.refresh_head(t1, touched, prefix_len=1)
            agg.refresh_head(t2, touched, prefix_len=2)
            t1.commit()
            t2.commit()
            by1, by2 = {}, {}
            for (x, y, z), v in ref.items():
                by1[(x,)] = max(by1.get((x,), v), v)
                by2[(x, y)] = max(by2.get((x, y), v), v)
            assert dict(records(coarse)) == by1
            assert dict(records(fine)) == by2


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
            apply_group(txn, deltas, GROUPS["FLOAT_TOTAL"])
            txn.commit()
            got = {}
            for keys, (segs, eta) in rel.current.records():
                got[keys] = (SegmentedFloat(dict(segs)).to_exact(), eta)
            want = {g: v for g, v in oracle.items() if v[1] > 0}
            assert got == want


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
