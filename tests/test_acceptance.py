"""Acceptance suite.

One test per criterion, each printing a PASS line with its measured
numbers; every tolerance is pinned in the assertions.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they pass.
"""

import math
import random
import struct
import time
from fractions import Fraction

from conftest import Engine, head_snapshot
from leapjoin.cli import Workspace
from leapjoin.driver import RuleInstance, bootstrap, build_oracle, maintain
from leapjoin.heads import SegmentedFloat
from leapjoin.intervals import IntervalIndex, SensitivityRecord
from leapjoin.keys import KEY_MAX, KEY_MIN
from leapjoin.lftj import evaluate
from leapjoin.parser import parse_rule
from leapjoin.rules import validate_key_order
from leapjoin.scantree import COUNT_OP, MAX_OP, ScanTree, complement_iter
from leapjoin.store import ERASE, INSERT, Relation, delta_iter, surgery_iter
from leapjoin.trace import trace_distance

PASS = "ACCEPTANCE criterion {n}: PASS — {detail}"


# -- criterion 1: the worked unary maintenance session, byte-exact ----------

SESSION_GOLDEN = """\
loaded A arity=1 version=1 records=5
loaded B arity=1 version=1 records=4
rule r1 installed: heads=C order=(x) indices=2
ops_old=0
ops_new=10
oracle_intervals=0
sens_consumed=0
sens_added=8
head_inserts=2
head_erases=0
2
6
delta A version=2 inserts=1 erases=1 noops=0 records=5
delta B version=2 inserts=1 erases=1 noops=0 records=4
oracle depth=1 prefix=() {[2,2], [6,+inf]}
ops_old=12
ops_new=12
oracle_intervals=2
sens_consumed=2
sens_added=5
head_inserts=0
head_erases=1
6
A_sens = {[-inf,0], [1,2], [2,2], [2,4], [6,6], [6,8]}
B_sens = {[-inf,1], [2,3], [4,6], [6,6], [8,+inf]}
"""


def test_criterion_01_worked_example_session(tmp_path):
    started = time.time()
    (tmp_path / "a.tsv").write_text("0\n2\n4\n5\n6\n")
    (tmp_path / "b.tsv").write_text("1\n2\n6\n7\n")
    (tmp_path / "da.txt").write_text("+8\n-5\n")
    (tmp_path / "db.txt").write_text("-2\n+3\n")
    ws = Workspace()
    out = []
    out += ws.run_command(["load", "A/1", str(tmp_path / "a.tsv")])
    out += ws.run_command(["load", "B/1", str(tmp_path / "b.tsv")])
    out += ws.run_command(["rule", "C(x) <- A(x), B(x). @force_sens"])
    out += ws.run_command(["eval", "r1"])
    out += ws.run_command(["dump", "C"])
    out += ws.run_command(["delta", "A", str(tmp_path / "da.txt")])
    out += ws.run_command(["delta", "B", str(tmp_path / "db.txt")])
    out += ws.run_command(["maintain", "r1"])
    out += ws.run_command(["dump", "C"])
    out += ws.run_command(["dump-sens", "r1"])
    elapsed = time.time() - started
    assert "\n".join(out) + "\n" == SESSION_GOLDEN
    assert elapsed < 1.0, f"session took {elapsed:.3f}s"
    print(PASS.format(n=1, detail=f"byte-exact session in {elapsed * 1000:.0f}ms"))


# -- criterion 2: interval-tree figures, exact -------------------------------


def test_criterion_02_interval_tree_figures():
    ix = IntervalIndex(0, 0)
    for lo, hi in [(2, 10), (3, 7), (5, 15), (6, 9)]:
        ix.add(SensitivityRecord((), lo, hi, ()))
    got10 = [(r.lo, r.hi) for r in ix.stab((), 10)]
    assert got10 == [(2, 10), (5, 15)]

    figure = [
        (11, 100), (29, 47), (40, 42), (49, 82), (62, 78), (63, 73), (67, 72),
        (67, 78), (72, 87), (77, 96), (82, 94), (83, 99), (86, 98), (90, 93),
        (93, 100), (98, 107),
    ]
    ix2 = IntervalIndex(0, 0)
    ix2.parts.leaf_target = 1  # one record per leaf, as in the figure
    for lo, hi in figure:
        ix2.add(SensitivityRecord((), lo, hi, ()))
    got80 = [(r.lo, r.hi) for r in ix2.stab((), 80)]
    assert got80 == [(11, 100), (49, 82), (72, 87), (77, 96)]
    print(PASS.format(n=2, detail=f"stab(10)={got10}, stab(80)={got80}"))


# -- criterion 3: scan-tree figure, exact -------------------------------------

SALES = [
    (1, 1, 1000.00), (1, 2, 1500.00), (1, 3, 7300.00), (1, 4, 8000.00),
    (1, 5, 15000.00), (2, 6, 2900.00), (2, 7, 3500.00), (2, 8, 1440.00),
    (2, 9, 3300.00), (2, 10, 1245.00), (2, 11, 7024.00), (2, 12, 5510.00),
    (2, 13, 9000.00), (3, 14, 325.00), (3, 15, 4000.00), (3, 16, 5300.00),
]


def test_criterion_03_scan_tree_figure():
    sales = ScanTree(MAX_OP)
    sales.build_from([((r, s), v) for r, s, v in SALES])
    maxsales2 = sales.range_scan((2, KEY_MIN), (2, KEY_MAX))
    assert maxsales2 == 9000.00

    tree = ScanTree(MAX_OP, leaf_target=1)
    tree.build_from([((i,), v) for i, v in enumerate([3, 9, 4, 1, 7, 2, 8, 5], 1)])
    decompositions = {
        (1, 8): [((1,), (8,))],
        (1, 3): [((1,), (2,)), ((3,), (3,))],
        (2, 8): [((2,), (2,)), ((3,), (4,)), ((5,), (8,))],
        (3, 7): [((3,), (4,)), ((5,), (6,)), ((7,), (7,))],
        (4, 7): [((4,), (4,)), ((5,), (6,)), ((7,), (7,))],
    }
    for (lo, hi), want in decompositions.items():
        probe = []
        tree.range_scan((lo,), (hi,), probe=probe)
        assert [(p[0], p[1]) for p in probe] == want, (lo, hi)
    print(PASS.format(n=3, detail=f"maxsales[2]={maxsales2}, 5 decompositions exact"))


# -- criterion 4: tree surgery, exact -----------------------------------------


def test_criterion_04_tree_surgery():
    rel = Relation("A", 3, leaf_capacity=4)
    txn = rel.begin()
    for t in [(0, 30, 80), (0, 30, 81), (1, 35, 60), (1, 35, 61),
              (3, 40, 90), (3, 50, 91), (3, 50, 92)]:
        txn.insert(t)
    v1 = txn.commit()
    txn = rel.begin()
    for t in [(0, 30, 81), (3, 40, 90), (3, 50, 92)]:
        txn.erase(t)
    txn.insert((4, 60, 71))
    v2 = txn.commit()

    deltas = [(d.delta, d.keys) for d in delta_iter(v1, v2)]
    assert deltas == [
        (ERASE, (0, 30, 81)), (ERASE, (3, 40, 90)),
        (ERASE, (3, 50, 92)), (INSERT, (4, 60, 71)),
    ]
    surgeries = [(s.delta, s.prefix) for s in surgery_iter(v1, v2)]
    assert surgeries == [
        (ERASE, (0, 30, 81)), (ERASE, (3, 40, 90)), (ERASE, (3, 40)),
        (ERASE, (3, 50, 92)), (INSERT, (4,)), (INSERT, (4, 60)),
        (INSERT, (4, 60, 71)),
    ]
    print(PASS.format(n=4, detail="4 delta records, 7 surgery ops, exact order"))


# -- criteria 5 and 9: randomized equivalence workloads -----------------------

FLOAT_VALUES = [0.125, -2.5, 3.75, 1e8, -0.001, 7.0, 1e-3, -12.0]

WORKLOADS = [
    ("unary intersection",
     "C(x) <- A(x), B(x).", {"A": (1, False), "B": (1, False)}, None),
    ("unary intersection (forced indices)",
     "C(x) <- A(x), B(x). @force_sens", {"A": (1, False), "B": (1, False)}, None),
    ("triple join",
     "F(x,y) <- G(x,z), H(y,z), I(x,y,z). @order(x,y,z)",
     {"G": (2, False), "H": (2, False), "I": (3, False)}, None),
    ("triple join with unary filter",
     "F(x,y) <- G(x,z), H(y,z), I(x,y,z), R(z). @order(x,y,z)",
     {"G": (2, False), "H": (2, False), "I": (3, False), "R": (1, False)}, None),
    ("counted projection",
     "S(x,y) <- A2(x,y), B2(y,z).", {"A2": (2, False), "B2": (2, False)}, None),
    ("count aggregation",
     "D[x]=c <- agg<< c=count() >> E(x,y).", {"E": (2, False)}, None),
    ("sum aggregation",
     "T[x]=s <- agg<< s=sum(v) >> E2[x,y]=v.", {"E2": (2, True)}, None),
    ("min aggregation",
     "N[x]=m <- agg<< m=min(v) >> E2[x,y]=v.", {"E2": (2, True)}, None),
    ("max aggregation",
     "M[x]=m <- agg<< m=max(v) >> E2[x,y]=v.", {"E2": (2, True)}, None),
    ("float total aggregation",
     "FT[x]=t <- agg<< t=total(v) >> EF[x,y]=v.", {"EF": (2, True)},
     lambda rng: rng.choice(FLOAT_VALUES) * rng.randrange(1, 9)),
]

ROUNDS = 200


def _run_workload(name, rule, spec, value_of, *, seed, twin_no_oracle=False):
    rng = random.Random(seed)
    eng = Engine(rule, spec)
    eng.random_fill(rng, per_relation=120, dom=12, value_of=value_of)
    bootstrap(eng.inst, eng.versions())
    twin = None
    if twin_no_oracle:
        twin = RuleInstance(eng.plan, [
            Relation(f"{hp.atom.pred}__twin", len(hp.atom.key_args),
                     is_function=hp.stores_value)
            for hp in eng.plan.heads
        ])
        bootstrap(twin, eng.versions())
    mismatches = 0
    for _ in range(ROUNDS):
        eng.random_edits(rng, rng.randrange(1, 5), dom=12, value_of=value_of)
        versions = eng.versions()
        maintain(eng.inst, versions)
        if twin is not None:
            maintain(twin, versions, use_oracle=False)
            if [head_snapshot(h) for h in eng.inst.heads] != [
                head_snapshot(h) for h in twin.heads
            ]:
                mismatches += 1
        else:
            ref = eng.fresh_reference()
            if [head_snapshot(h) for h in eng.inst.heads] != [
                head_snapshot(h) for h in ref.heads
            ]:
                mismatches += 1
    return mismatches


def test_criterion_05_oracle_equivalence():
    started = time.time()
    total = 0
    for i, (name, rule, spec, value_of) in enumerate(WORKLOADS):
        mismatches = _run_workload(name, rule, spec, value_of, seed=500 + i)
        assert mismatches == 0, f"{name}: {mismatches} mismatching rounds"
        total += ROUNDS
    elapsed = time.time() - started
    assert elapsed < 60.0, f"criterion 5 took {elapsed:.1f}s"
    print(PASS.format(
        n=5,
        detail=f"{total} rounds over {len(WORKLOADS)} rule shapes, "
        f"0 mismatches, {elapsed:.1f}s",
    ))


def test_criterion_09_oracle_soundness():
    started = time.time()
    total = 0
    for i, (name, rule, spec, value_of) in enumerate(WORKLOADS):
        mismatches = _run_workload(
            name, rule, spec, value_of, seed=900 + i, twin_no_oracle=True
        )
        assert mismatches == 0, f"{name}: --no-oracle diverged"
        total += ROUNDS
    elapsed = time.time() - started
    print(PASS.format(
        n=9,
        detail=f"--no-oracle identical on {total} rounds "
        f"over {len(WORKLOADS)} shapes, {elapsed:.1f}s",
    ))


# -- criterion 6: cost proportionality ----------------------------------------


def test_criterion_06_cost_proportionality():
    rng = random.Random(61)
    n = 100_000
    dom = 400_000
    rels = {name: Relation(name, 1, leaf_capacity=64) for name in "AB"}
    for rel in rels.values():
        txn = rel.begin()
        for k in rng.sample(range(dom), n):
            txn.insert((k,))
        txn.commit()
    plan = validate_key_order(
        parse_rule("C(x) <- A(x), B(x).", {"A": (1, False), "B": (1, False)})
    )
    inst = RuleInstance(plan, [Relation("C", 1)])
    versions = {name: rel.current for name, rel in rels.items()}
    report = bootstrap(inst, versions)
    ops_bootstrap = report.ops_new
    prev_trace = inst.last_trace

    log_n = math.ceil(math.log2(n))
    edits = 100
    worst_ratio = 0.0
    worst_speedup = math.inf
    for _ in range(edits):
        rel = rels["A"] if rng.random() < 0.5 else rels["B"]
        txn = rel.begin()
        k = rng.randrange(dom)
        if rng.random() < 0.5:
            txn.insert((k,))
        else:
            txn.erase((k,))
        txn.commit()
        versions = {name: r.current for name, r in rels.items()}
        rep = maintain(inst, versions)
        ops_maintain = rep.ops_old + rep.ops_new
        new_trace = []
        list(evaluate(plan, versions, trace=new_trace))
        distance = trace_distance(prev_trace, new_trace)
        prev_trace = new_trace
        bound = 64 * (distance + 1) * log_n
        assert ops_maintain <= bound, (ops_maintain, distance, bound)
        assert 100 * ops_maintain <= ops_bootstrap, (ops_maintain, ops_bootstrap)
        worst_ratio = max(worst_ratio, ops_maintain / bound)
        if ops_maintain:
            worst_speedup = min(worst_speedup, ops_bootstrap / ops_maintain)
    print(PASS.format(
        n=6,
        detail=f"n={n}, {edits} edits, worst ops/bound={worst_ratio:.3f}, "
        f"min bootstrap/maintain ratio={worst_speedup:.0f}x",
    ))


# -- criterion 7: complexity counters ------------------------------------------


def test_criterion_07_complexity_counters():
    rng = random.Random(71)

    # range_scan combine counter
    tree = ScanTree(MAX_OP)
    ref = {}
    for k in rng.sample(range(10**6), 10_000):
        v = rng.randrange(10**6)
        tree.insert((k,), v)
        ref[k] = v
    scan_bound = 2 * math.ceil(math.log2(tree.size)) + 2
    scan_worst = 0
    for _ in range(1000):
        a, b = sorted((rng.randrange(10**6), rng.randrange(10**6)))
        before = tree.stats["combines"]
        tree.range_scan((a,), (b,))
        scan_worst = max(scan_worst, tree.stats["combines"] - before)
    assert scan_worst <= scan_bound

    # stab node visits
    ix = IntervalIndex(0, 0)
    recs = []
    for _ in range(10_000):
        lo = rng.randrange(10**5)
        r = SensitivityRecord((), lo, lo + rng.randrange(2000), ())
        if ix.add(r):
            recs.append(r)
    stab_log = math.ceil(math.log2(len(ix) + 2))
    stab_worst_ratio = 0.0
    for _ in range(1000):
        x = rng.randrange(10**5)
        before = ix.stats["visits"]
        got = ix.stab((), x)
        visits = ix.stats["visits"] - before
        bound = 8 * (len(got) + 1) * stab_log
        assert visits <= bound
        stab_worst_ratio = max(stab_worst_ratio, visits / bound)

    # delta_iter pages touched
    rel = Relation("R", 1, leaf_capacity=32)
    txn = rel.begin()
    for k in rng.sample(range(10**6), 10_000):
        txn.insert((k,))
    txn.commit()
    delta_worst_ratio = 0.0
    for batch in (1, 2, 5, 13, 37, 80):
        base = rel.current
        txn = rel.begin()
        for _ in range(batch):
            k = rng.randrange(10**6)
            if rng.random() < 0.5:
                txn.insert((k,))
            else:
                txn.erase((k,))
        new = txn.commit()
        stats = {}
        d = len(list(delta_iter(base, new, stats)))
        n = max(base.count, new.count)
        bound = 8 * (d + 1) * math.ceil(math.log2(n + 2))
        assert stats.get("pages", 0) <= bound
        delta_worst_ratio = max(delta_worst_ratio, stats.get("pages", 0) / bound)

    # complement_iter key visits
    comp_worst_ratio = 0.0
    for missing_count in (1, 3, 5, 12):
        keys = rng.sample(range(10**6), 10_000)
        missing = set(rng.sample(keys, missing_count))
        big = ScanTree(COUNT_OP)
        big.build_from([((k,), None) for k in keys])
        small = ScanTree(COUNT_OP)
        small.build_from([((k,), None) for k in keys if k not in missing])
        stats = {}
        got = list(complement_iter(big, small, stats))
        assert got == sorted((k,) for k in missing)
        bound = 8 * (missing_count + 1) * math.ceil(math.log2(big.size))
        assert stats["visits"] <= bound
        comp_worst_ratio = max(comp_worst_ratio, stats["visits"] / bound)

    print(PASS.format(
        n=7,
        detail=f"scan {scan_worst}<={scan_bound}; stab<= {stab_worst_ratio:.2f}b; "
        f"delta<= {delta_worst_ratio:.2f}b; complement<= {comp_worst_ratio:.2f}b",
    ))


# -- criterion 8: float exactness ----------------------------------------------


def test_criterion_08_float_exactness():
    acc = SegmentedFloat()
    acc.add(2.0**500)
    acc.add(-1.0)
    assert len(acc.segments) == 2

    rng = random.Random(81)
    for trial in range(50):
        acc = SegmentedFloat()
        oracle = Fraction(0)
        live = []
        for _ in range(1000):
            if live and rng.random() < 0.45:
                s = live.pop(rng.randrange(len(live)))
                acc.add(s, sign=-1)
                oracle -= Fraction(s)
            else:
                s = math.ldexp(rng.uniform(-1, 1), rng.randint(-600, 600))
                live.append(s)
                acc.add(s)
                oracle += Fraction(s)
        assert acc.to_exact() == oracle, f"trial {trial}: exact value diverged"
        got, overflow = acc.to_float()
        assert not overflow
        assert struct.pack("<d", got) == struct.pack("<d", float(oracle))
    print(PASS.format(
        n=8, detail="50 trials x 1000 signed updates exact; "
        "to_float bit-exact; {2^500,-1} stores 2 segments",
    ))


# -- criterion 10: sensitivity completeness by perturbation --------------------

PERTURB_SHAPES = [
    ("C(x) <- A(x), B(x). @force_sens",
     {"A": (1, False), "B": (1, False)}, 6),
    ("F(x,y) <- G(x,z), H(y,z), I(x,y,z). @order(x,y,z) @force_sens",
     {"G": (2, False), "H": (2, False), "I": (3, False)}, 5),
    ("S(x,y) <- A2(x,y), B2(y,z). @force_sens",
     {"A2": (2, False), "B2": (2, False)}, 5),
]


def _all_tuples(arity, dom):
    if arity == 1:
        return [(k,) for k in range(dom)]
    return [t + (k,) for t in _all_tuples(arity - 1, dom) for k in range(dom)]


def test_criterion_10_sensitivity_completeness():
    from conftest import naive_assignments

    rng = random.Random(101)
    checked = effective = 0
    for shape_i, (rule, spec, dom) in enumerate(PERTURB_SHAPES):
        eng = Engine(rule, spec)
        eng.random_fill(rng, per_relation=40, dom=dom)
        bootstrap(eng.inst, eng.versions())
        base = naive_assignments(eng.plan, eng.versions())
        for pred, rel in sorted(eng.relations.items()):
            existing = {k for k, _ in rel.current.records()}
            for t in _all_tuples(rel.arity, dom):
                perturbed = dict(eng.versions())
                txn = rel.begin()
                if t in existing:
                    txn.erase(t)
                else:
                    txn.insert(t)
                perturbed[pred] = txn.commit()
                rel.current = txn.base  # rollback: the relation stays at the base
                checked += 1
                if naive_assignments(eng.plan, perturbed) == base:
                    continue
                effective += 1
                oracle, _ = build_oracle(
                    eng.inst, eng.versions(), perturbed, consume=False
                )
                assert not oracle.is_empty(), (rule, pred, t)
    print(PASS.format(
        n=10,
        detail=f"{effective} effective perturbations of {checked} "
        "all matched by >=1 index interval, 0 misses",
    ))
