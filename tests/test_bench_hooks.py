"""The benchmark's span hooks still fit the engine.

bench/spans.py wraps a fixed set of engine entry points by name and
calls HeadState.apply(deltas) and Transaction.commit() positionally.
Renaming one of them, or changing either call form, breaks every traced
benchmark run; this test makes it break tier-1 too.  It imports bench/
and changes nothing there.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from conftest import Engine
from leapjoin import driver, intervals, scantree, store
from leapjoin.driver import bootstrap, maintain

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patches_trace_a_bootstrap_and_a_round():
    spans = load_spans()
    rec = spans.SpanRecorder()
    lj = SimpleNamespace(
        driver=driver, intervals=intervals, scantree=scantree, store=store
    )
    patches = spans.Patches(rec, lj)
    originals = [
        (owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches._wrapped
    ]
    eng = Engine("T(x,y,z) <- E(x,y), E(y,z), E(x,z).", {"E": (2, False)})
    eng.load("E", [(0, 1), (1, 2), (0, 2), (2, 3)])
    patches.on()
    try:
        # the driver calls these through module globals and class
        # attributes, which is what the patches replace
        driver.bootstrap(eng.inst, eng.versions())
        rec.current_round = 0
        txn = eng.relations["E"].begin()
        txn.insert((1, 3))
        txn.commit()
        driver.maintain(eng.inst, eng.versions())
    finally:
        patches.off()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    assert driver.bootstrap is bootstrap and driver.maintain is maintain
    names = set(rec.self_times())
    for name in ("driver.bootstrap", "heads.apply", "lftj.eval_new"):
        assert (spans.SETUP_ROUND, name) in names, name
    # the head's commit, named by the span open around it
    commits = {(spans.SETUP_ROUND, f"{layer}.commit") for layer in ("heads", "store")}
    assert names & commits
    for name in (
        "driver.maintain", "driver.build_oracle", "store.surgery_iter",
        "intervals.stab", "lftj.eval_old", "lftj.eval_new", "heads.apply",
        "store.commit",
    ):
        assert (0, name) in names, name
    assert rec.counts[(spans.SETUP_ROUND, "head_deltas")] == 1
    assert rec.counts[(0, "head_deltas")] == 1
    assert eng.head_records("T") == [(0, 1, 2), (1, 2, 3)]
