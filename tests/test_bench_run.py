"""The benchmark's reads of engine state still fit the engine.

bench/run.py reads engine attributes by name when it sets a workload up,
applies rounds, checks the heads against a fresh bootstrap and counts
work: ``Relation.versions``, ``Relation.stats["pages_allocated"]``,
``IntervalIndex.stats["visits"]``, ``ScanTree.stats["combines"]`` and the
``MaintenanceReport`` fields.  A refactor that drops one of them breaks
every benchmark run; this test makes it break tier-1 too, on tiny
inputs.  It imports bench/ and changes nothing there.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    """bench/run.py and bench/workloads.py, imported as run.py imports them."""
    added = str(BENCH) not in sys.path
    if added:
        sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        import workloads
    finally:
        if added:
            sys.path.remove(str(BENCH))
    return run, workloads


@pytest.mark.parametrize("name", ["unary", "graph", "aggregate"])
def test_engine_reads_of_a_tiny_run(bench, name):
    run, workloads = bench
    lj = run.load_engine()
    inputs = workloads.generate(workloads.WORKLOADS[name], 3, tiny=True)
    setup = run.set_up(lj, inputs)
    before = run.state_counters(setup)
    # the stream's rounds toggle keys, so they apply in order: up to and
    # including its first batch round
    kinds = [rnd.kind for rnd in inputs.rounds]
    reports = []
    for rnd in inputs.rounds[: kinds.index(workloads.BATCH) + 1]:
        reports += run.run_round(lj, setup, rnd)
    after = run.state_counters(setup)

    bad, fresh_records = run.check(lj, setup)
    assert bad == []
    ends = sum(run.index_records(inst) for inst in setup.instances)
    assert (ends > 0) == (fresh_records > 0) == (name == "graph")

    assert set(after) == {"stab_visits", "combines", "pages"}
    assert after["pages"] > before["pages"]
    assert (after["stab_visits"] > before["stab_visits"]) == (name == "graph")
    assert after["combines"] >= before["combines"]

    counts = run.report_counters(reports)
    assert set(counts) == {"ops", "added", "hits", "useful", "oracle_intervals"}
    assert counts["ops"] > 0 and counts["useful"] > 0
    assert (counts["added"] > 0) == (name == "graph")

    # the traced run's count of retained versions: a relation keeps its
    # current one only, so a version leaked to the read shows here
    versions = sum(len(r.versions) for r in run.all_relations(setup))
    assert versions == len(run.all_relations(setup))
