"""Span recorder for the traced benchmark run.

The engine is not modified: ``Patches.on`` replaces a fixed set of its
public entry points with wrappers that record one span per call (one per
resume for generators) and ``Patches.off`` puts the originals back.  A
span holds its name, start and end (``perf_counter_ns``), the span open
when it began (its parent) and the round it belongs to; spans stay in
flat in-memory arrays until ``dump`` writes them out.

A layer's self time is its spans' durations minus the durations of their
direct children.  ``Transaction.commit`` is named ``heads.commit`` when a
head's ``HeadState.apply`` is the parent and ``store.commit`` otherwise
(input commits).  ``evaluate`` is named ``lftj.eval_new`` when it fills
sensitivity indices (a recorder is passed) and ``lftj.eval_old`` when it
replays the bound versions.
"""

import functools
import gzip
from array import array
from collections import defaultdict
from time import perf_counter_ns

SETUP_ROUND = -1


class SpanRecorder:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.round = array("i")
        self._stack = [-1]
        self.current_round = SETUP_ROUND
        self.counts = defaultdict(int)  # (round, counter) -> int

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def top_name(self):
        sid = self._stack[-1]
        return -1 if sid < 0 else self.name[sid]

    def enter(self, nid):
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.round.append(self.current_round)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def exit(self, sid):
        self.end[sid] = perf_counter_ns()
        self._stack.pop()

    def count(self, counter, n):
        self.counts[(self.current_round, counter)] += n

    def self_times(self):
        """Per (round, name): [span count, total ns, self ns]."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(dur)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[sid]
        out = defaultdict(lambda: [0, 0, 0])
        for sid, d in enumerate(dur):
            acc = out[(self.round[sid], self.names[self.name[sid]])]
            acc[0] += 1
            acc[1] += d
            acc[2] += d - child[sid]
        return out

    def dump(self, path, phase_of):
        """Write every span as a gzip'd tab-separated line.

        ``phase_of`` maps each round id to its phase name.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tname\tstart_ns\tend_ns\tparent\tround\tphase\n")
            names = self.names
            for sid in range(len(self.start)):
                r = self.round[sid]
                f.write(
                    f"{sid}\t{names[self.name[sid]]}\t{self.start[sid]}\t"
                    f"{self.end[sid]}\t{self.parent[sid]}\t{r}\t{phase_of[r]}\n"
                )


def _call(rec, name, fn):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.enter(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit(sid)

    return wrapper


def _resumes(rec, nid, gen):
    """Re-yield ``gen`` with one span around each resume."""
    while True:
        sid = rec.enter(nid)
        try:
            item = next(gen)
        except StopIteration:
            return
        finally:
            rec.exit(sid)
        yield item


class Patches:
    """Wrappers for the engine's layer entry points, switched on and off.

    ``lj`` is a namespace holding the engine modules ``driver``,
    ``intervals``, ``scantree`` and ``store``.
    """

    def __init__(self, rec, lj):
        driver, store = lj.driver, lj.store
        IntervalIndex, ScanTree = lj.intervals.IntervalIndex, lj.scantree.ScanTree
        HeadState, Transaction = driver.HeadState, store.Transaction

        evaluate = driver.evaluate
        old_id, new_id = rec.name_id("lftj.eval_old"), rec.name_id("lftj.eval_new")

        @functools.wraps(evaluate)
        def traced_evaluate(plan, versions, **kwargs):
            nid = new_id if kwargs.get("recorder") is not None else old_id
            return _resumes(rec, nid, evaluate(plan, versions, **kwargs))

        surgery_iter = driver.surgery_iter
        surgery_id = rec.name_id("store.surgery_iter")

        @functools.wraps(surgery_iter)
        def traced_surgery_iter(old, new, stats=None):
            stats = {} if stats is None else stats
            yield from _resumes(rec, surgery_id, surgery_iter(old, new, stats))
            rec.count("delta_pages", stats.get("pages", 0))

        apply = HeadState.apply
        apply_id = rec.name_id("heads.apply")

        @functools.wraps(apply)
        def traced_apply(self, deltas):
            rec.count("head_deltas", len(deltas))
            sid = rec.enter(apply_id)
            try:
                return apply(self, deltas)
            finally:
                rec.exit(sid)

        commit = Transaction.commit
        head_commit_id = rec.name_id("heads.commit")
        input_commit_id = rec.name_id("store.commit")

        @functools.wraps(commit)
        def traced_commit(self):
            nid = head_commit_id if rec.top_name() == apply_id else input_commit_id
            sid = rec.enter(nid)
            try:
                return commit(self)
            finally:
                rec.exit(sid)

        wrappers = [
            (driver, "maintain", _call(rec, "driver.maintain", driver.maintain)),
            (driver, "bootstrap", _call(rec, "driver.bootstrap", driver.bootstrap)),
            (driver, "build_oracle",
             _call(rec, "driver.build_oracle", driver.build_oracle)),
            (driver, "evaluate", traced_evaluate),
            (driver, "surgery_iter", traced_surgery_iter),
            (IntervalIndex, "add", _call(rec, "intervals.add", IntervalIndex.add)),
            (IntervalIndex, "stab_and_remove",
             _call(rec, "intervals.stab", IntervalIndex.stab_and_remove)),
            (ScanTree, "insert", _call(rec, "scantree.insert", ScanTree.insert)),
            (ScanTree, "erase", _call(rec, "scantree.erase", ScanTree.erase)),
            (ScanTree, "range_scan",
             _call(rec, "scantree.range_scan", ScanTree.range_scan)),
            (HeadState, "apply", traced_apply),
            (Transaction, "commit", traced_commit),
        ]
        self._wrapped = wrappers
        self._originals = [
            (owner, attr, owner.__dict__[attr]) for owner, attr, _ in wrappers
        ]

    def on(self):
        for owner, attr, wrapper in self._wrapped:
            setattr(owner, attr, wrapper)

    def off(self):
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)
