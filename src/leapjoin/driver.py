"""The maintenance cycle: one round body serves bootstrap and maintain.

A round moves a rule instance from its bound (old) versions to new ones.
It turns each changed predicate's version delta into trie surgeries,
stabs the sensitivity indices with them to build the change oracle (the
hits leave the index, one sorted batch per stab), evaluates the body over
the old and the new versions restricted by the oracle, diffs the two
assignment streams in key order and routes the differences to the heads.
The new side's evaluation buffers the intervals it records and merges
them into the indices once its stream is exhausted, so nothing reads an
index while an evaluation runs.  Atoms whose key arguments prefix the
join order carry no index: their surgeries name their own key as a point
interval.

A rule instance builds its partition maps once, ``inst.maps``: each
index's and each min/max intermediate's ``scantree.ScanTree``.
Bootstrap is the round from the empty database: no oracle, every
assignment an insert with no diff, every map emptied in place
(``ScanTree.reset``) and every head emptied, so every head commits.
In any other round a head with an empty batch keeps its version, and
the oracle is built once, from the intervals the round's stabs gather.

A round publishes all of its heads or none.  It saves each head
relation's version, and has every map in ``inst.maps`` record the roots
the round replaces in it.  Edits path-copy and every record count is read
from a root, so putting those back, on any raise, is the whole rollback:
it costs what the round's changes cost, not the maps' sizes.  A round
that returns drops the record before it returns, so the roots it
replaced are freed in the round that replaced them.

A maintained index stays sound when a round admits only part of a
level.  A record of an atom over [lo, hi] says the atom holds no key
strictly inside it (nor lo, for a seek's record), and an edit of the
atom at k stabs away each of its records over k, so every record left
is true.  Every round keeps the level invariant: under each binding of
the shallower keys, the records of all the level's atoms together cover
every key.  A round removes only the records its stabs hit, its oracle
admits their whole intervals, and there each leapfrog step emits a
record over the keys it passes, up to the oracle's end (beyond which the
old records stay) or an atom that ran out (whose record reaches +inf).
Strict coverage, each fresh record inside one of its own atom's, is not
kept: a level opened at the oracle's first key seeks its atoms in
another order than a fresh run (``PARTIAL_COVERAGE`` in
``tests/test_driver.py``).  The invariant suffices: for an edit of atom
G at a key k that no G record covers, some other atom I of the level
has a record over k that lacks k (a key that only ends a record was
sought by G too, unless an atom ran out first, whose record lacks it).
No assignment runs through k until I gains k, and I's edit, in the same
round or a later one, stabs that record and admits k.  A disjunction
keeps this per branch; the oracle's cursor and an atom with no index
(each of whose edits is admitted as a point) emit no records.

Bootstrap runs with CPython's cyclic collector suspended: it allocates by
the hundred thousand and makes no reference cycle, so a collector pass
would find nothing to free.  It leaves the collector on or off as it
found it.  ``maintain`` leaves it alone: a pass suspended there would
only run in the caller's next round.
"""

import gc
from bisect import bisect_right
from dataclasses import dataclass, fields
from functools import partial
from itertools import islice, repeat
from operator import countOf, gt, itemgetter

from .errors import UserError
from .heads import (
    FUNCTION_VALUE,
    GROUPS,
    apply_direct,
    apply_group,
    apply_semigroup,
    render_record,
)
from .intervals import IntervalIndex
from .keys import KEY_MAX, render_key
from .lftj import Counter, SensitivityRecorder, check_versions, evaluate
from .rules import tuple_getter
from .scantree import LEAF_TARGET, MAX_OP, MIN_OP, ScanTree
from .store import ERASE, INSERT, RelationVersion, surgery_iter

_delta_target, _delta_kind = itemgetter(0), itemgetter(2)
_erases_first = itemgetter(0, 2)  # by target keys, then "ERASE" < "INSERT"


@dataclass
class MaintenanceReport:
    ops_old: int = 0
    ops_new: int = 0
    oracle_intervals: int = 0
    sens_consumed: int = 0
    sens_added: int = 0
    head_inserts: int = 0
    head_erases: int = 0

    def to_text(self) -> str:
        return "\n".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))


def _merge_intervals(pairs):
    out = []
    for lo, hi in sorted(pairs):
        if out and lo <= out[-1][1] + 1:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


class OracleEntry:
    __slots__ = ("merged", "admit")

    def __init__(self, merged, admit):
        self.merged = merged
        self.admit = admit

    def admits(self, k) -> bool:
        i = bisect_right(self.admit, (k, KEY_MAX))
        return i > 0 and self.admit[i - 1][1] >= k

    def render(self) -> str:
        return (
            "{"
            + ", ".join(f"[{render_key(a)},{render_key(b)}]" for a, b in self.merged)
            + "}"
        )


class ChangeOracle:
    """Per-depth merged interval sets keyed by the bound key prefix, built
    once from a round's ``(depth, bound prefix) -> [(lo, hi)]`` runs.

    An interval at depth d admits every deeper binding under it; the
    prefixes of deeper contributions surface at shallower depths as
    point intervals so the evaluator can reach them.
    """

    def __init__(self, runs):
        points = {}  # (depth, prefix) -> set of keys
        for depth, prefix in runs:
            for d in range(1, depth):
                points.setdefault((d, prefix[: d - 1]), set()).add(prefix[d - 1])
        entries = {}
        for key in runs.keys() | points.keys():
            admit = _merge_intervals(runs.get(key, ()))
            pts = points.get(key)
            # a second merge changes merged admits only where points join them
            merged = _merge_intervals(admit + [(p, p) for p in pts]) if pts else admit
            entries[key] = OracleEntry(merged, admit)
        self._entries = entries

    def entry(self, depth, prefix):
        return self._entries.get((depth, prefix))

    def is_empty(self) -> bool:
        return not self._entries

    def interval_count(self) -> int:
        return sum(len(e.merged) for e in self._entries.values())

    def render_lines(self):
        for (depth, prefix), e in sorted(self._entries.items()):
            ptxt = "(" + ",".join(render_key(k) for k in prefix) + ")"
            yield f"oracle depth={depth} prefix={ptxt} {e.render()}"


def _getters(head_plan, key_depth_count, scan_backed):
    """One head's C-level getters over an assignment's keys + values: its
    target keys, and its payload (None for a head without one).

    A scan-backed head's intermediate is keyed by the full binding.
    """

    def at(src):
        tag, i = src
        return i - 1 if tag == "k" else key_depth_count + i

    if scan_backed:
        target = itemgetter(slice(0, key_depth_count))
    else:
        target = tuple_getter([at(src) for src in head_plan.key_sources])
    vs = head_plan.value_source
    return target, None if vs is None else itemgetter(at(vs))


class HeadState:
    """One head atom's store; its kind picks getters, update and render once."""

    def __init__(self, head_plan, relation, key_depth_count):
        self.plan = head_plan
        self.relation = relation
        self.kind = kind = head_plan.kind
        self.agg = None
        self.render = render_record
        if kind in ("MIN", "MAX"):
            op = MAX_OP if kind == "MAX" else MIN_OP
            self.agg = ScanTree(op, LEAF_TARGET, len(head_plan.key_sources))
            self._update = partial(apply_semigroup, self.agg)
        elif kind == "DIRECT":
            self._update = apply_direct
        else:
            fd = kind == "COUNTED" and head_plan.atom.value_args
            group = FUNCTION_VALUE if fd else GROUPS[kind]
            self._update = partial(apply_group, group=group)
            self.render = group.render
        self.target, self.payload = _getters(
            head_plan, key_depth_count, self.agg is not None
        )

    def apply(self, deltas):
        """Stage (target_keys, payload, delta) updates; returns the open txn.

        Deltas are sorted by target keys, erases first per key.  A batch
        with no erase is sorted by its target keys alone, which a stable
        sort orders the same, and not at all if its keys never decrease
        (as inserts routed in evaluation order into a head whose keys
        prefix the join order do).  The caller commits the transaction, or
        aborts it; a raise aborts it here.
        """
        targets = partial(map, _delta_target)
        if ERASE in map(_delta_kind, deltas):
            deltas = sorted(deltas, key=_erases_first)
        elif any(map(gt, targets(deltas), targets(islice(deltas, 1, None)))):
            deltas = sorted(deltas, key=_delta_target)
        txn = self.relation.begin()
        try:
            self._update(txn, deltas)
        except BaseException:
            txn.abort()
            raise
        return txn


class RuleInstance:
    def __init__(self, plan, head_relations):
        if len(head_relations) != len(plan.heads):
            raise UserError("one head relation per head atom")
        for hp, rel in zip(plan.heads, head_relations):
            if rel.is_function != hp.stores_value:
                want = "function" if hp.stores_value else "relation"
                raise UserError(f"head {hp.atom.pred} needs a {want}, not {rel.name}")
        self.plan = plan
        self.heads = [
            HeadState(hp, rel, len(plan.key_order))
            for hp, rel in zip(plan.heads, head_relations)
        ]
        self.indices = {
            key: IntervalIndex(spec.prefix_len, spec.context_len)
            for key, spec in plan.index_specs.items()
        }
        self.maps = [ix.parts for ix in self.indices.values()]
        self.maps += [h.agg for h in self.heads if h.agg is not None]
        self.bound_versions = None  # None until the first bootstrap
        self.last_trace = None
        self.last_oracle = None

    def current_versions(self, relations):
        return {
            ap.atom.pred: relations[ap.atom.pred].current
            for bp in self.plan.branches
            for ap in bp.atoms
        }


def build_oracle(inst, old_versions, new_versions, consume=True):
    """Match tree surgeries against the sensitivity indices.

    Each changed predicate's surgery stream is computed once and matched
    for every atom over it.
    """
    plan = inst.plan
    runs = {}  # (depth, bound prefix) -> [(lo, hi)]
    consumed = 0
    surgeries = {}  # pred -> its round's surgeries, shared by its atoms
    for bi, bp in enumerate(plan.branches):
        for pos, ap in enumerate(bp.atoms):
            pred = ap.atom.pred
            old, new = old_versions[pred], new_versions[pred]
            if old is new:  # by identity: a rolled-back version's id comes again
                continue
            if pred not in surgeries:
                surgeries[pred] = list(surgery_iter(old, new))
            for surg in surgeries[pred]:
                lvl = surg.depth
                k = surg.prefix[-1]
                alpha = surg.prefix[:-1]
                spec = plan.index_specs.get((bi, pos, lvl))
                if spec is None:
                    # args prefix the join order: the surgery names its own
                    # position in order coordinates
                    runs.setdefault((ap.depths[lvl - 1], alpha), []).append((k, k))
                    continue
                idx = inst.indices[bi, pos, lvl]
                hits = idx.stab_and_remove(alpha, k) if consume else idx.stab(alpha, k)
                consumed += len(hits)
                for rec in hits:
                    bound = spec.oracle_prefix(rec.prefix + rec.context)
                    runs.setdefault((spec.depth, bound), []).append((rec.lo, rec.hi))
    return ChangeOracle(runs), consumed


def _diff(old_stream, new_stream):
    """Old-only assignments as erases, new-only ones as inserts, in order."""
    a = next(old_stream, None)
    b = next(new_stream, None)
    while a is not None or b is not None:
        if b is None or (a is not None and a < b):
            yield a, ERASE
            a = next(old_stream, None)
        elif a is None or b < a:
            yield b, INSERT
            b = next(new_stream, None)
        else:
            a = next(old_stream, None)
            b = next(new_stream, None)


def _route(heads, changes, replace):
    """Apply (assignment, delta) changes to every head and commit them.

    One pass over the changes builds every head's (target keys, payload,
    delta) batch by its C-level getters, with no Python call per change.
    Each head stages its batch in its own open transaction, and the heads
    commit once every one has staged.  A head with an empty batch (every
    head's is empty when no assignment changed) stages nothing, and keeps
    its version, unless the round replaces every head (``replace``, at
    bootstrap).  A raise, in a stage or a commit, aborts the transactions
    still open; the caller puts the head versions back.  Returns the
    numbers of inserts and erases routed.
    """
    per_head = [[] for _ in heads]
    routes = [(h.target, h.payload, b.append) for h, b in zip(heads, per_head)]
    for (keys, values), delta in changes:
        row = keys + values
        for target, payload, append in routes:
            append((target(row), payload and payload(row), delta))
    staged, committed = [], 0
    try:
        for head, deltas in zip(heads, per_head):
            if deltas or replace:
                staged.append(head.apply(deltas))
        for txn in staged:
            txn.commit()
            committed += 1
    except BaseException:
        for txn in staged[committed:]:
            txn.abort()
        raise
    deltas = per_head[0]  # every head takes one delta per change
    erases = countOf(map(_delta_kind, deltas), ERASE)
    return len(deltas) - erases, erases


def _saved(inst):
    """Each head's version; every partition map now records the roots the
    round replaces."""
    for parts in inst.maps:
        parts.begin()
    return [(h.relation, h.relation.current) for h in inst.heads]


def _restore(inst, versions):
    for parts in inst.maps:
        parts.rollback()
    for relation, version in versions:
        relation.current = version


def _round(inst, old_versions, new_versions, use_oracle, with_trace):
    """Evaluate, route and report one round from ``old_versions`` (None:
    the empty database) to ``new_versions``; a raise restores the saved
    state."""
    plan = inst.plan
    saved = _saved(inst)
    try:
        oracle, consumed = None, 0
        if old_versions is None:
            # the old side is empty: so are the partition maps and the heads
            for parts in inst.maps:
                parts.reset()
            for head in inst.heads:
                v = head.relation.current
                head.relation.current = RelationVersion(
                    v.lineage, v.arity, v.version_id, None
                )
        elif use_oracle:
            oracle, consumed = build_oracle(inst, old_versions, new_versions)
        recorder = SensitivityRecorder(inst.indices)
        c_old, c_new = Counter(), Counter()
        trace = [] if with_trace else None
        new_stream = evaluate(
            plan,
            new_versions,
            oracle=oracle,
            recorder=recorder,
            counter=c_new,
            trace=trace,
        )
        if old_versions is None:
            changes = zip(new_stream, repeat(INSERT))
        else:
            old_stream = evaluate(plan, old_versions, oracle=oracle, counter=c_old)
            changes = _diff(old_stream, new_stream)
        inserts, erases = _route(inst.heads, changes, replace=old_versions is None)
    except BaseException:
        _restore(inst, saved)
        raise
    for parts in inst.maps:
        parts.release()
    inst.bound_versions = dict(new_versions)
    inst.last_trace = trace  # None when the round was untraced
    inst.last_oracle = oracle
    return MaintenanceReport(
        ops_old=c_old.ops,
        ops_new=c_new.ops,
        oracle_intervals=oracle.interval_count() if oracle is not None else 0,
        sens_consumed=consumed,
        sens_added=recorder.added,
        head_inserts=inserts,
        head_erases=erases,
    )


def bootstrap(inst, versions, with_trace=True):
    """Full evaluation: the round from the empty database, which empties
    the heads and the partition maps first.

    It runs with the cyclic collector suspended, since it makes no
    reference cycle (see the module docstring), and leaves the collector
    on or off as it found it, whether it returns or raises.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _round(inst, None, versions, use_oracle=False, with_trace=with_trace)
    finally:
        if enabled:
            gc.enable()


def maintain(inst, new_versions, use_oracle=True, with_trace=False):
    """One maintenance round against the currently bound versions."""
    if inst.bound_versions is None:
        raise UserError("rule has not been evaluated yet: run eval first")
    check_versions(inst.plan, new_versions)
    return _round(inst, inst.bound_versions, new_versions, use_oracle, with_trace)
