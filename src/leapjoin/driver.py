"""The maintenance cycle.

bootstrap: full-evaluate the rule, populate heads from the assignment
stream and sensitivity indices from the recorded iterator transitions
(buffered during the evaluation and bulk-built into fresh indices once
the stream is exhausted).  The old side is empty, so every assignment
routes to the heads as an insert, with no diff; a head whose keys prefix
the join order then receives its batch already in key order, which
``HeadState.apply``, the one place a head batch is ordered, keeps.
Heads stage on cleared workspaces, min/max heads into fresh scan trees,
and nothing of the instance changes until every head has staged: a
bootstrap that raises leaves it as it was.

maintain: turn version deltas into trie surgeries, match them against
the sensitivity indices to build the change oracle (the hits of each
stab are consumed: they leave the index in one sorted batch per stab),
evaluate the body over the old and the new versions restricted by the
oracle, diff the two assignment streams in key order, route the
differences to each head's update action, and let the new-side
evaluation refill the indices for the next round: it buffers the records
it emits and merges them into the indices once, in one descent per
index, when its stream is exhausted.  Nothing reads an index while an
evaluation runs, because the oracle is built before either side starts.

Each head stages a round in its own open transaction.  The heads commit
together once every one of them has succeeded; a raise aborts them all,
leaves the bound versions as they were, and puts the root of every
sensitivity index and min/max scan tree back (their edits path-copy, so
an old root is still a whole tree): the consumed hits, the new side's
merge and the min/max edits of a round that raised are undone.

Atoms whose key arguments prefix the join order carry no indices; their
surgeries contribute their own key as a point interval, which names the
changed region directly in join-order coordinates.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import islice, repeat
from operator import gt, itemgetter

from .errors import UserError
from .heads import (
    FUNCTION_VALUE,
    GROUPS,
    ScanBackedAggregate,
    apply_direct,
    apply_group,
    apply_semigroup,
    render_record,
)
from .intervals import IntervalIndex
from .keys import KEY_MAX, render_key
from .lftj import Counter, SensitivityRecorder, evaluate
from .scantree import MAX_OP, MIN_OP
from .store import ERASE, INSERT, surgery_iter

_delta_target, _delta_kind = itemgetter(0), itemgetter(2)


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
        return "\n".join(
            f"{name}={getattr(self, name)}"
            for name in (
                "ops_old",
                "ops_new",
                "oracle_intervals",
                "sens_consumed",
                "sens_added",
                "head_inserts",
                "head_erases",
            )
        )


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
    """Per-depth merged interval sets keyed by the bound key prefix.

    An interval at depth d admits every deeper binding under it; the
    prefixes of deeper contributions surface at shallower depths as
    point intervals so the evaluator can reach them.
    """

    def __init__(self, depth_count: int):
        self.depth_count = depth_count
        self._admit = {}  # (depth, prefix) -> [(lo, hi)]
        self._points = {}  # (depth, prefix) -> set of keys
        self._entries = None

    def add(self, depth, bound_prefix, lo, hi):
        self._admit.setdefault((depth, bound_prefix), []).append((lo, hi))
        for d in range(1, depth):
            self._points.setdefault((d, bound_prefix[: d - 1]), set()).add(
                bound_prefix[d - 1]
            )

    def finalize(self):
        entries = {}
        for key in set(self._admit) | set(self._points):
            admit = _merge_intervals(self._admit.get(key, ()))
            pts = [(p, p) for p in self._points.get(key, ())]
            merged = _merge_intervals(admit + pts)
            entries[key] = OracleEntry(merged, admit)
        self._entries = entries
        return self

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


def _extractor(head_plan, key_depth_count, scan_backed):
    """Map an assignment (keys, values) to one head's (target keys, payload).

    Both are read by position from keys + values; a scan-backed head's
    intermediate is keyed by the full binding.
    """

    def at(src):
        tag, i = src
        return i - 1 if tag == "k" else key_depth_count + i

    keys = [at(src) for src in head_plan.key_sources]
    if scan_backed:
        target = itemgetter(slice(0, key_depth_count))
    elif len(keys) == 1:  # one itemgetter index would give a scalar
        target = itemgetter(slice(keys[0], keys[0] + 1))
    else:
        target = itemgetter(*keys)
    vs = head_plan.value_source
    payload = (lambda row: None) if vs is None else itemgetter(at(vs))

    def extract(assignment):
        row = assignment[0] + assignment[1]
        return target(row), payload(row)

    return extract


class HeadState:
    """One head atom's store; its kind picks extract, update and render once."""

    def __init__(self, head_plan, relation, key_depth_count):
        self.plan = head_plan
        self.relation = relation
        self.kind = kind = head_plan.kind
        self.agg = None
        self.render = render_record
        if kind in ("MIN", "MAX"):
            op = MAX_OP if kind == "MAX" else MIN_OP
            self.agg = ScanBackedAggregate(op, key_depth_count)
            n = len(head_plan.key_sources)
            self._update = partial(apply_semigroup, self.agg, prefix_len=n)
        elif kind == "DIRECT":
            self._update = apply_direct
        else:
            fd = kind == "COUNTED" and head_plan.atom.value_args
            group = FUNCTION_VALUE if fd else GROUPS[kind]
            self._update = partial(apply_group, group=group)
            self.render = group.render
        self.extract = _extractor(head_plan, key_depth_count, self.agg is not None)
        # a bootstrap's head replaces the relation's records: it stages
        # on a cleared workspace
        self.replaces = False

    def apply(self, deltas):
        """Stage (target_keys, payload, delta) updates; returns the open txn.

        Deltas are sorted by target keys, erases first per key, unless the
        batch holds no erase and its keys never decrease (as inserts
        routed in evaluation order into a head whose keys prefix the join
        order do).  The caller commits the transaction, or aborts it; a
        raise aborts it here.
        """
        if ERASE in map(_delta_kind, deltas):
            ordered = False
        else:
            keys = list(map(_delta_target, deltas))
            ordered = not any(map(gt, keys, islice(keys, 1, None)))
        if not ordered:
            deltas = sorted(deltas, key=lambda d: (d[0], d[2] != ERASE))
        txn = self.relation.begin()
        try:
            if self.replaces:
                txn.clear()
            self._update(txn, deltas)
        except BaseException:
            txn.abort()
            raise
        return txn


class RuleInstance:
    def __init__(self, plan, head_relations):
        if len(head_relations) != len(plan.heads):
            raise UserError("one head relation per head atom")
        self.plan = plan
        self.heads = [
            HeadState(hp, rel, len(plan.key_order))
            for hp, rel in zip(plan.heads, head_relations)
        ]
        self.indices = {}
        self.bound_versions = None
        self.bootstrapped = False
        self.last_trace = None
        self.last_oracle = None

    def fresh_indices(self):
        return {
            key: IntervalIndex(plen, clen)
            for key, (plen, clen) in self.plan.index_specs.items()
        }

    def current_versions(self, relations):
        return {
            ap.atom.pred: relations[ap.atom.pred].current
            for bp in self.plan.branches
            for ap in bp.atoms
        }


def _assemble_prefix(ap, lvl, rec):
    d = ap.depths[lvl - 1]
    arr = [None] * (d - 1)
    for i, ad in enumerate(ap.depths[: lvl - 1]):
        arr[ad - 1] = rec.prefix[i]
    for i, cd in enumerate(ap.context_depths[lvl - 1]):
        arr[cd - 1] = rec.context[i]
    return tuple(arr)


def build_oracle(inst, old_versions, new_versions, consume=True):
    """Match tree surgeries against the sensitivity indices."""
    plan = inst.plan
    oracle = ChangeOracle(len(plan.key_order))
    consumed = 0
    for bi, bp in enumerate(plan.branches):
        for pos, ap in enumerate(bp.atoms):
            pred = ap.atom.pred
            old, new = old_versions[pred], new_versions[pred]
            if old is new or old.version_id == new.version_id:
                continue
            for surg in surgery_iter(old, new):
                lvl = surg.depth
                k = surg.prefix[-1]
                alpha = surg.prefix[:-1]
                idx = inst.indices.get((bi, pos, lvl))
                if idx is not None:
                    hits = (
                        idx.stab_and_remove(alpha, k)
                        if consume
                        else idx.stab(alpha, k)
                    )
                    consumed += len(hits)
                    d = ap.depths[lvl - 1]
                    for rec in hits:
                        oracle.add(d, _assemble_prefix(ap, lvl, rec), rec.lo, rec.hi)
                elif ap.exempt[lvl - 1]:
                    # args prefix the join order: the surgery names its own
                    # position in order coordinates
                    oracle.add(ap.depths[lvl - 1], alpha, k, k)
                else:
                    raise UserError(
                        f"no sensitivity index for {ap.name} level {lvl}"
                    )
    oracle.finalize()
    return oracle, consumed


def _diff(old_stream, new_stream, counts):
    """Old-only assignments as erases, new-only ones as inserts, in order.

    counts[0] and counts[1] tally the inserts and erases.
    """
    a = next(old_stream, None)
    b = next(new_stream, None)
    while a is not None or b is not None:
        if b is None or (a is not None and a < b):
            counts[1] += 1
            yield a, ERASE
            a = next(old_stream, None)
        elif a is None or b < a:
            counts[0] += 1
            yield b, INSERT
            b = next(new_stream, None)
        else:
            a = next(old_stream, None)
            b = next(new_stream, None)


def _route(heads, changes):
    """Apply (assignment, delta) changes to every head, committing none.

    Each head stages its batch in its own open transaction; when one
    head raises, every transaction staged so far is aborted, so a round
    either commits every head or none.  Returns the open transactions
    and the number of changes routed.
    """
    per_head = [[] for _ in heads]
    routes = [(h.extract, deltas.append) for h, deltas in zip(heads, per_head)]
    for assignment, delta in changes:
        for extract, append in routes:
            target, payload = extract(assignment)
            append((target, payload, delta))
    staged = []
    try:
        for head, deltas in zip(heads, per_head):
            staged.append(head.apply(deltas))
    except BaseException:
        for txn in staged:
            txn.abort()
        raise
    return staged, len(per_head[0])  # every head takes one delta per change


def bootstrap(inst, versions, with_trace=True):
    """Full evaluation: replaces the heads and the sensitivity indices.

    The evaluation fills fresh indices, and fresh head states (with empty
    min/max scan trees) stage each head on a cleared workspace.  Only
    once every head has staged are the indices and head states swapped
    in, the heads committed and the bound versions advanced: a bootstrap
    that raises leaves the instance as it was.
    """
    plan = inst.plan
    indices = inst.fresh_indices()
    heads = [HeadState(h.plan, h.relation, len(plan.key_order)) for h in inst.heads]
    for head in heads:
        head.replaces = True
    recorder = SensitivityRecorder(indices)
    counter = Counter()
    trace = [] if with_trace else None
    # the old side is empty: every assignment routes as an insert
    stream = evaluate(plan, versions, recorder=recorder, trace=trace, counter=counter)
    staged, n = _route(heads, zip(stream, repeat(INSERT)))
    for head, txn in zip(heads, staged):
        txn.commit()
        head.replaces = False
    inst.heads = heads
    inst.indices = indices
    inst.bound_versions = dict(versions)
    inst.bootstrapped = True
    inst.last_trace = trace
    inst.last_oracle = None
    return MaintenanceReport(
        ops_new=counter.ops,
        sens_added=recorder.added,
        head_inserts=n,
    )


def maintain(inst, new_versions, use_oracle=True, with_trace=False):
    """One maintenance round against the currently bound versions."""
    if not inst.bootstrapped:
        raise UserError("rule has not been evaluated yet: run eval first")
    plan = inst.plan
    old_versions = inst.bound_versions
    trees = [ix.tree for ix in inst.indices.values()]
    trees += [h.agg.tree for h in inst.heads if h.agg is not None]
    saved = [(tree, tree.root, tree.size) for tree in trees]
    try:
        oracle = None
        consumed = 0
        if use_oracle:
            oracle, consumed = build_oracle(inst, old_versions, new_versions)
        recorder = SensitivityRecorder(inst.indices)
        c_old, c_new = Counter(), Counter()
        trace = [] if with_trace else None
        old_stream = evaluate(plan, old_versions, oracle=oracle, counter=c_old)
        new_stream = evaluate(
            plan,
            new_versions,
            oracle=oracle,
            recorder=recorder,
            counter=c_new,
            trace=trace,
        )
        counts = [0, 0]
        staged, _ = _route(inst.heads, _diff(old_stream, new_stream, counts))
    except BaseException:
        for tree, root, size in saved:
            tree.root, tree.size = root, size
        raise
    for txn in staged:
        txn.commit()
    inst.bound_versions = dict(new_versions)
    if trace is not None:
        inst.last_trace = trace
    inst.last_oracle = oracle
    return MaintenanceReport(
        ops_old=c_old.ops,
        ops_new=c_new.ops,
        oracle_intervals=oracle.interval_count() if oracle is not None else 0,
        sens_consumed=consumed,
        sens_added=recorder.added,
        head_inserts=counts[0],
        head_erases=counts[1],
    )
