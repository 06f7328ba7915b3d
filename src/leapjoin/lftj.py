"""Leapfrog triejoin evaluation.

The evaluator runs a backtracking search over the key order, one nested
leapfrog intersection per depth, over the trie cursors of the body atoms
(plus, under maintenance, the change oracle's nonmaterialized interval
iterator, which joins a depth's leapfrog as its last participant).
Every cursor transition is counted, optionally traced, and optionally
converted into a sensitivity interval:

* seek_lub(s) landing at v'  ->  [s, v']
* next() from v landing at v' -> [v, v']
* open() with first key v     -> [-inf, v]

with v' = +inf when the transition runs off the end of the level.  Each
interval is stored under the owning atom's argument prefix together with
the other key variables bound at shallower depths, laid out by the plan's
``IndexPlan.emit``.  Emitted intervals are buffered per index while the
evaluation runs and merged into the indices once, when the assignment
stream is exhausted.

The accounting is inline: each move returns its cursor's landing key
(None at the end of the level), which is kept as that cursor's key
for the rest of the intersection, and from it appends the trace event
and emits the interval.  Each level counts its opens, seeks, nexts and
ups in a local and adds them to ``Counter.ops`` once, when the level
closes, so the count is whole once the stream is exhausted or closed.
Each depth's participants carry their sensitivity buffer and sort-key
getter, looked up once per evaluation.  The trie cursors step within
their leaf at the last level (see ``store.TrieCursor``).

A level pays only for what it holds.  Where its only participant is one
atom cursor (no oracle), that cursor is always aligned with itself, so
the leapfrog loop skips its alignment pass and only steps the cursor.
Once a level's keys align, it reads its value binds (the plan's
``BranchPlan.binds``, (atom, value slot) pairs) in a plain loop, and only
then runs its steps (value checks, filters and primitives), which can
reject the key.

A disjunction's branches are evaluated as separate streams, each
increasing and duplicate-free, and meet in a fold of two-way sorted
unions, which yields an item the branches share once; a one-branch rule
yields its stream as it is.
"""

from bisect import bisect_left
from functools import reduce
from operator import itemgetter

from .errors import UserError
from .keys import KEY_MAX, KEY_MIN
from .trace import NEXT, OPEN, SEEK, UP

_interval_hi = itemgetter(1)


class Counter:
    __slots__ = ("ops",)

    def __init__(self):
        self.ops = 0


class SensitivityRecorder:
    """Buffers emitted intervals for the per-(branch, atom, level) indices.

    ``pending`` holds one list of (sort key, hi) pairs per index;
    ``flush`` merges each into its index and counts the new records in
    ``added``.  An evaluation flushes its recorder when its stream is
    exhausted, so a stream closed early adds nothing.
    """

    def __init__(self, indices):
        self.indices = indices
        self.pending = {key: [] for key in indices}
        self.added = 0

    def flush(self):
        for key, records in self.pending.items():
            if records:
                self.added += self.indices[key].add_batch(records)
                records.clear()


class _OracleCursor:
    """Presents a merged interval list as a one-level trie iterator.

    The evaluator opens it once, never moves it up, and only seeks it
    forward: it joins its depth's leapfrog as the last participant, and
    the leapfrog keeps the key each move returns.
    """

    __slots__ = ("entry", "iv", "i")

    def __init__(self, entry):
        self.entry = entry
        self.iv = entry.merged

    def open(self):
        """Stand at the first interval's start (the list is never empty)."""
        self.i = 0
        return self.iv[0][0]

    def seek_lub(self, k):
        """Move to the least key >= k; returns it, or None when none is left."""
        iv = self.iv
        i = self.i = bisect_left(iv, k, self.i, key=_interval_hi)
        if i == len(iv):
            return None
        return max(iv[i][0], k)


def check_versions(plan, versions):
    """Refuse a version map that lacks a body predicate of ``plan``."""
    for bp in plan.branches:
        for ap in bp.atoms:
            if ap.atom.pred not in versions:
                raise UserError(f"no version bound for {ap.atom.pred}")


def evaluate(
    plan,
    versions,
    *,
    recorder=None,
    oracle=None,
    trace=None,
    counter=None,
):
    """Yield satisfying assignments (key tuple, value tuple) in key order.

    ``versions`` maps predicate names to RelationVersions.  With
    ``oracle`` set, evaluation at each depth is intersected with the
    oracle's intervals for the bound prefix until some shallower key
    landed inside an admitting interval.  With ``recorder`` set, fresh
    sensitivity intervals are buffered in it and merged into its indices
    once the stream is exhausted; until then the indices are untouched.
    """
    check_versions(plan, versions)
    if counter is None:
        counter = Counter()

    gens = [
        _branch_gen(plan, bi, bp, versions, recorder, oracle, trace, counter)
        for bi, bp in enumerate(plan.branches)
    ]
    yield from reduce(_union, gens)
    if recorder is not None:
        recorder.flush()


def _union(left, right):
    """The sorted union of two increasing, duplicate-free streams.

    It steps the streams as ``heapq.merge`` over the branches does: the
    left stream first, each stream again once the item it stands at has
    been yielded, and on equal items (yielded once) the left stream
    before the right one.  Folded over the branches from the left, it
    therefore steps them, and so appends their trace events, in
    ``heapq.merge``'s order.
    """
    a = next(left, None)
    b = next(right, None)
    while a is not None and b is not None:
        if a < b:
            yield a
            a = next(left, None)
        elif b < a:
            yield b
            b = next(right, None)
        else:
            yield a
            a = next(left, None)
            b = next(right, None)
    if a is not None:
        yield a
        yield from left
    elif b is not None:
        yield b
        yield from right


def _branch_gen(plan, bi, bp, versions, recorder, oracle, trace, counter):
    """The assignment stream of one branch: a generator over depth 1."""
    K = len(plan.key_order)
    atoms = bp.atoms
    cursors = [versions[ap.atom.pred].cursor() for ap in atoms]
    oracle_name = f"b{bi}.oracle" if len(plan.branches) > 1 else "oracle"
    keystack = [None] * K
    vslots = [None] * len(plan.value_order)
    # (atom, level) -> (buffer append, IndexPlan.emit over (*keystack, lo, hi))
    sens = {}
    if recorder is not None:
        for (b, pos, lvl), records in recorder.pending.items():
            if b == bi:
                sens[(pos, lvl)] = (records.append, plan.index_specs[b, pos, lvl].emit)
    # per depth: (cursor, iterator name, sensitivity slot or None) of
    # each participating atom; descend appends the oracle's under it
    levels = [None] + [
        [(cursors[pos], atoms[pos].name, sens.get((pos, lvl))) for pos, lvl in parts]
        for parts in bp.participants[1:]
    ]

    def fetch(src):
        tag, i = src
        return keystack[i - 1] if tag == "k" else vslots[i]

    def run_steps(steps):
        for step in steps:
            tag = step[0]
            if tag == "checkval":
                if cursors[step[1]].value() != vslots[step[2]]:
                    return False
            elif tag == "filter":
                if not step[1](*(fetch(s) for s in step[2])):
                    return False
            elif tag == "primbind":
                vslots[step[3]] = step[1](*(fetch(s) for s in step[2]))
            else:  # primcheck
                if step[1](*(fetch(s) for s in step[2])) != fetch(step[3]):
                    return False
        return True

    # descend recurses through its argument, not through its own name: no
    # closure cell refers back to it, so reference counting frees an
    # evaluation's closures and cursors without the cyclic collector
    def descend(d, admitted, deeper):
        """Open depth d, leapfrog its participants, go deeper, close it."""
        atom_parts = parts = levels[d]
        if not admitted:
            entry = oracle.entry(d, tuple(keystack[: d - 1]))
            if entry is None:
                return
            oc = _OracleCursor(entry)
            parts = atom_parts + [(oc, oracle_name, None)]
        binds = bp.binds[d]
        steps = bp.steps[d]
        keys = []  # keys[j]: the key parts[j]'s cursor stands at, or None
        for cur, name, slot in parts:
            to = cur.open()
            keys.append(to)
            if trace is not None:
                trace.append((name, OPEN, d, None, None, to))
            if slot is not None:
                append, sort_key = slot
                hi = KEY_MAX if to is None else to
                append((sort_key((*keystack, KEY_MIN, hi)), hi))
        ops = len(parts)  # the level's moves, added to counter.ops as it closes
        try:
            if None in keys:
                return
            first, first_name, first_slot = parts[0]
            lone = len(parts) == 1  # one cursor stands aligned with itself
            cur_max = max(keys)
            while True:
                if not lone:
                    aligned = True
                    for j, k in enumerate(keys):
                        if k < cur_max:
                            cur, name, slot = parts[j]
                            to = cur.seek_lub(cur_max)
                            ops += 1
                            if trace is not None:
                                trace.append((name, SEEK, d, k, cur_max, to))
                            if slot is not None:
                                append, sort_key = slot
                                hi = KEY_MAX if to is None else to
                                append((sort_key((*keystack, cur_max, hi)), hi))
                            if to is None:
                                return
                            keys[j] = to
                            if to > cur_max:
                                cur_max = to
                                aligned = False
                    if not aligned:
                        continue
                keystack[d - 1] = cur_max
                for pos, i in binds:
                    vslots[i] = cursors[pos].value()
                if not steps or run_steps(steps):
                    if d == K:
                        yield (tuple(keystack), tuple(vslots))
                    else:
                        adm = admitted or oc.entry.admits(cur_max)
                        yield from deeper(d + 1, adm, deeper)
                frm = keys[0]
                to = first.next()
                ops += 1
                if trace is not None:
                    trace.append((first_name, NEXT, d, frm, None, to))
                if first_slot is not None:
                    append, sort_key = first_slot
                    hi = KEY_MAX if to is None else to
                    append((sort_key((*keystack, frm, hi)), hi))
                if to is None:
                    return
                keys[0] = cur_max = to
        finally:
            for cur, name, _ in reversed(atom_parts):
                cur.up()
                if trace is not None:
                    to = None if cur.depth == 0 or cur.at_end() else cur.key()
                    trace.append((name, UP, d, None, None, to))
            counter.ops += ops + len(atom_parts)

    return descend(1, oracle is None, descend)
