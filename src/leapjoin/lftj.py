"""Leapfrog triejoin evaluation.

The evaluator runs a backtracking search over the key order, one nested
leapfrog intersection per depth, over the trie cursors of the body atoms
(plus, under maintenance, the change oracle's nonmaterialized interval
iterator).  Every cursor transition is counted, optionally traced, and
optionally converted into a sensitivity interval:

* seek_lub(s) landing at v'  ->  [s, v']
* next() from v landing at v' -> [v, v']
* open() with first key v     -> [-inf, v]

with v' = +inf when the transition runs off the end of the level.  Each
interval is stored under the owning atom's argument prefix together with
the other key variables bound at shallower depths.  Emitted intervals are
buffered per index while the evaluation runs and merged into the
indices once, when the assignment stream is exhausted.
"""

import heapq
from operator import itemgetter

from .errors import UserError
from .keys import KEY_MAX, KEY_MIN
from .trace import NEXT, OPEN, SEEK, UP


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
    """Presents a merged interval list as an ascending key iterator."""

    __slots__ = ("entry", "iv", "i", "pos", "ended")

    def __init__(self, entry):
        self.entry = entry
        self.iv = entry.merged
        self.i = 0
        self.pos = self.iv[0][0]
        self.ended = False

    def key(self):
        return self.pos

    def at_end(self):
        return self.ended

    def next(self):
        if self.pos < self.iv[self.i][1]:
            self.pos += 1
        else:
            self.i += 1
            if self.i >= len(self.iv):
                self.ended = True
            else:
                self.pos = self.iv[self.i][0]
        return self.ended

    def seek_lub(self, k):
        if k <= self.pos:
            return self.ended
        iv = self.iv
        while self.i < len(iv) and iv[self.i][1] < k:
            self.i += 1
        if self.i >= len(iv):
            self.ended = True
        else:
            self.pos = max(iv[self.i][0], k)
        return self.ended


def _check_short_circuit(plan):
    sc = plan.short_circuit_depth
    if plan.rule.agg is not None:
        raise UserError("short-circuit evaluation cannot feed an aggregation")
    depths = sorted(
        {d for hp in plan.heads for (tag, d) in hp.key_sources if tag == "k"}
    )
    if depths != list(range(1, sc + 1)):
        raise UserError(
            "short-circuit needs the head key variables to form a prefix "
            f"of the key order {list(plan.key_order)}"
        )
    for hp in plan.heads:
        sources = list(hp.key_sources)
        if hp.value_source is not None:
            sources.append(hp.value_source)
        for tag, i in sources:
            if tag != "v":
                continue
            var = plan.value_order[i]
            for bp in plan.branches:
                if bp.value_bind_depth[var] > sc:
                    raise UserError(
                        f"head value {var} binds below the short-circuit depth"
                    )
    return sc


def evaluate(
    plan,
    versions,
    *,
    recorder=None,
    oracle=None,
    trace=None,
    counter=None,
    short_circuit=False,
):
    """Yield satisfying assignments (key tuple, value tuple) in key order.

    ``versions`` maps predicate names to RelationVersions.  With
    ``oracle`` set, evaluation at each depth is intersected with the
    oracle's intervals for the bound prefix until some shallower key
    landed inside an admitting interval.  With ``recorder`` set, fresh
    sensitivity intervals are buffered in it and merged into its indices
    once the stream is exhausted; until then the indices are untouched.
    """
    for bp in plan.branches:
        for ap in bp.atoms:
            if ap.atom.pred not in versions:
                raise UserError(f"no version bound for {ap.atom.pred}")
    if counter is None:
        counter = Counter()
    sc_depth = _check_short_circuit(plan) if short_circuit else 0

    gens = [
        _branch_gen(plan, bi, bp, versions, recorder, oracle, trace, counter, sc_depth)
        for bi, bp in enumerate(plan.branches)
    ]
    if len(gens) == 1:
        yield from gens[0]
    else:
        last = None
        for item in heapq.merge(*gens):
            if item != last:
                yield item
                last = item
    if recorder is not None:
        recorder.flush()


def _branch_gen(plan, bi, bp, versions, recorder, oracle, trace, counter, sc_depth):
    K = len(plan.key_order)
    cursors = [versions[ap.atom.pred].cursor() for ap in bp.atoms]
    atoms = bp.atoms
    if len(plan.branches) > 1:
        names = [f"b{bi}.{ap.name}" for ap in atoms]
        oracle_name = f"b{bi}.oracle"
    else:
        names = [ap.name for ap in atoms]
        oracle_name = "oracle"
    keystack = [None] * K
    vslots = [None] * len(plan.value_order)
    # (atom, level) -> (buffer, sort key getter over (*keystack, lo, hi))
    sens = None
    if recorder is not None:
        sens = {}
        for (b, pos, lvl), records in recorder.pending.items():
            if b == bi:
                ap = atoms[pos]
                prefix = [d - 1 for d in ap.depths[: lvl - 1]]
                context = [d - 1 for d in ap.context_depths[lvl - 1]]
                sens[(pos, lvl)] = (
                    records,
                    itemgetter(*prefix, K, K + 1, *context),
                )

    def record_op(name, op, depth, frm, arg, it):
        counter.ops += 1
        to = None if it.at_end() else it.key()
        if trace is not None:
            trace.append((name, op, depth, frm, arg, to))
        return to

    def emit_sens(pos, lvl, lo, to):
        slot = sens.get((pos, lvl))
        if slot is None:
            return
        records, sort_key = slot
        hi = KEY_MAX if to is None else to
        records.append((sort_key((*keystack, lo, hi)), hi))

    def fetch(src):
        tag, i = src
        return keystack[i - 1] if tag == "k" else vslots[i]

    def run_steps(d):
        for step in bp.steps[d]:
            tag = step[0]
            if tag == "bindval":
                vslots[step[2]] = cursors[step[1]].value()
            elif tag == "checkval":
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

    def descend(d, admitted):
        oc = None
        if not admitted:
            entry = oracle.entry(d, tuple(keystack[: d - 1]))
            if entry is None:
                return
            oc = _OracleCursor(entry)
        parts = bp.participants[d]
        opened = []
        ended = False
        for pos, lvl in parts:
            cur = cursors[pos]
            cur.open()
            opened.append(pos)
            to = record_op(names[pos], OPEN, d, None, None, cur)
            if sens:
                emit_sens(pos, lvl, KEY_MIN, to)
            if cur.at_end():
                ended = True
        if oc is not None:
            record_op(oracle_name, OPEN, d, None, None, oc)
        try:
            if not ended:
                yield from leapfrog(d, parts, oc, admitted)
        finally:
            for pos in reversed(opened):
                cur = cursors[pos]
                cur.up()
                counter.ops += 1
                if trace is not None:
                    to = None if cur.depth == 0 or cur.at_end() else cur.key()
                    trace.append((names[pos], UP, d, None, None, to))

    def leapfrog(d, parts, oc, admitted):
        first_pos, first_lvl = parts[0]
        first = cursors[first_pos]
        cur_max = max(cursors[pos].key() for pos, _ in parts)
        if oc is not None and oc.key() > cur_max:
            cur_max = oc.key()
        while True:
            aligned = True
            for pos, lvl in parts:
                cur = cursors[pos]
                k = cur.key()
                if k < cur_max:
                    arg = cur_max
                    cur.seek_lub(arg)
                    to = record_op(names[pos], SEEK, d, k, arg, cur)
                    if sens:
                        emit_sens(pos, lvl, arg, to)
                    if cur.at_end():
                        return
                    if cur.key() > cur_max:
                        cur_max = cur.key()
                        aligned = False
            if oc is not None and oc.key() < cur_max:
                frm = oc.key()
                oc.seek_lub(cur_max)
                record_op(oracle_name, SEEK, d, frm, cur_max, oc)
                if oc.at_end():
                    return
                if oc.key() > cur_max:
                    cur_max = oc.key()
                    aligned = False
            if not aligned:
                continue
            keystack[d - 1] = cur_max
            if run_steps(d):
                adm2 = admitted or (oc is not None and oc.entry.admits(cur_max))
                if d == K:
                    yield (tuple(keystack), tuple(vslots))
                elif d == sc_depth:
                    # one witness per head prefix: close the rest away
                    sub = descend(d + 1, adm2)
                    try:
                        for item in sub:
                            yield item
                            break
                    finally:
                        sub.close()
                else:
                    yield from descend(d + 1, adm2)
            frm = first.key()
            first.next()
            to = record_op(names[first_pos], NEXT, d, frm, None, first)
            if sens:
                emit_sens(first_pos, first_lvl, frm, to)
            if first.at_end():
                return
            cur_max = first.key()

    yield from descend(1, oracle is None)
