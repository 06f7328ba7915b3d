"""Interval-tree index over sensitivity records.

A sensitivity record pairs a key interval [lo, hi] with the context in
which the interval was observed: the values of the owning atom's
arguments bound before the indexed one (the prefix) and the values of
other key variables bound earlier in the join order (the context, a
payload for the oracle builder).

Records live in a max-scan tree ordered by (prefix, lo, hi, context);
interval ends aggregate as MAX while interval starts are ordered by the
key itself, so a stabbing query can prune every subtree whose max end is
below the probe or whose min start is above it.

Every change is one sorted batch applied by ``ScanTree.apply_sorted``:
an evaluation buffers the records it emits and ``add_batch`` merges them
once, when its stream is exhausted (it sorts and dedupes the batch in
place); ``stab_and_remove`` erases a stab's hits in one batch of
``(sort key, ABSENT)`` pairs; ``add`` is the batch of one.
"""

from typing import NamedTuple

from .errors import UserError
from .keys import KEY_MAX, KEY_MIN, render_key
from .scantree import ABSENT, MAX_OP, ScanTree, _rec_key, _SLeaf


class SensitivityRecord(NamedTuple):
    prefix: tuple
    lo: int
    hi: int
    context: tuple

    def sort_key(self):
        return self.prefix + (self.lo, self.hi) + self.context

    def render(self) -> str:
        iv = f"[{render_key(self.lo)},{render_key(self.hi)}]"
        parts = [render_key(k) for k in self.prefix]
        parts.append(iv)
        parts.extend(render_key(k) for k in self.context)
        return parts[0] if len(parts) == 1 else "(" + ", ".join(parts) + ")"


class IntervalIndex:
    def __init__(self, prefix_len: int, context_len: int):
        self.prefix_len = prefix_len
        self.context_len = context_len
        self.tree = ScanTree(MAX_OP)
        self.stats = {"visits": 0}

    def __len__(self):
        return self.tree.size

    def _record_of(self, sort_key):
        p = self.prefix_len
        return SensitivityRecord(
            sort_key[:p], sort_key[p], sort_key[p + 1], sort_key[p + 2 :]
        )

    def add(self, rec: SensitivityRecord) -> bool:
        if len(rec.prefix) != self.prefix_len or len(rec.context) != self.context_len:
            raise UserError("sensitivity record shape mismatch")
        return self.add_batch([(rec.sort_key(), rec.hi)]) == 1

    def add_batch(self, records) -> int:
        """Merge (sort key, hi) pairs into the index; returns how many were new.

        Sorts ``records`` in place and drops its duplicates; pairs already
        indexed are skipped.  The sort key holds ``hi``, so sorting by it
        alone orders the pairs, with one tuple walk per compare.
        """
        records.sort(key=_rec_key)
        p = self.prefix_len
        kept, prev = 0, None
        for rec in records:
            if rec == prev:
                continue
            if rec[0][p] > rec[1]:
                raise UserError(f"interval lo > hi: {self._record_of(rec[0])}")
            records[kept] = prev = rec
            kept += 1
        del records[kept:]
        return self.tree.apply_sorted(records)

    def enumerate(self):
        for key, _ in self.tree.items():
            yield self._record_of(key)

    def stab(self, prefix: tuple, x: int):
        """All records with this prefix whose interval contains x."""
        out = []
        root = self.tree.root
        if root is None:
            return out
        plen = self.prefix_len
        tail = 2 + self.context_len
        plo = prefix + (KEY_MIN,) * tail
        phi = prefix + (KEY_MAX,) * tail
        stats = self.stats

        def visit(visit, node):  # recurses through its argument: no cycle
            stats["visits"] += 1
            if node.max_key < plo or node.min_key > phi:
                return
            if node.agg < x:
                return  # every interval end in here is below x
            if (
                node.min_key[:plen] == prefix
                and node.max_key[:plen] == prefix
                and node.min_key[plen] > x
            ):
                return  # fully inside the prefix and every start is above x
            if isinstance(node, _SLeaf):
                for key, hi in node.records:
                    if key[:plen] == prefix and key[plen] <= x <= hi:
                        out.append(self._record_of(key))
                return
            visit(visit, node.left)
            visit(visit, node.right)

        visit(visit, root)
        return out

    def stab_and_remove(self, prefix: tuple, x: int):
        """``stab``, then erase its hits (in key order) in one batch."""
        hits = self.stab(prefix, x)
        self.tree.apply_sorted([(rec.sort_key(), ABSENT) for rec in hits])
        return hits
