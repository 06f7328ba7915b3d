"""Interval-tree index over sensitivity records.

A sensitivity record pairs a key interval [lo, hi] with the context in
which the interval was observed: the values of the owning atom's
arguments bound before the indexed one (the prefix) and the values of
other key variables bound earlier in the join order (the context, a
payload for the oracle builder).

Every stab and every emitted record names one exact prefix, so the index
is partitioned by it: ``parts`` is a max-scan ``scantree.ScanTree``
with one partition per prefix, over that prefix's records ordered by
(prefix, lo, hi, context).  Interval ends aggregate as MAX while
interval starts are ordered by the key itself, so a stab looks its
prefix's root up and then prunes every subtree whose max end is below
the probe or whose min start is above it.  ``len`` is the tree's size.

Every change is one sorted batch, merged run by run (one run per
prefix): an evaluation buffers the records it emits and ``add_batch``
merges them once, when its stream is exhausted (it sorts and dedupes the
batch in place, and ``ScanTree.merge`` splits it at prefix
boundaries); ``stab_and_remove`` erases a stab's hits in one run of
``(sort key, ABSENT)`` pairs; ``add`` is the batch of one.  The
partitions' roots path-copy like any scan tree's, and the map records
the roots a round replaces, so ``driver`` puts back just those when a
round raises.  An index lives as long as its rule instance: a bootstrap
empties it in place (``ScanTree.reset``), so its stats accumulate.
"""

from itertools import compress
from operator import gt, itemgetter, ne
from typing import NamedTuple

from .errors import UserError
from .keys import render_key
from .scantree import ABSENT, LEAF_TARGET, MAX_OP, ScanTree, _rec_key, _SLeaf

_rec_hi = itemgetter(1)


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
        self.parts = ScanTree(MAX_OP, LEAF_TARGET, prefix_len)
        self.stats = {"visits": 0}

    @property
    def tree(self):
        """The scan tree ``parts``, which holds the stats."""
        return self.parts

    def __len__(self):
        return self.parts.size

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
        alone orders the pairs, with one tuple walk per compare.  The
        dedupe and the ``lo <= hi`` check are C-level passes over the
        sorted pairs; a faulty pair raises, naming the first one, before
        any partition changes.
        """
        records.sort(key=_rec_key)
        rest = records[1:]
        records[1:] = compress(rest, map(ne, rest, records))
        p = self.prefix_len
        los = map(itemgetter(p), map(_rec_key, records))
        bad = next(compress(records, map(gt, los, map(_rec_hi, records))), None)
        if bad is not None:
            raise UserError(f"interval lo > hi: {self._record_of(bad[0])}")
        return self.parts.merge(records)

    def enumerate(self):
        for key, _ in self.parts.records():
            yield self._record_of(key)

    def _stab_keys(self, prefix, x):
        out = []
        root = self.parts.get(prefix)
        if root is None:
            return out
        plen = self.prefix_len
        stack, visits = [root], 0
        while stack:
            node = stack.pop()
            visits += 1
            if node.agg < x or node.min_key[plen] > x:
                continue  # every end in here is below x, or every start above
            if isinstance(node, _SLeaf):
                for key, hi in node.records:
                    if key[plen] > x:
                        break
                    if x <= hi:
                        out.append(key)
            else:
                stack += (node.right, node.left)
        self.stats["visits"] += visits
        return out

    def stab(self, prefix: tuple, x: int):
        """All records with this prefix whose interval contains x, in key order."""
        return [self._record_of(key) for key in self._stab_keys(prefix, x)]

    def stab_and_remove(self, prefix: tuple, x: int):
        """``stab``, then erase its hits (in key order) in one run."""
        keys = self._stab_keys(prefix, x)
        if keys:
            self.parts.merge([(key, ABSENT) for key in keys])
        return [self._record_of(key) for key in keys]

    # -- invariant checks (used by tests) ----------------------------------

    def audit(self):
        self.parts.audit()
