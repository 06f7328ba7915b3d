"""Shared test helpers.

The naive evaluator here is the independent oracle for join results: it
enumerates satisfying assignments by nested loops over the stored record
sets, with no tries, no iterators, and no sensitivity machinery, and
derives expected head states per head kind from the raw assignment
multiset.
"""

from fractions import Fraction

from leapjoin.heads import SegmentedFloat
from leapjoin.driver import RuleInstance, bootstrap
from leapjoin.parser import parse_rule
from leapjoin.rules import PRIMITIVE, PRIMITIVE_FUNCS, PRIMITIVE_RELS, validate_key_order
from leapjoin.scantree import wrap64
from leapjoin.store import Relation


def _unify(env, args, values):
    env2 = env
    for var, val in zip(args, values):
        bound = env2.get(var)
        if bound is None:
            if env2 is env:
                env2 = dict(env)
            env2[var] = val
        elif bound != val:
            return None
    return env2 if env2 is not env else dict(env)


def naive_assignments(plan, versions):
    """All satisfying assignments as sorted (key tuple, value tuple)."""
    out = set()
    for bp in plan.branches:
        atoms = [ap.atom for ap in bp.atoms]
        # primitives are collected from the whole rule body, so test
        # rules must not place primitives inside disjunction branches
        envs = [{}]
        for atom in atoms:
            new_envs = []
            recs = list(versions[atom.pred].records())
            for env in envs:
                for keys, value in recs:
                    env2 = _unify(env, atom.key_args, keys)
                    if env2 is None:
                        continue
                    if atom.value_args:
                        env3 = _unify(env2, atom.value_args, (value,))
                        if env3 is None:
                            continue
                        env2 = env3
                    new_envs.append(env2)
            envs = new_envs
        for env in envs:
            env = _run_prims(plan, env)
            if env is None:
                continue
            keys = tuple(env[v] for v in plan.key_order)
            vals = tuple(env.get(v) for v in plan.value_order)
            out.add((keys, vals))
    return sorted(out)


def _rule_prims(plan):
    from leapjoin.rules import _walk_atoms

    return [a for a in _walk_atoms(plan.rule.body) if a.kind == PRIMITIVE]


def _run_prims(plan, env):
    pending = list(_rule_prims(plan))
    while pending:
        progressed = False
        rest = []
        for p in pending:
            vals = [env.get(v) for v in p.key_args]
            if any(v is None for v in vals):
                rest.append(p)
                continue
            progressed = True
            if p.pred in PRIMITIVE_RELS:
                if not PRIMITIVE_RELS[p.pred](*vals):
                    return None
            else:
                r = PRIMITIVE_FUNCS[p.pred](*vals)
                var = p.value_args[0]
                if var in env:
                    if env[var] != r:
                        return None
                else:
                    env[var] = r
        if not progressed:
            break
        pending = rest
    return env


def _fetch(plan, assignment, src):
    keys, vals = assignment
    tag, i = src
    return keys[i - 1] if tag == "k" else vals[i]


def expected_head(plan, head_index, assignments):
    """Canonical expected head state from an assignment list."""
    hp = plan.heads[head_index]
    kind = hp.kind
    if kind == "DIRECT":
        return {
            tuple(_fetch(plan, a, s) for s in hp.key_sources): (
                _fetch(plan, a, hp.value_source) if hp.value_source else None
            )
            for a in assignments
        }
    groups = {}
    for a in assignments:
        hk = tuple(_fetch(plan, a, s) for s in hp.key_sources)
        payload = _fetch(plan, a, hp.value_source) if hp.value_source else None
        groups.setdefault(hk, []).append(payload)
    if kind == "COUNTED":
        if hp.atom.value_args:
            out = {}
            for hk, ps in groups.items():
                assert len(set(ps)) == 1, "oracle hit a head FD violation"
                out[hk] = (ps[0], len(ps))
            return out
        return {hk: len(ps) for hk, ps in groups.items()}
    if kind == "COUNT":
        return {hk: len(ps) for hk, ps in groups.items()}
    if kind == "GROUP_SUM":
        return {
            hk: (wrap64(sum(ps)), len(ps)) for hk, ps in groups.items()
        }
    if kind == "FLOAT_TOTAL":
        return {
            hk: (sum(Fraction(float(p)) for p in ps), len(ps))
            for hk, ps in groups.items()
        }
    if kind == "MAX":
        return {hk: max(ps) for hk, ps in groups.items()}
    if kind == "MIN":
        return {hk: min(ps) for hk, ps in groups.items()}
    raise AssertionError(kind)


def tree_nodes(tree):
    """Every node object of a ScanTree, in a fixed walk order."""
    return _nodes_under(tree.root)


def index_nodes(ix):
    """Every node object of every partition of an IntervalIndex, in prefix order."""
    parts = ix.parts
    return [node for prefix in sorted(parts) for node in _nodes_under(parts[prefix])]


def _nodes_under(root):
    out, stack = [], [root] if root is not None else []
    while stack:
        node = stack.pop()
        out.append(node)
        if hasattr(node, "left"):
            stack += [node.right, node.left]
    return out


def head_snapshot(head_state):
    """Canonical actual head state, comparable with expected_head."""
    out = {}
    for keys, value in head_state.relation.current.records():
        if head_state.kind == "FLOAT_TOTAL":
            segs, eta = value
            out[keys] = (SegmentedFloat(dict(segs)).to_exact(), eta)
        else:
            out[keys] = value
    return out


# -- instance builders -------------------------------------------------------


class Engine:
    """A workspace-less harness: relations + one installed rule."""

    def __init__(self, rule_text, rel_specs, leaf_capacity=16):
        self.relations = {
            name: Relation(name, arity, is_function=is_func, leaf_capacity=leaf_capacity)
            for name, (arity, is_func) in rel_specs.items()
        }
        catalog = {n: spec for n, spec in rel_specs.items()}
        self.plan = validate_key_order(parse_rule(rule_text, catalog))
        self.inst = self.instance("")
        self.head_rels = {h.relation.name: h.relation for h in self.inst.heads}

    def instance(self, suffix):
        """A new instance of the rule; its head relations' names end in ``suffix``."""
        heads = [
            Relation(
                f"{hp.atom.pred}{suffix}",
                len(hp.atom.key_args),
                is_function=hp.stores_value,
            )
            for hp in self.plan.heads
        ]
        return RuleInstance(self.plan, heads)

    def versions(self):
        return {n: r.current for n, r in self.relations.items()}

    def head_records(self, name):
        return sorted(k for k, _ in self.head_rels[name].current.records())

    def fresh_reference(self):
        """A throwaway instance over the same plan for from-scratch checks."""
        ref = self.instance("__ref")
        bootstrap(ref, self.versions(), with_trace=False)
        return ref

    def load(self, name, rows, rng=None):
        rel = self.relations[name]
        txn = rel.begin()
        for row in rows:
            if rel.is_function:
                keys, value = row[:-1], row[-1]
                if txn.lookup(tuple(keys)) is None:
                    txn.insert(tuple(keys), value)
            else:
                txn.insert(tuple(row))
        txn.commit()

    def random_fill(self, rng, per_relation, dom, value_of=None):
        for name, rel in self.relations.items():
            txn = rel.begin()
            for _ in range(per_relation):
                keys = tuple(rng.randrange(dom) for _ in range(rel.arity))
                if rel.is_function:
                    if txn.lookup(keys) is None:
                        txn.insert(keys, value_of(rng) if value_of else rng.randrange(1000))
                else:
                    txn.insert(keys)
            txn.commit()

    def random_edits(self, rng, count, dom, value_of=None):
        names = sorted(self.relations)
        for _ in range(count):
            rel = self.relations[rng.choice(names)]
            txn = rel.begin()
            keys = tuple(rng.randrange(dom) for _ in range(rel.arity))
            if rng.random() < 0.5:
                if rel.is_function:
                    cur = txn.lookup(keys)
                    value = value_of(rng) if value_of else rng.randrange(1000)
                    if cur is None:
                        txn.insert(keys, value)
                    else:
                        txn.erase(keys)
                        txn.insert(keys, value)
                else:
                    txn.insert(keys)
            else:
                txn.erase(keys)
            txn.commit()
