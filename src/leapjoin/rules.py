"""Internal representation of rules and join planning.

A rule is a head (one or more atoms) over a body conjunction whose forms
are atoms, disjunctions or parenthesized conjunctions (the parser
refuses negation).  Every head variable but an aggregation's output must
occur in the body; body-only variables are projected away by support
counts, so no stage needs to know where they are scoped.  Variables with
a key-position occurrence in some materialized body atom are keys; the
rest are values, computed from function payloads and primitives once
their inputs bind.

``validate_key_order`` is the one place a rule's facts are decided.  It
expands the body to disjunctive normal form, assigns every key variable
a depth in the join order, schedules value bindings and primitive
filters at the depth where their inputs complete, and fixes each
sensitivity index in one ``IndexPlan`` per (branch, atom, level): an
index is elided when the atom's key arguments up to that level form a
prefix of the join order, since branch changes there already name their
position in order coordinates; otherwise the ``IndexPlan`` holds the
record layout, as the evaluator's sort-key getter and its inverse, the
oracle builder's bound prefix.  The plan also names each atom's
iterator for traces and dumps (``b<i>.`` qualifies a disjunction
branch's atoms) and decides each head's kind, whether its relation
stores a value (``HeadPlan.stores_value``) and whether a primitive
computes that value in some branch (``HeadPlan.value_computed``).
"""

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Optional

from .errors import UserError

MATERIALIZED_RELATION = "MATERIALIZED_RELATION"
MATERIALIZED_FUNCTION = "MATERIALIZED_FUNCTION"
PRIMITIVE = "PRIMITIVE"

KEY = "KEY"
VALUE = "VALUE"

PRIMITIVE_FUNCS: dict[str, Callable] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
}

PRIMITIVE_RELS: dict[str, Callable] = {
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
}

@dataclass(frozen=True)
class Atom:
    pred: str
    kind: str
    key_args: tuple
    value_args: tuple = ()

    def render(self) -> str:
        if self.value_args:
            return f"{self.pred}[{','.join(self.key_args)}]={self.value_args[0]}"
        return f"{self.pred}({','.join(self.key_args)})"


@dataclass(frozen=True)
class Disj:
    branches: tuple


@dataclass(frozen=True)
class Conj:
    forms: tuple


@dataclass(frozen=True)
class AggSpec:
    kind: str
    input_var: Optional[str]
    output_var: str


@dataclass(frozen=True)
class RuleIR:
    heads: tuple
    body: Conj
    agg: Optional[AggSpec] = None
    key_order: Optional[tuple] = None
    force_sens: bool = False


def _walk_atoms(form):
    if isinstance(form, Atom):
        yield form
    elif isinstance(form, Conj):
        for f in form.forms:
            yield from _walk_atoms(f)
    elif isinstance(form, Disj):
        for b in form.branches:
            yield from _walk_atoms(b)


def classify_variables(rule: RuleIR) -> dict:
    """KEY iff the variable has a key-position occurrence in some
    materialized body atom; primitives contribute no key positions."""
    occurs: dict[str, str] = {}
    for atom in _walk_atoms(rule.body):
        materialized = atom.kind != PRIMITIVE
        for v in atom.key_args:
            if materialized:
                occurs[v] = KEY
            else:
                occurs.setdefault(v, VALUE)
        for v in atom.value_args:
            occurs.setdefault(v, VALUE)
    head_vars = {v for h in rule.heads for v in h.key_args + h.value_args}
    if rule.agg is not None:
        head_vars.discard(rule.agg.output_var)
    for v in sorted(head_vars):
        if v not in occurs:
            raise UserError(f"variable {v} does not occur in the body")
    if rule.agg is not None and rule.agg.input_var is not None:
        if rule.agg.input_var not in occurs:
            raise UserError(
                f"aggregation input {rule.agg.input_var} does not occur in the body"
            )
    return occurs


def _mentions_all(head: Atom, keys) -> bool:
    """True when the head projects no key variable away."""
    return set(keys) <= set(head.key_args + head.value_args)


def is_projection_free(rule: RuleIR) -> bool:
    kinds = classify_variables(rule)
    keys = [v for v, k in kinds.items() if k == KEY]
    return all(_mentions_all(h, keys) for h in rule.heads)


def default_key_order(rule: RuleIR):
    kinds = classify_variables(rule)
    order = []
    for atom in _walk_atoms(rule.body):
        if atom.kind == PRIMITIVE:
            continue
        for v in atom.key_args:
            if kinds[v] == KEY and v not in order:
                order.append(v)
    return tuple(order)


def dnf_branches(body: Conj):
    """Expand disjunctions; each result is a flat atom list."""
    branches = [[]]
    for form in body.forms:
        if isinstance(form, Atom):
            for b in branches:
                b.append(form)
        elif isinstance(form, (Conj, Disj)):
            # a parenthesized conjunction is a one-alternative disjunction
            alts = form.branches if isinstance(form, Disj) else (form,)
            expanded = []
            for alt in alts:
                for sub in dnf_branches(alt):
                    expanded.extend(b + sub for b in (list(x) for x in branches))
            branches = expanded
        else:
            raise UserError(f"unexpected body form {form!r}")
    return branches


# -- plan ------------------------------------------------------------------


@dataclass
class AtomPlan:
    atom: Atom
    name: str  # iterator name in traces and dumps: b<i>.<pred>[#n] in a disjunction
    depths: tuple  # global depth of each key arg, strictly increasing


@dataclass(frozen=True)
class IndexPlan:
    """The record layout of one (branch, atom, level) sensitivity index.

    A record is (prefix..., lo, hi, context...): the atom's arguments
    bound before the level, the interval, then the other key variables
    bound at shallower depths, each in depth order.
    """

    prefix_len: int
    context_len: int
    depth: int  # the join-order depth of the indexed argument
    emit: Callable  # (*keystack, lo, hi) -> the record's sort key
    oracle_prefix: Callable  # prefix + context -> keystack[:depth - 1]


@dataclass
class BranchPlan:
    atoms: list
    participants: list  # per depth (1-based): list of (atom_pos, level)
    binds: list  # per depth: list of (atom_pos, value slot) the level reads
    steps: list  # per depth: checkval, filter, primbind and primcheck steps


@dataclass
class HeadPlan:
    atom: Atom
    kind: str  # DIRECT | COUNTED | COUNT | GROUP_SUM | MIN | MAX | FLOAT_TOTAL
    key_sources: tuple  # per head key arg: ("k", depth) | ("v", value_idx)
    value_source: Optional[tuple]  # for function heads / agg input
    value_computed: bool = False  # a primitive binds value_source in some branch

    @property
    def stores_value(self) -> bool:
        """Whether the head relation is a function: every head but a
        direct relation head keeps a value (or support count) per record."""
        return self.kind != "DIRECT" or bool(self.atom.value_args)


@dataclass
class Plan:
    rule: RuleIR
    key_order: tuple
    value_order: tuple
    branches: list
    heads: list
    index_specs: dict  # (branch, atom_pos, level) -> IndexPlan


def tuple_getter(positions):
    """An itemgetter that returns a tuple for any number of positions
    (a single-position itemgetter would return the item itself)."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions) if positions else itemgetter(slice(0, 0))


def _index_plan(depths, lvl, key_count):
    """The layout of the index on an atom's level ``lvl``; ``depths`` are
    its arguments' join-order depths, over ``key_count`` key variables."""
    depth = depths[lvl - 1]
    prefix = depths[: lvl - 1]
    context = tuple(d for d in range(1, depth) if d not in prefix)
    emit = itemgetter(
        *(d - 1 for d in prefix), key_count, key_count + 1, *(d - 1 for d in context)
    )
    # prefix + context holds every depth above ``depth`` once: put it back
    # in depth order
    slots = prefix + context
    order = sorted(range(len(slots)), key=slots.__getitem__)
    return IndexPlan(len(prefix), len(context), depth, emit, tuple_getter(order))


def _schedule_branch(atoms, order, value_order, qualifier):
    depth_of = {v: i + 1 for i, v in enumerate(order)}
    vslot = {v: i for i, v in enumerate(value_order)}
    K = len(order)
    plans = []
    participants = [[] for _ in range(K + 1)]  # index 1..K
    binds = [[] for _ in range(K + 1)]
    steps = [[] for _ in range(K + 1)]
    counts = Counter(a.pred for a in atoms if a.kind != PRIMITIVE)
    seen: dict[str, int] = {}
    value_bind_depth: dict[str, int] = {}
    producers: dict[str, list] = {}  # value var -> [(done_at, plan_pos)]

    for pos, atom in enumerate(atoms):
        if atom.kind == PRIMITIVE:
            continue
        depths = []
        for v in atom.key_args:
            d = depth_of.get(v)
            if d is None:
                raise UserError(f"{atom.render()}: {v} is not a key variable")
            if d in depths:
                raise UserError(
                    f"{atom.render()}: key argument {v} repeats; "
                    "an atom's key arguments must be distinct"
                )
            if depths and d <= depths[-1]:
                raise UserError(
                    f"{atom.render()}: key arguments must follow the join order "
                    f"{list(order)}"
                )
            depths.append(d)
        if counts[atom.pred] > 1:
            seen[atom.pred] = seen.get(atom.pred, 0) + 1
            name = f"{qualifier}{atom.pred}#{seen[atom.pred]}"
        else:
            name = qualifier + atom.pred
        plans.append(AtomPlan(atom, name, tuple(depths)))
        pos_in_plans = len(plans) - 1
        for lvl, d in enumerate(depths, start=1):
            participants[d].append((pos_in_plans, lvl))
        if atom.value_args:
            producers.setdefault(atom.value_args[0], []).append(
                (depths[-1], pos_in_plans)
            )

    for d in range(1, K + 1):
        if not participants[d]:
            raise UserError(
                f"variable {order[d - 1]} has no key-position occurrence "
                "in some disjunction branch"
            )

    # bind each value variable at its shallowest producer, read before the
    # level's steps run; later producers become equality checks at their
    # own completion depth.  A function's value may not be a key of the
    # branch too (a primitive's output may: see primcheck)
    for var, plist in producers.items():
        if var in depth_of:
            raise UserError(f"variable {var} is both a key and a value")
        plist.sort()
        done_at, pos = plist[0]
        value_bind_depth[var] = done_at
        binds[done_at].append((pos, vslot[var]))
        for other_at, other_pos in plist[1:]:
            steps[other_at].append(("checkval", other_pos, vslot[var]))

    def bound(v):
        """(source, depth) of a variable bound so far, else None."""
        if v in depth_of:
            return ("k", depth_of[v]), depth_of[v]
        if v in value_bind_depth:
            return ("v", vslot[v]), value_bind_depth[v]
        return None

    # primitive scheduling: repeat until every primitive has bound inputs
    pending = [a for a in atoms if a.kind == PRIMITIVE]
    progress = True
    while pending and progress:
        progress = False
        rest = []
        for atom in pending:
            inputs = [bound(v) for v in atom.key_args]
            if None in inputs:
                rest.append(atom)
                continue
            progress = True
            fn = PRIMITIVE_FUNCS.get(atom.pred) or PRIMITIVE_RELS.get(atom.pred)
            srcs = tuple(src for src, _ in inputs)
            hi = max(d for _, d in inputs)
            if atom.pred in PRIMITIVE_RELS:
                steps[hi].append(("filter", fn, srcs))
                continue
            out = atom.value_args[0]
            done = bound(out)
            if done is None:
                value_bind_depth[out] = hi
                steps[hi].append(("primbind", fn, srcs, vslot[out]))
            else:
                steps[max(hi, done[1])].append(("primcheck", fn, srcs, done[0]))
        pending = rest
    if pending:
        bad = ", ".join(a.render() for a in pending)
        raise UserError(f"cannot bind primitive inputs: {bad}")

    unbound = [v for v in value_order if v not in value_bind_depth]
    if unbound:
        raise UserError(f"value variables never bound: {', '.join(unbound)}")
    return BranchPlan(plans, participants, binds, steps)


def validate_key_order(rule: RuleIR, order=None) -> Plan:
    """Check the key order and compile the evaluation plan."""
    kinds = classify_variables(rule)
    keys = [v for v, k in kinds.items() if k == KEY]
    if order is None:
        order = rule.key_order or default_key_order(rule)
    order = tuple(order)
    if sorted(order) != sorted(set(order)):
        raise UserError("key order repeats a variable")
    for v in order:
        if kinds.get(v) != KEY:
            raise UserError(f"key order names non-key variable {v}")
    missing = [v for v in keys if v not in order]
    if missing:
        raise UserError(f"key order missing key variables: {', '.join(missing)}")

    value_order = tuple(sorted(v for v, k in kinds.items() if k == VALUE))
    branch_atom_lists = dnf_branches(rule.body)
    var_sets = [
        {v for a in atoms for v in a.key_args + a.value_args}
        for atoms in branch_atom_lists
    ]
    if any(vs != var_sets[0] for vs in var_sets[1:]):
        raise UserError("disjunction branches must bind the same variables")

    # a disjunction's atoms are named b<i>.<name> after their branch
    qualify = len(branch_atom_lists) > 1
    branches = [
        _schedule_branch(atoms, order, value_order, f"b{bi}." if qualify else "")
        for bi, atoms in enumerate(branch_atom_lists)
    ]

    depth_of = {v: i + 1 for i, v in enumerate(order)}
    vslot = {v: i for i, v in enumerate(value_order)}
    computed = {  # the value slots some branch binds by a primitive's output
        ("v", step[3])
        for bp in branches
        for level in bp.steps
        for step in level
        if step[0] == "primbind"
    }

    def source(v):
        """Where a head reads a variable: a key's depth or a value's slot."""
        return ("k", depth_of[v]) if kinds.get(v) == KEY else ("v", vslot[v])

    heads = []
    for h in rule.heads:
        if rule.agg is not None and rule.agg.output_var in h.key_args:
            raise UserError(
                f"aggregation output {rule.agg.output_var} cannot be a head key"
            )
        key_sources = tuple(source(v) for v in h.key_args)
        if rule.agg is None:
            kind = "DIRECT" if _mentions_all(h, keys) else "COUNTED"
            value_var = h.value_args[0] if h.value_args else None
        else:
            kind, value_var = rule.agg.kind, rule.agg.input_var
            if h.value_args != (rule.agg.output_var,):
                raise UserError(
                    "aggregation head must assign the aggregation output"
                )
            # scan-backed heads group by a contiguous key prefix
            prefix = tuple(("k", d) for d in range(1, len(key_sources) + 1))
            if kind in ("MIN", "MAX") and key_sources != prefix:
                raise UserError(
                    f"{kind} head keys must form a prefix of the "
                    f"key order {list(order)}"
                )
        value_source = None if value_var is None else source(value_var)
        heads.append(
            HeadPlan(h, kind, key_sources, value_source, value_source in computed)
        )

    index_specs = {
        (bi, pos, lvl): _index_plan(ap.depths, lvl, len(order))
        for bi, bp in enumerate(branches)
        for pos, ap in enumerate(bp.atoms)
        for lvl in range(1, len(ap.depths) + 1)
        if rule.force_sens or ap.atom.key_args[:lvl] != order[:lvl]
    }

    return Plan(
        rule=rule,
        key_order=order,
        value_order=value_order,
        branches=branches,
        heads=heads,
        index_specs=index_specs,
    )
