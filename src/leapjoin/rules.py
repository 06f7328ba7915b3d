"""Internal representation of rules and join planning.

A rule is a universally quantified head (one or more atoms) over a body
conjunction whose forms are atoms, disjunctions, or negations (negation
parses but is rejected before evaluation).  Variables with a key-position
occurrence in some materialized body atom are keys; the rest are values,
computed from function payloads and primitives once their inputs bind.

Planning expands disjunctions to disjunctive normal form, assigns every
key variable a depth in the join order, schedules value bindings and
primitive filters at the depth where their inputs complete, and decides
which (atom, level) pairs need sensitivity indices: an index is elided
when the atom's key arguments up to that level form a prefix of the join
order, since branch changes there already name their position in order
coordinates.
"""

from dataclasses import dataclass
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

AGG_KINDS = ("COUNT", "GROUP_SUM", "MIN", "MAX", "FLOAT_TOTAL")


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
class Negation:
    body: "Conj"


@dataclass(frozen=True)
class Disj:
    branches: tuple


@dataclass(frozen=True)
class Conj:
    forms: tuple
    existentials: tuple = ()


@dataclass(frozen=True)
class AggSpec:
    kind: str
    input_var: Optional[str]
    output_var: str


@dataclass(frozen=True)
class RuleIR:
    universals: tuple
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
    elif isinstance(form, Negation):
        yield from _walk_atoms(form.body)


def infer_quantifiers(heads, body: Conj, agg=None):
    """Rebuild the body with existential blocks on the smallest
    conjunction encompassing each body-only variable's occurrences."""
    head_vars = set()
    for h in heads:
        head_vars.update(h.key_args)
        head_vars.update(h.value_args)
    if agg is not None:
        head_vars.discard(agg.output_var)

    paths: dict[str, list[tuple]] = {}

    def collect(form, path):
        if isinstance(form, Atom):
            for v in form.key_args + form.value_args:
                paths.setdefault(v, []).append(path)
        elif isinstance(form, Conj):
            for i, f in enumerate(form.forms):
                collect(f, path + (i,))
        elif isinstance(form, Disj):
            for i, b in enumerate(form.branches):
                collect(b, path + (i,))
        elif isinstance(form, Negation):
            collect(form.body, path + (0,))

    collect(body, ())

    def common_prefix(ps):
        first = ps[0]
        n = len(first)
        for p in ps[1:]:
            n = min(n, len(p))
            while first[:n] != p[:n]:
                n -= 1
        return first[:n]

    owner: dict[tuple, list] = {}
    for v, ps in paths.items():
        if v in head_vars:
            continue
        anchor = common_prefix(ps)
        # walk the anchor upward until it names a Conj node
        while True:
            node = body
            is_conj = True
            for step in anchor:
                if isinstance(node, Conj):
                    node = node.forms[step]
                elif isinstance(node, Disj):
                    node = node.branches[step]
                elif isinstance(node, Negation):
                    node = node.body
                else:
                    is_conj = False
                    break
            if is_conj and isinstance(node, Conj):
                break
            anchor = anchor[:-1]
        owner.setdefault(anchor, []).append(v)

    def rebuild(form, path):
        if isinstance(form, Conj):
            forms = tuple(rebuild(f, path + (i,)) for i, f in enumerate(form.forms))
            ex = tuple(sorted(owner.get(path, ())))
            return Conj(forms, ex)
        if isinstance(form, Disj):
            return Disj(
                tuple(rebuild(b, path + (i,)) for i, b in enumerate(form.branches))
            )
        if isinstance(form, Negation):
            return Negation(rebuild(form.body, path + (0,)))
        return form

    universals = tuple(sorted(head_vars))
    return universals, rebuild(body, ())


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
    for v in rule.universals:
        if v not in occurs:
            raise UserError(f"variable {v} does not occur in the body")
    if rule.agg is not None and rule.agg.input_var is not None:
        if rule.agg.input_var not in occurs:
            raise UserError(
                f"aggregation input {rule.agg.input_var} does not occur in the body"
            )
    return occurs


def is_projection_free(rule: RuleIR) -> bool:
    kinds = classify_variables(rule)
    keys = {v for v, k in kinds.items() if k == KEY}
    return all(keys <= set(h.key_args) | set(h.value_args) for h in rule.heads)


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
        elif isinstance(form, Negation):
            raise UserError("unsupported: negation")
        elif isinstance(form, Disj):
            expanded = []
            for alt in form.branches:
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
    name: str
    depths: tuple  # global depth of each key arg, strictly increasing
    exempt: tuple  # per level: True when args[:level] prefix the key order
    context_depths: tuple  # per level: depths of bound vars not in the args


@dataclass
class BranchPlan:
    atoms: list
    participants: list  # per depth (1-based): list of (atom_pos, level)
    steps: list  # per depth: list of evaluation steps
    value_bind_depth: dict  # value var -> depth where it binds


@dataclass
class HeadPlan:
    atom: Atom
    kind: str  # DIRECT | COUNTED | COUNT | GROUP_SUM | MIN | MAX | FLOAT_TOTAL
    key_sources: tuple  # per head key arg: ("k", depth) | ("v", value_idx)
    value_source: Optional[tuple]  # for function heads / agg input


@dataclass
class Plan:
    rule: RuleIR
    key_order: tuple
    value_order: tuple
    branches: list
    heads: list
    index_specs: dict  # (branch, atom_pos, level) -> (prefix_len, context_len)
    short_circuit_depth: int


def _schedule_branch(atoms, order, value_order, force_sens):
    depth_of = {v: i + 1 for i, v in enumerate(order)}
    vslot = {v: i for i, v in enumerate(value_order)}
    K = len(order)
    plans = []
    participants = [[] for _ in range(K + 1)]  # index 1..K
    steps = [[] for _ in range(K + 1)]
    counts: dict[str, int] = {}
    for atom in atoms:
        if atom.kind != PRIMITIVE:
            counts[atom.pred] = counts.get(atom.pred, 0) + 1
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
            if depths and d <= depths[-1]:
                raise UserError(
                    f"{atom.render()}: key arguments must follow the join order "
                    f"{list(order)}"
                )
            depths.append(d)
        exempt = tuple(
            atom.key_args[:lvl] == order[:lvl] and not force_sens
            for lvl in range(1, len(depths) + 1)
        )
        context_depths = tuple(
            tuple(
                d
                for d in range(1, depths[lvl - 1])
                if d not in depths[: lvl - 1]
            )
            for lvl in range(1, len(depths) + 1)
        )
        if counts[atom.pred] > 1:
            seen[atom.pred] = seen.get(atom.pred, 0) + 1
            name = f"{atom.pred}#{seen[atom.pred]}"
        else:
            name = atom.pred
        plans.append(AtomPlan(atom, name, tuple(depths), exempt, context_depths))
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

    # bind each value variable at its shallowest producer; later producers
    # become equality checks at their own completion depth
    for var, plist in producers.items():
        plist.sort()
        done_at, pos = plist[0]
        value_bind_depth[var] = done_at
        steps[done_at].append(("bindval", pos, vslot[var]))
        for other_at, other_pos in plist[1:]:
            steps[other_at].append(("checkval", other_pos, vslot[var]))

    # primitive scheduling: repeat until every primitive has bound inputs
    pending = [a for a in atoms if a.kind == PRIMITIVE]
    progress = True
    while pending and progress:
        progress = False
        rest = []
        for atom in pending:
            fn = PRIMITIVE_FUNCS.get(atom.pred) or PRIMITIVE_RELS.get(atom.pred)
            srcs = []
            ready = True
            hi = 1
            for v in atom.key_args:
                if v in depth_of:
                    srcs.append(("k", depth_of[v]))
                    hi = max(hi, depth_of[v])
                elif v in value_bind_depth:
                    srcs.append(("v", vslot[v]))
                    hi = max(hi, value_bind_depth[v])
                else:
                    ready = False
                    break
            if not ready:
                rest.append(atom)
                continue
            progress = True
            if atom.pred in PRIMITIVE_RELS:
                steps[hi].append(("filter", fn, tuple(srcs)))
            else:
                out = atom.value_args[0]
                if out in depth_of:
                    steps[max(hi, depth_of[out])].append(
                        ("primcheck", fn, tuple(srcs), ("k", depth_of[out]))
                    )
                elif out in value_bind_depth:
                    steps[max(hi, value_bind_depth[out])].append(
                        ("primcheck", fn, tuple(srcs), ("v", vslot[out]))
                    )
                else:
                    value_bind_depth[out] = hi
                    steps[hi].append(("primbind", fn, tuple(srcs), vslot[out]))
        pending = rest
    if pending:
        bad = ", ".join(a.render() for a in pending)
        raise UserError(f"cannot bind primitive inputs: {bad}")

    unbound = [v for v in value_order if v not in value_bind_depth]
    if unbound:
        raise UserError(f"value variables never bound: {', '.join(unbound)}")
    return BranchPlan(plans, participants, steps, value_bind_depth)


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

    branches = [
        _schedule_branch(atoms, order, value_order, rule.force_sens)
        for atoms in branch_atom_lists
    ]

    depth_of = {v: i + 1 for i, v in enumerate(order)}
    vslot = {v: i for i, v in enumerate(value_order)}

    heads = []
    for h in rule.heads:
        for v in h.key_args + h.value_args:
            if v not in kinds and not (rule.agg and v == rule.agg.output_var):
                raise UserError(f"head variable {v} not bound by the body")
        key_sources = tuple(
            ("k", depth_of[v]) if kinds.get(v) == KEY else ("v", vslot[v])
            for v in h.key_args
        )
        if rule.agg is not None:
            if h.value_args != (rule.agg.output_var,):
                raise UserError(
                    "aggregation head must assign the aggregation output"
                )
            if rule.agg.kind in ("MIN", "MAX"):
                # scan-backed heads group by a contiguous key prefix
                want = tuple(range(1, len(h.key_args) + 1))
                if tuple(d for tag, d in key_sources if tag == "k") != want or any(
                    tag != "k" for tag, _ in key_sources
                ):
                    raise UserError(
                        f"{rule.agg.kind} head keys must form a prefix of the "
                        f"key order {list(order)}"
                    )
            if rule.agg.input_var is None:
                value_source = None
            else:
                iv = rule.agg.input_var
                value_source = (
                    ("k", depth_of[iv]) if kinds.get(iv) == KEY else ("v", vslot[iv])
                )
            heads.append(HeadPlan(h, rule.agg.kind, key_sources, value_source))
        else:
            mentioned = set(h.key_args) | set(h.value_args)
            direct = all(v in mentioned for v in keys)
            value_source = None
            if h.value_args:
                v = h.value_args[0]
                value_source = (
                    ("k", depth_of[v]) if kinds.get(v) == KEY else ("v", vslot[v])
                )
            heads.append(
                HeadPlan(h, "DIRECT" if direct else "COUNTED", key_sources, value_source)
            )

    index_specs = {}
    for bi, bp in enumerate(branches):
        for pos, ap in enumerate(bp.atoms):
            for lvl in range(1, len(ap.depths) + 1):
                if not ap.exempt[lvl - 1]:
                    index_specs[(bi, pos, lvl)] = (
                        lvl - 1,
                        len(ap.context_depths[lvl - 1]),
                    )

    head_key_depths = [
        d for hp in heads for (tag, d) in hp.key_sources if tag == "k"
    ]
    sc_depth = max(head_key_depths) if head_key_depths else 0

    return Plan(
        rule=rule,
        key_order=order,
        value_order=value_order,
        branches=branches,
        heads=heads,
        index_specs=index_specs,
        short_circuit_depth=sc_depth,
    )
