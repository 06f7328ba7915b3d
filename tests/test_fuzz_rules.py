"""Differential rule-shape fuzzer.

A seeded generator draws a fixed number of rule texts over one small
catalog: 1-3 body atoms, an optional primitive and an optional
two-branch disjunction, under relation, function and aggregation heads,
some with ``@force_sens``.  The draw leans toward rules that plan: key
arguments mostly follow one variable order, which ``@order`` mostly
names.

Each rule is refused with ``UserError``, or it is bootstrapped and then
maintained over a few rounds of random input edits, both with the change
oracle and without it.  After every round both instances' heads must
equal a fresh bootstrap over the same data.  A round may raise
``IntegrityError`` (a head's functional dependency is violated) only
when the fresh bootstrap raises one too, and then both instances must
raise it.  Any other exception fails the test.

The drawn texts and each rule's outcome (its refusal text, maintained,
or integrity) are pinned by one digest, so neither the draw nor a
refusal text may depend on string hashing.
"""

import hashlib
import random

from conftest import Engine, head_snapshot
from leapjoin.driver import bootstrap, maintain
from leapjoin.errors import IntegrityError, UserError

CATALOG = {
    "A": (1, False), "B": (1, False), "E": (2, False), "R": (3, False),
    "F": (1, True), "G": (2, True),
}
KEYS = ("x", "y", "z", "w")
VALUES = ("u", "v")
RULES = 2000
ROUNDS = 4
SEED = 1303
FUZZ_DIGEST = "78a355d99e972e9ea4f488d312f3ccfcec5e15e7f7e78c911e5f1390936a84f8"


def draw_atom(rng, keys):
    """A body atom over ``keys`` and its variables; its key arguments
    mostly increase."""
    fits = [p for p in "AABEERFFG" if CATALOG[p][0] <= len(keys)]
    pred = rng.choice(fits if rng.random() < 0.9 else "AABEERFFG")
    arity, is_function = CATALOG[pred]
    if arity <= len(keys) and rng.random() < 0.9:
        args = sorted(rng.sample(keys, arity), key=KEYS.index)
    else:
        args = [rng.choice(keys) for _ in range(arity)]
    if not is_function:
        return f"{pred}({','.join(args)})", args
    value = rng.choice(VALUES) if rng.random() < 0.9 else rng.choice(keys)
    return f"{pred}[{','.join(args)}]={value}", args + [value]


def draw_disjunction(rng, keys):
    """Two different atoms that bind the same variables, or None."""
    for _ in range(20):
        (a, a_vars), (b, b_vars) = draw_atom(rng, keys), draw_atom(rng, keys)
        if a != b and set(a_vars) == set(b_vars):
            return f"({a} ; {b})", a_vars
    return None


def draw_primitive(rng, bound):
    if rng.random() < 0.5:
        pred = rng.choice(("lt", "le", "ne", "eq"))
        return f"{pred}({rng.choice(bound)},{rng.choice(bound)})"
    pred = rng.choice(("add", "sub", "mul"))
    out = "t" if rng.random() < 0.7 else rng.choice(bound)  # else: a check
    return f"{pred}[{rng.choice(bound)},{rng.choice(bound)}]={out}"


def draw_rule(rng):
    keys = list(KEYS[: rng.randint(1, 3)])
    forms = [draw_atom(rng, keys) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.25:
        disjunction = draw_disjunction(rng, keys)
        if disjunction is not None:
            forms.insert(rng.randrange(len(forms) + 1), disjunction)
    used = []  # the body's variables, in order of appearance
    for _, form_vars in forms:
        used += [v for v in form_vars if v not in used]
    texts = [text for text, _ in forms]
    if rng.random() < 0.3:
        texts.append(draw_primitive(rng, used))
        if texts[-1].endswith("=t"):
            used.append("t")
    body = ", ".join(texts)
    order = [k for k in KEYS if k in used]
    values = [v for v in used if v not in KEYS]

    def some(pool, least=1):
        picked = rng.sample(pool, rng.randint(least, min(3, len(pool))))
        return sorted(picked, key=used.index)

    kind = rng.choice(("relation", "relation", "function", "aggregation", "two"))
    if kind == "relation":
        rule = f"H({','.join(some(used))}) <- {body}."
    elif kind == "function":
        head_keys = some(order)
        rest = [v for v in used if v not in head_keys] or used
        rule = f"K[{','.join(head_keys)}]={rng.choice(rest)} <- {body}."
    elif kind == "aggregation":
        agg = rng.choice(("count", "sum", "min", "max", "total"))
        arg = "" if agg == "count" else rng.choice(values or used)
        head_keys = order[: rng.randint(1, len(order))] if order else used[:1]
        rule = f"S[{','.join(head_keys)}]=s <- agg<< s={agg}({arg}) >> {body}."
    else:
        value = rng.choice(values or used)
        rule = f"P({','.join(some(used))}), Q[{rng.choice(order or used)}]={value} <- {body}."
    if order and rng.random() < 0.7:
        rule += f" @order({','.join(order)})"
    if rng.random() < 0.2:
        rule += " @force_sens"
    return rule


def small_value(rng):
    return rng.randrange(4)


def snapshot(inst):
    return [head_snapshot(h) for h in inst.heads]


def attempt(step):
    """The step's result, or IntegrityError when it raised one."""
    try:
        return step()
    except IntegrityError:
        return IntegrityError


def run_rule(text, rng):
    """The rule's outcome class; raises AssertionError on a disagreement."""
    try:
        eng = Engine(text, CATALOG, leaf_capacity=4)
    except UserError as exc:
        return f"refused: {exc}"
    plain = eng.instance("__plain")
    eng.random_fill(rng, per_relation=12, dom=5, value_of=small_value)
    outcome = "maintained"
    for round_no in range(ROUNDS + 1):
        if round_no:
            eng.random_edits(rng, rng.randint(1, 3), dom=5, value_of=small_value)
        versions = eng.versions()
        got = []
        for inst, use_oracle in ((eng.inst, True), (plain, False)):
            if inst.bound_versions is None:
                got.append(attempt(lambda: bootstrap(inst, versions, with_trace=False)))
            else:
                got.append(attempt(lambda: maintain(inst, versions, use_oracle=use_oracle)))
        fresh = attempt(eng.fresh_reference)
        where = f"{text} (round {round_no})"
        if fresh is IntegrityError:
            assert got == [IntegrityError, IntegrityError], where
            outcome = "integrity"
            continue
        assert IntegrityError not in got, where
        want = snapshot(fresh)
        assert snapshot(eng.inst) == want, where
        assert snapshot(plain) == want, where
    return outcome


def test_rules_are_refused_or_maintained_as_a_fresh_bootstrap():
    rng = random.Random(SEED)
    lines = []
    for _ in range(RULES):
        text = draw_rule(rng)
        try:
            outcome = run_rule(text, rng)
        except AssertionError:
            raise
        except Exception as exc:
            raise AssertionError(f"{text}: {exc!r}") from exc
        lines.append(f"{text}\t{outcome}")
    planned = sum(not line.split("\t")[1].startswith("refused") for line in lines)
    assert planned >= RULES // 2, f"only {planned} of {RULES} rules planned"
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == FUZZ_DIGEST
