"""Rule text parser.

Surface syntax, one rule per string::

    F(x,y) <- G(x,z), H(y,z), I(x,y,z). @order(x,y,z)
    S[x,y]=n <- A(x,y), B(y,z).
    T[x]=s <- agg<< s=sum(v) >> E[x,y]=v.
    C(x) <- (A(x) ; B(x)). @force_sens

Predicates resolve against a catalog of declared relations/functions;
add/sub/mul and the comparison relations are primitives.  An atom's
bracket decides its form (``_FORMS``), and one path parses and checks
both.  Aggregation kinds: count(), sum(v), min(v), max(v), total(v) --
total is the exact floating-point sum.  A parenthesized group without
``;`` stays a nested ``Conj``, and a ``!`` (negation) is refused.  The
parser only builds the ``RuleIR`` as written: variable classification,
head storage and iterator names are decided by ``rules.validate_key_order``.
"""

import re

from .errors import UserError
from .rules import (
    AggSpec,
    Atom,
    Conj,
    Disj,
    MATERIALIZED_FUNCTION,
    MATERIALIZED_RELATION,
    PRIMITIVE,
    PRIMITIVE_FUNCS,
    PRIMITIVE_RELS,
    RuleIR,
)

_TOKEN = re.compile(
    r"\s*(<<|>>|<-|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[()\[\]=,;!.@])"
)

_AGG_NAMES = {
    "count": "COUNT",
    "sum": "GROUP_SUM",
    "min": "MIN",
    "max": "MAX",
    "total": "FLOAT_TOTAL",
}

# per opening bracket: the closer, the catalog kind and the primitives
# written so, and the refusal for a predicate of the other form
_FORMS = {
    "(": (")", MATERIALIZED_RELATION, PRIMITIVE_RELS,
          "{0} is a function: write {0}[..]=.."),
    "[": ("]", MATERIALIZED_FUNCTION, PRIMITIVE_FUNCS,
          "{0} is a relation: write {0}(..)"),
}


def _tokenize(text):
    out, at = [], 0
    while at < len(text):
        m = _TOKEN.match(text, at)
        if not m:
            if text[at:].strip():
                raise UserError(f"rule syntax error near {text[at:at+20]!r}")
            break
        out.append(m.group(1))
        at = m.end()
    return out


class _Parser:
    def __init__(self, tokens, catalog):
        self.toks = tokens
        self.at = 0
        self.catalog = catalog  # name -> (arity, is_function)

    def peek(self):
        return self.toks[self.at] if self.at < len(self.toks) else None

    def take(self, want=None):
        tok = self.peek()
        if tok is None:
            raise UserError("rule ends unexpectedly")
        if want is not None and tok != want:
            raise UserError(f"expected {want!r}, found {tok!r}")
        self.at += 1
        return tok

    def ident(self):
        tok = self.take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            raise UserError(f"expected a name, found {tok!r}")
        return tok

    def listed(self, item, sep=","):
        """One or more ``item()`` results, separated by ``sep``."""
        out = [item()]
        while self.peek() == sep:
            self.take()
            out.append(item())
        return out

    def var_list(self, closer):
        out = tuple(self.listed(self.ident))
        self.take(closer)
        return out

    def atom(self, head=False):
        name = self.ident()
        form = _FORMS.get(self.peek())
        if form is None:
            raise UserError(f"expected ( or [ after {name}")
        closer, kind, primitives, misuse = form
        self.take()
        args = self.var_list(closer)
        values = ()
        if kind == MATERIALIZED_FUNCTION:
            self.take("=")
            values = (self.ident(),)
        if name in primitives:
            if head:
                raise UserError(f"primitive {name} cannot appear in a head")
            if len(args) != 2:
                raise UserError(f"{name} takes 2 arguments")
            return Atom(name, PRIMITIVE, args, values)
        if name in PRIMITIVE_RELS or name in PRIMITIVE_FUNCS:
            raise UserError(misuse.format(name))
        if not head:
            info = self.catalog.get(name)
            if info is None:
                raise UserError(f"unknown predicate {name}")
            arity, is_func = info
            if is_func != (kind == MATERIALIZED_FUNCTION):
                raise UserError(misuse.format(name))
            if arity != len(args):
                raise UserError(
                    f"{name} has arity {arity}, used with {len(args)}"
                )
        return Atom(name, kind, args, values)

    def dform(self):
        tok = self.peek()
        if tok == "!":
            raise UserError("unsupported: negation")
        if tok == "(":
            self.take()
            branches = self.listed(self.conj, sep=";")
            self.take(")")
            if len(branches) == 1:
                return branches[0]
            return Disj(tuple(branches))
        return self.atom()

    def conj(self):
        return Conj(tuple(self.listed(self.dform)))

    def agg_block(self):
        # agg<< out=kind(in?) >>
        self.take()  # 'agg'
        self.take("<<")
        out = self.ident()
        self.take("=")
        kind_name = self.ident()
        kind = _AGG_NAMES.get(kind_name)
        if kind is None:
            raise UserError(f"unknown aggregation {kind_name}")
        self.take("(")
        input_var = None
        if self.peek() != ")":
            input_var = self.ident()
        self.take(")")
        self.take(">>")
        if kind == "COUNT" and input_var is not None:
            raise UserError("count() takes no argument")
        if kind != "COUNT" and input_var is None:
            raise UserError(f"{kind_name}() needs an input variable")
        return AggSpec(kind, input_var, out)


def parse_rule(text: str, catalog: dict) -> RuleIR:
    p = _Parser(_tokenize(text), catalog)
    heads = p.listed(lambda: p.atom(head=True))
    p.take("<-")
    agg = None
    if p.peek() == "agg":
        agg = p.agg_block()
        if len(heads) != 1:
            raise UserError("aggregation rules take a single head atom")
    body = p.conj()
    p.take(".")
    order = None
    force = False
    while p.peek() == "@":
        p.take()
        word = p.ident()
        if word == "order":
            p.take("(")
            order = p.var_list(")")
        elif word == "force_sens":
            force = True
        else:
            raise UserError(f"unknown annotation @{word}")
    if p.peek() is not None:
        raise UserError(f"trailing input after rule: {p.peek()!r}")
    return RuleIR(
        heads=tuple(heads),
        body=body,
        agg=agg,
        key_order=order,
        force_sens=force,
    )
