"""The front end's refusal, usage and help texts, pinned byte for byte.

Each row names one refusal of the rule parser, the planner or the command
dispatcher; a refactor of the front end must leave every text unchanged.
"""

import pytest

from leapjoin.cli import Workspace, main
from leapjoin.errors import UserError
from leapjoin.parser import parse_rule
from leapjoin.rules import (
    MATERIALIZED_FUNCTION,
    Atom,
    _schedule_branch,
    validate_key_order,
)

CATALOG = {
    "A": (1, False), "A2": (2, False), "B2": (2, False),
    "F1": (1, True), "G1": (1, True), "E2": (2, True), "R3": (3, False),
}

PARSER_REFUSALS = [
    # tokens
    ("C(x) <- A(x) $", "rule syntax error near ' $'"),
    ("C(x) <- A(x)", "rule ends unexpectedly"),
    ("C(x) <- A(x) B(x).", "expected '.', found 'B'"),
    ("C(x) <- A(1).", "expected a name, found '1'"),
    ("C(x) <- A.", "expected ( or [ after A"),
    ("C(x) <- A(x), !A2(x,y).", "unsupported: negation"),
    ("C(x) <- A", "expected ( or [ after A"),
    # P(..) atoms
    ("lt(x,y) <- A2(x,y).", "primitive lt cannot appear in a head"),
    ("C(x) <- A(x), lt(x).", "lt takes 2 arguments"),
    ("C(x) <- A(x), add(x,x).", "add is a function: write add[..]=.."),
    ("add(x,y) <- A2(x,y).", "add is a function: write add[..]=.."),
    ("C(x) <- Zap(x).", "unknown predicate Zap"),
    ("C(x) <- F1(x).", "F1 is a function: write F1[..]=.."),
    ("C(x) <- A2(x).", "A2 has arity 2, used with 1"),
    ("C(x) <- A(x", "rule ends unexpectedly"),
    ("C(x) <- A(x].", "expected ')', found ']'"),
    # P[..]=v atoms
    ("add[x,y]=z <- A2(x,y).", "primitive add cannot appear in a head"),
    ("C(x) <- F1[x]=a, add[a]=b.", "add takes 2 arguments"),
    ("C(x) <- A2(x,y), lt[x,y]=z.", "lt is a relation: write lt(..)"),
    ("lt[x]=y <- E2[x,y]=y.", "lt is a relation: write lt(..)"),
    ("C(x) <- Zap[x]=v.", "unknown predicate Zap"),
    ("C(x) <- A[x]=v.", "A is a relation: write A(..)"),
    ("C(x) <- E2[x]=v.", "E2 has arity 2, used with 1"),
    ("C(x) <- E2[x,y].", "expected '=', found '.'"),
    ("C(x) <- E2[x,y]=1.", "expected a name, found '1'"),
    ("C(x) <- E2[x,y).", "expected ']', found ')'"),
    # aggregation
    ("T[x]=s <- agg<< s=avg(v) >> E2[x,y]=v.", "unknown aggregation avg"),
    ("D[x]=c <- agg<< c=count(v) >> E2[x,y]=v.", "count() takes no argument"),
    ("D[x]=c <- agg<< c=sum() >> A2(x,y).", "sum() needs an input variable"),
    (
        "T[x]=s, U[x]=s <- agg<< s=sum(v) >> E2[x,y]=v.",
        "aggregation rules take a single head atom",
    ),
    ("T[x]=s <- agg<< s=sum(v) > E2[x,y]=v.", "rule syntax error near ' > E2[x,y]=v.'"),
    ("T[x]=s <- agg< s=sum(v) >> E2[x,y]=v.", "rule syntax error near '< s=sum(v) >> E2[x,y'"),
    ("T[x]=s <- agg<< s=sum(v) E2[x,y]=v.", "expected '>>', found 'E2'"),
    # annotations and trailing input
    ("C(x) <- A(x). @sorted", "unknown annotation @sorted"),
    ("C(x) <- A(x). @order x", "expected '(', found 'x'"),
    ("C(x) <- A(x). x", "trailing input after rule: 'x'"),
    ("C(x) <- A(x).;", "trailing input after rule: ';'"),
]

PLANNER_REFUSALS = [
    ("C(x,w) <- A(x).", "variable w does not occur in the body"),
    ("T[x]=s <- agg<< s=sum(w) >> E2[x,y]=v.", "aggregation input w does not occur in the body"),
    ("C(x) <- A2(x,y). @order(x,x)", "key order repeats a variable"),
    ("C(x) <- F1[x]=a. @order(x,a)", "key order names non-key variable a"),
    ("C(x) <- A2(x,y). @order(x)", "key order missing key variables: y"),
    ("C(x) <- A(x), (A(x) ; A2(x,y)).", "disjunction branches must bind the same variables"),
    (
        "T[x]=y <- agg<< s=sum(v) >> E2[x,y]=v.",
        "aggregation head must assign the aggregation output",
    ),
    ("T[s]=s <- agg<< s=sum(v) >> E2[x,y]=v.", "aggregation output s cannot be a head key"),
    ("D[x,c]=c <- agg<< c=count() >> A2(x,y).", "aggregation output c cannot be a head key"),
    (
        "M[y]=m <- agg<< m=max(v) >> E2[x,y]=v.",
        "MAX head keys must form a prefix of the key order ['x', 'y']",
    ),
    (
        "M[x]=m <- agg<< m=min(v) >> A2(y,x), F1[x]=v. @order(y,x)",
        "MIN head keys must form a prefix of the key order ['y', 'x']",
    ),
    (
        "M[x,v]=m <- agg<< m=min(v) >> E2[x,y]=v.",
        "MIN head keys must form a prefix of the key order ['x', 'y']",
    ),
    (
        "S(x,y) <- A2(x,y). @order(y,x)",
        "A2(x,y): key arguments must follow the join order ['y', 'x']",
    ),
    (
        "C(x) <- A2(x,x).",
        "A2(x,x): key argument x repeats; an atom's key arguments must be distinct",
    ),
    (
        "C(x) <- E2[x,x]=v.",
        "E2[x,x]=v: key argument x repeats; an atom's key arguments must be distinct",
    ),
    (
        "C(x,y) <- R3(x,y,x).",
        "R3(x,y,x): key argument x repeats; an atom's key arguments must be distinct",
    ),
    # the refusal met first in argument order wins
    (
        "C(x,y) <- R3(y,x,x). @order(x,y)",
        "R3(y,x,x): key arguments must follow the join order ['x', 'y']",
    ),
    (
        "C(x,y) <- (A2(x,y) ; F1[x]=y).",
        "variable y has no key-position occurrence in some disjunction branch",
    ),
    ("H(x,z) <- F1[x]=z, A2(x,z).", "variable z is both a key and a value"),
    ("H(x,y) <- E2[x,y]=y.", "variable y is both a key and a value"),
    (
        "H(x,y) <- E2[y,w]=y, eq(w,z), E2[y,x]=v, A(w).",
        "variable y is both a key and a value",
    ),
    ("C(x) <- A(x), add[a,b]=c.", "cannot bind primitive inputs: add[a,b]=c"),
    (
        "C(x) <- A(x), lt(x,a), mul[a,b]=c.",
        "cannot bind primitive inputs: lt(x,a), mul[a,b]=c",
    ),
]


@pytest.mark.parametrize("text,message", PARSER_REFUSALS + PLANNER_REFUSALS)
def test_rule_refusal_text(text, message):
    with pytest.raises(UserError) as info:
        validate_key_order(parse_rule(text, CATALOG))
    assert str(info.value) == message


def test_refusals_no_rule_text_reaches():
    # the planner checks the order and the value variables before it
    # schedules a branch; these refusals guard direct callers
    atom = Atom("E2", MATERIALIZED_FUNCTION, ("x", "y"), ("v",))
    with pytest.raises(UserError) as info:
        _schedule_branch([atom], ("x",), ("v",), "")
    assert str(info.value) == "E2[x,y]=v: y is not a key variable"
    with pytest.raises(UserError) as info:
        _schedule_branch([atom], ("x", "y"), ("u", "v", "w"), "")
    assert str(info.value) == "value variables never bound: u, w"


USAGE_ERRORS = [
    ([], "empty command"),
    (["load", "A/1"], "usage: load NAME[/ARITY] FILE [--function]"),
    (["load", "A/1", "a", "b", "--function"], "usage: load NAME[/ARITY] FILE [--function]"),
    (["rule"], "usage: rule RULE-TEXT"),
    (["delta", "A"], "usage: delta NAME FILE"),
    (["delta", "A", "a", "--function"], "usage: delta NAME FILE"),
    (["eval"], "usage: eval RULE-ID"),
    (["eval", "r1", "r2"], "usage: eval RULE-ID"),
    (["maintain", "--no-oracle"], "usage: maintain RULE-ID [--no-oracle]"),
    (["maintain", "r1", "--eta"], "usage: maintain RULE-ID [--no-oracle]"),
    (["dump"], "usage: dump NAME [--eta]"),
    (["dump", "A", "--no-oracle"], "usage: dump NAME [--eta]"),
    (["dump-sens"], "usage: dump-sens RULE-ID"),
    (["scan", "M", "0"], "usage: scan HEAD LO HI (comma-separated keys)"),
    (["dump-trace", "r1", "r2"], "usage: dump-trace RULE-ID"),
    (["script"], "usage: script FILE"),
]

HELP = """\
usage: leapjoin <command> [args]
commands:
  load NAME[/ARITY] FILE [--function]   load a relation from a tuple file
  rule RULE-TEXT                        install a rule
  delta NAME FILE                       apply +/- tuple edits as one transaction
  eval RULE-ID                          full evaluation (bootstrap)
  maintain RULE-ID [--no-oracle]        incremental maintenance round
  dump NAME [--eta]                     print a relation or head, sorted
  dump-sens RULE-ID                     print sensitivity indices
  scan HEAD LO HI                       range-scan a min/max head's intermediate
  dump-trace RULE-ID                    print the last evaluation trace
  stats                                 print workspace counters
  script FILE                           run commands from a file
"""


@pytest.mark.parametrize("argv,message", USAGE_ERRORS)
def test_usage_error_text(argv, message):
    with pytest.raises(UserError) as info:
        Workspace().run_command(argv)
    assert str(info.value) == message


def test_unknown_command_lists_the_commands():
    with pytest.raises(UserError) as info:
        Workspace().run_command(["drop", "A"])
    assert str(info.value) == "unknown command 'drop'\n" + HELP


@pytest.mark.parametrize("argv", [[], ["-h"], ["--help"]])
def test_help_text(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr() == (HELP, "")
