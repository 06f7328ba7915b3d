"""Command-line front end.

One workspace per process invocation; the script subcommand runs a
command file against it, which is how multi-step sessions work::

    leapjoin script session.txt

with a command file like::

    load A/1 a.tsv
    load B/1 b.tsv
    rule C(x) <- A(x), B(x). @force_sens
    eval r1
    delta A da.txt
    delta B db.txt
    maintain r1
    dump C
    dump-sens r1

Relation files hold one tuple per line, tab-separated decimal integers,
with a trailing value column for functions.  Delta files prefix each
tuple with + or -.  Exit codes: 0 ok, 1 user error, 2 integrity error.
The ``COMMANDS`` table states each command once; it drives dispatch,
every usage error and ``--help``.
"""

import sys
from dataclasses import dataclass
from typing import Optional

from .driver import RuleInstance, bootstrap, maintain
from .errors import IntegrityError, UserError
from .heads import render_record, render_value
from .keys import parse_key
from .scantree import EMPTY
from .parser import parse_rule
from .rules import validate_key_order
from .store import Relation
from .trace import render_event


@dataclass(frozen=True)
class Command:
    """One command: what runs it, what it takes and how help shows it."""

    method: str  # the Workspace method that runs it
    nargs: Optional[int]  # positional arguments; None: all words, as one text
    flags: dict  # flag -> keyword argument the method takes as True
    syntax: str  # the command's name, then its arguments
    summary: str
    hint: str = ""  # appended to the usage error only


COMMANDS = {
    c.syntax.split()[0]: c
    for c in (
        Command("cmd_load", 2, {"--function": "function"},
                "load NAME[/ARITY] FILE [--function]",
                "load a relation from a tuple file"),
        Command("cmd_rule", None, {}, "rule RULE-TEXT", "install a rule"),
        Command("cmd_delta", 2, {}, "delta NAME FILE",
                "apply +/- tuple edits as one transaction"),
        Command("cmd_eval", 1, {}, "eval RULE-ID", "full evaluation (bootstrap)"),
        Command("cmd_maintain", 1, {"--no-oracle": "no_oracle"},
                "maintain RULE-ID [--no-oracle]", "incremental maintenance round"),
        Command("cmd_dump", 1, {"--eta": "eta"}, "dump NAME [--eta]",
                "print a relation or head, sorted"),
        Command("cmd_dump_sens", 1, {}, "dump-sens RULE-ID",
                "print sensitivity indices"),
        Command("cmd_scan", 3, {}, "scan HEAD LO HI",
                "range-scan a min/max head's intermediate",
                hint=" (comma-separated keys)"),
        Command("cmd_dump_trace", 1, {}, "dump-trace RULE-ID",
                "print the last evaluation trace"),
        Command("cmd_stats", 0, {}, "stats", "print workspace counters"),
        Command("run_script", 1, {}, "script FILE", "run commands from a file"),
    )
}

USAGE = "usage: leapjoin <command> [args]\ncommands:\n" + "".join(
    f"  {c.syntax:<38}{c.summary}\n" for c in COMMANDS.values()
)


def _parse_value(text, where):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        raise UserError(f"{where}: bad value {text!r}") from None
    digits = text.strip().lstrip("+-").replace("_", "")
    if digits.isdigit():  # an integer past Python's integer-string limit
        raise UserError(f"{where}: integer value of {len(digits)} digits is too long")
    return value


def _parse_keys(parts, where):
    keys = []
    for p in parts:
        try:
            keys.append(int(p))
        except ValueError:
            raise UserError(f"{where}: bad key {p!r}") from None
    return tuple(keys)


def _read_rows(path, function, signed=False):
    """Yield (where, sign, keys, value) for each non-empty line of a tuple file.

    Columns are tab-separated; a function row ends in its value column.
    A signed (delta) line starts with + or -, given back as sign; an
    unsigned row's sign is None.
    """
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            where = f"{path}:{lineno}"
            sign = None
            if signed:
                sign, line = line[0], line[1:]
                if sign not in "+-":
                    raise UserError(f"{where}: lines must start with + or -")
            parts = line.split("\t")
            if not function:
                yield where, sign, _parse_keys(parts, where), None
            elif len(parts) < 2:
                raise UserError(f"{where}: function rows need a value column")
            else:
                keys = _parse_keys(parts[:-1], where)
                yield where, sign, keys, _parse_value(parts[-1], where)


class Workspace:
    def __init__(self):
        self.relations = {}
        self.idb = {}  # head predicate name -> (rule_id, head_position)
        self.rules = {}  # rule id -> RuleInstance
        self._next_rule = 1

    # -- commands, each returning printable lines -------------------------

    def cmd_load(self, name_spec, path, function=False):
        name, _, arity_txt = name_spec.partition("/")
        arity = None
        if arity_txt:
            try:
                arity = int(arity_txt)
            except ValueError:
                raise UserError(f"bad arity in {name_spec!r}") from None
        if name in self.relations:
            raise UserError(f"{name} already exists; use delta to change it")
        rows = []
        for where, _, keys, value in _read_rows(path, function):
            if arity is None:
                arity = len(keys)
            if len(keys) != arity:
                raise UserError(
                    f"{where}: expected {arity} key columns, found {len(keys)}"
                )
            rows.append((keys, value))
        if arity is None:
            raise UserError(f"{path}: empty file needs an explicit arity (NAME/N)")
        rel = Relation(name, arity, is_function=function)
        txn = rel.begin()
        for keys, value in rows:
            txn.insert(keys, value)
        version = txn.commit()
        self.relations[name] = rel
        return [
            f"loaded {name} arity={arity} version={version.version_id} "
            f"records={version.count}"
        ]

    def cmd_rule(self, text):
        catalog = {
            name: (rel.arity, rel.is_function)
            for name, rel in self.relations.items()
            if name not in self.idb
        }
        rule = parse_rule(text, catalog)
        plan = validate_key_order(rule)
        preds = [hp.atom.pred for hp in plan.heads]
        for i, pred in enumerate(preds):
            if pred in self.relations or pred in preds[:i]:
                raise UserError(f"{pred} already exists")
        heads = [
            Relation(hp.atom.pred, len(hp.atom.key_args), is_function=hp.stores_value)
            for hp in plan.heads
        ]
        rid = f"r{self._next_rule}"
        self._next_rule += 1
        inst = RuleInstance(plan, heads)
        self.rules[rid] = inst
        for i, pred in enumerate(preds):
            self.relations[pred] = heads[i]
            self.idb[pred] = (rid, i)
        return [
            f"rule {rid} installed: heads={','.join(preds)}"
            + f" order=({','.join(plan.key_order)})"
            + f" indices={len(plan.index_specs)}"
        ]

    def cmd_delta(self, name, path):
        rel = self.relations.get(name)
        if rel is None:
            raise UserError(f"unknown relation {name}")
        if name in self.idb:
            raise UserError(f"{name} is rule-maintained; edit its body relations")
        out = []
        inserts = erases = noops = 0
        txn = rel.begin()
        try:
            rows = _read_rows(path, rel.is_function, signed=True)
            for where, sign, keys, value in rows:
                if sign == "+" and txn.insert(keys, value):
                    inserts += 1
                elif sign == "-" and txn.erase(keys, value):
                    erases += 1
                else:
                    noops += 1
                    what = "insert of present" if sign == "+" else "erase of absent"
                    out.append(f"warning: {where}: {what} tuple is a no-op")
        except BaseException:
            txn.abort()
            raise
        version = txn.commit()
        out.append(
            f"delta {name} version={version.version_id} inserts={inserts} "
            f"erases={erases} noops={noops} records={version.count}"
        )
        return out

    def _instance(self, rid):
        if rid not in self.rules:
            raise UserError(f"unknown rule {rid}")
        return self.rules[rid]

    def cmd_eval(self, rid):
        inst = self._instance(rid)
        report = bootstrap(inst, inst.current_versions(self.relations))
        return report.to_text().splitlines()

    def cmd_maintain(self, rid, no_oracle=False):
        inst = self._instance(rid)
        report = maintain(
            inst,
            inst.current_versions(self.relations),
            use_oracle=not no_oracle,
            with_trace=True,
        )
        out = []
        if inst.last_oracle is not None:
            out.extend(inst.last_oracle.render_lines())
        out.extend(report.to_text().splitlines())
        return out

    def cmd_dump(self, name, eta=False):
        rel = self.relations.get(name)
        if rel is None:
            raise UserError(f"unknown relation {name}")
        render = render_record
        if name in self.idb:
            rid, hi = self.idb[name]
            render = self.rules[rid].heads[hi].render
        return [
            "\t".join([*map(str, keys), *render(value, eta)])
            for keys, value in rel.current.records()
        ]

    def cmd_scan(self, name, lo_text, hi_text):
        """Debug probe: range scan over a min/max head's intermediate,
        folded across the group partitions the range meets."""
        if name not in self.idb:
            raise UserError(f"{name} is not a rule head")
        rid, hi_pos = self.idb[name]
        head = self.rules[rid].heads[hi_pos]
        if head.agg is None:
            raise UserError(f"{name} is not backed by a scan tree")
        arity = len(self.rules[rid].plan.key_order)

        def parse_endpoint(text):
            keys = tuple(parse_key(p) for p in text.split(","))
            if len(keys) != arity:
                raise UserError(f"endpoint needs {arity} keys: {text!r}")
            return keys

        lo, hi = parse_endpoint(lo_text), parse_endpoint(hi_text)
        value = head.agg.range_scan(lo, hi)
        return [f"scan {name} = {'EMPTY' if value is EMPTY else render_value(value)}"]

    def cmd_dump_sens(self, rid):
        inst = self._instance(rid)
        if inst.bound_versions is None:  # its empty indices hold no evaluation
            return []
        plan = inst.plan
        out = []
        for (bi, pos, lvl), index in sorted(inst.indices.items()):
            ap = plan.branches[bi].atoms[pos]
            name = f"{ap.name}_sens"
            if len(ap.depths) > 1 or len(plan.key_order) > 1:
                name += f",{plan.key_order[ap.depths[lvl - 1] - 1]}"
            body = ", ".join(rec.render() for rec in index.enumerate())
            out.append(f"{name} = {{{body}}}")
        return out

    def cmd_dump_trace(self, rid):
        inst = self._instance(rid)
        if inst.last_trace is None:
            return []
        return [render_event(ev) for ev in inst.last_trace]

    def cmd_stats(self):
        out = []
        for name in sorted(self.relations):
            rel = self.relations[name]
            tag = "idb" if name in self.idb else "edb"
            kind = "function" if rel.is_function else "relation"
            out.append(
                f"{tag} {name}/{rel.arity} {kind} "
                f"versions={rel.current.version_id + 1} "
                f"records={rel.current.count} pages={rel.stats['pages_allocated']}"
            )
        for rid in sorted(self.rules, key=lambda r: int(r[1:])):
            inst = self.rules[rid]
            sens = sum(len(ix) for ix in inst.indices.values())
            bound = (
                ",".join(
                    f"{p}@{v.version_id}"
                    for p, v in sorted(inst.bound_versions.items())
                )
                if inst.bound_versions
                else "-"
            )
            out.append(f"rule {rid} bound={bound} sens_intervals={sens}")
        return out

    # -- dispatch ----------------------------------------------------------

    def run_command(self, argv):
        if not argv:
            raise UserError("empty command")
        name, args = argv[0], argv[1:]
        command = COMMANDS.get(name)
        if command is None:
            raise UserError(f"unknown command {name!r}\n{USAGE}")
        rest = [a for a in args if a not in command.flags]
        if command.nargs is None and rest:
            rest = [" ".join(rest)]  # a text: every word, as one argument
        elif len(rest) != command.nargs:  # for a text: no word at all
            raise UserError(f"usage: {command.syntax}{command.hint}")
        flags = {kw: True for flag, kw in command.flags.items() if flag in args}
        return getattr(self, command.method)(*rest, **flags)

    def run_script(self, path):
        out = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                head, _, rest = line.partition(" ")
                if head == "rule":
                    argv = ["rule", rest]
                else:
                    argv = line.split()
                out.extend(self.run_command(argv))
        return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE, end="")
        return 0
    ws = Workspace()
    try:
        for line in ws.run_command(argv):
            print(line)
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
