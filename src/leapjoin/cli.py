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
"""

import sys

from .driver import RuleInstance, bootstrap, maintain
from .errors import IntegrityError, UserError
from .heads import render_record, render_value
from .keys import parse_key
from .scantree import EMPTY
from .parser import parse_rule
from .rules import validate_key_order
from .store import Relation
from .trace import render_event

USAGE = """\
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
        self.rules = {}  # rule id -> (text, RuleInstance)
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
        self.rules[rid] = (text, inst)
        for i, hp in enumerate(plan.heads):
            self.relations[hp.atom.pred] = heads[i]
            self.idb[hp.atom.pred] = (rid, i)
        return [
            f"rule {rid} installed: heads="
            + ",".join(hp.atom.pred for hp in plan.heads)
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
                if sign == "+":
                    txn.insert(keys, value)
                    inserts += 1
                elif txn.erase(keys, value):
                    erases += 1
                else:
                    noops += 1
                    out.append(f"warning: {where}: erase of absent tuple is a no-op")
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
        return self.rules[rid][1]

    def _body_versions(self, inst):
        return inst.current_versions(self.relations)

    def cmd_eval(self, rid):
        inst = self._instance(rid)
        report = bootstrap(inst, self._body_versions(inst))
        return report.to_text().splitlines()

    def cmd_maintain(self, rid, no_oracle=False):
        inst = self._instance(rid)
        report = maintain(
            inst,
            self._body_versions(inst),
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
            render = self.rules[rid][1].heads[hi].render
        return [
            "\t".join([*map(str, keys), *render(value, eta)])
            for keys, value in rel.current.records()
        ]

    def cmd_scan(self, name, lo_text, hi_text):
        """Debug probe: range scan over a min/max head's intermediate."""
        if name not in self.idb:
            raise UserError(f"{name} is not a rule head")
        rid, hi_pos = self.idb[name]
        head = self.rules[rid][1].heads[hi_pos]
        if head.agg is None:
            raise UserError(f"{name} is not backed by a scan tree")
        tree = head.agg.tree
        arity = head.agg.arity

        def parse_endpoint(text):
            keys = tuple(parse_key(p) for p in text.split(","))
            if len(keys) != arity:
                raise UserError(f"endpoint needs {arity} keys: {text!r}")
            return keys

        value = tree.range_scan(parse_endpoint(lo_text), parse_endpoint(hi_text))
        return [f"scan {name} = {'EMPTY' if value is EMPTY else render_value(value)}"]

    def cmd_dump_sens(self, rid):
        inst = self._instance(rid)
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
                f"{tag} {name}/{rel.arity} {kind} versions={len(rel.versions)} "
                f"records={rel.current.count} pages={rel.stats['pages_allocated']}"
            )
        for rid in sorted(self.rules, key=lambda r: int(r[1:])):
            text, inst = self.rules[rid]
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
        cmd, args = argv[0], argv[1:]
        if cmd == "load":
            flags = [a for a in args if a == "--function"]
            rest = [a for a in args if a != "--function"]
            if len(rest) != 2:
                raise UserError("usage: load NAME[/ARITY] FILE [--function]")
            return self.cmd_load(rest[0], rest[1], function=bool(flags))
        if cmd == "rule":
            if not args:
                raise UserError("usage: rule RULE-TEXT")
            return self.cmd_rule(" ".join(args))
        if cmd == "delta":
            if len(args) != 2:
                raise UserError("usage: delta NAME FILE")
            return self.cmd_delta(*args)
        if cmd == "eval":
            if len(args) != 1:
                raise UserError("usage: eval RULE-ID")
            return self.cmd_eval(args[0])
        if cmd == "maintain":
            no_oracle = "--no-oracle" in args
            rest = [a for a in args if a != "--no-oracle"]
            if len(rest) != 1:
                raise UserError("usage: maintain RULE-ID [--no-oracle]")
            return self.cmd_maintain(rest[0], no_oracle=no_oracle)
        if cmd == "dump":
            eta = "--eta" in args
            rest = [a for a in args if a != "--eta"]
            if len(rest) != 1:
                raise UserError("usage: dump NAME [--eta]")
            return self.cmd_dump(rest[0], eta=eta)
        if cmd == "scan":
            if len(args) != 3:
                raise UserError("usage: scan HEAD LO HI (comma-separated keys)")
            return self.cmd_scan(*args)
        if cmd == "dump-sens":
            if len(args) != 1:
                raise UserError("usage: dump-sens RULE-ID")
            return self.cmd_dump_sens(args[0])
        if cmd == "dump-trace":
            if len(args) != 1:
                raise UserError("usage: dump-trace RULE-ID")
            return self.cmd_dump_trace(args[0])
        if cmd == "stats":
            return self.cmd_stats()
        if cmd == "script":
            if len(args) != 1:
                raise UserError("usage: script FILE")
            return self.run_script(args[0])
        raise UserError(f"unknown command {cmd!r}\n{USAGE}")

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
