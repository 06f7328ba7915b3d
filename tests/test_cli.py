import random
from operator import gt, lt

import pytest

from leapjoin.cli import Workspace, _parse_value, main
from leapjoin.errors import UserError
from leapjoin.heads import render_value


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def ws():
    return Workspace()


def load_unary(ws, tmp_path):
    write(tmp_path / "a.tsv", "0\n2\n4\n5\n6\n")
    write(tmp_path / "b.tsv", "1\n2\n6\n7\n")
    ws.run_command(["load", "A/1", str(tmp_path / "a.tsv")])
    ws.run_command(["load", "B/1", str(tmp_path / "b.tsv")])


class TestLoad:
    def test_load_counts_records(self, ws, tmp_path):
        p = write(tmp_path / "a.tsv", "0\n2\n4\n5\n6\n")
        assert ws.run_command(["load", "A/1", p]) == [
            "loaded A arity=1 version=1 records=5"
        ]

    def test_empty_file_with_declared_arity(self, ws, tmp_path):
        p = write(tmp_path / "e.tsv", "")
        assert ws.run_command(["load", "E/2", p]) == [
            "loaded E arity=2 version=1 records=0"
        ]

    def test_empty_file_without_arity_rejected(self, ws, tmp_path):
        p = write(tmp_path / "e.tsv", "")
        with pytest.raises(UserError, match="arity"):
            ws.run_command(["load", "E", p])

    def test_malformed_line_cites_line_number(self, ws, tmp_path):
        p = write(tmp_path / "bad.tsv", "1\n2\nnope\n")
        with pytest.raises(UserError, match=":3"):
            ws.run_command(["load", "A/1", p])

    def test_function_load_parses_value_column(self, ws, tmp_path):
        p = write(tmp_path / "f.tsv", "1\t10\n2\t2.5\n")
        ws.run_command(["load", "F/1", p, "--function"])
        assert ws.run_command(["dump", "F"]) == ["1\t10", "2\t2.5"]


class TestRule:
    def test_install_reports_indices(self, ws, tmp_path):
        for name in "GHIR":
            write(tmp_path / f"{name}.tsv", "")
        ws.run_command(["load", "G/2", str(tmp_path / "G.tsv")])
        ws.run_command(["load", "H/2", str(tmp_path / "H.tsv")])
        ws.run_command(["load", "I/3", str(tmp_path / "I.tsv")])
        ws.run_command(["load", "R/1", str(tmp_path / "R.tsv")])
        out = ws.run_command(
            ["rule", "F(x,y) <- G(x,z), H(y,z), I(x,y,z), R(z). @order(x,y,z)"]
        )
        assert out == [
            "rule r1 installed: heads=F order=(x,y,z) indices=4"
        ]

    def test_unknown_predicate_rejected(self, ws):
        with pytest.raises(UserError, match="unknown predicate"):
            ws.run_command(["rule", "C(x) <- Zap(x)."])

    def test_head_predicate_twice_in_one_rule_rejected(self, ws, tmp_path):
        load_unary(ws, tmp_path)
        with pytest.raises(UserError, match="^P already exists$"):
            ws.run_command(["rule", "P(x), P(x) <- A(x)."])
        assert "P" not in ws.relations and not ws.rules

    def test_negation_rejected_at_install(self, ws, tmp_path):
        load_unary(ws, tmp_path)
        with pytest.raises(UserError, match="unsupported: negation"):
            ws.run_command(["rule", "C(x) <- A(x), !B(x)."])


class TestDelta:
    def test_delta_applies_one_transaction(self, ws, tmp_path):
        load_unary(ws, tmp_path)
        p = write(tmp_path / "da.txt", "+8\n-5\n")
        out = ws.run_command(["delta", "A", p])
        assert out == ["delta A version=2 inserts=1 erases=1 noops=0 records=5"]
        assert ws.run_command(["dump", "A"]) == ["0", "2", "4", "6", "8"]

    def test_empty_delta_commits_identical_version(self, ws, tmp_path):
        load_unary(ws, tmp_path)
        p = write(tmp_path / "d0.txt", "")
        out = ws.run_command(["delta", "A", p])
        assert out == ["delta A version=2 inserts=0 erases=0 noops=0 records=5"]

    def test_erase_of_absent_warns(self, ws, tmp_path):
        load_unary(ws, tmp_path)
        p = write(tmp_path / "dw.txt", "-99\n")
        out = ws.run_command(["delta", "A", p])
        assert out[0].startswith("warning:") and "no-op" in out[0]
        assert out[1] == "delta A version=2 inserts=0 erases=0 noops=1 records=5"

    def test_insert_of_present_warns(self, ws, tmp_path):
        """Each + of a tuple that is already there, in the base or staged
        by an earlier line, is a no-op: counted and warned like an erase
        of an absent tuple, and not as an insert."""
        p = write(tmp_path / "a.tsv", "0\n2\n4\n")
        ws.run_command(["load", "A/1", p])
        p = write(tmp_path / "dd.txt", "+2\n+2\n-9\n+7\n+7\n")
        out = ws.run_command(["delta", "A", p])
        path = tmp_path / "dd.txt"
        assert out == [
            f"warning: {path}:1: insert of present tuple is a no-op",
            f"warning: {path}:2: insert of present tuple is a no-op",
            f"warning: {path}:3: erase of absent tuple is a no-op",
            f"warning: {path}:5: insert of present tuple is a no-op",
            "delta A version=2 inserts=1 erases=0 noops=4 records=4",
        ]


def rejects(ws, argv, message):
    """The command raises UserError with exactly this message."""
    with pytest.raises(UserError) as info:
        ws.run_command(argv)
    assert str(info.value) == message


class TestRowErrors:
    """Error texts of the tuple-file reader, for load and delta alike."""

    @pytest.mark.parametrize(
        "spec,text,flags,message",
        [
            ("A/1", "1\nq\n", [], "{p}:2: bad key 'q'"),
            ("A/1", "1\n2\t3\n", [], "{p}:2: expected 1 key columns, found 2"),
            ("A", "1\t2\n\n3\n", [], "{p}:3: expected 2 key columns, found 1"),
            ("F/1", "1\t5\n2\n", ["--function"], (
                "{p}:2: function rows need a value column"
            )),
            ("F/1", "1\tzz\n", ["--function"], "{p}:1: bad value 'zz'"),
            ("F/1", "x\t5\n", ["--function"], "{p}:1: bad key 'x'"),
            ("A/x", "1\n", [], "bad arity in 'A/x'"),
            ("A", "", [], "{p}: empty file needs an explicit arity (NAME/N)"),
        ],
    )
    def test_load_errors(self, ws, tmp_path, spec, text, flags, message):
        p = write(tmp_path / "rows.tsv", text)
        rejects(ws, ["load", spec, p, *flags], message.format(p=p))

    @pytest.mark.parametrize(
        "name,text,message",
        [
            ("A", "+1\n*2\n", "{p}:2: lines must start with + or -"),
            ("A", "+1\n\n-q\n", "{p}:3: bad key 'q'"),
            ("A", "+1\t2\n", "A: expected arity 1, got 2"),
            ("A", "-1\t2\n", "A: expected arity 1, got 2"),
            ("F", "+3\tzz\n", "{p}:1: bad value 'zz'"),
            ("F", "+3\t4\t5\n", "F: expected arity 1, got 2"),
            ("F", "+1\t9\n", "F: conflicting value for key (1,): 5 vs 9"),
            ("F", "+3\t4\n+7\n", "{p}:2: function rows need a value column"),
            ("Z", "+1\n", "unknown relation Z"),
        ],
    )
    def test_delta_errors(self, ws, tmp_path, name, text, message):
        ws.run_command(["load", "A/1", write(tmp_path / "a.tsv", "1\n")])
        f = write(tmp_path / "f.tsv", "1\t5\n")
        ws.run_command(["load", "F/1", f, "--function"])
        p = write(tmp_path / "d.txt", text)
        rejects(ws, ["delta", name, p], message.format(p=p))
        # a rejected delta file commits nothing
        assert ws.run_command(["stats"])[:2] == [
            "edb A/1 relation versions=2 records=1 pages=1",
            "edb F/1 function versions=2 records=1 pages=1",
        ]

    def test_delta_function_rows_parse_like_load(self, ws, tmp_path):
        f = write(tmp_path / "f.tsv", "1\t5\n")
        ws.run_command(["load", "F/1", f, "--function"])
        p = write(tmp_path / "d.txt", "-1\t5\n+2\t2.5\n+1\t6\n")
        assert ws.run_command(["delta", "F", p]) == [
            "delta F version=2 inserts=2 erases=1 noops=0 records=2"
        ]
        assert ws.run_command(["dump", "F"]) == ["1\t6", "2\t2.5"]


SESSION_GOLDEN = """\
loaded A arity=1 version=1 records=5
loaded B arity=1 version=1 records=4
rule r1 installed: heads=C order=(x) indices=2
ops_old=0
ops_new=10
oracle_intervals=0
sens_consumed=0
sens_added=8
head_inserts=2
head_erases=0
2
6
delta A version=2 inserts=1 erases=1 noops=0 records=5
delta B version=2 inserts=1 erases=1 noops=0 records=4
oracle depth=1 prefix=() {[2,2], [6,+inf]}
ops_old=12
ops_new=12
oracle_intervals=2
sens_consumed=2
sens_added=5
head_inserts=0
head_erases=1
6
A_sens = {[-inf,0], [1,2], [2,2], [2,4], [6,6], [6,8]}
B_sens = {[-inf,1], [2,3], [4,6], [6,6], [8,+inf]}
"""


def run_session(tmp_path):
    write(tmp_path / "a.tsv", "0\n2\n4\n5\n6\n")
    write(tmp_path / "b.tsv", "1\n2\n6\n7\n")
    write(tmp_path / "da.txt", "+8\n-5\n")
    write(tmp_path / "db.txt", "-2\n+3\n")
    script = write(
        tmp_path / "session.txt",
        "\n".join(
            [
                f"load A/1 {tmp_path}/a.tsv",
                f"load B/1 {tmp_path}/b.tsv",
                "rule C(x) <- A(x), B(x). @force_sens",
                "eval r1",
                "dump C",
                f"delta A {tmp_path}/da.txt",
                f"delta B {tmp_path}/db.txt",
                "maintain r1",
                "dump C",
                "dump-sens r1",
                "",
            ]
        ),
    )
    ws = Workspace()
    return ws, ws.run_script(script)


class TestSession:
    def test_worked_example_session_golden(self, tmp_path):
        _, out = run_session(tmp_path)
        assert "\n".join(out) + "\n" == SESSION_GOLDEN

    def test_session_is_deterministic(self, tmp_path):
        _, out1 = run_session(tmp_path)
        (tmp_path / "again").mkdir()
        _, out2 = run_session(tmp_path / "again")
        assert out1 == out2

    def test_dump_trace_renders_events(self, tmp_path):
        ws, _ = run_session(tmp_path)
        lines = ws.run_command(["dump-trace", "r1"])
        assert lines
        assert all(line.startswith("iter=") for line in lines)

    def test_stats_cross_checks(self, tmp_path):
        ws, _ = run_session(tmp_path)
        lines = ws.run_command(["stats"])
        assert any(line.startswith("edb A/1 ") for line in lines)
        sens_line = next(l for l in lines if l.startswith("rule r1"))
        assert "sens_intervals=11" in sens_line  # 6 + 5 revised intervals

    def test_no_oracle_maintain_same_head(self, tmp_path):
        ws, _ = run_session(tmp_path)
        write(tmp_path / "da2.txt", "+11\n-0\n")
        ws.run_command(["delta", "A", str(tmp_path / "da2.txt")])
        ws.run_command(["maintain", "r1", "--no-oracle"])
        assert ws.run_command(["dump", "C"]) == ["6"]


class TestDumpSens:
    def test_disjunction_indices_are_named_by_branch(self, ws, tmp_path):
        load_unary(ws, tmp_path)
        ws.run_command(["rule", "U(x) <- (A(x) ; B(x)). @force_sens"])
        ws.run_command(["eval", "r1"])
        assert ws.run_command(["dump-sens", "r1"]) == [
            "b0.A_sens = {[-inf,0], [0,2], [2,4], [4,5], [5,6], [6,+inf]}",
            "b1.B_sens = {[-inf,1], [1,2], [2,6], [6,7], [7,+inf]}",
        ]

    def test_before_the_first_eval_prints_nothing(self, ws, tmp_path):
        """The indices exist from the rule's installation, empty; with no
        evaluation yet there is nothing to print, not one empty line per
        index."""
        load_unary(ws, tmp_path)
        ws.run_command(["rule", "C(x) <- A(x), B(x). @force_sens"])
        assert ws.run_command(["dump-sens", "r1"]) == []
        ws.run_command(["eval", "r1"])
        assert ws.run_command(["dump-sens", "r1"]) == [
            "A_sens = {[-inf,0], [1,2], [2,4], [6,6], [6,+inf]}",
            "B_sens = {[-inf,1], [2,2], [4,6]}",
        ]


class TestDump:
    def test_round_trip_reload(self, ws, tmp_path):
        p = write(tmp_path / "r.tsv", "1\t2\n3\t4\n")
        ws.run_command(["load", "R/2", p])
        dumped = ws.run_command(["dump", "R"])
        p2 = write(tmp_path / "r2.tsv", "\n".join(dumped) + "\n")
        ws.run_command(["load", "R2/2", p2])
        assert ws.run_command(["dump", "R2"]) == dumped

    def test_eta_column_for_counted_heads(self, ws, tmp_path):
        write(tmp_path / "a2.tsv", "1\t2\n")
        write(tmp_path / "b2.tsv", "2\t5\n2\t6\n")
        ws.run_command(["load", "A2/2", str(tmp_path / "a2.tsv")])
        ws.run_command(["load", "B2/2", str(tmp_path / "b2.tsv")])
        ws.run_command(["rule", "S(x,y) <- A2(x,y), B2(y,z)."])
        ws.run_command(["eval", "r1"])
        assert ws.run_command(["dump", "S"]) == ["1\t2"]
        assert ws.run_command(["dump", "S", "--eta"]) == ["1\t2\t#2"]

    def test_dump_empty_relation(self, ws, tmp_path):
        p = write(tmp_path / "e.tsv", "")
        ws.run_command(["load", "E/1", p])
        assert ws.run_command(["dump", "E"]) == []

    def test_unknown_name_rejected(self, ws):
        with pytest.raises(UserError):
            ws.run_command(["dump", "Nope"])


def install_head(ws, tmp_path, spec, rows, rule):
    """Load one function relation, install RULE over it and evaluate it."""
    name = spec.partition("/")[0]
    p = write(tmp_path / f"{name}.tsv", rows)
    ws.run_command(["load", spec, p, "--function"])
    ws.run_command(["rule", rule])
    ws.run_command(["eval", "r1"])


def maintain_with(ws, tmp_path, name, edits):
    p = write(tmp_path / f"d{name}.txt", edits)
    ws.run_command(["delta", name, p])
    ws.run_command(["maintain", "r1"])


def dumps(ws, name):
    return ws.run_command(["dump", name]), ws.run_command(["dump", name, "--eta"])


class TestDumpHeadKinds:
    """Each head kind's stored record, as `dump` and `dump --eta` print it."""

    def test_counted_function_head(self, ws, tmp_path):
        install_head(
            ws, tmp_path, "F/2", "1\t1\t5\n1\t2\t5\n2\t3\t2.5\n",
            "Q[x]=v <- F[x,y]=v.",
        )
        assert dumps(ws, "Q") == (
            ["1\t5", "2\t2.5"],
            ["1\t5\t#2", "2\t2.5\t#1"],
        )
        maintain_with(ws, tmp_path, "F", "-1\t2\t5\n+3\t1\t-4\n")
        assert dumps(ws, "Q") == (
            ["1\t5", "2\t2.5", "3\t-4"],
            ["1\t5\t#1", "2\t2.5\t#1", "3\t-4\t#1"],
        )

    def test_count(self, ws, tmp_path):
        p = write(tmp_path / "E.tsv", "1\t1\n1\t2\n2\t5\n")
        ws.run_command(["load", "E/2", p])
        ws.run_command(["rule", "D[x]=c <- agg<< c=count() >> E(x,y)."])
        ws.run_command(["eval", "r1"])
        assert dumps(ws, "D") == (["1\t2", "2\t1"], ["1\t2", "2\t1"])
        maintain_with(ws, tmp_path, "E", "-2\t5\n+1\t3\n")
        assert dumps(ws, "D") == (["1\t3"], ["1\t3"])

    def test_wrapping_sum(self, ws, tmp_path):
        install_head(
            ws, tmp_path, "E2/2",
            "1\t1\t3\n1\t2\t-5\n2\t1\t9223372036854775807\n2\t2\t1\n",
            "T[x]=s <- agg<< s=sum(v) >> E2[x,y]=v.",
        )
        assert dumps(ws, "T") == (
            ["1\t-2", "2\t-9223372036854775808"],
            ["1\t-2\t#2", "2\t-9223372036854775808\t#2"],
        )
        maintain_with(ws, tmp_path, "E2", "-1\t2\t-5\n")
        assert dumps(ws, "T") == (
            ["1\t3", "2\t-9223372036854775808"],
            ["1\t3\t#1", "2\t-9223372036854775808\t#2"],
        )

    def test_float_total(self, ws, tmp_path):
        install_head(
            ws, tmp_path, "EF/2",
            "1\t1\t0.1\n1\t2\t0.2\n2\t1\t1e308\n2\t2\t1e308\n"
            "3\t1\t1.5\n3\t2\t-1.5\n4\t1\t1\n4\t2\t2\n",
            "FT[x]=t <- agg<< t=total(v) >> EF[x,y]=v.",
        )
        assert dumps(ws, "FT") == (
            ["1\t0.30000000000000004", "2\tinf", "3\t0.0", "4\t3.0"],
            [
                "1\t0.30000000000000004\t#2",
                "2\tinf\t#2",
                "3\t0.0\t#2",
                "4\t3.0\t#2",
            ],
        )
        maintain_with(ws, tmp_path, "EF", "-2\t2\t1e308\n-3\t2\t-1.5\n")
        assert dumps(ws, "FT") == (
            ["1\t0.30000000000000004", "2\t1e+308", "3\t1.5", "4\t3.0"],
            [
                "1\t0.30000000000000004\t#2",
                "2\t1e+308\t#1",
                "3\t1.5\t#1",
                "4\t3.0\t#2",
            ],
        )

    def test_max(self, ws, tmp_path):
        install_head(
            ws, tmp_path, "E2/2", "1\t1\t3\n1\t2\t-5\n2\t1\t2.5\n2\t2\t1\n",
            "M[x]=m <- agg<< m=max(v) >> E2[x,y]=v.",
        )
        assert dumps(ws, "M") == (["1\t3", "2\t2.5"], ["1\t3", "2\t2.5"])
        maintain_with(ws, tmp_path, "E2", "-1\t1\t3\n-2\t1\t2.5\n")
        assert dumps(ws, "M") == (["1\t-5", "2\t1"], ["1\t-5", "2\t1"])


class TestScan:
    def test_range_scan_over_max_head(self, ws, tmp_path):
        p = write(tmp_path / "s.tsv", "1\t1\t1000\n1\t2\t1500\n2\t3\t9000\n2\t4\t7024\n")
        ws.run_command(["load", "S/2", p, "--function"])
        ws.run_command(["rule", "MS[r]=m <- agg<< m=max(v) >> S[r,s]=v."])
        ws.run_command(["eval", "r1"])
        assert ws.run_command(["scan", "MS", "2,-inf", "2,+inf"]) == ["scan MS = 9000"]
        assert ws.run_command(["scan", "MS", "3,-inf", "+inf,+inf"]) == [
            "scan MS = EMPTY"
        ]

    def test_scan_equals_a_fold_of_the_records_in_key_order(self, ws, tmp_path):
        """Ranges that cover, cut, miss and cross the group partitions, the
        groups with no record among them: each scan is the first extreme in
        key order of the intermediate's records in the range."""
        rng = random.Random(61)
        ties = ["1", "1.0", "-0.0", "0", "0.0", "-1", "-1.0", "2"]
        rows = {}
        for r in (0, 2, 3, 5):  # groups 1 and 4 have no record
            for _ in range(rng.randrange(1, 7)):
                rows[r, rng.randrange(4), rng.randrange(4)] = rng.choice(ties)
        text = "".join(f"{r}\t{s}\t{t}\t{v}\n" for (r, s, t), v in rows.items())
        ws.run_command(["load", "S/3", write(tmp_path / "s.tsv", text), "--function"])
        ws.run_command(["rule", "MX[r]=m <- agg<< m=max(v) >> S[r,s,t]=v."])
        ws.run_command(["rule", "MN[r,s]=m <- agg<< m=min(v) >> S[r,s,t]=v."])
        ws.run_command(["eval", "r1"])
        ws.run_command(["eval", "r2"])
        ends = [-1, 0, 1, 2, 3, 4, 5, 6]

        def point(*fixed):
            return tuple(fixed) + tuple(rng.choice(ends) for _ in range(3 - len(fixed)))

        def brute(lo, hi, better):
            best = None
            for key in sorted(rows):
                v = _parse_value(rows[key], "")
                if lo <= key <= hi and (best is None or better(v, best)):
                    best = v
            return "EMPTY" if best is None else render_value(best)

        def check():
            cases = [
                ((r, -1, -1), (r, 6, 6)) for r in range(7)  # cover or miss a group
            ] + [((2, 1, 0), (2, 2, 3)), ((0, 3, 1), (3, 0, 2)), ((-1,) * 3, (6,) * 3)]
            for _ in range(60):
                lo, hi = sorted((point(), point(rng.choice(ends))))
                cases.append((lo, hi))
            for lo, hi in cases:
                ends_text = [",".join(map(str, k)) for k in (lo, hi)]
                for head, better in (("MX", gt), ("MN", lt)):
                    got = ws.run_command(["scan", head, *ends_text])
                    assert got == [f"scan {head} = {brute(lo, hi, better)}"], (lo, hi)

        check()
        # empty group 2 and start group 4, then scan again
        edits = [f"-{r}\t{s}\t{t}\t{v}\n" for (r, s, t), v in rows.items() if r == 2]
        edits.append("+4\t1\t1\t7\n")
        for key in [k for k in rows if k[0] == 2]:
            del rows[key]
        rows[4, 1, 1] = "7"
        ws.run_command(["delta", "S", write(tmp_path / "d.txt", "".join(edits))])
        ws.run_command(["maintain", "r1"])
        ws.run_command(["maintain", "r2"])
        check()

    def test_scan_rejects_non_scan_heads(self, ws, tmp_path):
        load_unary(ws, tmp_path)
        ws.run_command(["rule", "C(x) <- A(x), B(x)."])
        with pytest.raises(UserError, match="scan tree"):
            ws.run_command(["scan", "C", "-inf", "+inf"])


class TestMaintainCommand:
    def test_maintain_before_eval_instructive_error(self, ws, tmp_path):
        load_unary(ws, tmp_path)
        ws.run_command(["rule", "C(x) <- A(x), B(x)."])
        with pytest.raises(UserError, match="eval"):
            ws.run_command(["maintain", "r1"])

    def test_maintain_without_deltas_zeroed(self, ws, tmp_path):
        load_unary(ws, tmp_path)
        ws.run_command(["rule", "C(x) <- A(x), B(x)."])
        ws.run_command(["eval", "r1"])
        out = ws.run_command(["maintain", "r1"])
        assert "ops_old=0" in out and "head_erases=0" in out

    def test_maintain_that_changes_no_head_keeps_its_version(self, ws, tmp_path):
        """A round that changes no assignment commits no head version: a
        head's ``versions=`` in ``stats`` advances only with a change."""
        load_unary(ws, tmp_path)
        ws.run_command(["rule", "C(x) <- A(x), B(x)."])
        ws.run_command(["eval", "r1"])
        idb = [line for line in ws.run_command(["stats"]) if line.startswith("idb")]
        assert idb == ["idb C/1 relation versions=2 records=2 pages=1"]
        maintain_with(ws, tmp_path, "A", "+9\n")  # 9 is not in B: C keeps its records
        stats = ws.run_command(["stats"])
        assert [line for line in stats if line.startswith("idb")] == idb
        assert "rule r1 bound=A@2,B@1 sens_intervals=0" in stats
        maintain_with(ws, tmp_path, "B", "+9\n")
        assert ws.run_command(["stats"])[2] == (
            "idb C/1 relation versions=3 records=3 pages=2"
        )


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        assert main(["stats"]) == 0
        assert main(["dump", "Nope"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_stats_refuses_arguments(self, ws):
        rejects(ws, ["stats", "x"], "usage: stats")

    def test_stats_with_arguments_exits_1(self, capsys):
        assert main(["stats", "x", "y"]) == 1
        assert capsys.readouterr() == ("", "error: usage: stats\n")

    def test_script_from_main(self, tmp_path, capsys):
        write(tmp_path / "a.tsv", "1\n")
        script = write(tmp_path / "s.txt", f"load A/1 {tmp_path}/a.tsv\ndump A\n")
        assert main(["script", script]) == 0
        out = capsys.readouterr().out
        assert out == "loaded A arity=1 version=1 records=1\n1\n"

    def test_script_refuses_the_aggregation_output_as_a_head_key(
        self, tmp_path, capsys
    ):
        f = write(tmp_path / "e.tsv", "1\t2\t3\n")
        rule = "T[s]=s <- agg<< s=sum(v) >> E2[x,y]=v."
        lines = [f"load E2/2 {f} --function", f"rule {rule}"]
        script = write(tmp_path / "s.txt", "\n".join(lines) + "\n")
        assert main(["script", script]) == 1
        err = capsys.readouterr().err
        assert err == "error: aggregation output s cannot be a head key\n"

    def test_script_refuses_a_function_value_used_as_a_key(self, tmp_path, capsys):
        f = write(tmp_path / "f.tsv", "1\t2\n")
        e = write(tmp_path / "e.tsv", "1\t2\n")
        lines = [
            f"load F/1 {f} --function",
            f"load E/2 {e}",
            "rule H(x,z) <- F[x]=z, E(x,z).",
            "eval r1",
        ]
        script = write(tmp_path / "s.txt", "\n".join(lines) + "\n")
        assert main(["script", script]) == 1
        out, err = capsys.readouterr()
        assert err == "error: variable z is both a key and a value\n"
        assert "Traceback" not in out + err

    @pytest.mark.parametrize(
        "rows,commands,message",
        [
            # a NaN value could never be erased, as nan != nan
            ("1\tnan\n", [], "F: value nan at key (1,) is not equal to itself"),
            (
                "1\t1\t1" + "0" * 400 + "\n",
                ["rule T[x]=t <- agg<< t=total(v) >> F[x,y]=v.", "eval r1"],
                "T: summand beyond the double range at (1,)",
            ),
        ],
        ids=["nan_value", "huge_integer_summand"],
    )
    def test_values_that_break_maintenance_are_refused(
        self, tmp_path, capsys, rows, commands, message
    ):
        arity = rows.count("\t")
        f = write(tmp_path / "f.tsv", rows)
        lines = [f"load F/{arity} {f} --function", *commands]
        script = write(tmp_path / "s.txt", "\n".join(lines) + "\n")
        assert main(["script", script]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_integer_value_past_the_digit_limit_is_refused(self, ws, tmp_path, capsys):
        # int() refuses more than 4300 digits; float() would read it as inf
        f = write(tmp_path / "big.tsv", "1\t1" + "0" * 5000 + "\n")
        message = f"{f}:1: integer value of 5001 digits is too long"
        assert main(["load", "F/1", f, "--function"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        rejects(ws, ["load", "F/1", f, "--function"], message)
        assert ws.relations == {}  # no version committed

    def test_help(self, capsys):
        assert main([]) == 0
        assert "usage:" in capsys.readouterr().out
