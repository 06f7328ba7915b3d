import pytest

from leapjoin.cli import Workspace, main
from leapjoin.errors import UserError


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


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        assert main(["stats"]) == 0
        assert main(["dump", "Nope"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_script_from_main(self, tmp_path, capsys):
        write(tmp_path / "a.tsv", "1\n")
        script = write(tmp_path / "s.txt", f"load A/1 {tmp_path}/a.tsv\ndump A\n")
        assert main(["script", script]) == 0
        out = capsys.readouterr().out
        assert out == "loaded A arity=1 version=1 records=1\n1\n"

    def test_help(self, capsys):
        assert main([]) == 0
        assert "usage:" in capsys.readouterr().out
