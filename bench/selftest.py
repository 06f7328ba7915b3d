"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

For every workload it runs the benchmark untraced and traced on tiny
inputs (for one second, and at least two passes) and checks that:

* the result line carries exactly the metrics BENCHMARK.json names, with
  their units, and the correctness gate passed;
* the intervals work counts are nonzero on graph and zero elsewhere;
* a seed always yields the same input fingerprint, and another seed
  another one.

It also checks that the gate catches a corrupted head, and that the
benchmark exits nonzero without a result when the engine source is
absent.  Scratch files go to bench/out/.  Exits 0 when every check
passes.
"""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from workloads import WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
INTERVAL_WORK = ("intervals.adds", "intervals.added", "intervals.stab_visits")


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


def check_result(workload, trace):
    out = io.StringIO()
    code, line = run.run(workload, seed=7, seconds=1, trace=trace, tiny=True, out=out)
    result = json.loads(line)
    expect(code == 0 and result["correct"], f"{workload}: gate failed\n{out.getvalue()}")
    expect(result["failed"] == 0 and result["attempted"] > 0, f"{workload}: {result}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == want, f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
    for m in result["metrics"].values():
        expect(isinstance(m["value"], (int, float)), f"{workload}: {m}")
    return result["metrics"]


def check_interval_work(workload, metrics):
    work = sum(
        metrics[f"{name}.{phase}"]["value"]
        for name in INTERVAL_WORK
        for phase in run.PHASES
    )
    if workload == "graph":
        expect(work > 0, "graph: no interval-index work recorded")
    else:
        expect(work == 0, f"{workload}: interval-index work recorded")


def check_fingerprints():
    for w in WORKLOADS.values():
        a = generate(w, 3, tiny=True).fingerprint
        expect(a == generate(w, 3, tiny=True).fingerprint, f"{w.name}: not repeatable")
        expect(a != generate(w, 4, tiny=True).fingerprint, f"{w.name}: seed ignored")


def check_gate_catches_corruption():
    lj = run.load_engine()
    inputs = generate(WORKLOADS["unary"], 5, tiny=True)
    setup = run.set_up(lj, inputs)
    for rnd in inputs.rounds[:30]:
        run.run_round(lj, setup, rnd)
    expect(run.check(lj, setup)[0] == [], "gate failed on a correct run")
    head = setup.instances[0].heads[0].relation
    txn = head.begin()
    txn.insert((10**9,))
    txn.commit()
    expect(run.check(lj, setup)[0] == [head.name], "gate missed a corrupted head")


def check_refuses_without_engine():
    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "unary", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0, "ran without the engine source")
    expect(proc.stdout.strip() == "", f"printed a result without the engine: {proc.stdout}")


def main():
    for workload in WORKLOADS:
        check_result(workload, trace=0)
        check_interval_work(workload, check_result(workload, trace=1))
        print(f"ok {workload}")
    check_fingerprints()
    check_gate_catches_corruption()
    check_refuses_without_engine()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
