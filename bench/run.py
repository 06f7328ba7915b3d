"""Maintenance benchmark for leapjoin.

    python3 bench/run.py --workload {unary,graph,aggregate} --seed N \\
        --seconds S --trace {0,1}

One client drives the library in a closed loop, in this one process and
thread.  A run makes passes for ``--seconds`` seconds, and at least
two.  A pass sets the workload up (load the base relations, plan every
rule, bootstrap every rule), applies the seed's precomputed round stream
and evaluates every rule, repeatedly for EVAL_SECONDS.  A round
commits its input edits and runs ``maintain`` on every rule, which is
what an embedding application waits for.  After the last pass every
maintained head is compared with a fresh bootstrap over the final
versions; a mismatch fails every round of the run and the process exits
1.

Times are reported at reference speed, which takes out most of the
shared host's drift in speed (see reference.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` wraps the
engine's layer entry points with spans (see spans.py) during the second
pass's set-up and every other round of each kind, prints the per-layer
metrics, including the tracing overhead measured against the untraced
set-ups and rounds, and writes the spans to bench/out/.  The last line
of standard output is the JSON result; see README.md for what each
metric means.
"""

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import astuple, dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

from reference import Speed
from spans import SETUP_ROUND, Patches, SpanRecorder
from workloads import BATCH, SINGLE, TAIL_LADDER, WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPAN_DIR = BENCH / "out"

MIN_PASSES = 2  # passes of set-up, rounds and plain evaluation per run
EVAL_SECONDS = 2.0  # a pass repeats the plain evaluation for at least this long
MIN_BEYOND = 10  # samples a tail percentile must leave above it

END_TO_END = (
    ("setup_s", "s"),
    ("bootstrap_s", "s"),
    ("evaluate_s", "s"),
    ("maintain_p50_ms", "ms"),
    ("maintain_tail_ms", "ms"),
    ("batch_p50_ms", "ms"),
    ("batch_tail_ms", "ms"),
    ("edits_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics reported for each phase: per set-up, and per traced
# round of each kind.  Times are self times.
PHASES = ("setup", SINGLE, BATCH)
PHASE_METRICS = (
    ("store.commit_ms", "ms"),
    ("store.surgery_ms", "ms"),
    ("store.delta_pages", "count"),
    ("store.pages_allocated", "count"),
    ("scantree.insert_ms", "ms"),
    ("scantree.inserts", "count"),
    ("scantree.erase_ms", "ms"),
    ("scantree.range_scan_ms", "ms"),
    ("scantree.combines", "count"),
    ("intervals.add_ms", "ms"),
    ("intervals.adds", "count"),
    ("intervals.added", "count"),
    ("intervals.stab_ms", "ms"),
    ("intervals.stab_visits", "count"),
    ("intervals.hits", "count"),
    ("intervals.hit_ratio", "ratio"),
    ("lftj.eval_old_ms", "ms"),
    ("lftj.eval_new_ms", "ms"),
    ("lftj.ops", "count"),
    ("lftj.ns_per_op", "ns"),
    ("lftj.useful_ratio", "ratio"),
    ("heads.apply_ms", "ms"),
    ("heads.commit_ms", "ms"),
    ("heads.deltas", "count"),
    ("driver.oracle_ms", "ms"),
    ("driver.oracle_intervals", "count"),
    ("driver.diff_ms", "ms"),
)
# Per-layer metrics read once per traced run.
RUN_METRICS = (
    ("store.load_s", "s"),
    ("rules.plan_ms", "ms"),
    ("store.versions_retained", "count"),
    ("intervals.records_end", "count"),
    ("intervals.records_fresh", "count"),
    ("intervals.drift", "ratio"),
    ("trace.overhead_setup", "%"),
    ("trace.overhead_single", "%"),
    ("trace.overhead_batch", "%"),
    ("rounds.single", "count"),
    ("rounds.batch", "count"),
)


def per_layer_names():
    names = [(f"{m}.{p}", u) for m, u in PHASE_METRICS for p in PHASES]
    return names + list(RUN_METRICS)


class EngineMissing(Exception):
    pass


def load_engine():
    """Import leapjoin from this checkout's src/ and nowhere else."""
    pkg = ROOT / "src" / "leapjoin"
    if not (pkg / "__init__.py").is_file():
        raise EngineMissing(f"engine source not found at {pkg}")
    if str(pkg.parent) not in sys.path:
        sys.path.insert(0, str(pkg.parent))
    import leapjoin
    from leapjoin import driver, intervals, lftj, parser, rules, scantree, store

    if Path(leapjoin.__file__).resolve().parent != pkg.resolve():
        raise EngineMissing(f"imported leapjoin from {leapjoin.__file__}")
    return SimpleNamespace(
        driver=driver, intervals=intervals, lftj=lftj, parser=parser,
        rules=rules, scantree=scantree, store=store,
    )


# -- driving the engine --------------------------------------------------------


@dataclass(frozen=True)
class SetupTimes:
    load_s: float
    plan_s: float
    bootstrap_s: float  # the bootstrap calls alone
    total_s: float


@dataclass
class Setup:
    relations: dict
    instances: list
    reports: list  # bootstrap MaintenanceReports
    times: SetupTimes


def new_instance(lj, plan):
    heads = [
        lj.store.Relation(
            hp.atom.pred,
            len(hp.atom.key_args),
            is_function=hp.kind != "DIRECT" or bool(hp.atom.value_args),
        )
        for hp in plan.heads
    ]
    return lj.driver.RuleInstance(plan, heads)


def set_up(lj, inputs):
    t0 = perf_counter()
    relations = {}
    for name, (arity, is_function) in inputs.catalog.items():
        rel = lj.store.Relation(name, arity, is_function=is_function)
        txn = rel.begin()
        for keys, value in inputs.base[name]:
            txn.insert(keys, value)
        txn.commit()
        relations[name] = rel
    t1 = perf_counter()
    plans = [
        lj.rules.validate_key_order(lj.parser.parse_rule(text, inputs.catalog))
        for text in inputs.rules
    ]
    t2 = perf_counter()
    instances = [new_instance(lj, plan) for plan in plans]
    reports = []
    boot = 0.0
    for inst in instances:
        tb = perf_counter()
        reports.append(
            lj.driver.bootstrap(
                inst, inst.current_versions(relations), with_trace=False
            )
        )
        boot += perf_counter() - tb
    t3 = perf_counter()
    times = SetupTimes(t1 - t0, t2 - t1, boot, t3 - t0)
    return Setup(relations, instances, reports, times)


def run_round(lj, setup, rnd):
    """Commit the round's edits, then maintain every rule."""
    txns = {}
    try:
        for rel, sign, keys, value in rnd.edits:
            txn = txns.get(rel)
            if txn is None:
                txn = txns[rel] = setup.relations[rel].begin()
            if sign == "+":
                txn.insert(keys, value)
            elif not txn.erase(keys, value):
                raise RuntimeError(f"input stream out of step: {rel} {keys}")
        for rel in list(txns):
            txns[rel].commit()
            del txns[rel]
    finally:
        for txn in txns.values():
            txn.abort()
    return [
        lj.driver.maintain(inst, inst.current_versions(setup.relations))
        for inst in setup.instances
    ]


@dataclass
class Tally:
    """What the passes of one run measured.

    Every timing keeps the perf_counter_ns at which it started, so that
    it can be scaled to reference speed (see reference.py).
    """

    speed: Speed
    samples: dict = field(default_factory=lambda: defaultdict(list))  # (t0, ns)
    edits: int = 0
    attempted: int = 0
    failed: int = 0
    setups: list = field(default_factory=list)  # (Setup.times, traced, t0, ns)
    evals: list = field(default_factory=list)  # (t0, ns)

    def scaled(self, timings):
        """Timings ``(t0, ns)`` at reference speed, in ns."""
        return [self.speed.scaled(t0, t0 + ns) for t0, ns in timings]

    def active(self, timings):
        """Timings ``(t0, ns)`` as measured, less reference probes, in ns."""
        return [self.speed.active(t0, t0 + ns) for t0, ns in timings]


def measure_rounds(lj, setup, rounds, tally, tracer=None):
    """Apply every round; latencies go to ``tally.samples[(kind, traced)]``."""
    gc.collect()
    for rnd in rounds:
        traced = tracer is not None and tracer.begin_round(rnd.kind, setup)
        tally.attempted += 1
        t0 = perf_counter_ns()
        try:
            reports = run_round(lj, setup, rnd)
        except Exception:
            if not tally.failed:
                traceback.print_exc()
            tally.failed += 1
            reports, dt = [], None
        else:
            dt = perf_counter_ns() - t0
        if traced:
            tracer.end_round(setup, reports)
        if dt is not None:
            tally.samples[(rnd.kind, traced)].append((t0, dt))
            tally.edits += len(rnd.edits)


def run_passes(lj, inputs, seconds, tracer=None):
    """Make passes for ``seconds``, and at least MIN_PASSES.

    A pass sets up from the base data, applies the whole round stream and
    evaluates every rule, repeatedly for EVAL_SECONDS, so every pass does
    the same work and each median pools passes made at different moments.
    No pass starts that would end the run past ``seconds``, judging by
    the last pass and by its bootstrap, which the gate repeats.  The gate
    checks the last pass.

    Untraced, reference probes interrupt the passes (see reference.py).
    With a tracer they run only around set-ups, so that no probe lands
    inside a span, and the second pass sets up traced.
    """
    tally = Tally(Speed())
    setup = None
    start = perf_counter()
    p, pass_s, gate_s = 0, 0.0, 0.0
    with nullcontext() if tracer else tally.speed.running():
        while p < MIN_PASSES or perf_counter() - start + pass_s + gate_s < seconds:
            t = perf_counter()
            setup = None  # release the previous pass before timing the next
            setup = make_pass(lj, inputs, tally, tracer, traced_setup=p == 1)
            pass_s = perf_counter() - t
            gate_s = setup.times.bootstrap_s
            p += 1
    tally.speed.probe()
    bad, fresh_records = check(lj, setup)
    return setup, tally, bad, fresh_records


def make_pass(lj, inputs, tally, tracer, traced_setup):
    """Set up, apply the round stream and evaluate; returns the Setup."""
    gc.collect()
    traced = tracer is not None and traced_setup
    tally.speed.probe()
    if traced:
        tracer.begin_setup()
    t0 = perf_counter_ns()
    try:
        setup = set_up(lj, inputs)
    finally:
        if traced:
            tracer.end_setup()
    dt = perf_counter_ns() - t0
    tally.speed.probe()
    if traced:
        tracer.add_counters(setup.reports, state_counters(setup))
    tally.setups.append((setup.times, traced, t0, dt))
    measure_rounds(lj, setup, inputs.rounds, tally, tracer)
    spent = 0
    while spent < EVAL_SECONDS * 1e9:
        t0 = perf_counter_ns()
        evaluate_all(lj, setup)
        tally.evals.append((t0, perf_counter_ns() - t0))
        spent += tally.evals[-1][1]
    return setup


def evaluate_all(lj, setup):
    for inst in setup.instances:
        versions = inst.current_versions(setup.relations)
        for _ in lj.lftj.evaluate(inst.plan, versions):
            pass


def check(lj, setup):
    """Compare every maintained head with a fresh bootstrap.

    Returns the heads that differ and the fresh index size.
    """
    bad, fresh_records = [], 0
    for inst in setup.instances:
        fresh = new_instance(lj, inst.plan)
        lj.driver.bootstrap(
            fresh, inst.current_versions(setup.relations), with_trace=False
        )
        fresh_records += index_records(fresh)
        for mine, ref in zip(inst.heads, fresh.heads):
            if list(mine.relation.current.records()) != list(
                ref.relation.current.records()
            ):
                bad.append(mine.relation.name)
    return bad, fresh_records


# -- counters read from engine state -----------------------------------------


def index_records(inst):
    return sum(len(idx) for idx in inst.indices.values())


def all_relations(setup):
    heads = [h.relation for inst in setup.instances for h in inst.heads]
    return list(setup.relations.values()) + heads


def state_counters(setup):
    """Cumulative counters kept by the engine's own stats dicts."""
    visits = combines = 0
    for inst in setup.instances:
        trees = [h.agg.tree for h in inst.heads if h.agg is not None]
        for idx in inst.indices.values():
            visits += idx.stats["visits"]
            trees.append(idx.tree)
        combines += sum(t.stats["combines"] for t in trees)
    pages = sum(r.stats["pages_allocated"] for r in all_relations(setup))
    return {"stab_visits": visits, "combines": combines, "pages": pages}


def report_counters(reports):
    return {
        "ops": sum(r.ops_old + r.ops_new for r in reports),
        "added": sum(r.sens_added for r in reports),
        "hits": sum(r.sens_consumed for r in reports),
        "useful": sum(r.head_inserts + r.head_erases for r in reports),
        "oracle_intervals": sum(r.oracle_intervals for r in reports),
    }


class Tracer:
    """Traces the second pass's set-up and every other round of each kind.

    Rounds get run-wide ids; ``kinds`` maps each traced id to its kind.
    """

    def __init__(self, rec, patches):
        self.rec = rec
        self.patches = patches
        self.kinds = {}
        self._seen = defaultdict(int)  # kind -> rounds begun
        self._next = 0
        self._before = None

    def begin_setup(self):
        self.rec.current_round = SETUP_ROUND
        self.patches.on()

    def end_setup(self):
        self.patches.off()

    def begin_round(self, kind, setup):
        rid = self._next
        self._next += 1
        self._seen[kind] += 1
        if self._seen[kind] % 2 == 0:
            return False
        self.rec.current_round = rid
        self.kinds[rid] = kind
        self._before = state_counters(setup)
        self.patches.on()
        return True

    def end_round(self, setup, reports):
        self.patches.off()
        self.add_counters(reports, state_counters(setup), self._before)

    def add_counters(self, reports, after, before=None):
        for name, n in report_counters(reports).items():
            self.rec.count(name, n)
        for name, n in after.items():
            self.rec.count(name, n - (before[name] if before else 0))


# -- statistics ----------------------------------------------------------------


def p50(values):
    """The median, or 0.0 when every round of the kind failed."""
    return statistics.median(values) if values else 0.0


def tail(values, preferred):
    """(percentile, value): the highest ladder rung up to ``preferred``
    that leaves at least MIN_BEYOND samples above it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return 0.0, 0.0
    for p in TAIL_LADDER:
        if p > preferred:
            continue
        rank = math.ceil(p / 100 * n)
        if n - rank >= MIN_BEYOND:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def result_line(correct, attempted, failed, metrics):
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


# -- the two kinds of run ---------------------------------------------------------


def scaled_setups(tally):
    """Each set-up's SetupTimes at reference speed, and whether it was traced."""
    out = []
    for times, traced_setup, t0, ns in tally.setups:
        k = tally.speed.scaled(t0, t0 + ns) / ns
        out.append((SetupTimes(*(v * k for v in astuple(times))), traced_setup))
    return out


def end_to_end(lj, workload, inputs, seconds, out):
    _, tally, bad, _ = run_passes(lj, inputs, seconds)
    single = [ns / 1e6 for ns in tally.scaled(tally.samples[(SINGLE, False)])]
    batch = [ns / 1e6 for ns in tally.scaled(tally.samples[(BATCH, False)])]
    setups = [t for t, _ in scaled_setups(tally)]
    busy_ns = sum(single + batch) * 1e6
    s_pct, s_tail = tail(single, workload.tail[SINGLE])
    b_pct, b_tail = tail(batch, workload.tail[BATCH])
    metrics = {
        "setup_s": statistics.median(t.total_s for t in setups),
        "bootstrap_s": statistics.median(t.bootstrap_s for t in setups),
        "evaluate_s": statistics.median(tally.scaled(tally.evals)) / 1e9,
        "maintain_p50_ms": p50(single),
        "maintain_tail_ms": s_tail,
        "batch_p50_ms": p50(batch),
        "batch_tail_ms": b_tail,
        "edits_per_s": tally.edits / (busy_ns / 1e9) if busy_ns else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }

    def measured(timings, unit):
        return f"; measured {p50(tally.active(timings)) / unit:.6g}"

    passes = len(tally.setups)
    notes = {
        "setup_s": f"median of {passes} set-ups"
        + measured([(t0, ns) for _, _, t0, ns in tally.setups], 1e9),
        "bootstrap_s": f"median of {passes} set-ups",
        "evaluate_s": f"median of {len(tally.evals)} plain evaluations"
        + measured(tally.evals, 1e9),
        "maintain_p50_ms": f"{len(single)} single-edit rounds"
        + measured(tally.samples[(SINGLE, False)], 1e6),
        "maintain_tail_ms": f"p{s_pct:g} of {len(single)} single-edit rounds",
        "batch_p50_ms": f"{len(batch)} batch rounds"
        + measured(tally.samples[(BATCH, False)], 1e6),
        "batch_tail_ms": f"p{b_pct:g} of {len(batch)} batch rounds",
    }
    probes, probe_ns, probe_spread = tally.speed.summary()
    print(
        f"reference probes {probes}, median {probe_ns / 1e6:.4g} ms, quartile "
        f"spread {probe_spread:.3g}; times below are at reference speed",
        file=out,
    )
    units = dict(END_TO_END)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {units[name]}{note}", file=out)
    result = {n: (metrics[n], u) for n, u in END_TO_END}
    return bad, tally.attempted, tally.failed, result


def layer_metrics(runs, phase, spans, counts):
    """The PHASE_METRICS of one phase, per set-up or per traced round."""
    n = max(runs[phase], 1)

    def ms(*names):
        return sum(spans[(phase, s)][2] for s in names) / 1e6 / n

    def calls(name):
        return spans[(phase, name)][0] / n

    def ctr(name):
        return counts[(phase, name)] / n

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "store.commit_ms": ms("store.commit"),
        "store.surgery_ms": ms("store.surgery_iter"),
        "store.delta_pages": ctr("delta_pages"),
        "store.pages_allocated": ctr("pages"),
        "scantree.insert_ms": ms("scantree.insert"),
        "scantree.inserts": calls("scantree.insert"),
        "scantree.erase_ms": ms("scantree.erase"),
        "scantree.range_scan_ms": ms("scantree.range_scan"),
        "scantree.combines": ctr("combines"),
        "intervals.add_ms": ms("intervals.add"),
        "intervals.adds": calls("intervals.add"),
        "intervals.added": ctr("added"),
        "intervals.stab_ms": ms("intervals.stab"),
        "intervals.stab_visits": ctr("stab_visits"),
        "intervals.hits": ctr("hits"),
        "intervals.hit_ratio": ratio(ctr("hits"), ctr("stab_visits")),
        "lftj.eval_old_ms": ms("lftj.eval_old"),
        "lftj.eval_new_ms": ms("lftj.eval_new"),
        "lftj.ops": ctr("ops"),
        "lftj.ns_per_op": ratio(ms("lftj.eval_old", "lftj.eval_new") * 1e6, ctr("ops")),
        "lftj.useful_ratio": ratio(ctr("useful"), ctr("ops")),
        "heads.apply_ms": ms("heads.apply"),
        "heads.commit_ms": ms("heads.commit"),
        "heads.deltas": ctr("head_deltas"),
        "driver.oracle_ms": ms("driver.build_oracle"),
        "driver.oracle_intervals": ctr("oracle_intervals"),
        "driver.diff_ms": ms("driver.maintain", "driver.bootstrap"),
    }


def traced(lj, inputs, seconds, out, span_path):
    rec = SpanRecorder()
    tracer = Tracer(rec, Patches(rec, lj))
    setup, tally, bad, records_fresh = run_passes(lj, inputs, seconds, tracer)
    records_end = sum(index_records(inst) for inst in setup.instances)
    versions = sum(len(r.versions) for r in all_relations(setup))

    phase_of = {SETUP_ROUND: "setup", **tracer.kinds}
    spans = defaultdict(lambda: [0, 0, 0])  # (phase, name) -> [n, ns, self ns]
    for (r, name), acc in rec.self_times().items():
        tot = spans[(phase_of[r], name)]
        for j in range(3):
            tot[j] += acc[j]
    counts = defaultdict(int)
    for (r, name), n in rec.counts.items():
        counts[(phase_of[r], name)] += n
    runs = {
        "setup": 1,
        SINGLE: len(tally.samples[(SINGLE, True)]),
        BATCH: len(tally.samples[(BATCH, True)]),
    }

    def overhead(on, off):
        if not on or not off:
            return 0.0
        return (p50(on) / p50(off) - 1) * 100

    def samples(kind, on):
        return tally.scaled(tally.samples[(kind, on)])

    setups = scaled_setups(tally)

    def setup_times(on):
        return [t.total_s for t, traced_setup in setups if traced_setup == on]

    values = {}
    for phase in PHASES:
        for name, value in layer_metrics(runs, phase, spans, counts).items():
            values[f"{name}.{phase}"] = value
    values.update({
        "store.load_s": statistics.median(t.load_s for t, _ in setups),
        "rules.plan_ms": statistics.median(t.plan_s for t, _ in setups) * 1e3,
        "store.versions_retained": versions,
        "intervals.records_end": records_end,
        "intervals.records_fresh": records_fresh,
        "intervals.drift": records_end / records_fresh if records_fresh else 0.0,
        "trace.overhead_setup": overhead(setup_times(True), setup_times(False)),
        "trace.overhead_single": overhead(samples(SINGLE, True), samples(SINGLE, False)),
        "trace.overhead_batch": overhead(samples(BATCH, True), samples(BATCH, False)),
        "rounds.single": runs[SINGLE],
        "rounds.batch": runs[BATCH],
    })
    rec.dump(span_path, phase_of)
    print(f"spans {len(rec.start)} written to {span_path}", file=out)
    for phase in PHASES:
        shown = [
            f"{name}={values[f'{name}.{phase}']:.4g}"
            for name, _ in PHASE_METRICS
            if values[f"{name}.{phase}"]
        ]
        per = "set-up" if phase == "setup" else "round"
        print(f"[{phase}, per {per}] " + " ".join(shown), file=out)
    for name, _ in RUN_METRICS:
        print(f"{name} {values[name]:.6g}", file=out)
    result = {n: (values[n], u) for n, u in per_layer_names()}
    return bad, tally.attempted, tally.failed, result


def run(workload_name, seed, seconds, trace, tiny=False, out=sys.stdout):
    """Run one workload; returns (exit code, result line)."""
    lj = load_engine()
    workload = WORKLOADS[workload_name]
    inputs = generate(workload, seed, tiny=tiny)
    singles = sum(1 for r in inputs.rounds if r.kind == SINGLE)
    print(
        f"workload {workload.name} seed {seed} inputs {inputs.fingerprint} "
        f"({singles} single and {len(inputs.rounds) - singles} batch rounds "
        f"precomputed)",
        file=out,
    )
    if trace:
        span_path = SPAN_DIR / f"spans-{workload.name}-seed{seed}.tsv.gz"
        bad, attempted, failed, metrics = traced(
            lj, inputs, seconds, out, span_path
        )
    else:
        bad, attempted, failed, metrics = end_to_end(
            lj, workload, inputs, seconds, out
        )
    if bad:
        print(f"MISMATCH against a fresh bootstrap in heads {bad}", file=out)
        failed = attempted
    print(
        f"fail_ratio {failed / max(attempted, 1):.6g} "
        f"({failed} of {attempted} rounds failed)",
        file=out,
    )
    correct = not bad and not failed
    return (0 if correct else 1), result_line(
        correct, max(attempted, 1), failed, metrics
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        code, line = run(args.workload, args.seed, args.seconds, args.trace)
    except EngineMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
