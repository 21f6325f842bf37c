#!/usr/bin/env python3
"""smartlot benchmark.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Workloads (perfbench/README.md says why each exists):

  fleet   generate(seed, 800, 4, 0.5) on the built-in 20-spot lot, then mining
  rush    a 200-spot lot with about 60-90 cars inside at once, then mining
  proofs  the prover alone: a random corpus, arrival-shaped specifications
          and the worst-case family k=1..7

A run is one single-threaded process driving a closed loop: the next
detection or formula is handed over only when the previous call returns.
With --trace 0 it makes a few batch jobs (mining, or the worst-case
family), then rounds of set-ups and a whole pass for --seconds, times them
against the host's speed (hostspeed.py) and reports the end-to-end
metrics; with --trace 1 it makes set-up, one pass and one batch job under
the hooks of spans.py, between two untraced passes, and reports the
per-layer metrics.  The last line of standard output is a JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the lines
above it give the environment and every metric under its descriptive
name, with unit and sample count.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from hostspeed import REFERENCE_US, HostSpeed  # noqa: E402
from spans import Tracer, rebind  # noqa: E402

WORKLOADS = ("fleet", "rush", "proofs")
DEFAULT_SEED = 1
# batch jobs (a mining call, or the worst-case family) an untraced run
# makes before its rounds; the short rush call is made more often
BATCHES = {"fleet": 4, "rush": 8, "proofs": 4}
# each round of an untraced run makes this many set-ups and one pass
SETUPS_PER_PASS = 4

DEFAULT_PARAMS = {
    "fleet": {"users": 800, "trips_per_user": 4, "spot_affinity": 0.5},
    "rush": {"drivers": 240, "trips_per_driver": 5},
    "proofs": {"corpus": 3000, "specs": 300, "max_k": 7},
}

LAYERS = ("formulas", "tableaux", "worldgraph", "knowledge", "agents", "simulator", "cli")

# (span name, defining module, attribute path); the first part of a span
# name is its layer.  Private helpers such as _realizable, _spot_weight and
# WorldGraph._copy are not hooked: their time is the public caller's self time.
HOOKED = [
    ("formulas.parse", "smartlot.formulas", "parse"),
    ("formulas.nnf", "smartlot.formulas", "nnf"),
    ("formulas.pretty", "smartlot.formulas", "pretty"),
    ("formulas.eventually_atoms", "smartlot.formulas", "eventually_atoms"),
    ("tableaux.build_tree", "smartlot.tableaux", "build_tree"),
    ("tableaux.is_satisfiable", "smartlot.tableaux", "is_satisfiable"),
    ("tableaux.is_valid", "smartlot.tableaux", "is_valid"),
    ("worldgraph.transform", "smartlot.worldgraph", "WorldGraph.car_enters"),
    ("worldgraph.transform", "smartlot.worldgraph", "WorldGraph.car_moves"),
    ("worldgraph.transform", "smartlot.worldgraph", "WorldGraph.car_exits"),
    ("worldgraph.car_position", "smartlot.worldgraph", "WorldGraph.car_position"),
    ("worldgraph.is_free", "smartlot.worldgraph", "WorldGraph.is_free"),
    ("worldgraph.nearest_free_spot", "smartlot.worldgraph", "WorldGraph.nearest_free_spot"),
    ("worldgraph.load_graph", "smartlot.worldgraph", "load_graph"),
    ("worldgraph.save_graph", "smartlot.worldgraph", "save_graph"),
    ("knowledge.triples", "smartlot.knowledge", "SpecStore.triples"),
    ("knowledge.spec_formula", "smartlot.knowledge", "spec_formula"),
    ("knowledge.resolve_contradiction", "smartlot.knowledge", "resolve_contradiction"),
    ("knowledge.upsert", "smartlot.knowledge", "SpecStore.upsert"),
    ("knowledge.infer_never_gates", "smartlot.knowledge", "infer_never_gates"),
    ("knowledge.from_csv", "smartlot.knowledge", "EventLog.from_csv"),
    ("knowledge.for_user", "smartlot.knowledge", "EventLog.for_user"),
    ("knowledge.to_tsv", "smartlot.knowledge", "SpecStore.to_tsv"),
    ("agents.a1_detect", "smartlot.agents", "a1_detect"),
    ("agents.a2", "smartlot.agents", "a2_spawn"),
    ("agents.a2", "smartlot.agents", "a2_update"),
    ("agents.a2", "smartlot.agents", "a2_finalize"),
    ("agents.a3_decide", "smartlot.agents", "a3_decide"),
    ("simulator.run", "smartlot.simulator", "run"),
    ("simulator.parse_scenario", "smartlot.simulator", "parse_scenario"),
    ("simulator.serialize_report", "smartlot.simulator", "serialize_report"),
    ("cli.main", "smartlot.cli", "main"),
    ("cli.reconstruct_trips", "smartlot.cli", "reconstruct_trips"),
]
SPANS = list(dict.fromkeys(name for name, _, _ in HOOKED))
RATIONALES = ("Preferred", "FallbackCandidate", "NearestFree", "NoSuggestion")


def _observe_tree(counts: Counter, args: tuple, tree) -> None:
    for branch in tree.branches:
        counts["tableaux.branches"] += 1
        if branch.status != "Closed":
            counts["tableaux.branches_open"] += 1
        elif _clashes(branch.literals):
            counts["tableaux.closed_by_unification"] += 1
        else:
            counts["tableaux.closed_by_realizability"] += 1


def _clashes(literals) -> bool:
    """Whether some literal and its negation sit under unifiable labels."""
    seen: dict[str, list] = {}
    for sign, atom, label in literals:
        if any(s != sign and label.unifies(other) for s, other in seen.get(atom, ())):
            return True
        seen.setdefault(atom, []).append((sign, label))
    return False


def _observe_triples(counts: Counter, args: tuple, rows) -> None:
    counts["knowledge.triples.rows_scanned"] += len(args[0])
    counts["knowledge.triples.rows_returned"] += len(rows)


def _observe_removed(counts: Counter, args: tuple, removed) -> None:
    counts["knowledge.resolve_contradiction.removed"] += len(removed)


OBSERVERS = {
    "tableaux.build_tree": _observe_tree,
    "knowledge.triples": _observe_triples,
    "knowledge.resolve_contradiction": _observe_removed,
}
OBSERVED = (
    "tableaux.branches",
    "tableaux.branches_open",
    "tableaux.closed_by_unification",
    "tableaux.closed_by_realizability",
    "knowledge.triples.rows_scanned",
    "knowledge.triples.rows_returned",
    "knowledge.resolve_contradiction.removed",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "batch_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.self_us": "us" for layer in LAYERS}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_us"] = "us"
    units["tableaux.build_tree.per_decision"] = "count"
    units.update({name: "count" for name in OBSERVED})
    units["worldgraph.edges"] = "count"
    units["knowledge.store_size"] = "count"
    units.update({f"agents.rationale.{r}": "count" for r in RATIONALES})
    units.update({"trace.wall_s": "s", "trace.overhead_pct": "%", "trace.unattributed_s": "s", "trace.spans": "count"})
    return units


class SetupError(RuntimeError):
    pass


def import_program() -> None:
    """Import smartlot from this checkout's sources, never from elsewhere."""
    if not (SRC / "smartlot" / "__init__.py").is_file():
        raise SetupError(f"no smartlot sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import smartlot
    import smartlot.cli  # noqa: F401  (loads every module the hooks name)

    if not Path(smartlot.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"smartlot was imported from {smartlot.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# outcomes


class Results:
    """Operations attempted and failed, failed checks, and metric samples."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}

    def record(self, ops: int, problems: list[str]) -> None:
        """Count `ops` operations, all failed if any check on them failed."""
        self.attempted += ops
        if problems:
            self.failed += ops
        for problem in problems:
            if problem not in self.problems:
                self.problems.append(problem)
                print(f"check failed: {problem}", file=sys.stderr)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


class Digests:
    """Output digests must repeat across passes of one seed and, for the
    default seed and parameters, match the recorded reference."""

    def __init__(self, workload: str, seed: int, params: dict):
        entry = json.loads((HERE / "reference.json").read_text()).get(workload, {})
        same = seed == entry.get("seed") and params == DEFAULT_PARAMS[workload]
        self.reference = entry.get("digests", {}) if same else {}
        self.seen: dict[str, str] = {}

    def check(self, label: str, text: str) -> list[str]:
        digest = sha256(text)
        first = self.seen.setdefault(label, digest)
        problems = []
        if digest != first:
            problems.append(f"{label} differs between passes of one seed")
        if label in self.reference and digest != self.reference[label]:
            problems.append(f"{label} differs from the reference for this seed")
        return problems


# ---------------------------------------------------------------------------
# fleet and rush: every detection through run(), then `smartlot mine`


def decide_timer(starts: list[int], ends: list[int], speed: HostSpeed):
    """Wrap a3_decide where the program binds it: one clock pair per
    decision, then a host-speed sample when one is due."""
    clock = time.perf_counter_ns

    def make(fn):
        def timed(*args, **kwargs):
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends.append(clock())
                if speed.due():
                    speed.sample()

        return timed

    undo = rebind("smartlot.agents", "a3_decide", make)
    if undo is None:
        raise SetupError("smartlot.agents.a3_decide is gone; the gate wait cannot be timed")
    return undo


def event_csv(timeline: str) -> str:
    """The raw event feed `smartlot mine` reads: user,node,timestamp rows."""
    rows = []
    for line in timeline.splitlines():
        stamp, user, node = line.split(",")
        rows.append(f"{user},{node},{stamp}\n")
    return "".join(rows)


# A pass returns its timings as (start_ns, end_ns) clock readings, scaled by
# the host's speed only when the run ends:
#   ops     the latency-bearing operations (decisions, or proofs)
#   core    intervals that add up to the throughput-bearing work
#   core_s  wall time of the throughput-bearing work
# and a batch job returns the intervals that add up to it.  Given a
# HostSpeed, each samples it before, during and after its work; without
# one (in a traced run) a pass does not hook `a3_decide`.


class ScenarioWorkload:
    """fleet and rush: a pass is run() + serialize_report() over the whole
    timeline; a batch job is `smartlot mine` over the same detections."""

    def __init__(self, name: str, seed: int, params: dict, workdir: Path):
        from smartlot.agents import DecisionConfig
        from smartlot.simulator import generate, serialize_scenario

        self.name = name
        if name == "fleet":
            scenario = generate(seed, params["users"], params["trips_per_user"], params["spot_affinity"])
            self.text = serialize_scenario(scenario)
            del scenario
            self.config = DecisionConfig()
            self.trips = params["users"] * params["trips_per_user"]
        else:
            self.text = inputs.rush_scenario_text(
                seed, drivers=params["drivers"], trips_per_driver=params["trips_per_driver"]
            )
            self.config = DecisionConfig(fallback_nearest=True)
            self.trips = params["drivers"] * params["trips_per_driver"]
        graph, timeline = self.text.split("timeline:\n", 1)
        self.units = timeline.count("\n")  # detections, and rows mined
        self.graph_path = workdir / "world.graph"
        self.csv_path = workdir / "events.csv"
        self.tsv_path = workdir / "knowledge.tsv"
        self.graph_path.write_text(graph)
        self.csv_path.write_text(event_csv(timeline))
        self.digests = Digests(name, seed, params)
        self.scenario = None
        self.report = None
        self.mined: str | None = None
        self.mining_cross_checked = False

    def setup(self) -> tuple[int, int]:
        from smartlot.simulator import parse_scenario

        self.scenario = None  # so that freeing the last one is not timed
        t0 = time.perf_counter_ns()
        self.scenario = parse_scenario(self.text, self.config)
        return t0, time.perf_counter_ns()

    def one_pass(self, res: Results, speed: HostSpeed | None = None) -> dict:
        from smartlot.simulator import run, serialize_report

        self.report = None
        starts: list[int] = []
        ends: list[int] = []
        undo = decide_timer(starts, ends, speed) if speed else (lambda: None)
        if speed:
            speed.sample()
        try:
            t0 = time.perf_counter_ns()
            report = run(self.scenario)
            text = serialize_report(report)
            t1 = time.perf_counter_ns()
        finally:
            undo()
        if speed:
            speed.sample()
        res.record(self.units, self.check_report(report, text))
        self.report = report
        return {"ops": list(zip(starts, ends)), "core": [(t0, t1)], "core_s": (t1 - t0) / 1e9}

    def batch(self, res: Results, speed: HostSpeed | None = None) -> list[tuple[int, int]]:
        from smartlot import cli

        if speed:
            speed.sample()
        with speed.on_timer() if speed else nullcontext():
            m0 = time.perf_counter_ns()
            code = cli.main(["mine", str(self.csv_path), str(self.graph_path), "-o", str(self.tsv_path)])
            m1 = time.perf_counter_ns()
        if speed:
            speed.sample()
        res.record(self.units, self.check_mined(code))
        return [(m0, m1)]

    def check_report(self, report, text: str) -> list[str]:
        problems = self.digests.check("report", text)
        if self.mined is not None and not self.mining_cross_checked:
            # both trip builders must mine the same store from the same detections
            self.mining_cross_checked = True
            if self.mined != self.simulator_preferences(report):
                problems.append("mined store differs from the simulator's preference formulas")
        if len(report.decisions) != self.trips:
            problems.append(f"{len(report.decisions)} decisions for {self.trips} entries")
        if report.stats.trips != self.trips or report.followers_alive:
            problems.append("not every trip completed")
        if self.name == "rush":
            seen = Counter(d.rationale for d in report.decisions)
            problems += [f"rush made no {r} decision" for r in RATIONALES[:3] if not seen[r]]
            if not report.stats.contradictions_resolved:
                problems.append("rush resolved no contradiction")
        return problems

    def check_mined(self, code: int) -> list[str]:
        if code != 0:
            return [f"smartlot mine exited with {code}"]
        self.mined = self.tsv_path.read_text()
        return self.digests.check("mined", self.mined)

    @staticmethod
    def simulator_preferences(report) -> str:
        from smartlot.formulas import Always, pretty

        return "".join(
            f"{t.user}\t{pretty(t.formula)}\t{t.r}\n"
            for t in report.final_store.triples()
            if not isinstance(t.formula, Always)
        )

    def final_counts(self) -> dict[str, float]:
        report = self.report
        seen = Counter(d.rationale for d in report.decisions)
        out = {f"agents.rationale.{r}": seen[r] for r in RATIONALES}
        out["worldgraph.edges"] = len(report.final_graph.edges)
        out["knowledge.store_size"] = len(report.final_store)
        return out


# ---------------------------------------------------------------------------
# proofs: text -> parse -> is_satisfiable and is_valid, one formula at a time


class ProofsWorkload:
    """A pass proves sets (a) and (b); a batch job proves the worst-case
    family (c)."""

    name = "proofs"

    def __init__(self, seed: int, params: dict):
        specs = inputs.arrival_specs(seed, params["specs"])
        self.typical = inputs.random_corpus(seed, params["corpus"]) + [text for text, _ in specs]
        self.expected_sat = [None] * params["corpus"] + [sat for _, sat in specs]
        self.family = inputs.worst_case_family(params["max_k"])
        self.units = len(self.typical)
        self.digests = Digests("proofs", seed, params)
        self.family_verdicts: list | None = None

    def setup(self) -> tuple[int, int]:
        """Reading the batch: every input text through the parser once."""
        from smartlot.formulas import parse

        t0 = time.perf_counter_ns()
        for text in self.typical + self.family:
            parse(text)
        return t0, time.perf_counter_ns()

    def one_pass(self, res: Results, speed: HostSpeed | None = None) -> dict:
        """Proofs are timed whether or not the pass is given a HostSpeed.
        The verdict digest covers the family too, so a batch job comes first."""
        ops: list[tuple[int, int]] = []
        if speed:
            speed.sample()
        typical = []
        for text in self.typical:
            typical.append(self.prove(text, ops))
            if speed and speed.due():
                speed.sample()
        if speed:
            speed.sample()
        self.check(res, typical)
        return {"ops": ops, "core": ops, "core_s": sum(b - a for a, b in ops) / 1e9}

    def batch(self, res: Results, speed: HostSpeed | None = None) -> list[tuple[int, int]]:
        from smartlot.tableaux import UNSATISFIABLE

        intervals: list[tuple[int, int]] = []
        verdicts = []
        for text in self.family:
            if speed:
                speed.sample()
            with speed.on_timer() if speed else nullcontext():
                verdicts.append(self.prove(text, intervals))
        if speed:
            speed.sample()
        problems = []
        if any(sat != UNSATISFIABLE for sat, _ in verdicts):
            problems.append("a worst-case family member was not unsatisfiable")
        if self.family_verdicts is None:
            self.family_verdicts = verdicts
        elif verdicts != self.family_verdicts:
            problems.append("worst-case family verdicts differ between calls")
        res.record(len(verdicts), problems)
        return intervals

    @staticmethod
    def prove(text: str, intervals: list[tuple[int, int]]) -> tuple[str, str]:
        from smartlot.formulas import parse
        from smartlot.tableaux import is_satisfiable, is_valid

        t0 = time.perf_counter_ns()
        try:
            formula = parse(text)
            verdict = (is_satisfiable(formula), is_valid(formula))
        except Exception as err:  # counted as a failed proof, the run goes on
            verdict = ("error", repr(err))
        intervals.append((t0, time.perf_counter_ns()))
        return verdict

    def check(self, res: Results, typical: list) -> None:
        """Sets (a) and (b); the digest covers them and the family's verdicts."""
        from smartlot.tableaux import SATISFIABLE, VALID

        verdicts = typical + self.family_verdicts
        bad: dict[int, str] = {}
        for i, (sat, valid) in enumerate(typical):
            if sat == "error":
                bad[i] = f"prover raised {valid}"
            elif valid == VALID and sat != SATISFIABLE:
                bad[i] = "a valid formula was found unsatisfiable"
        for i, expected in enumerate(self.expected_sat):
            if expected is not None and (verdicts[i][0] == SATISFIABLE) != expected:
                bad.setdefault(i, "arrival spec verdict differs from its construction")
        vector = "".join(f"{sat} {valid}\n" for sat, valid in verdicts)
        problems = self.digests.check("verdicts", vector)
        if problems:
            bad = {i: problems[0] for i in range(len(typical))}
        res.record(len(typical) - len(bad), [])
        res.record(len(bad), sorted(set(bad.values())))

    def final_counts(self) -> dict[str, float]:
        out = {f"agents.rationale.{r}": 0 for r in RATIONALES}
        out["worldgraph.edges"] = 0
        out["knowledge.store_size"] = 0
        return out


# ---------------------------------------------------------------------------
# the two modes


def make_workload(name: str, seed: int, params: dict, workdir: Path):
    if name == "proofs":
        return ProofsWorkload(seed, params)
    return ScenarioWorkload(name, seed, params, workdir)


def guarded(step, res: Results, speed: HostSpeed | None = None):
    """A pass or a batch job; an exception fails it and ends the run's
    measuring (None is returned)."""
    try:
        return step(res, speed)
    except Exception as err:
        traceback.print_exc()
        res.record(1, [f"{step.__name__} raised {err!r}"])
        return None


def summarize(units: int, setups: list, passes: list[dict], batches: list, length) -> dict[str, float]:
    """The timed metrics, with `length(start_ns, end_ns)` giving each
    interval's length in microseconds."""

    def total(spans) -> float:
        return sum(length(a, b) for a, b in spans)

    ops = [length(a, b) for p in passes for a, b in p["ops"]]
    return {
        "setup_s": statistics.median(length(a, b) for a, b in setups) / 1e6,
        "throughput_per_s": statistics.median(units / (total(p["core"]) / 1e6) for p in passes),
        "latency_p50_us": statistics.median(ops),
        "latency_p99_us": p99(ops),
        "batch_s": statistics.median(total(b) for b in batches) / 1e6,
    }


def untraced(workload, seconds: float, res: Results) -> dict[str, float]:
    """BATCHES batch jobs, then rounds of SETUPS_PER_PASS set-ups and one
    pass for `seconds`.  The batch jobs come first, in a process that has
    not yet simulated anything: made after passes, later mining calls took
    up to twice as long as the first.  A round is started only when it is
    expected to end in time, and at least two are made so that their
    outputs can be compared.  Every interval is scaled by the host's speed
    around it (hostspeed.py); the raw figures are kept for the summary."""
    speed = HostSpeed()
    setups: list[tuple[int, int]] = []
    passes: list[dict] = []
    batches: list[list[tuple[int, int]]] = []
    start = time.perf_counter()
    # a full collection before each batch job, set-up and pass, so that
    # collections fall at the same points every time
    while len(batches) < BATCHES[workload.name]:
        gc.collect()
        batch = guarded(workload.batch, res, speed)
        if batch is None:
            raise SetupError("a batch job failed")
        batches.append(batch)
    while True:
        t0 = time.perf_counter()
        for _ in range(SETUPS_PER_PASS):
            gc.collect()
            speed.sample()
            setups.append(workload.setup())
        speed.sample()
        gc.collect()
        sample = guarded(workload.one_pass, res, speed)
        if sample is None:
            break
        passes.append(sample)
        if len(passes) == 1:
            # the program's peak is reached by now; later rounds only add the
            # benchmark's own records, more of them for a faster program
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        now = time.perf_counter()
        if len(passes) >= 2 and now + (now - t0) > start + seconds:
            break
    speed.sample()
    if not passes:
        raise SetupError("no pass completed")
    res.samples["setups"] = [len(setups)]
    res.samples["passes"] = [len(passes)]
    res.samples["ops"] = [len(p["ops"]) for p in passes]
    res.samples["batches"] = [len(batches)]
    res.samples["raw"] = summarize(workload.units, setups, passes, batches, speed.raw_us)
    res.samples["loop_us"] = speed.loop_us
    metrics = summarize(workload.units, setups, passes, batches, speed.scaled_us)
    metrics["peak_rss_mb"] = peak_rss_mb
    return metrics


def traced(workload, res: Results) -> tuple[dict[str, float], list[str]]:
    """Set-up, one pass and one batch job under the hooks, between two
    untraced passes (after an untraced batch job, which the first pass's
    checks need)."""
    first = guarded(workload.batch, res)
    workload.setup()
    gc.collect()
    before = guarded(workload.one_pass, res)
    tracer = Tracer()
    gc.collect()
    t0 = time.perf_counter()
    tracer.install((span, module, path, OBSERVERS.get(span)) for span, module, path in HOOKED)
    try:
        workload.setup()
        sample = guarded(workload.one_pass, res)
        batch = guarded(workload.batch, res)
    finally:
        tracer.remove()
    wall_s = time.perf_counter() - t0
    gc.collect()
    after = guarded(workload.one_pass, res)
    if None in (first, before, sample, batch, after):
        raise SetupError("a pass or batch job of the traced run failed")
    own, calls = tracer.self_and_calls()
    self_us = {span: own.get(span, 0) / 1000 for span in SPANS}
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_us"] = sum(v for span, v in self_us.items() if span.startswith(layer + "."))
    for span in SPANS:
        metrics[f"{span}.calls"] = calls.get(span, 0)
        metrics[f"{span}.self_us"] = self_us[span]
    decisions = calls.get("agents.a3_decide", 0)
    under = tracer.calls_under("tableaux.build_tree", "agents.a3_decide")
    metrics["tableaux.build_tree.per_decision"] = under / decisions if decisions else 0.0
    metrics.update({name: tracer.counts.get(name, 0) for name in OBSERVED})
    metrics.update(workload.final_counts())
    metrics["trace.wall_s"] = wall_s
    # fall in throughput of the traced pass against the better untraced one
    untraced_s = min(before["core_s"], after["core_s"])
    metrics["trace.overhead_pct"] = 100 * (1 - untraced_s / sample["core_s"])
    metrics["trace.unattributed_s"] = wall_s - sum(metrics[f"{layer}.self_us"] for layer in LAYERS) / 1e6
    metrics["trace.spans"] = len(tracer.kind)
    return metrics, tracer.absent


def measure(name: str, seed: int, seconds: float, trace: bool, params: dict, workdir: Path):
    """(Results, metrics, absent hooks, workload) for one workload run."""
    res = Results()
    workload = make_workload(name, seed, params, workdir)
    if trace:
        metrics, absent = traced(workload, res)
    else:
        metrics, absent = untraced(workload, seconds, res), []
    return res, metrics, absent, workload


# ---------------------------------------------------------------------------
# reporting

# the end-to-end metrics under their descriptive names: (name, unit, key)
DESCRIPTIVE = {
    "fleet": [
        ("setup_s", "s", "setup_s"),
        ("events_per_s", "detections/s", "throughput_per_s"),
        ("decide_p50_us", "us", "latency_p50_us"),
        ("decide_p99_us", "us", "latency_p99_us"),
        ("mine_s", "s", "batch_s"),
        ("peak_rss_mb", "MB", "peak_rss_mb"),
    ],
    "proofs": [
        ("setup_s", "s", "setup_s"),
        ("proofs_per_s", "proofs/s", "throughput_per_s"),
        ("prove_p50_us", "us", "latency_p50_us"),
        ("prove_p99_us", "us", "latency_p99_us"),
        ("adversarial_s", "s", "batch_s"),
        ("peak_rss_mb", "MB", "peak_rss_mb"),
    ],
}
DESCRIPTIVE["rush"] = DESCRIPTIVE["fleet"]


def describe(name: str, res: Results, metrics: dict[str, float], units: int) -> list[str]:
    """One line per metric: the scaled value, the raw one and the basis."""
    passes, ops, raw = res.samples["passes"][0], res.samples["ops"], res.samples["raw"]
    basis = {
        "setup_s": f"median of {res.samples['setups'][0]} set-ups",
        "throughput_per_s": f"{units} per pass, median of {passes} passes",
        "latency_p50_us": f"n={sum(ops)} ({ops[0]} per pass x {passes} passes)",
        "latency_p99_us": f"n={sum(ops)} ({ops[0]} per pass x {passes} passes)",
        "batch_s": f"median of {res.samples['batches'][0]} batch jobs",
    }
    rows = [(label, metrics[key], raw[key], unit, f"{basis[key]}  [{key}]")
            for label, unit, key in DESCRIPTIVE[name] if key in raw]
    if name != "proofs":
        rows.insert(4, ("mine_events_per_s", units / metrics["batch_s"], units / raw["batch_s"], "rows/s",
                        f"{units} rows, median of {res.samples['batches'][0]} calls"))
    lines = [f"{name:7s} {label:18s} {value:14.4f} {unit:16s} raw {rawv:14.4f}  {note}"
             for label, value, rawv, unit, note in rows]
    loop = res.samples["loop_us"]
    lines.append(f"{name:7s} {'peak_rss_mb':18s} {metrics['peak_rss_mb']:14.4f} {'MB':16s} after the first round  [peak_rss_mb]")
    rate = res.failed / res.attempted if res.attempted else 0.0
    lines.append(f"{name:7s} {'error_rate':18s} {rate:14.4f} {'failed/attempted':16s} {res.failed} of {res.attempted} operations")
    lines.append(f"{name:7s} host speed: reference loop median {statistics.median(loop):.1f} us "
                 f"(min {min(loop):.1f}, max {max(loop):.1f}, n={len(loop)}) against {REFERENCE_US:.1f} us")
    return lines


def environment(args, params: dict) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
    }


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="smartlot benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    params = DEFAULT_PARAMS[args.workload]
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    try:
        import_program()
        workdir.mkdir(parents=True, exist_ok=True)
        res, metrics, absent, workload = measure(args.workload, args.seed, args.seconds, bool(args.trace), params, workdir)
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("env: " + json.dumps(environment(args, params), sort_keys=True))
    for label, digest in workload.digests.seen.items():
        print(f"{args.workload:7s} digest {label:11s} {digest}")
    if args.trace:
        units = per_layer_units()
        for key in units:
            print(f"{args.workload:7s} {key:42s} {metrics[key]:16.4f} {units[key]}")
        for layer in LAYERS:
            share = metrics[f"{layer}.self_us"] / 1e4 / metrics["trace.wall_s"]
            print(f"{args.workload:7s} {layer + ' share of traced wall time':42s} {share:16.4f} %")
        for hook in absent:
            print(f"{args.workload:7s} absent hook: {hook}")
    else:
        for line in describe(args.workload, res, metrics, workload.units):
            print(line)
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    result = {
        "correct": not res.problems and res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
