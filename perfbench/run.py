#!/usr/bin/env python3
"""prunerl benchmark: three seeded closed-loop workloads against the package
in ``src/``, with output checks and an optional traced run.

    python3 perfbench/run.py --workload train-karate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 -m pytest perfbench -q      # the benchmark's own self-tests

``--workload all`` runs each workload in its own process and exits non-zero
if any output check failed.

Workloads (each a single-threaded closed loop: the next call starts when the
previous one returns; BENCHMARK.json says why each was chosen):

  train-karate      one ``train_loop`` episode per operation on
                    data/karate.txt, PageRank objective, README quick-start
                    ``AgentConfig(emb_dim=16, hidden_dim=32)``, after a
                    warm-up that fills the replay buffer to one batch.
  sparsify-planted  ``Agent.sparsify`` on the planted graph from the set-up
                    checkpoint, cycling |H| = 8, 32, 128; each call prunes
                    PRUNES_PER_CALL edges from the full graph.
  compare-planted   ``prunerl.cli.main(["compare", "--config", ...,
                    "--workers", "1"])`` in-process, cycling the four
                    objectives, on the planted graph, with no checkpoint,
                    after one untimed call.
                    One worker, not the default pool of 4: the cells hold
                    the interpreter lock, and on 2 cores the 4-thread pool
                    made identical calls 20-40% slower and tripled the
                    spread between runs, so it measured thread scheduling
                    on a shared host more than the program.

Every run first sets up SETUP_REPEATS times from the seed: it generates the
planted-partition graph (2,000 nodes, 10,000 edges, 20 communities), writes
the edge list, the community file, one YAML config per objective and a
seeded checkpoint, and loads the graph and checkpoint back.

Times in the end-to-end metrics are at reference speed (speed.py): a fixed
kernel that does not depend on prunerl runs between operations, and the
run's wall times are scaled by how much slower or faster than reference the
kernel ran over the run. A shared host drifts in speed by up to 2x over
tens of seconds, in CPU time as much as in wall time; the scaling takes
much of that drift out of the figures while any change to prunerl's own
speed goes straight through. The wall times as timed are printed too.

End-to-end metrics (``--trace 0``), reported by every workload with the
workload's own unit of work (a learning step, a prune, a compare cell):

  setup_s      median set-up time
  ops_per_s    units of work per second of operation time: on
               train-karate over the whole run; on sparsify-planted and
               compare-planted over one call per |H| or objective, each at
               its median time
  op_ms_p50    on train-karate, the median over episodes of ms per learning
               step; on sparsify-planted and compare-planted, the geometric
               mean over |H| or objective of the median ms per prune or cell
  peak_rss_mb  peak resident set size of the process after set-up and a
               fixed amount of work (RSS_AFTER_UNITS), so it does not grow
               with the number of operations a faster program fits in

The lines before the final JSON line print the same numbers under their
workload names (train_episodes_per_s, sparsify_ms_per_prune_h8, ...), with
sample counts, at reference speed and as timed, and the provenance record.

``--trace 1`` runs the workload twice from a fresh set-up: first untraced
for a third of ``--seconds``, then with every layer's public entry points
wrapped (see tracing.py) for the rest, and reports the per-layer metrics and
the tracing overhead on the operations both runs completed. Spans are
written to ``.perfbench_work/`` at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1
when any output check failed and 2 when the program to benchmark is absent.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from planted import planted_partition
from reference import check_metrics, pagerank as reference_pagerank
from speed import REFERENCE_S, Gauge
from tracing import SpanTree, Tracer, install, percentile

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent

WORKLOADS = ("train-karate", "sparsify-planted", "compare-planted")
OBJECTIVES = ("pagerank", "community", "modularity", "spsp")
BASELINES = ("random_edge", "local_degree", "edge_forest_fire", "l_spar")
SETUP_REPEATS = 15
H_VALUES = (8, 32, 128)
PRUNES_PER_CALL = 32
AGENT = {"emb_dim": 16, "hidden_dim": 32}
# One ratio and one seed per objective: four cells per compare call, one per
# baseline. Louvain runs and SPSP pairs are cut from the CLI defaults (8 and
# 8196) so that a cycle over the four objectives takes about 30 s on a 2-core
# machine, while metric kernels still take more than half of its CPU.
EVALUATION = {"ratios": [0.5], "seeds": 1, "spsp_pairs": 128, "louvain_runs": 3}
CELLS_PER_CALL = len(EVALUATION["ratios"]) * EVALUATION["seeds"] * len(BASELINES)
EDGE_FOREST_FIRE_P = 0.95  # the burn probability `compare` uses
# between operations, the speed kernel (speed.py) runs once this many
# seconds have passed since it last ran
GAUGE_EVERY_S = 1.0
# the replay buffer grows with every learning step, so RSS is read after a
# fixed amount of work: 100 learning steps, one |H| round, one compare cycle
RSS_AFTER_UNITS = {"train-karate": 100, "sparsify-planted": len(H_VALUES) * PRUNES_PER_CALL,
                   "compare-planted": len(OBJECTIVES) * CELLS_PER_CALL}


def log(line):
    print(line, flush=True)


# -------------------------------------------------------------------- set-up


@dataclass
class Inputs:
    planted: object
    graph: object
    labels: dict
    agent: object
    configs: dict  # objective -> YAML config path
    out_dirs: dict  # objective -> the directory `compare` writes its CSVs to
    files: list  # every file written


def set_up(seed, dest):
    """Write every generated input under ``dest`` and load it back."""
    from prunerl.agent import Agent, AgentConfig
    from prunerl.graph import load_communities, load_edge_list

    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    pg = planted_partition(seed)
    edges = dest / "planted.txt"
    edges.write_text(pg.edge_list_text())
    communities = dest / "planted_communities.txt"
    communities.write_text(pg.communities_text())
    configs, out_dirs = {}, {}
    for obj in OBJECTIVES:
        objective = {"kind": obj}
        if obj == "community":
            objective["labels_path"] = str(communities)
        out_dirs[obj] = dest / "out" / obj
        cfg = {"schema_version": 1, "dataset": str(edges), "seed": seed,
               "out_dir": str(out_dirs[obj]), "objective": objective,
               "agent": dict(AGENT), "evaluation": dict(EVALUATION)}
        configs[obj] = dest / f"{obj}.yaml"
        with open(configs[obj], "w") as f:
            yaml.safe_dump(cfg, f, sort_keys=True)
    graph = load_edge_list(edges)
    labels = load_communities(communities, graph)
    agent = Agent(graph, AgentConfig(**AGENT), rng=np.random.default_rng([seed, 1]))
    checkpoint = dest / "checkpoint.npz"
    agent.save(checkpoint)
    agent = Agent.load(checkpoint, graph)
    files = [edges, communities, checkpoint, *configs.values()]
    return Inputs(pg, graph, labels, agent, configs, out_dirs, files)


def digest(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------- workloads


@dataclass
class Sample:
    wall: float  # seconds of operation wall time
    units: int  # work done: learning steps, prunes or compare cells
    ops: int  # operations attempted: an episode, a sparsify call or compare cells
    failed: int  # operations that raised or failed their output check
    tag: object = None  # |H| on sparsify-planted, the objective on compare-planted
    speed: float = 1.0  # wall time -> time at reference speed (speed.py)

    @property
    def ref_wall(self):
        return self.wall * self.speed


@dataclass
class Outcome:
    samples: list = field(default_factory=list)
    checks: list = field(default_factory=list)  # (name, passed, detail)
    notes: dict = field(default_factory=dict)
    rss_after_units: int = 0
    rss_mb: float = None
    gauge: Gauge = field(default_factory=Gauge)

    def check(self, name, passed, detail=""):
        self.checks.append((name, bool(passed), detail))


def closed_loop(budget, step, min_calls=1, tracer=None, outcome=None):
    """Call ``step(n)`` back to back for n = 0, 1, ...; once ``min_calls``
    calls are done, stop when another call as long as the last would likely
    end after ``budget`` seconds. ``step`` returns (run, check):
    ``run()`` is timed, ``check(result, wall)`` is not and returns a Sample.
    The speed kernel (speed.py) runs before the first call, after the last,
    and between calls whenever GAUGE_EVERY_S or more has passed since it
    last ran; its time over the loop gives every Sample its speed factor.
    Peak RSS is read once ``outcome.rss_after_units`` units are done. A
    tracer, if given, is uninstalled when the loop ends, so the checks that
    follow are not traced."""
    gauge = outcome.gauge
    gauge.measure(runs=3)
    start = time.perf_counter()
    n = units = 0
    while True:
        run, check = step(n)
        if time.perf_counter() - gauge.last >= GAUGE_EVERY_S:
            gauge.measure()
        t0 = time.perf_counter()
        if tracer is None:
            result = run()
        else:
            with tracer.span("bench.op"):
                result = run()
        wall = time.perf_counter() - t0
        outcome.samples.append(check(result, wall))
        n += 1
        units += outcome.samples[-1].units
        if outcome.rss_mb is None and units >= outcome.rss_after_units:
            outcome.rss_mb = peak_rss_mb()
        now = time.perf_counter()
        if n >= min_calls and (now - start) + (now - t0) > budget:
            break
    gauge.measure()
    for s in outcome.samples[-n:]:
        s.speed = gauge.factor()
    if outcome.rss_mb is None:
        outcome.rss_mb = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()


def guarded(fn):
    """Run ``fn``; an exception becomes the result instead of escaping."""
    def run():
        try:
            return fn()
        except Exception as exc:  # the check counts it as a failed operation
            return exc
    return run


def train_karate(inputs, seed, budget, tracer, outcome, cycles=True):
    from prunerl.agent import Agent, AgentConfig, train_loop
    from prunerl.graph import load_edge_list
    from prunerl.rewards import PagerankReward

    karate = load_edge_list(ROOT / "data" / "karate.txt")
    reward = PagerankReward(karate)
    agent = Agent(karate, AgentConfig(**AGENT), rng=np.random.default_rng([seed, 1]))
    rng = np.random.default_rng([seed, 2])
    with tracer.span("bench.warmup") if tracer else contextlib.nullcontext():
        while len(agent.buffer) < agent.config.batch_size:
            train_loop(agent, reward, 1, rng)

    def step(n):
        before = agent.update_steps

        def check(rows, wall):
            ok = not isinstance(rows, Exception) and math.isfinite(float(rows[0]["loss"]))
            steps = agent.update_steps - before
            return Sample(wall, steps, 1, int(not ok))

        return guarded(lambda: train_loop(agent, reward, 1, rng)), check

    # after warm-up every episode step makes exactly one learning update
    closed_loop(budget, step, tracer=tracer, outcome=outcome)
    from prunerl.metrics import pagerank

    outcome.check("update_steps_positive", agent.update_steps > 0,
                  f"{agent.update_steps} update steps")
    diff = float(np.abs(pagerank(karate) - reference_pagerank(karate)).max())
    outcome.check("karate_pagerank_vs_scipy", diff <= 1e-8, f"max |diff| {diff:.3g}")


def sparsify_planted(inputs, seed, budget, tracer, outcome, cycles=True):
    g = inputs.graph
    original = g.live_edge_set()
    ratio = (g.original_edge_count - PRUNES_PER_CALL) / g.original_edge_count
    target = int(round(ratio * g.original_edge_count))
    rng = np.random.default_rng([seed, 3])

    def step(n):
        h = H_VALUES[n % len(H_VALUES)]

        def check(out, wall):
            ok = (not isinstance(out, Exception) and out.edge_count == target
                  and out.live_edge_set() <= original)
            return Sample(wall, PRUNES_PER_CALL, 1, int(not ok), tag=h)

        return guarded(lambda: inputs.agent.sparsify(g, ratio, h, rng)), check

    closed_loop(budget, step, len(H_VALUES) if cycles else 1, tracer, outcome)


def failed_cells(out_dir):
    """Cells of the last compare run into ``out_dir`` with an error or a
    non-finite value; a missing cell counts as failed."""
    try:
        with open(out_dir / "compare_cells.csv", newline="") as f:
            rows = list(csv.DictReader(f))
    except FileNotFoundError:
        return CELLS_PER_CALL
    bad = sum(1 for r in rows if r["error"] or not math.isfinite(float(r["value"])))
    return bad + max(0, CELLS_PER_CALL - len(rows))


def compare_planted(inputs, seed, budget, tracer, outcome, cycles=True):
    from prunerl import baselines, cli

    def step(n):
        obj = OBJECTIVES[n % len(OBJECTIVES)]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(["compare", "--config", str(inputs.configs[obj]),
                                 "--workers", "1"])

        def check(rc, wall):
            failed = CELLS_PER_CALL if rc != 0 else failed_cells(inputs.out_dirs[obj])
            return Sample(wall, CELLS_PER_CALL, CELLS_PER_CALL, failed, tag=obj)

        return guarded(run), check

    # the first call in a process runs 10-15% slower than later ones, so one
    # untimed call goes first
    step(0)[0]()
    closed_loop(budget, step, len(OBJECTIVES) if cycles else 1, tracer, outcome)
    for name, ok, detail in check_metrics(inputs.graph, inputs.labels,
                                          np.random.default_rng([seed, 4])):
        outcome.check(name, ok, detail)

    g, ratio = inputs.graph, EVALUATION["ratios"][0]
    requested = int(round(ratio * g.original_edge_count))
    runs = {
        "random_edge": lambda: baselines.random_edge(g, ratio, np.random.default_rng(0)),
        "local_degree": lambda: baselines.local_degree(g, r=ratio),
        "edge_forest_fire": lambda: baselines.edge_forest_fire(
            g, ratio, EDGE_FOREST_FIRE_P, np.random.default_rng(0)),
        "l_spar": lambda: baselines.l_spar(g, r=ratio),
    }
    outcome.notes["baseline_edges"] = {
        m: {"requested": requested, "achieved": int(run().edge_count)} for m, run in runs.items()
    }


# Each runner calls every |H| or objective at least once, or with
# cycles=False may stop after any call.
RUNNERS = {
    "train-karate": train_karate,
    "sparsify-planted": sparsify_planted,
    "compare-planted": compare_planted,
}


# ------------------------------------------------------------------ metrics


def geometric_mean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def end_to_end(workload, samples, timed, say=log):
    """Returns ({metric: value}, [(display name, value, unit, n)]), taking
    each operation's time in seconds from ``timed(sample)``."""
    good = [s for s in samples if s.failed == 0]
    shown = []

    def median_ms_per_unit(tag):
        xs = [1000.0 * timed(s) / s.units for s in good if s.tag == tag]
        return statistics.median(xs), len(xs)

    if workload == "train-karate":
        units = sum(s.units for s in good)
        wall = sum(timed(s) for s in good)
        ops_per_s = units / wall
        op_ms = statistics.median(1000.0 * timed(s) / s.units for s in good)
        episode_ms = [1000.0 * timed(s) for s in good]
        n = len(good)
        shown.append(("train_steps_per_s", ops_per_s, "1/s", units))
        shown.append(("train_step_ms_p50", op_ms, "ms", n))
        shown.append(("train_episodes_per_s", n / wall, "1/s", n))
        shown.append(("train_episode_ms_p50", statistics.median(episode_ms), "ms", n))
        for q in (90, 75):
            try:
                shown.append((f"train_episode_ms_p{q}", percentile(episode_ms, q), "ms", n))
                break
            except ValueError as exc:
                say(f"train_episode_ms_p{q} not reported: {exc}")
    else:
        # one median per |H| or per objective, so the mix of calls a run
        # happens to end on does not move the figures: ops_per_s is the
        # rate over one call of each at its median time
        name, tags = {"sparsify-planted": ("sparsify_ms_per_prune_h{}", H_VALUES),
                      "compare-planted": ("compare_ms_per_cell_{}", OBJECTIVES)}[workload]
        medians = []
        for tag in tags:
            m, n = median_ms_per_unit(tag)
            medians.append(m)
            shown.append((name.format(tag), m, "ms", n))
        op_ms = geometric_mean(medians)
        ops_per_s = 1000.0 * len(medians) / sum(medians)
        rate = "sparsify_prunes_per_s" if workload == "sparsify-planted" else "compare_cells_per_s"
        shown.append((rate, ops_per_s, "1/s", len(good)))
    return {"ops_per_s": ops_per_s, "op_ms_p50": op_ms}, shown


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


LAYERS = ("agent", "qmodel", "nnet", "replay", "graph", "rewards", "metrics",
          "baselines", "cli")


def per_layer(spans, notes):
    """Per-layer metrics from the traced run. Returns ({name: (value, unit)},
    [names absent from this workload])."""
    tree = SpanTree(spans)
    in_ops = set()
    todo = [s for s in spans if s.name == "bench.op"]
    ops_wall = sum(s.wall for s in todo)
    while todo:
        s = todo.pop()
        in_ops.add(s.id)
        todo.extend(tree.children[s.id])
    by_name = {}
    for s in spans:
        if s.id in in_ops:
            by_name.setdefault(s.name, []).append(s)
    out, absent = {}, []

    def calls(name):
        return len(by_name.get(name, []))

    def put(metric, value, unit, present=True):
        out[metric] = (float(value), unit)
        if not present:
            absent.append(metric)

    def p50(metric, name, scale, unit):
        xs = [s.wall / scale for s in by_name.get(name, [])]
        put(metric, statistics.median(xs) if xs else 0.0, unit, bool(xs))

    def share(metric, name):
        total = sum(s.wall for s in by_name.get(name, []))
        put(metric, total / ops_wall, "ratio", total > 0)

    def per_size(metric, name):
        xs = by_name.get(name, [])
        size = sum(s.size for s in xs)
        put(metric, sum(s.wall for s in xs) / 1e3 / size if size else 0.0, "us", bool(size))

    steps = by_name.get("agent.train_step", [])
    put("agent.train_step.calls", len(steps), "count")
    p50("agent.train_step.ms_p50", "agent.train_step", 1e6, "ms")
    share("agent.train_step.share", "agent.train_step")

    put("qmodel.q_forward.calls", calls("qmodel.q_forward"), "count")
    nested = sum(tree.subtree_calls(s, "qmodel.q_forward") for s in steps)
    put("qmodel.q_forward.calls_per_train_step", nested / len(steps) if steps else 0.0,
        "count", bool(steps))
    per_size("qmodel.q_forward.us_per_edge", "qmodel.q_forward")
    share("qmodel.q_forward.share", "qmodel.q_forward")

    p50("nnet.Tensor.backward.ms_p50", "nnet.Tensor.backward", 1e6, "ms")
    tensors = sum(tree.subtree_counts(s)["nnet.Tensor"] for s in steps)
    put("nnet.Tensor.count_per_train_step", tensors / len(steps) if steps else 0.0,
        "count", bool(steps))
    p50("nnet.Adam.step.us_p50", "nnet.Adam.step", 1e3, "us")

    p50("replay.sample.us_p50", "replay.sample", 1e3, "us")
    p50("replay.update_priorities.us_p50", "replay.update_priorities", 1e3, "us")
    put("replay.add.calls", calls("replay.add"), "count")

    p50("graph.sample_subgraph.us_p50", "graph.sample_subgraph", 1e3, "us")
    share("graph.sample_subgraph.share", "graph.sample_subgraph")
    prunes = sum(tree.subtree_counts(s)["graph.prune_edge"]
                 for s in spans if s.name == "bench.op")
    put("graph.prune_edge.calls", prunes, "count")
    p50("graph.copy.us_p50", "graph.copy", 1e3, "us")
    # loads happen in set-up as well as inside `compare`: count every call
    loads = [s.wall / 1e6 for s in spans if s.name == "graph.load_edge_list"]
    put("graph.load_edge_list.ms", statistics.median(loads) if loads else 0.0, "ms", bool(loads))

    p50("rewards.after_prune.ms_p50", "rewards.after_prune", 1e6, "ms")
    share("rewards.after_prune.share", "rewards.after_prune")

    p50("metrics.louvain.ms_p50", "metrics.louvain", 1e6, "ms")
    put("metrics.bfs_distances.calls", calls("metrics.bfs_distances"), "count")
    p50("metrics.bfs_distances.us_p50", "metrics.bfs_distances", 1e3, "us")
    per_size("metrics.batch_spsp.us_per_pair", "metrics.batch_spsp")
    p50("metrics.modularity.ms_p50", "metrics.modularity", 1e6, "ms")
    p50("metrics.spearman_rho.us_p50", "metrics.spearman_rho", 1e3, "us")
    p50("metrics.adjusted_rand_index.us_p50", "metrics.adjusted_rand_index", 1e3, "us")
    p50("metrics.pagerank.ms_p50", "metrics.pagerank", 1e6, "ms")

    budgets = notes.get("baseline_edges", {})
    for m in BASELINES:
        p50(f"baselines.{m}.ms_p50", f"baselines.{m}", 1e6, "ms")
        b = budgets.get(m)
        put(f"baselines.{m}.budget_miss_edges",
            abs(b["achieved"] - b["requested"]) if b else 0, "count", b is not None)

    mains = by_name.get("cli.main", [])
    p50("cli.main.ms", "cli.main", 1e6, "ms")
    main_wall = sum(s.wall for s in mains)
    put("cli.main.self_share",
        sum(tree.self_wall(s) for s in mains) / main_wall if main_wall else 0.0,
        "ratio", bool(mains))

    op_tree = SpanTree([s for s in spans if s.id in in_ops])
    busy, wait = op_tree.layer_times()
    for layer in LAYERS:
        put(f"{layer}.busy_ms", busy[layer] / 1e6, "ms", layer in busy)
        put(f"{layer}.wait_ms", wait[layer] / 1e6, "ms", layer in wait)
    cpu = sum(busy.values())
    put("metrics.cpu_share", busy["metrics"] / cpu if cpu else 0.0, "ratio", "metrics" in busy)
    put("trace.overhead_share", notes["trace_overhead"], "ratio")
    return out, absent


# --------------------------------------------------------------- provenance


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable: not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unresolved ref {name}"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload, seed, planted, notes):
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "planted_graph": {
            "nodes": planted.node_count,
            "edges": len(planted.edges),
            "communities": planted.community_count,
            "intra_edge_share": planted.intra_share(),
            "connected": planted.is_connected(),
        },
        "baseline_edges": notes.get("baseline_edges", "not run by this workload"),
    }


# ---------------------------------------------------------------------- run


def run_workload(workload, seed, seconds, trace):
    work = WORK / f"{workload}-s{seed}-t{trace}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)

    checks = []
    if not trace:
        gauge, setups, digests = Gauge(), [], set()
        gauge.measure(runs=3)
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = set_up(seed, work / "inputs")
            setups.append(time.perf_counter() - t0)
            gauge.measure(runs=1)
            digests.add(digest(inputs.files))
        setup_wall = statistics.median(setups)
        setup_s = setup_wall * gauge.factor()
        checks.append(("setup_byte_identical", len(digests) == 1,
                       f"{len(digests)} distinct digests over {SETUP_REPEATS} set-ups"))
        outcome = Outcome(rss_after_units=RSS_AFTER_UNITS[workload])
        RUNNERS[workload](inputs, seed, seconds, None, outcome)
        samples = outcome.samples
    else:
        plain = Outcome()
        # untraced reference for the overhead; it need not cover every
        # |H| or objective, so it may stop after any call
        RUNNERS[workload](set_up(seed, work / "inputs"), seed, seconds / 3, None, plain,
                          cycles=False)
        tracer = Tracer()
        install(tracer)
        try:
            with tracer.span("bench.setup"):
                inputs = set_up(seed, work / "inputs")
            outcome = Outcome()
            RUNNERS[workload](inputs, seed, 2 * seconds / 3, tracer, outcome)
        finally:
            tracer.uninstall()
        tracer.write(work / "spans.jsonl")
        common = min(len(plain.samples), len(outcome.samples))
        traced_wall = sum(s.wall for s in outcome.samples[:common])
        plain_wall = sum(s.wall for s in plain.samples[:common])
        outcome.notes["trace_overhead"] = traced_wall / plain_wall - 1.0
        samples = plain.samples + outcome.samples
        checks.extend(plain.checks)
    checks.extend(outcome.checks)

    planted = inputs.planted
    checks.append(("planted_graph_connected", planted.is_connected(), ""))
    prov = provenance(workload, seed, planted, outcome.notes)
    (work / "provenance.json").write_text(json.dumps(prov, indent=2) + "\n")
    log("provenance " + json.dumps(prov, sort_keys=True))

    ops = sum(s.ops for s in samples)
    failed_checks = sum(1 for _, ok, _ in checks if not ok)
    for name, ok, detail in checks:
        log(f"check {name}: {'ok' if ok else 'FAILED'} {detail}".rstrip())
    attempted = ops + len(checks)
    failed = sum(s.failed for s in samples) + failed_checks
    op_name = {"train-karate": "episodes", "sparsify-planted": "sparsify calls",
               "compare-planted": "compare cells"}[workload]
    log(f"failed_ops_ratio = {failed / attempted:.6g} ({failed} of {attempted}: "
        f"{ops} {op_name} and {len(checks)} output checks)")

    metrics = {}
    if failed == 0:
        if not trace:
            e2e, shown = end_to_end(workload, samples, lambda s: s.ref_wall)
            shown = [("setup_s", setup_s, "s", SETUP_REPEATS)] + shown
            shown.append(("peak_rss_mb", outcome.rss_mb, "MB", 1))
            log("times at reference speed (speed.py):")
            for name, value, unit, n in shown:
                log(f"metric {name} = {value:.6g} {unit} (n={n})")
            _, raw = end_to_end(workload, samples, lambda s: s.wall, say=lambda _: None)
            log("times as timed:")
            for name, value, unit, n in [("setup_s", setup_wall, "s", SETUP_REPEATS)] + raw:
                log(f"wall {name} = {value:.6g} {unit} (n={n})")
            for name, g in (("set-up", gauge), ("operations", outcome.gauge)):
                log(f"speed factor {name} = {g.factor():.4g} (kernel "
                    f"{1000 * REFERENCE_S / g.factor():.4g} ms over {len(g.times)} runs)")
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "ops_per_s": {"value": e2e["ops_per_s"], "unit": "1/s"},
                "op_ms_p50": {"value": e2e["op_ms_p50"], "unit": "ms"},
                "peak_rss_mb": {"value": outcome.rss_mb, "unit": "MB"},
            }
        else:
            layer, absent = per_layer(tracer.spans, outcome.notes)
            for name, (value, unit) in layer.items():
                note = " (absent: no calls in this workload)" if name in absent else ""
                log(f"layer {name} = {value:.6g} {unit}{note}")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    results = {}
    for w in WORKLOADS:
        log(f"== {w}")
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            log(line)
        try:
            results[w] = json.loads(lines[-1])
        except (IndexError, ValueError):
            log(f"{w}: no result (exit {proc.returncode})")
            return proc.returncode or 1
        if proc.returncode:
            log(f"{w}: exit {proc.returncode}")
    merged = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": merged}), flush=True)
    return 0 if correct else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    src = ROOT / "src"
    missing = [str(x.relative_to(ROOT)) for x in (src / "prunerl" / "__init__.py",
                                                   ROOT / "data" / "karate.txt")
               if not x.is_file()]
    if missing:
        print(f"error: the program to benchmark is missing: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import prunerl
    if Path(prunerl.__file__).resolve().parent != (src / "prunerl").resolve():
        print(f"error: imported prunerl from {prunerl.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
