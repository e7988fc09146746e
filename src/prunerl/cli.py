"""Command-line pipeline: train agents, sparsify graphs with any method,
evaluate metrics, and aggregate comparison tables as tidy CSV.

Subcommands: train, sparsify, evaluate, compare, spanner-compare, h-sweep.
Exit codes: 0 success, 1 usage, 2 data error, 3 runtime failure.
"""

import argparse
import csv
import itertools
import sys
import time
from pathlib import Path

import numpy as np

from . import baselines
from .agent import Agent, train_loop
from .config import COUNT, RATIO, SEED, EvalConfig, load_run_config, rng_streams
from .errors import ConfigError, DataError, PruneRLError
from .graph import load_communities, load_edge_list, open_output, read_text
from .metrics import pagerank  # noqa: F401  perfbench/test_perfbench.py reads cli.pagerank
from .rewards import OBJECTIVES, make_reward_spec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3

BASELINE_METHODS = tuple(baselines.AT_RATIO)


def _load_labels_if(path, graph):
    return load_communities(path, graph) if path else None


def _flag(rule, parse=int):
    """An argparse type: the text parsed and held to a config rule (a usage error if broken)."""
    def convert(text):
        try:
            if rule.ok(value := parse(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {rule.text}, got {text}")
    return convert


def _methods(checkpoint, graph, eval_h):
    """fn(g, r, rng) per method name: each classical baseline, and the agent a checkpoint holds."""
    if not checkpoint:
        return baselines.AT_RATIO
    agent = Agent.load(checkpoint, graph)
    return {**baselines.AT_RATIO, "agent": lambda g, r, rng: agent.sparsify(g, r, eval_h, rng)}


def _write_csv(f, rows, fieldnames):
    writer = csv.DictWriter(f, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)


# ------------------------------------------------------------------- commands


def cmd_train(args):
    cfg = load_run_config(args.config)
    graph = load_edge_list(cfg.dataset, directed=cfg.directed)
    obj = cfg.objective
    reward = make_reward_spec(
        obj.kind, graph, labels=_load_labels_if(obj.labels_path, graph),
        label_sign=obj.label_sign, pairs_per_endpoint=obj.pairs_per_endpoint,
    )
    out_dir = Path(args.out or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    streams = rng_streams(args.seed if args.seed is not None else cfg.seed)
    ckpt, log_path = out_dir / "checkpoint.npz", out_dir / "training_log.csv"
    kept_rows = []
    if args.resume and ckpt.exists():
        agent = Agent.load(ckpt, graph)
        if log_path.exists():  # the checkpoint's episodes; rows logged after it are dropped
            kept_rows = list(csv.reader(read_text(log_path).splitlines()))[1:][:agent.episodes_done]
    else:
        agent = Agent(graph, cfg.agent, rng=streams["init"])
    # one jump per episode done: a resume does not replay earlier draws; jumped(0) is the identity
    exploration = streams["exploration"].bit_generator.jumped(agent.episodes_done)
    train_loop(
        agent,
        reward,
        cfg.train.episodes,
        np.random.Generator(exploration),
        log_path=log_path,
        checkpoint_path=ckpt,
        checkpoint_every=cfg.train.checkpoint_every,
        kept_rows=kept_rows,
    )
    print(f"trained {agent.episodes_done} episodes, {agent.update_steps} update steps")
    print(f"checkpoint: {ckpt}")
    return EXIT_OK


def cmd_sparsify(args):
    graph = load_edge_list(args.dataset, directed=args.directed)
    methods = _methods(args.checkpoint, graph, args.eval_subgraph_len)
    if args.method not in methods:
        raise ConfigError("method 'agent' requires a checkpoint")
    with open_output(args.out) as f:
        sparsified = methods[args.method](graph, args.ratio, np.random.default_rng(args.seed))
        header = [f"method={args.method} ratio={args.ratio} seed={args.seed}",
                  f"dataset={args.dataset}"]
        params = getattr(sparsified, "method_params", None)
        if params:
            header.append(f"params={params}")
        sparsified.save_edge_list(f, header_lines=header)
    print(f"wrote {sparsified.edge_count} live edges to {args.out}")
    return EXIT_OK


def cmd_evaluate(args):
    graph = load_edge_list(args.dataset, directed=args.directed)
    sparsified = graph.copy_listed(args.sparsified)
    objective = make_reward_spec(args.metric, graph, labels=_load_labels_if(args.labels, graph),
                                 louvain_runs=args.louvain_runs, spsp_pairs=args.spsp_pairs)
    with open_output(args.out) as f:
        value = objective.evaluate(sparsified, np.random.default_rng(args.seed))
        row = {"dataset": args.dataset, "method": "file",
               "edge_kept_ratio": sparsified.edge_kept_ratio(), "metric": args.metric,
               "seed": args.seed, "value": value}
        _write_csv(f, [row], list(row.keys()))
    print(f"{args.metric} = {value}")
    return EXIT_OK


def cmd_compare(args):
    cfg = load_run_config(args.config)
    graph = load_edge_list(cfg.dataset, directed=cfg.directed)
    metric, ev = cfg.objective.kind, cfg.evaluation
    objective = make_reward_spec(
        metric, graph, labels=_load_labels_if(cfg.objective.labels_path, graph),
        louvain_runs=ev.louvain_runs, spsp_pairs=ev.spsp_pairs)
    methods = _methods(args.checkpoint, graph, ev.eval_subgraph_len)
    out_dir = Path(args.out or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = []
    # opened before the grid, so a bad --out costs no cells
    with (open_output(out_dir / "compare_cells.csv") as cells_f,
          open_output(out_dir / "compare_table.csv") as table_f):
        for (method, fn), ratio, seed in itertools.product(methods.items(), ev.ratios,
                                                           range(ev.seeds)):
            cell = {"dataset": cfg.dataset, "method": method, "edge_kept_ratio": ratio,
                    "achieved_edges": "", "metric": metric, "seed": seed,
                    "value": float("nan"), "error": ""}
            try:  # a failing cell is reported in its row, and the grid goes on
                sp = fn(graph, ratio, np.random.default_rng(seed))
                value = objective.evaluate(sp, np.random.default_rng(seed))
                cell.update(achieved_edges=sp.edge_count, value=value)
            except PruneRLError as exc:
                cell["error"] = str(exc)
            cells.append(cell)
        agg = {}
        for c in cells:
            if not c["error"]:
                agg.setdefault((c["method"], c["edge_kept_ratio"]), []).append(c["value"])
        best = {}
        for (method, ratio), vals in agg.items():
            m = float(np.mean(vals))
            score = m if objective.higher_is_better else -m
            if ratio not in best or score > best[ratio][1]:
                best[ratio] = (method, score)
        table_rows = [
            {"dataset": cfg.dataset, "method": method, "ratio": ratio,
             "metric": metric, "mean": float(np.mean(vals)), "n_seeds": len(vals),
             "best": int(best[ratio][0] == method)}
            for (method, ratio), vals in sorted(agg.items())
        ]
        _write_csv(cells_f, cells, ["dataset", "method", "edge_kept_ratio", "achieved_edges",
                                    "metric", "seed", "value", "error"])
        _write_csv(table_f, table_rows,
                   ["dataset", "method", "ratio", "metric", "mean", "n_seeds", "best"])
    for row in table_rows:
        flag = " *" if row["best"] else ""
        print(f"{row['method']:>18} r={row['ratio']:<4} {metric}={row['mean']:.4f}{flag}")
    return EXIT_OK


def cmd_spanner_compare(args):
    graph = load_edge_list(args.dataset)  # the spanner is defined for undirected graphs
    agent = _methods(args.checkpoint, graph, args.eval_subgraph_len)["agent"]
    with open_output(args.out) as f:
        rows = baselines.spanner_comparison_protocol(
            graph, args.stretch, agent, np.random.default_rng(args.seed), runs=args.runs,
            n_pairs=args.spsp_pairs,
        )
        _write_csv(f, rows, ["t", "mean_ratio", "spanner_rspsp", "agent_rspsp"])
    for r in rows:
        print(f"t={r['t']} kept={r['mean_ratio']:.4f} "
              f"spanner={r['spanner_rspsp']:.4f} agent={r['agent_rspsp']:.4f}")
    return EXIT_OK


def cmd_h_sweep(args):
    graph = load_edge_list(args.dataset, directed=args.directed)
    agent = Agent.load(args.checkpoint, graph)
    objective = make_reward_spec(args.metric, graph, labels=_load_labels_if(args.labels, graph),
                                 louvain_runs=args.louvain_runs)
    series = [[None] * args.seeds for _ in args.subgraph_lens]
    with open_output(args.out) as f:
        # seed-major, so that host drift over the run lands on every |H| alike
        for seed in range(args.seeds):
            for runs, h in zip(series, args.subgraph_lens):
                rng = np.random.default_rng(seed)
                t0 = time.perf_counter()
                sp = agent.sparsify(graph, args.ratio, h, rng)
                elapsed = time.perf_counter() - t0
                value = objective.evaluate(sp, np.random.default_rng(seed))
                runs[seed] = {"subgraph_len": h, "ratio": args.ratio,
                              "metric": args.metric, "seed": seed, "value": value,
                              "wall_time_s": elapsed}
        rows = [row for runs in series for row in runs]
        _write_csv(f, rows, ["subgraph_len", "ratio", "metric", "seed", "value", "wall_time_s"])
    for h in args.subgraph_lens:
        sub = [r for r in rows if r["subgraph_len"] == h]
        print(f"|H|={h}: mean {args.metric}={np.mean([r['value'] for r in sub]):.4f} "
              f"mean time={np.mean([r['wall_time_s'] for r in sub]):.3f}s")
    return EXIT_OK


# --------------------------------------------------------------------- parser


def build_parser():
    p = argparse.ArgumentParser(prog="prunerl", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train an agent from a run config")
    t.add_argument("--config", required=True)
    t.add_argument("--seed", type=_flag(SEED), default=None)
    t.add_argument("--out", default=None)
    t.add_argument("--resume", action="store_true")
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("sparsify", help="sparsify a dataset with any method")
    s.add_argument("--dataset", required=True)
    s.add_argument("--method", required=True,
                   choices=[*BASELINE_METHODS, "agent"])
    s.add_argument("--ratio", type=_flag(RATIO, float), required=True)
    s.add_argument("--seed", type=_flag(SEED), default=0)
    s.add_argument("--checkpoint", default=None)
    s.add_argument("--eval-subgraph-len", type=_flag(COUNT), default=EvalConfig.eval_subgraph_len)
    s.add_argument("--directed", action="store_true")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sparsify)

    e = sub.add_parser("evaluate", help="score a sparsified edge list")
    e.add_argument("--dataset", required=True)
    e.add_argument("--sparsified", required=True)
    e.add_argument("--metric", required=True,
                   choices=list(OBJECTIVES))
    e.add_argument("--labels", default=None)
    e.add_argument("--seed", type=_flag(SEED), default=0)
    e.add_argument("--spsp-pairs", type=_flag(COUNT), default=EvalConfig.spsp_pairs)
    e.add_argument("--louvain-runs", type=_flag(COUNT), default=EvalConfig.louvain_runs)
    e.add_argument("--directed", action="store_true")
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_evaluate)

    c = sub.add_parser("compare", help="full method x ratio x seed grid")
    c.add_argument("--config", required=True)
    c.add_argument("--checkpoint", default=None)
    c.add_argument("--workers", type=_flag(COUNT), default=1,
                   help="accepted for compatibility; cells run in one thread")
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_compare)

    sc = sub.add_parser("spanner-compare", help="match the agent against the spanner")
    sc.add_argument("--dataset", required=True)
    sc.add_argument("--checkpoint", required=True)
    sc.add_argument("--stretch", type=_flag(COUNT), nargs="+", default=[3, 5, 7])
    sc.add_argument("--runs", type=_flag(COUNT), default=16)
    sc.add_argument("--seed", type=_flag(SEED), default=0)
    sc.add_argument("--spsp-pairs", type=_flag(COUNT), default=512)
    sc.add_argument("--eval-subgraph-len", type=_flag(COUNT), default=EvalConfig.eval_subgraph_len)
    sc.add_argument("--out", default=None)
    sc.set_defaults(func=cmd_spanner_compare)

    h = sub.add_parser("h-sweep", help="time/performance sweep over |H|")
    h.add_argument("--dataset", required=True)
    h.add_argument("--checkpoint", required=True)
    h.add_argument("--ratio", type=_flag(RATIO, float), required=True)
    h.add_argument("--metric", default="pagerank", choices=list(OBJECTIVES))
    h.add_argument("--subgraph-lens", type=_flag(COUNT), nargs="+", default=[8, 16, 32, 64])
    h.add_argument("--seeds", type=_flag(COUNT), default=3)
    h.add_argument("--labels", default=None)
    h.add_argument("--louvain-runs", type=_flag(COUNT), default=EvalConfig.louvain_runs)
    h.add_argument("--directed", action="store_true")
    h.add_argument("--out", default=None)
    h.set_defaults(func=cmd_h_sweep)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (DataError, OSError) as exc:  # OSError: an input or output path that cannot be used
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except PruneRLError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
