import csv
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from prunerl import cli
from prunerl.graph import load_edge_list

from conftest import DATA_DIR

KARATE = str(DATA_DIR / "karate.txt")
KARATE_LABELS = str(DATA_DIR / "karate_communities.txt")


def write_config(path, **overrides):
    cfg = {
        "schema_version": 1,
        "dataset": KARATE,
        "seed": 0,
        "out_dir": str(Path(path).parent / "run"),
        "objective": {"kind": "pagerank"},
        "agent": {
            "emb_dim": 8,
            "hidden_dim": 16,
            "train_subgraph_len": 8,
            "batch_size": 8,
            "eps_decay_steps": 50,
            "t_max": 4,
        },
        "train": {"episodes": 6, "checkpoint_every": 3},
        "evaluation": {"ratios": [0.5], "seeds": 2, "spsp_pairs": 64,
                       "louvain_runs": 2, "eval_subgraph_len": 8},
    }
    cfg.update(overrides)
    with open(path, "w") as f:
        yaml.safe_dump(cfg, f)
    return path


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny training run shared by the checkpoint-consuming tests."""
    root = tmp_path_factory.mktemp("cli_train")
    config = write_config(root / "config.yaml")
    out_dir = root / "run"
    rc = cli.main(["train", "--config", str(config), "--out", str(out_dir)])
    assert rc == cli.EXIT_OK
    return {"config": config, "out_dir": out_dir,
            "checkpoint": out_dir / "checkpoint.npz"}


class TestTrain:
    def test_produces_checkpoint_and_log(self, trained):
        assert trained["checkpoint"].exists()
        log = read_csv(trained["out_dir"] / "training_log.csv")
        assert log, "training log is empty"
        assert set(log[0]) == {"episode", "step", "epsilon", "loss",
                               "mean_reward", "buffer_size"}


class TestSparsify:
    def test_random_edge_exact_count(self, tmp_path):
        out = tmp_path / "sparse.txt"
        rc = cli.main(["sparsify", "--dataset", KARATE, "--method",
                       "random_edge", "--ratio", "0.5", "--seed", "0",
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        edges = [l for l in out.read_text().splitlines()
                 if l and not l.startswith("#")]
        assert len(edges) == 39  # round(0.5 * 78)

    def test_output_header_records_provenance(self, tmp_path):
        out = tmp_path / "sparse.txt"
        cli.main(["sparsify", "--dataset", KARATE, "--method", "random_edge",
                  "--ratio", "0.5", "--out", str(out)])
        head = out.read_text().splitlines()[0]
        assert head.startswith("#")
        assert "method=random_edge" in head and "ratio=0.5" in head

    def test_kept_edges_are_a_subset(self, tmp_path):
        out = tmp_path / "sparse.txt"
        cli.main(["sparsify", "--dataset", KARATE, "--method", "local_degree",
                  "--ratio", "0.5", "--out", str(out)])
        original = load_edge_list(KARATE).live_edge_set()
        kept = load_edge_list(out).live_edge_set()
        # both graphs are saved in original node ids, so sets are comparable
        assert len(kept) <= len(original)

    def test_agent_method(self, trained, tmp_path):
        out = tmp_path / "sparse.txt"
        rc = cli.main(["sparsify", "--dataset", KARATE, "--method", "agent",
                       "--checkpoint", str(trained["checkpoint"]),
                       "--ratio", "0.5", "--eval-subgraph-len", "8",
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        edges = [l for l in out.read_text().splitlines()
                 if l and not l.startswith("#")]
        assert len(edges) == 39

    def test_agent_without_checkpoint_is_data_error(self, tmp_path):
        rc = cli.main(["sparsify", "--dataset", KARATE, "--method", "agent",
                       "--ratio", "0.5", "--out", str(tmp_path / "x.txt")])
        assert rc == cli.EXIT_DATA


class TestEvaluate:
    def test_identity_pagerank_is_one(self, tmp_path, capsys):
        out = tmp_path / "full.txt"
        cli.main(["sparsify", "--dataset", KARATE, "--method", "random_edge",
                  "--ratio", "1.0", "--out", str(out)])
        csv_out = tmp_path / "eval.csv"
        rc = cli.main(["evaluate", "--dataset", KARATE, "--sparsified",
                       str(out), "--metric", "pagerank", "--out", str(csv_out)])
        assert rc == cli.EXIT_OK
        row = read_csv(csv_out)[0]
        assert float(row["value"]) == pytest.approx(1.0)
        assert float(row["edge_kept_ratio"]) == pytest.approx(1.0)

    def test_identity_spsp_is_zero(self, tmp_path):
        out = tmp_path / "full.txt"
        cli.main(["sparsify", "--dataset", KARATE, "--method", "random_edge",
                  "--ratio", "1.0", "--out", str(out)])
        csv_out = tmp_path / "eval.csv"
        rc = cli.main(["evaluate", "--dataset", KARATE, "--sparsified",
                       str(out), "--metric", "spsp", "--spsp-pairs", "64",
                       "--out", str(csv_out)])
        assert rc == cli.EXIT_OK
        assert float(read_csv(csv_out)[0]["value"]) == pytest.approx(0.0)

    def test_community_metric_needs_labels(self, tmp_path):
        out = tmp_path / "full.txt"
        cli.main(["sparsify", "--dataset", KARATE, "--method", "random_edge",
                  "--ratio", "1.0", "--out", str(out)])
        rc = cli.main(["evaluate", "--dataset", KARATE, "--sparsified",
                       str(out), "--metric", "community"])
        assert rc == cli.EXIT_DATA

    def test_community_metric_with_labels(self, tmp_path):
        out = tmp_path / "full.txt"
        cli.main(["sparsify", "--dataset", KARATE, "--method", "random_edge",
                  "--ratio", "1.0", "--out", str(out)])
        csv_out = tmp_path / "eval.csv"
        rc = cli.main(["evaluate", "--dataset", KARATE, "--sparsified",
                       str(out), "--metric", "community", "--labels",
                       KARATE_LABELS, "--out", str(csv_out)])
        assert rc == cli.EXIT_OK
        assert 0.0 <= float(read_csv(csv_out)[0]["value"]) <= 1.0

    def test_foreign_edge_rejected(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n900 901\n")
        rc = cli.main(["evaluate", "--dataset", KARATE, "--sparsified",
                       str(bad), "--metric", "pagerank"])
        assert rc == cli.EXIT_DATA

    def test_one_token_line_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n# a comment\n5\n")
        rc = cli.main(["evaluate", "--dataset", KARATE, "--sparsified",
                       str(bad), "--metric", "pagerank"])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{bad}:3:" in err and "'5'" in err


class TestExitCodes:
    def test_no_subcommand_is_usage(self):
        assert cli.main([]) == cli.EXIT_USAGE

    def test_missing_required_flag_is_usage(self):
        assert cli.main(["sparsify", "--dataset", KARATE]) == cli.EXIT_USAGE

    def test_missing_dataset_file_is_data_error(self, tmp_path):
        rc = cli.main(["sparsify", "--dataset", str(tmp_path / "no.txt"),
                       "--method", "random_edge", "--ratio", "0.5",
                       "--out", str(tmp_path / "o.txt")])
        assert rc == cli.EXIT_DATA

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--dataset", KARATE, "--sparsified", KARATE, "--metric", "spsp",
         "--spsp-pairs", "0"],
        ["h-sweep", "--dataset", KARATE, "--checkpoint", "c.npz", "--ratio", "0.5",
         "--seeds", "0"],
        ["spanner-compare", "--dataset", KARATE, "--checkpoint", "c.npz", "--runs", "-2"],
        ["compare", "--config", "c.yaml", "--workers", "0"],
        ["sparsify", "--dataset", KARATE, "--method", "random_edge", "--ratio", "0.5",
         "--eval-subgraph-len", "0", "--out", "o.txt"],
        ["spanner-compare", "--dataset", KARATE, "--checkpoint", "c.npz",
         "--eval-subgraph-len", "0"],
        ["h-sweep", "--dataset", KARATE, "--checkpoint", "c.npz", "--ratio", "0.5",
         "--subgraph-lens", "8", "0"],
    ], ids=["spsp-pairs", "seeds", "runs", "workers", "sparsify-eval-subgraph-len",
            "spanner-eval-subgraph-len", "subgraph-lens"])
    def test_nonpositive_count_is_usage(self, argv, capsys):
        assert cli.main(argv) == cli.EXIT_USAGE
        assert "must be a positive integer" in capsys.readouterr().err

    def test_bad_ratio_is_runtime_error(self, tmp_path):
        rc = cli.main(["sparsify", "--dataset", KARATE, "--method",
                       "random_edge", "--ratio", "2.0",
                       "--out", str(tmp_path / "o.txt")])
        assert rc == cli.EXIT_RUNTIME


def eval_config(**evaluation):
    """Config text for karate with the given evaluation section."""
    return yaml.safe_dump({"schema_version": 1, "dataset": KARATE, "evaluation": evaluation})


def bad_input(tmp_path, name, content, checkpoint):
    """Write `content` to tmp_path / name: text, or a writer that is given the
    path and a trained checkpoint."""
    path = tmp_path / name
    if callable(content):
        content(path, checkpoint)
    else:
        path.write_text(content)
    return str(path)


def edited_checkpoint(edit):
    """A writer of a copy of the checkpoint, `edit` applied to its header and
    its dict of arrays."""
    def write(path, checkpoint):
        with np.load(checkpoint) as z:
            arrays = {k: z[k] for k in z.files}
        header = json.loads(bytes(arrays["__header__"]).decode())
        edit(header, arrays)
        arrays["__header__"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
    return write


def corrupted_checkpoint(path, checkpoint):
    """A copy of the checkpoint with one byte of an array's data flipped."""
    data = bytearray(Path(checkpoint).read_bytes())
    data[data.find(b"param_0_embeddings.npy") + 400] ^= 0xFF
    path.write_bytes(bytes(data))


SPARSIFY_BROKEN = ["sparsify", "--dataset", KARATE, "--method", "agent", "--checkpoint",
                   "{broken}", "--ratio", "0.5", "--out", "{out}"]


# each case: (files to write, argv, text the one-line message must contain)
DATA_ERRORS = {
    "malformed dataset line": (
        {"bad.txt": "0 1\nnot-an-edge\n"},
        ["sparsify", "--dataset", "{bad}", "--method", "random_edge",
         "--ratio", "0.5", "--out", "{out}"],
        "bad.txt:2: malformed edge-list line"),
    "empty edge list": (
        {"empty.txt": "# only comments\n"},
        ["sparsify", "--dataset", "{empty}", "--method", "random_edge",
         "--ratio", "0.5", "--out", "{out}"],
        "empty edge set"),
    "overlapping communities": (
        {"labels.txt": "0 1 2\n2 3\n"},
        ["evaluate", "--dataset", KARATE, "--sparsified", KARATE, "--metric",
         "community", "--labels", "{labels}"],
        "node id 2 appears in more than one community"),
    "non-integer community id": (
        {"labels.txt": "0 1\n2 x3\n"},
        ["evaluate", "--dataset", KARATE, "--sparsified", KARATE, "--metric",
         "community", "--labels", "{labels}"],
        "labels.txt:2: node id 'x3' is not an integer"),
    "checkpoint for another graph": (
        {"small.txt": "0 1\n1 2\n2 0\n"},
        ["sparsify", "--dataset", "{small}", "--method", "agent", "--checkpoint",
         "{checkpoint}", "--ratio", "0.5", "--out", "{out}"],
        "checkpoint shape (34, 8) != model shape (3, 8)"),
    "checkpoint model without emb_dim": (
        {"broken.npz": edited_checkpoint(lambda h, a: h["model"].pop("emb_dim"))},
        SPARSIFY_BROKEN,
        "broken.npz: not a prunerl checkpoint (model lacks emb_dim)"),
    "checkpoint agent_config with an unknown key": (
        {"broken.npz": edited_checkpoint(lambda h, a: h["extra"]["agent_config"].update(bogus=1))},
        SPARSIFY_BROKEN,
        "__init__() got an unexpected keyword argument 'bogus')"),
    "checkpoint agent_config with a value out of range": (
        {"broken.npz": edited_checkpoint(lambda h, a: h["extra"]["agent_config"].update(gamma=2.0))},
        SPARSIFY_BROKEN,
        "broken.npz: not a prunerl checkpoint (agent_config: gamma must be in (0, 1), got 2.0)"),
    "checkpoint optimizer state without its header": (
        {"broken.npz": edited_checkpoint(lambda h, a: h.pop("optimizer"))},
        SPARSIFY_BROKEN,
        "broken.npz: not a prunerl checkpoint (optimizer lacks step_count)"),
    "checkpoint without one optimizer moment": (
        {"broken.npz": edited_checkpoint(lambda h, a: a.pop("opt_m_3"))},
        SPARSIFY_BROKEN,
        "broken.npz: not a prunerl checkpoint (checkpoint lacks opt_m_3)"),
    "checkpoint agent_state without update_steps": (
        {"broken.npz": edited_checkpoint(lambda h, a: h["agent_state"].pop("update_steps"))},
        SPARSIFY_BROKEN,
        "broken.npz: not a prunerl checkpoint (agent_state lacks update_steps)"),
    "checkpoint Adam moment of the wrong shape": (
        {"broken.npz": edited_checkpoint(lambda h, a: a.update(opt_m_3=np.zeros(2)))},
        SPARSIFY_BROKEN,
        "broken.npz: checkpoint shape (2,) != model shape (1,) for opt_m_3"),
    "checkpoint parameter with an inf": (
        {"broken.npz": edited_checkpoint(lambda h, a: np.put(a["param_1_gat_proj.W"], 0, np.inf))},
        SPARSIFY_BROKEN,
        "broken.npz: checkpoint array param_1_gat_proj.W is not finite float64"),
    "checkpoint target parameter with a NaN": (
        {"broken.npz": edited_checkpoint(
            lambda h, a: np.put(a["target_param_0_embeddings"], 5, np.nan))},
        SPARSIFY_BROKEN,
        "broken.npz: checkpoint array target_param_0_embeddings is not finite float64"),
    "checkpoint Adam second moment with a negative entry": (
        {"broken.npz": edited_checkpoint(lambda h, a: np.put(a["opt_v_0"], 3, -1e-9))},
        SPARSIFY_BROKEN,
        "broken.npz: checkpoint array opt_v_0 has a negative entry"),
    "checkpoint with a negative Adam step count": (
        {"broken.npz": edited_checkpoint(lambda h, a: h["optimizer"].update(step_count=-5))},
        SPARSIFY_BROKEN,
        "broken.npz: checkpoint optimizer.step_count must be a non-negative integer, got -5"),
    "checkpoint with a damaged array": (
        {"broken.npz": corrupted_checkpoint},
        SPARSIFY_BROKEN,
        "broken.npz: not a prunerl checkpoint (Bad CRC-32 for file 'param_0_embeddings.npy')"),
    "checkpoint without target arrays": (
        {"broken.npz": edited_checkpoint(
            lambda h, a: [a.pop(k) for k in list(a) if k.startswith("target_")])},
        SPARSIFY_BROKEN,
        "broken.npz: not a prunerl checkpoint (checkpoint lacks target_param_0_embeddings)"),
    "malformed YAML config": (
        {"config.yaml": "schema_version: 1\ndataset: [unclosed\n"},
        ["compare", "--config", "{config}", "--out", "{out}"],
        "config.yaml: not valid YAML"),
    "zero louvain_runs in config": (
        {"config.yaml": eval_config(louvain_runs=0)},
        ["compare", "--config", "{config}", "--out", "{out}"],
        "evaluation louvain_runs must be >= 1, got 0"),
    "zero spsp_pairs in config": (
        {"config.yaml": eval_config(spsp_pairs=0)},
        ["compare", "--config", "{config}", "--out", "{out}"],
        "evaluation spsp_pairs must be >= 1, got 0"),
    "negative eval_subgraph_len in config": (
        {"config.yaml": eval_config(eval_subgraph_len=-1)},
        ["compare", "--config", "{config}", "--out", "{out}"],
        "evaluation eval_subgraph_len must be >= 1, got -1"),
    "sparsified line with no dataset edge": (
        {"sparse.txt": "0 1\n2 30\n"},
        ["evaluate", "--dataset", KARATE, "--sparsified", "{sparse}", "--metric", "pagerank"],
        "sparse.txt:2: edge (2, 30) is not in the dataset"),
    "sparsified line of three tokens": (
        {"sparse.txt": "0 1\n0 2 7\n"},
        ["evaluate", "--dataset", KARATE, "--sparsified", "{sparse}", "--metric", "pagerank"],
        "sparse.txt:2: malformed edge-list line: '0 2 7'"),
    "sparsified line with a non-integer token": (
        {"sparse.txt": "0 1\n2 x3\n"},
        ["evaluate", "--dataset", KARATE, "--sparsified", "{sparse}", "--metric", "pagerank"],
        "sparse.txt:2: malformed edge-list line: '2 x3'"),
}


@pytest.mark.parametrize("case", sorted(DATA_ERRORS))
def test_data_errors_exit_2_with_one_line(case, trained, tmp_path, capsys):
    files, argv, message = DATA_ERRORS[case]
    paths = {Path(name).stem: bad_input(tmp_path, name, content, trained["checkpoint"])
             for name, content in files.items()}
    paths.update(out=str(tmp_path / "out"), checkpoint=str(trained["checkpoint"]))
    rc = cli.main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_DATA, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


# each case: (sparsified file, --directed, kept edge count or the message naming
# the file's first line that is no dataset edge); karate lists (0, 1), not (1, 0)
LISTED_FILES = {
    "node id absent from the dataset": (
        "0 1\n5 99\n7 98\n", False, "sparse.txt:2: edge (5, 99) is not in the dataset"),
    "reversed pair, undirected": ("1 0\n2 0\n", False, 2),
    "reversed pair, directed": (
        "0 1\n1 0\n", True, "sparse.txt:2: edge (1, 0) is not in the dataset"),
    "line listed twice": ("0 1\n0 2\n0 1\n", False, 2),
    "line listed twice, directed": ("0 2\n0 2\n", True, 1),
    "pair listed both ways, undirected": ("0 1\n1 0\n", False, 1),
}


@pytest.mark.parametrize("case", sorted(LISTED_FILES))
def test_evaluate_resolves_each_listed_line(case, tmp_path, capsys):
    text, directed, want = LISTED_FILES[case]
    sparse, out = tmp_path / "sparse.txt", tmp_path / "eval.csv"
    sparse.write_text(text)
    rc = cli.main(["evaluate", "--dataset", KARATE, "--sparsified", str(sparse),
                   "--metric", "pagerank", "--out", str(out)] + ["--directed"] * directed)
    err = capsys.readouterr().err
    if isinstance(want, str):
        assert rc == cli.EXIT_DATA
        assert err.count("\n") == 1 and want in err
    else:
        assert rc == cli.EXIT_OK, err
        assert float(read_csv(out)[0]["edge_kept_ratio"]) == want / 78


class TestCompare:
    def test_grid_and_aggregation(self, tmp_path):
        config = write_config(tmp_path / "config.yaml")
        out_dir = tmp_path / "cmp"
        rc = cli.main(["compare", "--config", str(config), "--out",
                       str(out_dir), "--workers", "2"])
        assert rc == cli.EXIT_OK
        cells = read_csv(out_dir / "compare_cells.csv")
        table = read_csv(out_dir / "compare_table.csv")
        # 4 baseline methods x 1 ratio x 2 seeds
        assert len(cells) == 8
        assert len(table) == 4
        assert all(c["error"] == "" for c in cells)
        for row in table:
            per_seed = [float(c["value"]) for c in cells
                        if c["method"] == row["method"]]
            assert float(row["mean"]) == pytest.approx(
                sum(per_seed) / len(per_seed))
            assert int(row["n_seeds"]) == 2
        assert sum(int(r["best"]) for r in table) == 1

    def test_cells_report_achieved_edges(self, tmp_path):
        config = write_config(tmp_path / "config.yaml",
                              evaluation={"ratios": [0.4], "seeds": 1})
        rc = cli.main(["compare", "--config", str(config), "--out", str(tmp_path / "cmp")])
        assert rc == cli.EXIT_OK
        achieved = {c["method"]: int(c["achieved_edges"])
                    for c in read_csv(tmp_path / "cmp" / "compare_cells.csv")}
        # round(0.4 * 78) = 31 requested; no L-Spar exponent lands near it
        assert achieved == {"random_edge": 31, "local_degree": 32,
                            "edge_forest_fire": 31, "l_spar": 27}

    def test_agent_column_with_checkpoint(self, trained, tmp_path):
        def run(workers):
            out_dir = tmp_path / f"cmp{workers}"
            rc = cli.main(["compare", "--config", str(trained["config"]),
                           "--checkpoint", str(trained["checkpoint"]),
                           "--out", str(out_dir), "--workers", str(workers)])
            assert rc == cli.EXIT_OK
            return out_dir

        out_dir = run(2)
        table = read_csv(out_dir / "compare_table.csv")
        assert {r["method"] for r in table} == {
            "random_edge", "local_degree", "edge_forest_fire", "l_spar",
            "agent"}
        cells = read_csv(out_dir / "compare_cells.csv")
        assert all(c["error"] == "" for c in cells)
        assert cells == read_csv(run(1) / "compare_cells.csv")

    @pytest.mark.parametrize("content", [
        None, "not a checkpoint",
        pytest.param({"param_0_embeddings": np.zeros((34, 4))}, id="npz without header"),
        pytest.param({"__header__": np.frombuffer(b"{model: 1", dtype=np.uint8)},
                     id="header not JSON"),
        pytest.param({"__header__": np.frombuffer(b"[1, 2]", dtype=np.uint8)},
                     id="header not an object"),
        pytest.param({"__header__": np.frombuffer(b'{"format_version": 1}', dtype=np.uint8)},
                     id="header without model"),
        pytest.param({"param_0_embeddings": np.zeros((34, 4)), "__header__": np.frombuffer(
            json.dumps({"format_version": 1, "extra": {}, "agent_state": {}, "model": {
                "node_count": 34, "directed": False, "emb_dim": 4, "hidden_dim": 8}}).encode(),
            dtype=np.uint8)}, id="model without agent config"),
    ])
    def test_missing_checkpoint_is_data_error(self, content, tmp_path, capsys):
        config = write_config(tmp_path / "config.yaml")
        checkpoint = tmp_path / "checkpoint.npz"
        if isinstance(content, str):
            checkpoint.write_text(content)
        elif content is not None:
            np.savez(checkpoint, **content)
        out_dir = tmp_path / "cmp"
        rc = cli.main(["compare", "--config", str(config), "--checkpoint",
                       str(checkpoint), "--out", str(out_dir)])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        if content is not None:
            assert err.startswith(f"error: {checkpoint}: not a prunerl checkpoint (")
            assert "pickle" not in err
        assert not (out_dir / "compare_cells.csv").exists()


# Values recorded before the objectives were folded into one class each:
# per objective, the compare cells (method -> value at seeds 0 and 1) and the
# mean_reward column of a 3-episode training run.
GOLDEN = {
    "pagerank": (
        {"random_edge": [0.6589350982209826, 0.8542323982166559],
         "local_degree": [0.6814470367844531, 0.6814470367844531],
         "edge_forest_fire": [0.6170954013241797, 0.3713792592384574],
         "l_spar": [0.7682515698865025, 0.7682515698865025]},
        [-0.3989045075627469, -0.10983793436393866, -0.02736685551780535],
    ),
    "community": (
        {"random_edge": [0.09294624130698753, 0.346678398592169],
         "local_degree": [0.4176257809930944, 0.6403661726242371],
         "edge_forest_fire": [0.2403348386386166, 0.18061964403427816],
         "l_spar": [0.3922385441789082, 0.3922385441789082]},
        [0.6707055115287673, -0.3613839641511167, 0.558762431421466],
    ),
    "spsp": (
        {"random_edge": [15.28125, 2.828125],
         "local_degree": [0.21875, 0.21875],
         "edge_forest_fire": [3.28125, 4.5625],
         "l_spar": [9.671875, 10.71875]},
        [-3.8333333333333335, -6.4375, -3.671875],
    ),
    "modularity": (
        {"random_edge": [0.4513477975016436, 0.4921104536489152],
         "local_degree": [0.45036160420775806, 0.4474030243261013],
         "edge_forest_fire": [0.5029585798816568, 0.5601577909270217],
         "l_spar": [0.6307189542483661, 0.6307189542483661]},
        [0.09119035722112656, 0.11391038651516078, 0.21892008849102704],
    ),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_objective_numbers_are_unchanged(kind, tmp_path):
    objective = {"kind": kind}
    if kind == "community":
        objective["labels_path"] = KARATE_LABELS
    config = write_config(tmp_path / "config.yaml", objective=objective,
                          train={"episodes": 3, "checkpoint_every": 3})
    cells, rewards = GOLDEN[kind]

    rc = cli.main(["compare", "--config", str(config), "--out", str(tmp_path / "cmp")])
    assert rc == cli.EXIT_OK
    got = {}
    for c in read_csv(tmp_path / "cmp" / "compare_cells.csv"):
        assert c["metric"] == kind and c["error"] == ""
        got.setdefault(c["method"], []).append(float(c["value"]))
    assert got.keys() == cells.keys()
    for method, values in cells.items():
        assert got[method] == pytest.approx(values, rel=1e-12)

    rc = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    assert rc == cli.EXIT_OK
    log = read_csv(tmp_path / "run" / "training_log.csv")
    assert [float(r["mean_reward"]) for r in log] == pytest.approx(rewards, rel=1e-12)


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_evaluate_of_a_sparsified_file_equals_its_compare_cell(kind, trained, tmp_path):
    # a score depends on the kept edges alone, not on the order a method
    # pruned them in, so the file sparsify writes scores as compare's cell.
    # Only the community objective reads the labels; evaluate takes no
    # Louvain run count and averages the default 8.
    config = write_config(tmp_path / "config.yaml",
                          objective={"kind": kind, "labels_path": KARATE_LABELS},
                          evaluation={"ratios": [0.5], "seeds": 3, "spsp_pairs": 64,
                                      "louvain_runs": 8, "eval_subgraph_len": 8})
    rc = cli.main(["compare", "--config", str(config), "--checkpoint",
                   str(trained["checkpoint"]), "--out", str(tmp_path / "cmp")])
    assert rc == cli.EXIT_OK
    cells = read_csv(tmp_path / "cmp" / "compare_cells.csv")
    assert {(c["method"], c["seed"]) for c in cells} == {
        (m, str(s)) for m in cli.BASELINE_METHODS + ("agent",) for s in range(3)}
    sparse, scored = tmp_path / "sparse.txt", tmp_path / "eval.csv"
    for c in cells:
        rc = cli.main(["sparsify", "--dataset", KARATE, "--method", c["method"],
                       "--ratio", "0.5", "--seed", c["seed"], "--checkpoint",
                       str(trained["checkpoint"]), "--eval-subgraph-len", "8",
                       "--out", str(sparse)])
        assert rc == cli.EXIT_OK
        rc = cli.main(["evaluate", "--dataset", KARATE, "--sparsified", str(sparse),
                       "--metric", kind, "--labels", KARATE_LABELS, "--seed", c["seed"],
                       "--spsp-pairs", "64", "--out", str(scored)])
        assert rc == cli.EXIT_OK
        assert float(read_csv(scored)[0]["value"]) == float(c["value"]), c


class TestSpannerCompare:
    def test_row_schema(self, trained, tmp_path):
        out = tmp_path / "spanner.csv"
        rc = cli.main(["spanner-compare", "--dataset", KARATE,
                       "--checkpoint", str(trained["checkpoint"]),
                       "--stretch", "3", "--runs", "2", "--spsp-pairs", "32",
                       "--eval-subgraph-len", "8", "--out", str(out)])
        assert rc == cli.EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 1
        row = rows[0]
        assert int(row["t"]) == 3
        assert 0.0 < float(row["mean_ratio"]) <= 1.0
        assert float(row["spanner_rspsp"]) >= 0.0
        assert float(row["agent_rspsp"]) >= 0.0


class TestHSweep:
    def test_series_and_timing(self, trained, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["h-sweep", "--dataset", KARATE, "--checkpoint",
                       str(trained["checkpoint"]), "--ratio", "0.5",
                       "--metric", "pagerank", "--subgraph-lens", "8", "16",
                       "--seeds", "2", "--out", str(out)])
        assert rc == cli.EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 4
        assert {r["subgraph_len"] for r in rows} == {"8", "16"}
        assert all(float(r["wall_time_s"]) > 0.0 for r in rows)
        assert all(-1.0 <= float(r["value"]) <= 1.0 for r in rows)
