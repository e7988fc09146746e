import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from prunerl import baselines, cli
from prunerl.agent import Agent
from prunerl.errors import PruneRLError
from prunerl.graph import Graph, load_edge_list, read_text
from prunerl.rewards import OBJECTIVES

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

    def test_resume_keeps_the_log_of_the_checkpointed_episodes(self, tmp_path):
        """A resumed run appends its rows to the log. Rows logged after the
        checkpoint it resumes from, by a run that stopped before saving
        again, are dropped."""
        config = write_config(tmp_path / "config.yaml",
                              train={"episodes": 3, "checkpoint_every": 0})
        run = tmp_path / "run"
        log, ckpt = run / "training_log.csv", run / "checkpoint.npz"
        argv = ["train", "--config", str(config), "--out", str(run)]
        assert cli.main(argv) == cli.EXIT_OK
        first, after_three = log.read_bytes(), ckpt.read_bytes()
        for _ in range(2):  # the second time, from the 3-episode checkpoint under a 6-row log
            assert cli.main(argv + ["--resume"]) == cli.EXIT_OK
            assert log.read_bytes().startswith(first)
            assert [row["episode"] for row in read_csv(log)] == ["1", "2", "3", "4", "5", "6"]
            ckpt.write_bytes(after_three)

    def test_resume_draws_new_episodes_from_the_checkpoint_alone(self, tmp_path, monkeypatch):
        """A resumed run's exploration stream starts past the draws of the
        episodes its checkpoint holds, so episodes 4-6 pre-prune other edge
        counts than episodes 1-3. Two resumes of copies of a run write the
        same log and checkpoint."""
        pre_pruned, real = [], Graph.random_prune
        monkeypatch.setattr(Graph, "random_prune",
                            lambda g, count, rng: pre_pruned.append(count) or real(g, count, rng))
        config = write_config(tmp_path / "config.yaml",
                              train={"episodes": 3, "checkpoint_every": 0})
        runs = [tmp_path / "run", tmp_path / "copy"]
        argv = ["train", "--config", str(config), "--out"]
        assert cli.main(argv + [str(runs[0])]) == cli.EXIT_OK
        shutil.copytree(runs[0], runs[1])
        first = pre_pruned.copy()
        for run in runs:
            pre_pruned.clear()
            assert cli.main(argv + [str(run), "--resume"]) == cli.EXIT_OK
            assert len(pre_pruned) == 3 and pre_pruned != first
        for name in ("training_log.csv", "checkpoint.npz"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


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

    def test_runtime_failure_exits_3_with_one_line(self, trained, tmp_path, capsys,
                                                   monkeypatch):
        def fail(*args):
            raise PruneRLError("no live candidate")

        monkeypatch.setattr(Agent, "sparsify", fail)
        rc = cli.main(["sparsify", "--dataset", KARATE, "--method", "agent", "--checkpoint",
                       str(trained["checkpoint"]), "--ratio", "0.5",
                       "--out", str(tmp_path / "o.txt")])
        assert rc == cli.EXIT_RUNTIME
        assert capsys.readouterr().err == "error: no live candidate\n"

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
        ["spanner-compare", "--dataset", KARATE, "--checkpoint", "c.npz", "--stretch", "0"],
        ["spanner-compare", "--dataset", KARATE, "--checkpoint", "c.npz", "--stretch", "3", "-3"],
    ], ids=["spsp-pairs", "seeds", "runs", "workers", "sparsify-eval-subgraph-len",
            "spanner-eval-subgraph-len", "subgraph-lens", "stretch-0", "stretch-negative"])
    def test_nonpositive_count_is_usage(self, argv, capsys):
        assert cli.main(argv) == cli.EXIT_USAGE
        assert_one_usage_error(capsys.readouterr().err, "must be an integer >= 1, got ")

    @pytest.mark.parametrize("command", [
        ["sparsify", "--dataset", KARATE, "--method", "random_edge", "--out", "o.txt"],
        ["h-sweep", "--dataset", KARATE, "--checkpoint", "c.npz"],
    ], ids=["sparsify", "h-sweep"])
    @pytest.mark.parametrize("ratio", ["2.0", "0", "-0.5", "nan", "abc"])
    def test_bad_ratio_is_usage(self, command, ratio, capsys):
        assert cli.main(command + ["--ratio", ratio]) == cli.EXIT_USAGE
        assert_one_usage_error(capsys.readouterr().err,
                               f"argument --ratio: must be in (0, 1], got {ratio}")

    @pytest.mark.parametrize("argv", [
        ["train", "--config", "c.yaml"],
        ["sparsify", "--dataset", KARATE, "--method", "random_edge", "--ratio", "0.5",
         "--out", "o.txt"],
        ["evaluate", "--dataset", KARATE, "--sparsified", KARATE, "--metric", "pagerank"],
        ["spanner-compare", "--dataset", KARATE, "--checkpoint", "c.npz"],
    ], ids=["train", "sparsify", "evaluate", "spanner-compare"])
    @pytest.mark.parametrize("seed", ["-1", "1.5", "abc"])
    def test_bad_seed_is_usage(self, argv, seed, capsys):
        assert cli.main(argv + ["--seed", seed]) == cli.EXIT_USAGE
        assert_one_usage_error(capsys.readouterr().err,
                               f"argument --seed: must be an integer >= 0, got {seed}")


def assert_one_usage_error(err, message):
    """argparse's usage text, then one error line that holds `message`."""
    assert err.startswith("usage: ") and "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0], err


def karate_config(**values):
    """Config text for karate with the given top-level values."""
    return yaml.safe_dump({"schema_version": 1, "dataset": KARATE, **values})


def section_config(section, **values):
    """Config text for karate with the given values in one section."""
    return karate_config(**{section: values})


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


def directory(path, checkpoint):
    path.mkdir()


def checkpoint_directory(path, checkpoint):
    """A train output directory whose checkpoint.npz is a directory."""
    (path / "checkpoint.npz").mkdir(parents=True)


def not_utf8(path, checkpoint):
    path.write_bytes(b"0 1\n\xff 2\n")  # byte 4 starts no UTF-8 character


TRAIN = ["train", "--config", "{config}", "--out", "{out}"]
SPARSIFY_BROKEN = ["sparsify", "--dataset", KARATE, "--method", "agent", "--checkpoint",
                   "{broken}", "--ratio", "0.5", "--out", "{out}"]


def sparsify(dataset="{dataset}", out="{out}"):
    return ["sparsify", "--dataset", dataset, "--method", "random_edge", "--ratio", "0.5",
            "--out", out]


def evaluate(sparsified=KARATE, labels=KARATE_LABELS, out="{out}"):
    return ["evaluate", "--dataset", KARATE, "--sparsified", sparsified, "--metric", "community",
            "--labels", labels, "--out", out]


SMALL_GRID = section_config("evaluation", ratios=[0.5], seeds=1, louvain_runs=1)
NOT_UTF8 = "{}: not UTF-8 text (invalid start byte at byte 4)"


# each case: (files to write, argv, text the one-line message must contain)
DATA_ERRORS = {
    "agent method without a checkpoint": (
        {}, ["sparsify", "--dataset", KARATE, "--method", "agent", "--ratio", "0.5",
             "--out", "{out}"],
        "method 'agent' requires a checkpoint"),
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
    "community id listed twice on one line": (
        {"labels.txt": "0 1 2 0\n3 4\n"},
        ["evaluate", "--dataset", KARATE, "--sparsified", KARATE, "--metric",
         "community", "--labels", "{labels}"],
        "labels.txt:1: node id 0 is listed twice on this line"),
    "non-integer community id": (
        {"labels.txt": "0 1\n2 x3\n"},
        ["evaluate", "--dataset", KARATE, "--sparsified", KARATE, "--metric",
         "community", "--labels", "{labels}"],
        "labels.txt:2: node id 'x3' is not an integer"),
    "community file that lists no node": (
        {"labels.txt": "# no communities\n\n"},
        ["evaluate", "--dataset", KARATE, "--sparsified", KARATE, "--metric",
         "community", "--labels", "{labels}"],
        "labels missing for 34 nodes (e.g. 0)"),
    "community file without one node": (
        {"tri.txt": "10 20\n20 30\n30 10\n", "labels.txt": "10 20\n"},
        ["evaluate", "--dataset", "{tri}", "--sparsified", "{tri}", "--metric",
         "community", "--labels", "{labels}"],
        "labels missing for 1 nodes (e.g. 30)"),
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
        "broken.npz: not a prunerl checkpoint (agent_config: unknown key(s): ['bogus'])"),
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
    "config that is a list": (
        {"config.yaml": "- schema_version: 1\n"}, TRAIN, "config.yaml: config must be a mapping"),
    "config without a schema_version": (
        {"config.yaml": yaml.safe_dump({"dataset": KARATE})}, TRAIN,
        "config.yaml: schema_version must be 1, got None"),
    "config with schema_version 2": (
        {"config.yaml": yaml.safe_dump({"schema_version": 2, "dataset": KARATE})}, TRAIN,
        "config.yaml: schema_version must be 1, got 2"),
    "malformed YAML config": (
        {"config.yaml": "schema_version: 1\ndataset: [unclosed\n"},
        ["compare", "--config", "{config}", "--out", "{out}"],
        "config.yaml: not valid YAML"),
    "zero louvain_runs in config": (
        {"config.yaml": section_config("evaluation", louvain_runs=0)},
        ["compare", "--config", "{config}", "--out", "{out}"],
        "evaluation: louvain_runs must be an integer >= 1, got 0"),
    "zero spsp_pairs in config": (
        {"config.yaml": section_config("evaluation", spsp_pairs=0)},
        ["compare", "--config", "{config}", "--out", "{out}"],
        "evaluation: spsp_pairs must be an integer >= 1, got 0"),
    "negative eval_subgraph_len in config": (
        {"config.yaml": section_config("evaluation", eval_subgraph_len=-1)},
        ["compare", "--config", "{config}", "--out", "{out}"],
        "evaluation: eval_subgraph_len must be an integer >= 1, got -1"),
    "zero batch_size in config": (
        {"config.yaml": section_config("agent", batch_size=0)},
        TRAIN,
        "batch_size must be an integer >= 1, got 0"),
    "zero emb_dim in config": (
        {"config.yaml": section_config("agent", emb_dim=0)},
        TRAIN,
        "emb_dim must be an integer >= 1, got 0"),
    "zero t_max in config": (
        {"config.yaml": section_config("agent", t_max=0)},
        TRAIN,
        "t_max must be an integer >= 1, got 0"),
    "zero train_subgraph_len in config": (
        {"config.yaml": section_config("agent", train_subgraph_len=0)},
        TRAIN,
        "train_subgraph_len must be an integer >= 1, got 0"),
    "zero buffer_capacity in config": (
        {"config.yaml": section_config("agent", buffer_capacity=0)},
        TRAIN,
        "buffer_capacity must be an integer >= 1, got 0"),
    "non-number lr in config": (
        {"config.yaml": section_config("agent", lr="abc")},
        TRAIN,
        "lr must be a finite number, got 'abc'"),
    "gamma above 1 in config": (
        {"config.yaml": section_config("agent", gamma=1.5)},
        TRAIN,
        "gamma must be in (0, 1), got 1.5"),
    "non-number episodes in config": (
        {"config.yaml": section_config("train", episodes="ten")},
        TRAIN,
        "train: episodes must be an integer >= 1, got 'ten'"),
    "negative episodes in config": (
        {"config.yaml": section_config("train", episodes=-3)},
        TRAIN,
        "episodes must be an integer >= 1, got -3"),
    "negative checkpoint_every in config": (
        {"config.yaml": section_config("train", checkpoint_every=-1)},
        TRAIN,
        "checkpoint_every must be an integer >= 0, got -1"),
    "non-number seed in config": (
        {"config.yaml": karate_config(seed="abc")},
        TRAIN,
        "config.yaml: seed must be an integer >= 0, got 'abc'"),
    "negative seed in config": (
        {"config.yaml": karate_config(seed=-1)},
        TRAIN,
        "config.yaml: seed must be an integer >= 0, got -1"),
    "fractional seed in config": (
        {"config.yaml": karate_config(seed=1.5)},
        TRAIN,
        "config.yaml: seed must be an integer >= 0, got 1.5"),
    "fractional agent seed in config": (
        {"config.yaml": section_config("agent", seed=1.5)},
        TRAIN,
        "config.yaml: agent: seed must be an integer >= 0, got 1.5"),
    "negative agent seed in config": (
        {"config.yaml": section_config("agent", seed=-4)},
        TRAIN,
        "config.yaml: agent: seed must be an integer >= 0, got -4"),
    "integer dataset in config": (
        {"config.yaml": karate_config(dataset=5)},
        TRAIN,
        "config.yaml: dataset must be a non-empty path string, got 5"),
    "config without a dataset": (
        {"config.yaml": "schema_version: 1\n"},
        TRAIN,
        "config.yaml: dataset must be a non-empty path string, got None"),
    "integer labels_path in config": (
        {"config.yaml": section_config("objective", labels_path=7)},
        TRAIN,
        "config.yaml: objective: labels_path must be a non-empty path string or none, got 7"),
    "non-boolean directed in config": (
        {"config.yaml": karate_config(directed="maybe")},
        TRAIN,
        "config.yaml: directed must be true or false, got 'maybe'"),
    "zero pairs_per_endpoint in config": (
        {"config.yaml": section_config("objective", kind="spsp", pairs_per_endpoint=0)},
        TRAIN,
        "config.yaml: objective: pairs_per_endpoint must be an integer >= 1, got 0"),
    "non-number label_sign in config": (
        {"config.yaml": section_config("objective", label_sign="abc")},
        TRAIN,
        "config.yaml: objective: label_sign must be a finite number, got 'abc'"),
    "unknown objective kind in config": (
        {"config.yaml": section_config("objective", kind="pagerankk")},
        TRAIN,
        "config.yaml: objective: kind must be one of ['pagerank', 'community', 'spsp', "
        "'modularity'], got 'pagerankk'"),
    "unknown key in a config section": (
        {"config.yaml": section_config("train", episode=3)},
        TRAIN,
        "config.yaml: train: unknown key(s): ['episode']"),
    "config section that is not a mapping": (
        {"config.yaml": karate_config(agent=5)},
        TRAIN,
        "config.yaml: agent: must be a mapping, got 5"),
    "non-number evaluation seeds in config": (
        {"config.yaml": section_config("evaluation", seeds="ten")},
        ["compare", "--config", "{config}", "--out", "{out}"],
        "config.yaml: evaluation: seeds must be an integer >= 1, got 'ten'"),
    "single ratio in config": (
        {"config.yaml": section_config("evaluation", ratios=0.5)},
        ["compare", "--config", "{config}", "--out", "{out}"],
        "config.yaml: evaluation: ratios must be a non-empty list of ratios in (0, 1], got 0.5"),
    "non-number ratio in config": (
        {"config.yaml": section_config("evaluation", ratios=["abc"])},
        ["compare", "--config", "{config}", "--out", "{out}"],
        "evaluation: ratios must be a non-empty list of ratios in (0, 1], got ['abc']"),
    "empty ratio list in config": (
        {"config.yaml": section_config("evaluation", ratios=[])},
        ["compare", "--config", "{config}", "--out", "{out}"],
        "evaluation: ratios must be a non-empty list of ratios in (0, 1], got []"),
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
    "community id the dataset lacks": (
        {"labels.txt": "0 1\n2 99\n"}, evaluate(labels="{labels}"),
        "labels.txt:2: node id 99 is not in the dataset"),
    "community id in two communities, after a comment and a blank line": (
        {"labels.txt": "0 1\n# comment\n\n1 2\n"}, evaluate(labels="{labels}"),
        "labels.txt:4: node id 1 appears in more than one community"),
    "checkpoint format_version true": (
        {"broken.npz": edited_checkpoint(lambda h, a: h.update(format_version=True))},
        SPARSIFY_BROKEN,
        "broken.npz: unsupported checkpoint version True"),
    "checkpoint format_version 1.0": (
        {"broken.npz": edited_checkpoint(lambda h, a: h.update(format_version=1.0))},
        SPARSIFY_BROKEN,
        "broken.npz: unsupported checkpoint version 1.0"),
    "checkpoint model node_count of another graph": (
        {"broken.npz": edited_checkpoint(lambda h, a: h["model"].update(node_count=999))},
        SPARSIFY_BROKEN,
        "broken.npz: checkpoint model.node_count is 999, but its agent has 34"),
    "checkpoint model emb_dim that is not a number": (
        {"broken.npz": edited_checkpoint(lambda h, a: h["model"].update(emb_dim="x"))},
        SPARSIFY_BROKEN,
        "broken.npz: checkpoint model.emb_dim is 'x', but its agent has 8"),
    "checkpoint model directed 0": (
        {"broken.npz": edited_checkpoint(lambda h, a: h["model"].update(directed=0))},
        SPARSIFY_BROKEN,
        "broken.npz: checkpoint model.directed is 0, but its agent has False"),
    # inputs that cannot be read as text, and outputs that cannot be written
    "directory as dataset": ({"dataset": directory}, sparsify(), "Is a directory: '{dataset}'"),
    "non-UTF-8 dataset": ({"dataset.txt": not_utf8}, sparsify(), NOT_UTF8.format("{dataset}")),
    "directory as sparsified list": (
        {"sparse": directory}, evaluate(sparsified="{sparse}"), "Is a directory: '{sparse}'"),
    "non-UTF-8 sparsified list": (
        {"sparse.txt": not_utf8}, evaluate(sparsified="{sparse}"), NOT_UTF8.format("{sparse}")),
    "directory as labels": (
        {"labels": directory}, evaluate(labels="{labels}"), "Is a directory: '{labels}'"),
    "non-UTF-8 labels": (
        {"labels.txt": not_utf8}, evaluate(labels="{labels}"), NOT_UTF8.format("{labels}")),
    "directory as train config": ({"config": directory}, TRAIN, "Is a directory: '{config}'"),
    "non-UTF-8 train config": ({"config.yaml": not_utf8}, TRAIN, NOT_UTF8.format("{config}")),
    "directory as train checkpoint": (
        {"config.yaml": karate_config(train={"episodes": 40}), "run": checkpoint_directory},
        ["train", "--config", "{config}", "--out", "{run}"],
        "Is a directory: '{run}/checkpoint.npz'"),
    "directory as compare config": (
        {"config": directory}, ["compare", "--config", "{config}", "--out", "{out}"],
        "Is a directory: '{config}'"),
    "non-UTF-8 compare config": (
        {"config.yaml": not_utf8}, ["compare", "--config", "{config}", "--out", "{out}"],
        NOT_UTF8.format("{config}")),
    "directory as checkpoint": (
        {"broken": directory}, SPARSIFY_BROKEN, "Is a directory: '{broken}'"),
    "directory as sparsify output": (
        {"taken": directory}, sparsify(dataset=KARATE, out="{taken}"), "Is a directory: '{taken}'"),
    "directory as evaluate output": (
        {"taken": directory}, evaluate(out="{taken}"), "Is a directory: '{taken}'"),
    "directory as spanner-compare output": (
        {"taken": directory},
        ["spanner-compare", "--dataset", KARATE, "--checkpoint", "{checkpoint}", "--runs", "2",
         "--spsp-pairs", "32", "--eval-subgraph-len", "8", "--out", "{taken}"],
        "Is a directory: '{taken}'"),
    "directory as h-sweep output": (
        {"taken": directory},
        ["h-sweep", "--dataset", KARATE, "--checkpoint", "{checkpoint}", "--ratio", "0.5",
         "--subgraph-lens", "8", "--seeds", "1", "--out", "{taken}"],
        "Is a directory: '{taken}'"),
    "file as compare output directory": (
        {"config.yaml": SMALL_GRID, "taken.txt": "x\n"},
        ["compare", "--config", "{config}", "--out", "{taken}"], "File exists: '{taken}'"),
}


@pytest.fixture
def work_calls(monkeypatch):
    """The names of the episode, sparsify and score calls made while a test runs."""
    calls = []

    def count(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **kw: calls.append(name) or real(*a, **kw))

    for name in (*baselines.AT_RATIO, "baswana_sen_spanner"):
        count(baselines, name)
    count(Agent, "run_episode")
    count(Agent, "sparsify")
    for cls in {base for cls in OBJECTIVES.values() for base in cls.__mro__}:
        if "evaluate" in vars(cls):
            count(cls, "evaluate")
    return calls


@pytest.mark.parametrize("case", sorted(DATA_ERRORS))
def test_data_errors_exit_2_with_one_line(case, trained, tmp_path, capsys, work_calls):
    files, argv, message = DATA_ERRORS[case]
    paths = {Path(name).stem: bad_input(tmp_path, name, content, trained["checkpoint"])
             for name, content in files.items()}
    paths.update(out=str(tmp_path / "out"), checkpoint=str(trained["checkpoint"]))
    rc = cli.main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_DATA, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message.format(**paths) in err
    # every input is read and every output opened before the first episode, sparsify or score
    assert work_calls == []
    assert not os.path.exists(paths["out"])


def test_work_calls_are_counted(work_calls, tmp_path):
    """The counter sees each call the CLI makes: `baselines.AT_RATIO` looks a
    baseline up on the module when called, as a wrapper set there needs."""
    assert cli.main(sparsify(dataset=KARATE, out=str(tmp_path / "o.txt"))) == cli.EXIT_OK
    assert cli.main(evaluate(sparsified=str(tmp_path / "o.txt"),
                             out=str(tmp_path / "o.csv"))) == cli.EXIT_OK
    config = write_config(tmp_path / "config.yaml", train={"episodes": 2, "checkpoint_every": 0})
    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == cli.EXIT_OK
    assert work_calls == ["random_edge", "evaluate", "run_episode", "run_episode"]


def test_outputs_are_utf8_under_the_c_locale(tmp_path):
    """Under the C locale, the UTF-8 bytes of "é" in a path argument reach the
    program undecoded; the sparsified header and the evaluate row hold them as
    backslash escapes, and the sparsified file reads back."""
    dataset = os.path.join(os.fsencode(tmp_path), "karaté.txt".encode())  # bytes, any locale
    with open(dataset, "wb") as f:
        f.write(Path(KARATE).read_bytes())
    sparse, scored = tmp_path / "sparse.txt", tmp_path / "eval.csv"
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for argv in (sparsify(dataset=dataset, out=str(sparse)),
                 ["evaluate", "--dataset", dataset, "--sparsified", str(sparse),
                  "--metric", "pagerank", "--out", str(scored)]):
        proc = subprocess.run([sys.executable, "-m", "prunerl.cli", *argv], env=env,
                              capture_output=True)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
    escaped = "karat\\udcc3\\udca9.txt"
    assert f"# dataset={tmp_path}/{escaped}\n" in read_text(sparse)
    assert load_edge_list(sparse).edge_count == 39
    assert read_csv(scored)[0]["dataset"].endswith(escaped)


@pytest.mark.skipif(os.geteuid() == 0, reason="root reads a file whatever its mode")
def test_unreadable_dataset_exits_2(tmp_path, capsys):
    dataset = tmp_path / "karate.txt"
    dataset.write_text("0 1\n1 2\n")
    dataset.chmod(0)
    rc = cli.main(sparsify(dataset=str(dataset), out=str(tmp_path / "out")))
    assert rc == cli.EXIT_DATA
    assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{dataset}'\n"


def triangle_config(path, checkpoint):
    """A config that trains episodes of up to 8 steps on a 3-edge triangle."""
    (path.parent / "tri.txt").write_text("0 1\n1 2\n2 0\n")
    path.write_text(karate_config(dataset=str(path.parent / "tri.txt"), agent={"t_max": 8}))


# each case: (files to write, argv, the whole message of the one error line)
RUNTIME_ERRORS = {
    "train on a graph with fewer edges than t_max": (
        {"config.yaml": triangle_config}, TRAIN,
        "graph too small for the configured episode length"),
    "modularity of a directed graph": (
        {}, ["evaluate", "--dataset", KARATE, "--sparsified", KARATE, "--metric", "modularity",
             "--directed"],
        "louvain requires an undirected graph"),
}


@pytest.mark.parametrize("case", sorted(RUNTIME_ERRORS))
def test_runtime_errors_exit_3_with_one_line(case, tmp_path, capsys):
    files, argv, message = RUNTIME_ERRORS[case]
    paths = {Path(name).stem: bad_input(tmp_path, name, content, None)
             for name, content in files.items()}
    paths.update(out=str(tmp_path / "out"))
    rc = cli.main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_RUNTIME, err
    assert err == f"error: {message}\n"


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

    def test_cells_of_undirected_only_methods_fail_on_a_directed_graph(self, tmp_path):
        # karate's edge list read as arcs from each line's first node to its second
        config = write_config(tmp_path / "config.yaml", directed=True)
        rc = cli.main(["compare", "--config", str(config), "--out", str(tmp_path / "cmp")])
        assert rc == cli.EXIT_OK
        for c in read_csv(tmp_path / "cmp" / "compare_cells.csv"):
            if c["method"] in ("local_degree", "l_spar"):
                assert c["error"] == f"{c['method']} is defined for undirected graphs"
                assert c["value"] == "nan" and c["achieved_edges"] == ""
            else:
                assert c["error"] == "" and int(c["achieved_edges"]) == 39
        table = read_csv(tmp_path / "cmp" / "compare_table.csv")
        assert [r["method"] for r in table] == ["edge_forest_fire", "random_edge"]

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
# mean_reward column of a 3-episode training run. The random_edge cells and
# mean rewards follow `Graph.random_prune`'s draw; the other methods never call it.
GOLDEN = {
    "pagerank": (
        {"random_edge": [0.7238606634743567, 0.7292285019155784],
         "local_degree": [0.6814470367844531, 0.6814470367844531],
         "edge_forest_fire": [0.6170954013241797, 0.3713792592384574],
         "l_spar": [0.7682515698865025, 0.7682515698865025]},
        [-0.2137419378753176, -0.6958587768052282, -0.07644040327375243],
    ),
    "community": (
        {"random_edge": [0.25372311086596805, 0.22052368542209613],
         "local_degree": [0.4176257809930944, 0.6403661726242371],
         "edge_forest_fire": [0.2403348386386166, 0.18061964403427816],
         "l_spar": [0.3922385441789082, 0.3922385441789082]},
        [0.6339749133203941, 0.5431875739582623, 0.7003020177167607],
    ),
    "spsp": (
        {"random_edge": [11.0, 15.21875],
         "local_degree": [0.21875, 0.21875],
         "edge_forest_fire": [3.28125, 4.5625],
         "l_spar": [9.671875, 10.71875]},
        [-4.020833333333333, -0.46875, -0.171875],
    ),
    "modularity": (
        {"random_edge": [0.4194608809993424, 0.5059171597633135],
         "local_degree": [0.45036160420775806, 0.4474030243261013],
         "edge_forest_fire": [0.5029585798816568, 0.5601577909270217],
         "l_spar": [0.6307189542483661, 0.6307189542483661]},
        [0.17474761122068827, 0.05716035930852373, 0.06327730717671753],
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
    # Only the community objective reads the labels; evaluate averages its
    # default 8 Louvain runs, as this config does.
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


@pytest.mark.parametrize("kind", ["community", "modularity"])
def test_louvain_runs_reach_evaluate_and_h_sweep(kind, trained, tmp_path):
    """Under a config with louvain_runs 4, evaluate --louvain-runs 4 on the
    file sparsify wrote, and h-sweep --louvain-runs 4, score as compare's
    cells."""
    config = write_config(tmp_path / "config.yaml",
                          objective={"kind": kind, "labels_path": KARATE_LABELS},
                          evaluation={"ratios": [0.5], "seeds": 2, "spsp_pairs": 64,
                                      "louvain_runs": 4, "eval_subgraph_len": 8})
    checkpoint = str(trained["checkpoint"])
    rc = cli.main(["compare", "--config", str(config), "--checkpoint", checkpoint,
                   "--out", str(tmp_path / "cmp")])
    assert rc == cli.EXIT_OK
    cells = read_csv(tmp_path / "cmp" / "compare_cells.csv")
    sparse, scored = tmp_path / "sparse.txt", tmp_path / "eval.csv"
    for c in cells:
        rc = cli.main(["sparsify", "--dataset", KARATE, "--method", c["method"],
                       "--ratio", "0.5", "--seed", c["seed"], "--checkpoint", checkpoint,
                       "--eval-subgraph-len", "8", "--out", str(sparse)])
        assert rc == cli.EXIT_OK
        rc = cli.main(["evaluate", "--dataset", KARATE, "--sparsified", str(sparse),
                       "--metric", kind, "--labels", KARATE_LABELS, "--seed", c["seed"],
                       "--louvain-runs", "4", "--out", str(scored)])
        assert rc == cli.EXIT_OK
        assert float(read_csv(scored)[0]["value"]) == float(c["value"]), c
    rc = cli.main(["h-sweep", "--dataset", KARATE, "--checkpoint", checkpoint, "--ratio", "0.5",
                   "--metric", kind, "--labels", KARATE_LABELS, "--subgraph-lens", "8",
                   "--seeds", "2", "--louvain-runs", "4", "--out", str(tmp_path / "sweep.csv")])
    assert rc == cli.EXIT_OK
    agent_cells = [float(c["value"]) for c in cells if c["method"] == "agent"]
    assert [float(r["value"]) for r in read_csv(tmp_path / "sweep.csv")] == agent_cells


class TestSpannerCompare:
    def test_row_schema(self, trained, tmp_path):
        out = tmp_path / "spanner.csv"
        rc = cli.main(["spanner-compare", "--dataset", KARATE,
                       "--checkpoint", str(trained["checkpoint"]),
                       "--stretch", "3", "5", "7", "--runs", "2", "--spsp-pairs", "32",
                       "--eval-subgraph-len", "8", "--out", str(out)])
        assert rc == cli.EXIT_OK
        rows = read_csv(out)
        assert [int(row["t"]) for row in rows] == [3, 5, 7]
        for row in rows:
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
