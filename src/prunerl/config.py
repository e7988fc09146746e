"""Run configuration: a schema-versioned YAML file with strict key checking,
and the two rng streams training draws from one master seed: "init" for the
network weights, and "exploration" for everything else a run samples
(episode lengths, random pre-pruning, candidate subgraphs, epsilon-greedy
actions, replay batches and Louvain seeds).
"""

from dataclasses import dataclass, field

import numpy as np
import yaml

from .agent import AgentConfig, require_numbers
from .errors import ConfigError
from .rewards import OBJECTIVES

SCHEMA_VERSION = 1

# fixed spawn keys: changing one changes every seeded run's draws
RNG_STREAMS = {"exploration": 1, "init": 4}


def rng_streams(master_seed):
    """Named child generators derived from one master seed."""
    return {name: np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(key,)))
            for name, key in RNG_STREAMS.items()}


@dataclass
class ObjectiveConfig:
    kind: str = "modularity"  # a key of rewards.OBJECTIVES
    labels_path: str = None  # ground-truth labels, which the community objective needs
    label_sign: float = 1.0
    pairs_per_endpoint: int = 16  # spsp training pairs per pruned endpoint

    def __post_init__(self):
        if self.kind not in OBJECTIVES:
            raise ConfigError(f"unknown objective kind {self.kind!r}")


@dataclass
class TrainConfig:
    episodes: int = 500
    checkpoint_every: int = 100  # 0: write the checkpoint only at the end

    def __post_init__(self):
        require_numbers(self, {"episodes": 1, "checkpoint_every": 0})


@dataclass
class EvalConfig:
    ratios: list = field(default_factory=lambda: [0.2, 0.4, 0.6, 0.8])
    seeds: int = 8
    eval_subgraph_len: int = 32
    spsp_pairs: int = 8196
    louvain_runs: int = 8

    def __post_init__(self):
        for r in self.ratios:
            if not (0.0 < r <= 1.0):
                raise ConfigError(f"evaluation ratio must be in (0, 1], got {r}")
        for name in ("seeds", "eval_subgraph_len", "spsp_pairs", "louvain_runs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"evaluation {name} must be >= 1, got {getattr(self, name)}")


@dataclass
class RunConfig:
    dataset: str = None
    directed: bool = False
    seed: int = 0
    out_dir: str = "runs"
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)


def _build(cls, data, context):
    fields = {f for f in cls.__dataclass_fields__}
    unknown = set(data) - fields
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {sorted(unknown)}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"bad {context} section: {exc}") from None


def load_run_config(path):
    with open(path) as f:
        try:
            data = yaml.safe_load(f)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {' '.join(str(exc).split())}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    version = data.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    sections = {"objective": ObjectiveConfig, "agent": AgentConfig, "train": TrainConfig,
                "evaluation": EvalConfig}
    built = {name: _build(cls, data.pop(name, {}), name) for name, cls in sections.items()}
    top_fields = {f for f in RunConfig.__dataclass_fields__} - set(sections)
    unknown = set(data) - top_fields
    if unknown:
        raise ConfigError(f"{path}: unknown key(s): {sorted(unknown)}")
    if not data.get("dataset"):
        raise ConfigError(f"{path}: dataset is required")
    return RunConfig(**data, **built)
