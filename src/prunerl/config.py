"""Run configuration: a schema-versioned YAML file with strict key checking,
plus the named-stream rng discipline (one master seed split per subsystem so
changes in one subsystem do not perturb another's draws).
"""

from dataclasses import dataclass, field, asdict

import numpy as np
import yaml

from .agent import AgentConfig
from .errors import ConfigError
from .rewards import OBJECTIVES

SCHEMA_VERSION = 1

RNG_STREAMS = ("graph-sampling", "exploration", "replay", "louvain", "init", "evaluation")


def rng_streams(master_seed):
    """Named child generators derived from one master seed."""
    ss = np.random.SeedSequence(master_seed)
    children = ss.spawn(len(RNG_STREAMS))
    return {name: np.random.default_rng(child) for name, child in zip(RNG_STREAMS, children)}


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
    patience: int = 0  # 0 disables early stopping
    patience_window: int = 50
    checkpoint_every: int = 100


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
        if self.seeds < 1:
            raise ConfigError("seeds must be >= 1")


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

    def to_dict(self):
        d = asdict(self)
        d["schema_version"] = SCHEMA_VERSION
        return d

    def save(self, path):
        with open(path, "w") as f:
            yaml.safe_dump(self.to_dict(), f, sort_keys=True)


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
        data = yaml.safe_load(f)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    version = data.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    sections = {
        "objective": (ObjectiveConfig, data.pop("objective", {})),
        "agent": (AgentConfig, data.pop("agent", {})),
        "train": (TrainConfig, data.pop("train", {})),
        "evaluation": (EvalConfig, data.pop("evaluation", {})),
    }
    built = {name: _build(cls, section, name) for name, (cls, section) in sections.items()}
    top_fields = {f for f in RunConfig.__dataclass_fields__} - set(sections)
    unknown = set(data) - top_fields
    if unknown:
        raise ConfigError(f"{path}: unknown key(s): {sorted(unknown)}")
    if not data.get("dataset"):
        raise ConfigError(f"{path}: dataset is required")
    return RunConfig(**data, **built)
