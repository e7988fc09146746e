"""Run configuration: a schema-versioned YAML file with strict key checking,
and the two rng streams training draws from one master seed: "init" for the
network weights, and "exploration" for everything else a run samples
(episode lengths, random pre-pruning, candidate subgraphs, epsilon-greedy
actions, replay batches and Louvain seeds).

Every config value has one rule, stated beside its field: building a section
checks it, whether from YAML, a checkpoint header or Python, as do CLI flags.
"""

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from .errors import ConfigError
from .rewards import OBJECTIVES

SCHEMA_VERSION = 1

# fixed spawn keys: changing one changes every seeded run's draws
RNG_STREAMS = {"exploration": 1, "init": 4}


def rng_streams(master_seed):
    """Named child generators derived from one master seed."""
    return {name: np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(key,)))
            for name, key in RNG_STREAMS.items()}


# ok(value) says whether a value keeps the rule; text completes "<field> must be ..."
Rule = namedtuple("Rule", "text ok")


def _number(text, test):
    return Rule(text, lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool) and test(v))


def at_least(low):
    return _number(f"an integer >= {low}", lambda v: isinstance(v, numbers.Integral) and v >= low)


COUNT, SEED = at_least(1), at_least(0)
FINITE = _number("a finite number", math.isfinite)
UNIT = _number("in (0, 1)", lambda v: 0 < v < 1)
RATIO = _number("in (0, 1]", lambda v: 0 < v <= 1)
RATIOS = Rule("a non-empty list of ratios in (0, 1]",
              lambda v: isinstance(v, list) and len(v) > 0 and all(map(RATIO.ok, v)))
KIND = Rule(f"one of {list(OBJECTIVES)}", lambda v: isinstance(v, str) and v in OBJECTIVES)
BOOL = Rule("true or false", lambda v: isinstance(v, bool))
PATH = Rule("a non-empty path string", lambda v: isinstance(v, str) and v != "")
PATH_OR_NONE = Rule("a non-empty path string or none", lambda v: v is None or PATH.ok(v))


def ruled(rule, default):
    """A dataclass field held to `rule`; a list default is copied per instance."""
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata={"rule": rule})
    return field(default=default, metadata={"rule": rule})


def section(cls):
    """A field holding the config section `cls`, which `build` builds from a mapping."""
    rule = Rule(f"an instance of {cls.__name__}", lambda v: isinstance(v, cls))
    return field(default_factory=cls, metadata={"rule": rule, "section": cls})


class Section:
    """Base of the config dataclasses, whose construction is the one check."""

    def __post_init__(self):
        """Raise ConfigError naming the first field that breaks its rule."""
        for f in fields(self):
            rule, value = f.metadata["rule"], getattr(self, f.name)
            if not rule.ok(value):
                raise ConfigError(f"{f.name} must be {rule.text}, got {value!r}")


def build(cls, data, context):
    """The config section `cls` from the mapping `data`, each nested section
    built from its own mapping. Raises ConfigError, prefixed with `context`,
    for a non-mapping, an unknown key or a value its field's rule refuses."""
    try:
        if not isinstance(data, dict):
            raise ConfigError(f"must be a mapping, got {data!r}")
        known = {f.name: f.metadata for f in fields(cls)}
        unknown = [k for k in data if k not in known]
        if unknown:
            raise ConfigError(f"unknown key(s): {unknown}")
        return cls(**{k: build(known[k]["section"], v, k) if "section" in known[k] else v
                      for k, v in data.items()})
    except ConfigError as exc:
        raise ConfigError(f"{context}: {exc}") from None


@dataclass
class AgentConfig(Section):
    gamma: float = ruled(UNIT, 0.95)
    eps_start: float = ruled(UNIT, 0.99)
    eps_end: float = ruled(UNIT, 0.05)
    eps_decay_steps: int = ruled(at_least(0), 10_000)
    soft_update_rate: float = ruled(UNIT, 0.001)  # Polyak rate toward the policy net
    t_max: int = ruled(COUNT, 8)
    train_subgraph_len: int = ruled(COUNT, 32)
    lr: float = ruled(FINITE, 0.0002)
    buffer_capacity: int = ruled(COUNT, 100_000)
    batch_size: int = ruled(COUNT, 32)
    replay_alpha: float = ruled(FINITE, 0.6)
    replay_beta: float = ruled(FINITE, 0.4)
    priority_floor: float = ruled(FINITE, 1e-3)
    emb_dim: int = ruled(COUNT, 64)
    hidden_dim: int = ruled(COUNT, 128)
    seed: int = ruled(SEED, 0)  # seeds only an Agent built without an rng


@dataclass
class ObjectiveConfig(Section):
    kind: str = ruled(KIND, "modularity")
    labels_path: str = ruled(PATH_OR_NONE, None)  # ground-truth labels, which community needs
    label_sign: float = ruled(FINITE, 1.0)
    pairs_per_endpoint: int = ruled(COUNT, 16)  # spsp training pairs per pruned endpoint


@dataclass
class TrainConfig(Section):
    episodes: int = ruled(COUNT, 500)
    checkpoint_every: int = ruled(at_least(0), 100)  # 0: write the checkpoint only at the end


@dataclass
class EvalConfig(Section):
    ratios: list = ruled(RATIOS, [0.2, 0.4, 0.6, 0.8])
    seeds: int = ruled(COUNT, 8)
    eval_subgraph_len: int = ruled(COUNT, 32)
    spsp_pairs: int = ruled(COUNT, 8196)
    louvain_runs: int = ruled(COUNT, 8)


@dataclass
class RunConfig(Section):
    dataset: str = ruled(PATH, None)  # required: the default fails its rule
    directed: bool = ruled(BOOL, False)
    seed: int = ruled(SEED, 0)
    out_dir: str = ruled(PATH, "runs")
    objective: ObjectiveConfig = section(ObjectiveConfig)
    agent: AgentConfig = section(AgentConfig)
    train: TrainConfig = section(TrainConfig)
    evaluation: EvalConfig = section(EvalConfig)


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
        raise ConfigError(f"{path}: schema_version must be {SCHEMA_VERSION}, got {version!r}")
    return build(RunConfig, data, path)
