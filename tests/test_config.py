import re
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import pytest
import yaml

import prunerl.agent
import prunerl.config
from prunerl.config import (
    AgentConfig,
    EvalConfig,
    ObjectiveConfig,
    RunConfig,
    TrainConfig,
    build,
)
from prunerl.errors import ConfigError

from conftest import DATA_DIR

KARATE = str(DATA_DIR / "karate.txt")
SECTIONS = {"objective": ObjectiveConfig, "agent": AgentConfig, "train": TrainConfig,
            "evaluation": EvalConfig}
# a value of the wrong type for a field of each declared type; 5 for a section
WRONG = {str: 5, int: "abc", float: "abc", bool: "maybe", list: 0.5}


def field_cases():
    """(section name or None for the top level, field) for every config field."""
    return [(None, f) for f in fields(RunConfig)] + [
        (name, f) for name, cls in SECTIONS.items() for f in fields(cls)]


@pytest.mark.parametrize("where, f", field_cases(),
                         ids=lambda c: c.name if hasattr(c, "name") else str(c))
def test_every_field_has_a_rule_that_refuses_a_wrong_type(where, f):
    assert "rule" in f.metadata
    wrong = WRONG.get(f.type, 5)
    data = {"dataset": KARATE, f.name: wrong} if where is None else {
        "dataset": KARATE, where: {f.name: wrong}}
    with pytest.raises(ConfigError) as exc:
        build(RunConfig, data, "run.yaml")
    named = f.name if where is None else f"{where}: {f.name}"
    assert str(exc.value).startswith(f"run.yaml: {named}")
    assert str(exc.value).endswith(f", got {wrong!r}")


def test_sections_of_run_config_are_the_listed_ones():
    assert {f.name: f.metadata.get("section") for f in fields(RunConfig)
            if "section" in f.metadata} == SECTIONS


def test_every_default_keeps_its_rule_but_dataset():
    with pytest.raises(ConfigError, match="dataset must be a non-empty path string, got None"):
        RunConfig()
    cfg = RunConfig(dataset=KARATE)
    assert cfg.agent == AgentConfig() and cfg.evaluation.ratios == [0.2, 0.4, 0.6, 0.8]


def test_built_config_rebuilds_from_its_own_dict():
    cfg = build(RunConfig, {"dataset": KARATE, "directed": True, "seed": 3,
                            "agent": {"gamma": 0.5, "batch_size": 4},
                            "evaluation": {"ratios": [0.25, 1]}}, "run.yaml")
    assert cfg.agent.gamma == 0.5 and cfg.train == TrainConfig()
    assert build(RunConfig, asdict(cfg), "run.yaml") == cfg


def test_list_defaults_are_not_shared():
    a, b = EvalConfig(), EvalConfig()
    a.ratios.append(0.9)
    assert b.ratios == [0.2, 0.4, 0.6, 0.8]


def test_construction_from_python_checks_the_same_rules():
    with pytest.raises(ConfigError, match=r"^batch_size must be an integer >= 1, got 0$"):
        AgentConfig(batch_size=0)
    with pytest.raises(ConfigError, match=r"^gamma must be in \(0, 1\), got 1.5$"):
        AgentConfig(gamma=1.5)
    with pytest.raises(ConfigError, match=r"^agent must be an instance of AgentConfig, got 5$"):
        RunConfig(dataset=KARATE, agent=5)


@pytest.mark.parametrize("data, message", [
    ([1, 2], "ctx: must be a mapping, got [1, 2]"),
    ({"gamma": 0.5, "bogus": 1, "other": 2}, "ctx: unknown key(s): ['bogus', 'other']"),
    ({1: 2}, "ctx: unknown key(s): [1]"),
    ({"eps_end": float("nan")}, "ctx: eps_end must be in (0, 1), got nan"),
    ({"lr": float("inf")}, "ctx: lr must be a positive finite number, got inf"),
    ({"t_max": True}, "ctx: t_max must be an integer >= 1, got True"),
    ({"emb_dim": 8.0}, "ctx: emb_dim must be an integer >= 1, got 8.0"),
    # a zero rate never moves a weight and a negative one climbs the loss; a
    # floor of zero or below lets a priority reach zero or below, and sampling
    # weights turn infinite or NaN
    ({"lr": 0}, "ctx: lr must be a positive finite number, got 0"),
    ({"lr": -0.5}, "ctx: lr must be a positive finite number, got -0.5"),
    ({"priority_floor": 0.0}, "ctx: priority_floor must be a positive finite number, got 0.0"),
    ({"priority_floor": -1.0}, "ctx: priority_floor must be a positive finite number, got -1.0"),
])
def test_build_refuses_with_one_message(data, message):
    with pytest.raises(ConfigError) as exc:
        build(AgentConfig, data, "ctx")
    assert str(exc.value) == message


def test_agent_config_has_one_home():
    assert prunerl.agent.AgentConfig is prunerl.config.AgentConfig


def readme_text():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_table_lists_every_field_in_order():
    listed = re.findall(r"^\| `([a-z_.]+)` \|", readme_text(), flags=re.M)
    assert listed == [f.name if where is None else f"{where}.{f.name}"
                      for where, f in field_cases() if "section" not in f.metadata]


def test_readme_table_states_each_default_and_rule():
    """Each row's default, read as YAML (`required` and `none` as None), is
    the field's, and its rule cell starts with the rule's text, backticks and
    quotes aside."""
    rows = {key: (default, rule) for key, default, rule in
            re.findall(r"^\| `([a-z_.]+)` \| (.+?) \| (.+?) \|$", readme_text(), flags=re.M)}
    plain = lambda text: re.sub("[`'\"]", "", text)  # noqa: E731
    fields_listed = [(where, f) for where, f in field_cases() if "section" not in f.metadata]
    assert sorted(rows) == sorted(f.name if where is None else f"{where}.{f.name}"
                                  for where, f in fields_listed)
    for where, f in fields_listed:
        default, rule = rows[f.name if where is None else f"{where}.{f.name}"]
        value = None if default in ("required", "none") else yaml.safe_load(plain(default))
        want = f.default_factory() if f.default is MISSING else f.default
        assert (type(value), value) == (type(want), want), f.name
        assert plain(rule).startswith(plain(f.metadata["rule"].text)), f.name
