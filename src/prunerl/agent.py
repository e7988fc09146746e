"""Double DQN agent: epsilon-greedy acting over candidate subgraphs,
prioritized-replay training with soft target updates, the episode loop with
random-start pruning, and greedy evaluation-time sparsification.
"""

import csv
import json
import zipfile
from dataclasses import dataclass, field, asdict

import numpy as np

from . import nnet
from .config import AgentConfig, build
from .errors import ConfigError, DataError, PruneRLError
from .graph import open_output
from .nnet import Adam
from .qmodel import QModel
from .replay import ReplayBuffer

LOG_FIELDS = ["episode", "step", "epsilon", "loss", "mean_reward", "buffer_size"]
MODEL_FIELDS = ("node_count", "directed", "emb_dim", "hidden_dim")  # a checkpoint's "model" header


def epsilon_at(config, step):
    """Linear decay from eps_start at step 0 to eps_end at eps_decay_steps."""
    if step >= config.eps_decay_steps:
        return config.eps_end
    frac = step / config.eps_decay_steps
    return config.eps_start + (config.eps_end - config.eps_start) * frac


def select_action(count, qvals, epsilon, rng):
    """Epsilon-greedy over `count` candidates whose Q-values `qvals()` gives,
    called on greedy steps only; exact ties resolve to the lowest index."""
    if count == 0:
        raise PruneRLError("select_action needs at least one candidate")
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(count))
    return int(np.argmax(qvals()))


def double_dqn_target(batch, policy, target, gamma):
    """Per-item TD target of a replay `Batch`: r, or r + gamma *
    Q_target(s', argmax Q_policy(s')).

    Neither pass records a graph: the policy scores every candidate of the
    non-terminal next states, and the target only the argmax of each.
    """
    out = batch.rewards.copy()
    live = np.flatnonzero(~batch.done)
    if live.size and gamma != 0.0:
        recs = batch.next_states[live]
        nexts, starts, counts = batch.store.candidates(recs)
        q = policy.q_forward(nexts, grad=False).data
        # each item's first index holding its max, the candidate np.argmax picks
        top = np.repeat(np.maximum.reduceat(q, starts), counts)
        best = np.minimum.reduceat(np.where(q == top, np.arange(len(q)), len(q)), starts)
        out[live] += gamma * target.q_forward(batch.store.rows(recs, best - starts), grad=False).data
    return out


@dataclass
class EpisodeRecord:
    prunes: list = field(default_factory=list)  # edge ids in prune order
    rewards: list = field(default_factory=list)
    losses: list = field(default_factory=list)


class Agent:
    """Owns the policy/target networks, optimizer, replay buffer, and the
    step counter that drives the epsilon schedule."""

    def __init__(self, graph, config=None, rng=None):
        self.config = config or AgentConfig()
        self.graph = graph  # the frozen original graph
        rng = rng if rng is not None else np.random.default_rng(self.config.seed)
        self.policy, self.target = (
            QModel(graph.node_count, directed=graph.directed, emb_dim=self.config.emb_dim,
                   hidden_dim=self.config.hidden_dim, rng=rng)
            for _ in range(2)
        )
        self.target.flat[...] = self.policy.flat
        self.optimizer = Adam(self.policy.parameters(), self.policy.flat, self.config.lr)
        self.buffer = ReplayBuffer(
            self.config.buffer_capacity,
            alpha=self.config.replay_alpha,
            beta=self.config.replay_beta,
            priority_floor=self.config.priority_floor,
        )
        self.update_steps = 0
        self.episodes_done = 0

    @property
    def epsilon(self):
        return epsilon_at(self.config, self.update_steps)

    # --------------------------------------------------------------- training

    def train_step(self, rng):
        """One prioritized batch: weighted squared TD-error loss, Adam step,
        priority refresh, then a soft target update."""
        cfg = self.config
        if len(self.buffer) < cfg.batch_size:
            raise PruneRLError(
                f"buffer holds {len(self.buffer)} < batch size {cfg.batch_size}"
            )
        idx, batch, weights = self.buffer.sample(cfg.batch_size, rng)
        targets = double_dqn_target(batch, self.policy, self.target, cfg.gamma)
        taken = batch.store.rows(batch.states, batch.actions)
        loss, td_errors = nnet.weighted_mse(self.policy.q_forward(taken), targets, weights)

        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.step()  # checks every gradient before moving a parameter
        self.buffer.update_priorities(idx, td_errors)
        self.target.soft_update_from(self.policy, cfg.soft_update_rate)
        self.update_steps += 1
        return float(loss.data), td_errors

    def run_episode(self, reward_spec, rng):
        """One training episode over a fresh clone of the original graph.

        Draws the episode length T ~ U(1, T_max) and a random-start prune
        count T_p ~ U(1, |E| - T), then alternates sample / act / prune /
        reward / store / train for T steps.
        """
        cfg = self.config
        g = self.graph.copy()
        if g.edge_count <= cfg.t_max:
            raise PruneRLError("graph too small for the configured episode length")
        t_steps = int(rng.integers(1, cfg.t_max + 1))
        t_pre = int(rng.integers(1, g.edge_count - t_steps + 1))
        g.random_prune(t_pre, rng)
        reward_spec.on_episode_start(g, rng)

        record = EpisodeRecord()
        state = g.sample_subgraph(cfg.train_subgraph_len, rng)
        for t in range(t_steps):
            state.require_live(g)
            action = select_action(len(state), lambda: self.policy.q_forward(state, grad=False).data,
                                   self.epsilon, rng)
            eid = int(state.eids[action])
            pre_ctx = reward_spec.before_prune(g, eid, rng)
            g.prune_edge(eid)
            reward = reward_spec.after_prune(g, eid, pre_ctx, rng)
            record.prunes.append(eid)
            record.rewards.append(reward)

            exhausted = g.edge_count == 0
            done = exhausted  # time-limit truncation still bootstraps
            next_state = state if exhausted else g.sample_subgraph(cfg.train_subgraph_len, rng)
            self.buffer.add(state, action, reward, next_state, done)
            if len(self.buffer) >= cfg.batch_size:
                loss, _ = self.train_step(rng)
                record.losses.append(loss)
            if exhausted:
                break
            state = next_state
        self.episodes_done += 1
        return record

    # ------------------------------------------------------------- evaluation

    def sparsify(self, g, target_ratio, eval_subgraph_len, rng):
        """Greedy pruning with the learned policy until round(target_ratio *
        |E_original|) live edges remain. Returns a pruned copy."""
        target = g.edge_budget(target_ratio)
        out = g.copy()
        while out.edge_count > target:
            sub = out.sample_subgraph(eval_subgraph_len, rng)
            sub.require_live(out)
            qvals = self.policy.q_forward(sub, grad=False).data
            out.prune_edge(sub.eids[np.argmax(qvals)])
        return out

    # ------------------------------------------------------------- persistence

    def _arrays(self):
        """Every array a checkpoint holds, by name, in the order `save` writes
        them: the policy's parameters, the target's, then Adam's moments."""
        policy = {f"param_{i}_{p.name}": p.data for i, p in enumerate(self.policy.parameters())}
        target = {f"target_{k}": p.data for k, p in zip(policy, self.target.parameters())}
        moments = {f"opt_{s}_{i}": a for s in "mv" for i, a in enumerate(getattr(self.optimizer, s))}
        return {**policy, **target, **moments}

    def save(self, path):
        """Versioned npz checkpoint: every array of `_arrays`, plus a JSON
        header with the model's shape, the agent config and the counters."""
        header = {
            "format_version": 1,
            "model": {k: getattr(self.policy, k) for k in MODEL_FIELDS},
            "extra": {"agent_config": asdict(self.config)},
            "agent_state": {"update_steps": self.update_steps, "episodes_done": self.episodes_done},
            "optimizer": {"step_count": self.optimizer.step_count},
        }
        np.savez(path, **self._arrays(), __header__=np.frombuffer(
            json.dumps(header, sort_keys=True).encode(), dtype=np.uint8))

    @classmethod
    def load(cls, path, graph):
        """The agent `save` wrote, rebuilt on `graph`. Raises ConfigError for a
        file that is not a checkpoint and DataError for a version, model field,
        array or counter that does not fit the agent its config builds."""
        try:
            z = np.load(path)
        except (ValueError, EOFError, zipfile.BadZipFile):  # ValueError: would need pickle
            z = None
        if not isinstance(z, np.lib.npyio.NpzFile):
            raise ConfigError(f"{path}: not a prunerl checkpoint (not an npz archive)")
        with z:
            try:
                arrays = {k: z[k] for k in z.files}
            except (ValueError, EOFError, zipfile.BadZipFile) as exc:  # a damaged member
                raise ConfigError(f"{path}: not a prunerl checkpoint ({exc})") from None
        try:
            header = json.loads(bytes(arrays.pop("__header__")).decode())
        except KeyError:
            raise ConfigError(f"{path}: not a prunerl checkpoint (no __header__ array)") from None
        except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
            raise ConfigError(f"{path}: not a prunerl checkpoint (header is not JSON: {exc})") from None
        if not isinstance(header, dict):
            raise ConfigError(f"{path}: not a prunerl checkpoint (header is not a JSON object)")
        if type(version := header.get("format_version")) is not int or version != 1:  # not true, 1.0
            raise DataError(f"{path}: unsupported checkpoint version {version!r}")
        require_fields(path, "header", header, ("agent_state", "extra", "model"))
        require_fields(path, "model", header["model"], MODEL_FIELDS)
        require_fields(path, "header extra", header["extra"], ("agent_config",))
        require_fields(path, "agent_state", header["agent_state"], ("update_steps", "episodes_done"))
        require_fields(path, "optimizer", header.get("optimizer"), ("step_count",))
        try:
            config = build(AgentConfig, header["extra"]["agent_config"], "agent_config")
        except ConfigError as exc:
            raise ConfigError(f"{path}: not a prunerl checkpoint ({exc})") from None
        agent = cls(graph, config=config)
        for name, own in agent._arrays().items():
            require_fields(path, "checkpoint", arrays, (name,))
            data = arrays[name]
            if data.shape != own.shape:
                raise DataError(f"{path}: checkpoint shape {data.shape} != model shape "
                                f"{own.shape} for {name}")
            if data.dtype != np.float64 or not np.isfinite(data).all():
                raise DataError(f"{path}: checkpoint array {name} is not finite float64")
            if name.startswith("opt_v_") and (data < 0).any():  # a mean of squared gradients
                raise DataError(f"{path}: checkpoint array {name} has a negative entry")
            own[...] = data
        for name in MODEL_FIELDS:  # the header must be the one save writes for this agent
            got, own = header["model"][name], getattr(agent.policy, name)
            if type(got) is not type(own) or got != own:
                raise DataError(f"{path}: checkpoint model.{name} is {got!r}, but its agent has {own!r}")
        agent.optimizer.step_count = require_count(path, header, "optimizer", "step_count")
        agent.update_steps = require_count(path, header, "agent_state", "update_steps")
        agent.episodes_done = require_count(path, header, "agent_state", "episodes_done")
        return agent


def require_fields(path, where, section, names):
    """Raise ConfigError naming the `names` that part `where` of a checkpoint
    (a dict, or anything else if malformed) lacks."""
    missing = [n for n in names if not isinstance(section, dict) or n not in section]
    if missing:
        raise ConfigError(f"{path}: not a prunerl checkpoint ({where} lacks {', '.join(missing)})")


def require_count(path, header, section, name):
    """Header field section.name, which must be a non-negative JSON integer."""
    value = header[section][name]
    if type(value) is not int or value < 0:
        raise DataError(f"{path}: checkpoint {section}.{name} must be a non-negative "
                        f"integer, got {value!r}")
    return value


def train_loop(agent, reward_spec, episodes, rng, log_path=None,
               checkpoint_path=None, checkpoint_every=0, kept_rows=()):
    """Run `episodes` episodes.

    Writes one CSV log row per episode, flushed as the episode ends, so a
    crash keeps the rows of the episodes before it:
    (episode, step, epsilon, loss, mean_reward, buffer_size). The log
    starts with `kept_rows`, field lists of earlier episodes a resumed run
    keeps. The checkpoint is also written before the first episode, so a
    path that cannot be written fails before any training.
    """
    if checkpoint_path:
        agent.save(checkpoint_path)
    rows = []
    with open_output(log_path) as log:
        writer = csv.writer(log)
        writer.writerows([LOG_FIELDS, *kept_rows])
        log.flush()
        for _ in range(episodes):
            rec = agent.run_episode(reward_spec, rng)
            mean_reward = float(np.mean(rec.rewards)) if rec.rewards else 0.0
            loss = float(np.mean(rec.losses)) if rec.losses else float("nan")
            row = {
                "episode": agent.episodes_done,
                "step": agent.update_steps,
                "epsilon": repr(agent.epsilon),
                "loss": repr(loss),
                "mean_reward": repr(mean_reward),
                "buffer_size": len(agent.buffer),
            }
            rows.append(row)
            writer.writerow(row.values())
            log.flush()
            if checkpoint_path and checkpoint_every and agent.episodes_done % checkpoint_every == 0:
                agent.save(checkpoint_path)
    if checkpoint_path:
        agent.save(checkpoint_path)
    return rows
