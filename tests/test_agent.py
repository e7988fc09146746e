import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from prunerl import agent as agent_module
from prunerl import baselines
from prunerl import nnet
from prunerl.agent import (
    Agent,
    AgentConfig,
    double_dqn_target,
    epsilon_at,
    select_action,
    train_loop,
)
from prunerl.errors import DataError, PruneRLError
from prunerl.graph import CandidateSubgraph, Graph, load_edge_list
from prunerl.nnet import Tensor
from prunerl.qmodel import QModel
from prunerl.replay import ReplayBuffer, SnapshotStore
from prunerl.rewards import PagerankReward, SpspReward

import oracles
from conftest import complete_graph, random_sparse_graph
from gradcheck import grad_check, mul, sum_all
from oracles import (Transition, concat_oracle, double_dqn_target_oracle, keep_transitions,
                     q_forward_batch_oracle, q_forward_oracle, sample_subgraph_oracle,
                     train_step_oracle)

SMALL = dict(emb_dim=8, hidden_dim=16, train_subgraph_len=8, batch_size=8)
# Agent.save of a karate agent (emb 4, hidden 8, seed 3) after 6 PageRank
# episodes and 9 learning steps, written before the format moved into agent.py
CHECKPOINT_V1 = Path(__file__).resolve().parent / "data" / "checkpoint_v1.npz"


def read_checkpoint(path):
    """A checkpoint's header dict and its other arrays by name, in file order."""
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    return json.loads(bytes(arrays.pop("__header__")).decode()), arrays


class TestEpsilonSchedule:
    def test_endpoints_exact(self):
        cfg = AgentConfig()
        assert epsilon_at(cfg, 0) == 0.99
        assert epsilon_at(cfg, 10_000) == 0.05
        assert epsilon_at(cfg, 50_000) == 0.05

    def test_linear_and_monotone(self):
        cfg = AgentConfig()
        eps = [epsilon_at(cfg, s) for s in range(0, 10_001, 500)]
        assert all(b <= a for a, b in zip(eps, eps[1:]))
        assert epsilon_at(cfg, 5_000) == pytest.approx((0.99 + 0.05) / 2)


def unscored():
    raise AssertionError("an exploring step ran the Q pass")


class TestSelectAction:
    def test_greedy(self, rng):
        assert select_action(3, lambda: np.array([0.1, 0.9, 0.3]), 0.0, rng) == 1

    def test_tie_takes_lowest_index(self, rng):
        assert select_action(3, lambda: np.array([5.0, 5.0, 1.0]), 0.0, rng) == 0

    def test_uniform_when_exploring(self, rng):
        counts = np.zeros(4)
        for _ in range(10_000):
            counts[select_action(4, unscored, 1.0, rng)] += 1
        assert np.all(np.abs(counts / 10_000 - 0.25) < 0.02)


class TestActing:
    def test_lazy_q_pass_keeps_every_draw(self, karate, monkeypatch):
        """Episodes that score only greedy steps prune, pay and learn exactly
        as episodes that score every step, with fewer Q passes."""
        calls = {"n": 0, "learning": False}
        forward, train_step = QModel.q_forward, Agent.train_step

        def counted(self, sub, *args, **kwargs):
            calls["n"] += not calls["learning"]  # acting passes only
            return forward(self, sub, *args, **kwargs)

        def learning(self, rng):
            calls["learning"] = True
            out = train_step(self, rng)
            calls["learning"] = False
            return out

        def eager(count, qvals, epsilon, rng):
            q = qvals()
            return select_action(count, lambda: q, epsilon, rng)

        monkeypatch.setattr(QModel, "q_forward", counted)
        monkeypatch.setattr(Agent, "train_step", learning)
        runs = []
        for choose in (select_action, eager):
            monkeypatch.setattr(agent_module, "select_action", choose)
            calls["n"] = 0
            agent = Agent(karate, AgentConfig(**SMALL, eps_decay_steps=200),
                          rng=np.random.default_rng(2))
            rng = np.random.default_rng(3)
            records = [agent.run_episode(PagerankReward(karate), rng) for _ in range(40)]
            runs.append(([(r.prunes, r.rewards, r.losses) for r in records],
                         [p.data for p in agent.policy.parameters()], calls["n"]))
        (lazy, lazy_params, lazy_calls), (full, full_params, full_calls) = runs
        assert lazy == full
        assert all(np.array_equal(a, b) for a, b in zip(lazy_params, full_params))
        assert full_calls == sum(len(r[0]) for r in full)
        assert 0 < lazy_calls < full_calls

    def test_stale_state_raises_on_an_exploring_step(self, karate, monkeypatch):
        from prunerl.errors import DeadEdgeError

        sample = Graph.sample_subgraph

        def stale(self, k, rng):
            sub = sample(self, k, rng)
            self.prune_edge(int(sub.eids[0]))
            return sub

        monkeypatch.setattr(Graph, "sample_subgraph", stale)
        monkeypatch.setattr(Agent, "epsilon", property(lambda self: 1.0))
        monkeypatch.setattr(QModel, "q_forward", lambda *args, **kwargs: unscored())
        agent = Agent(karate, AgentConfig(**SMALL), rng=np.random.default_rng(0))
        with pytest.raises(DeadEdgeError, match="stale candidate"):
            agent.run_episode(PagerankReward(karate), np.random.default_rng(1))


class TestDoubleDQNTarget:
    def _transition(self, rng, reward, done):
        g = complete_graph(4)
        s = g.sample_subgraph(3, rng)
        return Transition(state=s, action=0, reward=reward,
                          next_state=g.sample_subgraph(3, rng), done=done)

    def test_terminal_is_reward(self, rng):
        policy = QModel(4, emb_dim=4, hidden_dim=8, rng=rng)
        target = QModel(4, emb_dim=4, hidden_dim=8, rng=rng)
        batch = as_batch([self._transition(rng, reward=2.5, done=True)])
        assert double_dqn_target(batch, policy, target, 0.95)[0] == 2.5

    def test_gamma_zero_is_reward(self, rng):
        policy = QModel(4, emb_dim=4, hidden_dim=8, rng=rng)
        target = QModel(4, emb_dim=4, hidden_dim=8, rng=rng)
        batch = as_batch([self._transition(rng, reward=-1.5, done=False)])
        assert double_dqn_target(batch, policy, target, 0.0)[0] == pytest.approx(-1.5)

    def test_policy_selects_target_evaluates(self, rng):
        policy = QModel(4, emb_dim=4, hidden_dim=8, rng=rng)
        target = QModel(4, emb_dim=4, hidden_dim=8, rng=np.random.default_rng(7))
        tr = self._transition(rng, reward=1.0, done=False)
        nxt = tr.next_state
        a_star = int(np.argmax(policy.q_forward(nxt).data))
        expected = 1.0 + 0.9 * float(target.q_forward(nxt).data[a_star])
        assert double_dqn_target(as_batch([tr]), policy, target, 0.9)[0] == pytest.approx(expected)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_argmax_is_each_items_first_max(self, karate, monkeypatch, seed):
        # exact ties (+-0.0 too), one-candidate items, the max first and last
        items = [[1.0, 3.0, 3.0], [0.0, -0.0], [-0.0, 0.0], [5.0], [4.0, 1.0, 4.0],
                 [1.0, 1.0, 7.0], [7.0, 1.0, 1.0], [-2.0, -2.0, -2.0]]
        rng = np.random.default_rng(seed)
        items += [rng.choice([-0.0, 0.0, 1.0, 2.0], size=int(rng.integers(1, 7))).tolist()
                  for _ in range(40)]
        states = [karate.sample_subgraph(len(q), rng) for q in items]
        batch = as_batch([Transition(s, 0, 0.0, s, False) for s in states])
        picked, gather = [], SnapshotStore.rows
        monkeypatch.setattr(SnapshotStore, "rows",
                            lambda store, recs, rows: picked.append(rows) or gather(store, recs, rows))
        double_dqn_target(batch, FixedQ(np.concatenate(items)), FixedQ(None), 0.9)
        assert picked[0].tolist() == [int(np.argmax(q)) for q in items]


class FixedQ:
    """A stand-in Q-network whose no-grad pass returns `q`, or zeros."""

    def __init__(self, q):
        self.q = q

    def q_forward(self, sub, grad=True):
        return Tensor(np.zeros(len(sub)) if self.q is None else self.q)


def as_batch(transitions):
    """The replay batch of `transitions`, in order."""
    buf = ReplayBuffer(len(transitions))
    for tr in transitions:
        buf.add(*tr)
    return buf.batch(np.arange(len(transitions)))


def item_offsets(subs):
    """Where each item's candidates start in their concatenation, then the total."""
    return np.cumsum([0] + [len(s) for s in subs])


def replay_batch(g, rng, size=12):
    """Transitions over pruned copies of g: states of mixed length, every
    third one done."""
    batch = []
    for i in range(size):
        gi = g.copy()
        gi.random_prune(int(rng.integers(0, g.edge_count - 1)), rng)
        state = gi.sample_subgraph(int(rng.integers(1, 33)), rng)
        gi.prune_edge(state.eids[0])
        batch.append(Transition(state, int(rng.integers(len(state))), float(rng.normal()),
                                gi.sample_subgraph(int(rng.integers(1, 33)), rng), i % 3 == 0))
    return batch


def directed_graph():
    return Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (1, 4), (4, 1)],
                 directed=True)


class TestBatchedQNet:
    def test_karate_replay_batch_matches_oracle(self, karate, rng):
        model = QModel(34, emb_dim=16, hidden_dim=32, rng=rng)
        batch = replay_batch(karate, rng)
        subs = [tr.state for tr in batch] + [tr.next_state for tr in batch]
        q, offsets = model.q_forward(concat_oracle(subs)), item_offsets(subs)
        assert len({len(s) for s in subs}) > 5
        assert q.shape == (sum(len(s) for s in subs),)
        for sub, lo, hi in zip(subs, offsets[:-1], offsets[1:]):
            assert np.allclose(q.data[lo:hi], q_forward_oracle(model, sub).data,
                               rtol=0, atol=1e-10)

    def test_directed_batch_matches_oracle(self, rng):
        g = directed_graph()
        model = QModel(6, directed=True, emb_dim=4, hidden_dim=8, rng=rng)
        subs = [g.sample_subgraph(k, rng) for k in (1, 3, 9, 5)]
        q, offsets = model.q_forward(concat_oracle(subs)), item_offsets(subs)
        for sub, lo, hi in zip(subs, offsets[:-1], offsets[1:]):
            assert np.allclose(q.data[lo:hi], q_forward_oracle(model, sub).data,
                               rtol=0, atol=1e-10)

    def test_directed_grad_check(self, rng):
        g = directed_graph()
        model = QModel(6, directed=True, emb_dim=4, hidden_dim=8, rng=rng)
        subs = [g.sample_subgraph(k, rng) for k in (2, 4, 3)]
        w = nnet.Tensor(rng.normal(size=sum(len(s) for s in subs)))

        def loss_fn():
            return sum_all(mul(model.q_forward(concat_oracle(subs)), w))

        assert grad_check(loss_fn, model.parameters(), tolerance=1e-4, h=1e-6,
                          rng=np.random.default_rng(1)) < 1e-4

    @pytest.mark.parametrize("gamma", [0.95, 0.0])
    def test_targets_match_oracle(self, karate, rng, gamma):
        policy = QModel(34, emb_dim=16, hidden_dim=32, rng=rng)
        target = QModel(34, emb_dim=16, hidden_dim=32, rng=np.random.default_rng(7))
        batch = replay_batch(karate, rng)
        assert np.allclose(double_dqn_target(as_batch(batch), policy, target, gamma),
                           double_dqn_target_oracle(batch, policy, target, gamma),
                           rtol=0, atol=1e-10)

    def test_all_done_batch_makes_no_pass(self, karate, rng):
        batch = [tr for tr in replay_batch(karate, rng) if tr.done]
        out = double_dqn_target(as_batch(batch), None, None, 0.95)
        assert np.array_equal(out, [tr.reward for tr in batch])

    def test_loss_gradients_match_oracle(self, karate, rng):
        model = QModel(34, emb_dim=16, hidden_dim=32, rng=rng)
        batch = replay_batch(karate, rng)
        actions = [tr.action for tr in batch]

        def grads(pred):
            loss = sum_all(mul(pred, pred))
            loss.backward()
            out = [p.grad.copy() for p in model.parameters()]
            for p in model.parameters():
                p.zero_grad()
            return out

        states = [tr.state for tr in batch]
        q, offsets = model.q_forward(concat_oracle(states)), item_offsets(states)
        batched = grads(oracles.gather_rows(q, offsets[:-1] + actions))
        per_item = grads(oracles.concat([
            oracles.gather_rows(q_forward_oracle(model, tr.state), [tr.action])
            for tr in batch], axis=0))
        for a, b in zip(batched, per_item):
            assert np.allclose(a, b, rtol=0, atol=1e-10)


class TestNoGradPass:
    """grad=False runs the same forward, records no graph, and returns the
    recording pass's Q-values bit for bit."""

    def test_karate_replay_batch(self, karate, rng):
        model = QModel(34, emb_dim=16, hidden_dim=32, rng=rng)
        batch = replay_batch(karate, rng)
        subs = [tr.state for tr in batch] + [tr.next_state for tr in batch]
        union = concat_oracle(subs)
        q, q0 = model.q_forward(union), model.q_forward(union, grad=False)
        assert np.array_equal(q0.data, q.data)
        assert q0._parents == () and q0._backward is None
        assert np.array_equal(q.data, q_forward_batch_oracle(model, subs)[0].data)

    def test_single_subgraph(self, karate, rng):
        model = QModel(34, emb_dim=16, hidden_dim=32, rng=rng)
        g = karate.copy()
        g.random_prune(20, rng)
        for k in (1, 8, 32):
            sub = g.sample_subgraph(k, rng)
            q = model.q_forward(sub, grad=False).data
            assert np.array_equal(q, model.q_forward(sub).data)
            assert np.array_equal(q, q_forward_batch_oracle(model, [sub])[0].data)

    def test_directed_graph(self, rng):
        g = directed_graph()
        model = QModel(6, directed=True, emb_dim=4, hidden_dim=8, rng=rng)
        subs = [g.sample_subgraph(k, rng) for k in (1, 3, 9, 5)]
        union = concat_oracle(subs)
        q0 = model.q_forward(union, grad=False).data
        assert np.array_equal(q0, model.q_forward(union).data)
        assert np.array_equal(q0, q_forward_batch_oracle(model, subs)[0].data)

    @pytest.mark.parametrize("grad", [True, False], ids=["recording", "no-grad"])
    def test_snapshot_equals_its_one_item_union(self, karate, rng, grad):
        model = QModel(34, emb_dim=16, hidden_dim=32, rng=rng)
        g = karate.copy()
        g.random_prune(20, rng)
        for k in (1, 8, 32):
            sub = g.sample_subgraph(k, rng)
            one = concat_oracle([sub])
            for f in fields(CandidateSubgraph):
                assert np.array_equal(getattr(one, f.name), getattr(sub, f.name)), f.name
            assert np.array_equal(model.q_forward(sub, grad=grad).data,
                                  model.q_forward(one, grad=grad).data)

    def test_nonfinite_q_values_raise(self, karate, rng):
        model = QModel(34, emb_dim=16, hidden_dim=32, rng=rng)
        model.head.b.data[0] = np.nan
        with pytest.raises(PruneRLError, match="non-finite"):
            model.q_forward(karate.sample_subgraph(8, rng), grad=False)


def count_tensors(monkeypatch):
    """Count Tensor constructions from here on."""
    counter = {"n": 0}
    init = nnet.Tensor.__init__

    def counting(self, *args, **kwargs):
        counter["n"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(nnet.Tensor, "__init__", counting)
    return counter


def filled_agent(karate, seed=3, keep=False):
    """An agent on karate whose buffer holds at least one batch; with
    `keep`, also the transitions its buffer was given, by slot."""
    agent = Agent(karate, AgentConfig(emb_dim=16, hidden_dim=32), rng=np.random.default_rng(seed))
    slots = keep_transitions(agent.buffer) if keep else None
    rng = np.random.default_rng(seed + 1)
    while len(agent.buffer) < agent.config.batch_size:
        agent.run_episode(PagerankReward(karate), rng)
    return (agent, slots) if keep else agent


class TestGraphSize:
    def test_no_grad_pass_builds_one_tensor(self, karate, rng, monkeypatch):
        model = QModel(34, emb_dim=16, hidden_dim=32, rng=rng)
        sub = karate.sample_subgraph(8, rng)
        counter = count_tensors(monkeypatch)
        model.q_forward(sub, grad=False)
        assert counter["n"] <= 1

    def test_train_step_builds_few_tensors(self, karate, monkeypatch):
        agent = filled_agent(karate)
        counter = count_tensors(monkeypatch)
        agent.train_step(np.random.default_rng(5))
        assert counter["n"] <= 20


class TestFusedTraining:
    def test_50_train_steps_equal_op_by_op_path(self, karate):
        fused, (oracle, slots) = filled_agent(karate), filled_agent(karate, keep=True)
        rng_f, rng_o = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(50):
            loss_f, td_f = fused.train_step(rng_f)
            loss_o, td_o = train_step_oracle(oracle, rng_o, slots)
            assert loss_f == loss_o
            assert np.array_equal(td_f, td_o)
        for a, b in zip(fused.policy.parameters() + fused.target.parameters(),
                        oracle.policy.parameters() + oracle.target.parameters()):
            assert np.array_equal(a.data, b.data)
        for a, b in zip(fused.optimizer.m + fused.optimizer.v,
                        oracle.optimizer.m + oracle.optimizer.v):
            assert np.array_equal(a, b)

    def test_picked_pass_matches_all_candidates_pass(self, karate):
        agent, slots = filled_agent(karate, keep=True)
        idx, b, weights = agent.buffer.sample(agent.config.batch_size, np.random.default_rng(5))
        targets = double_dqn_target(b, agent.policy, agent.target, agent.config.gamma)
        batch = [slots[j] for j in idx]
        q = agent.policy.q_forward(b.store.rows(b.states, b.actions))
        nnet.weighted_mse(q, targets, weights)[0].backward()
        picked_grads = [p.grad for p in agent.policy.parameters()]
        agent.optimizer.zero_grad()

        pred = oracles.taken_q_all_candidates_oracle(agent.policy, batch)
        oracles.td_loss_oracle(pred, targets, weights)[0].backward()
        np.testing.assert_allclose(q.data, pred.data, rtol=1e-14, atol=0)
        for p, g in zip(agent.policy.parameters(), picked_grads):
            assert np.abs(g - p.grad).max() <= 1e-11 * np.abs(p.grad).max(), p.name

    def test_recording_pass_scores_only_the_taken_edges(self, karate, monkeypatch):
        agent = filled_agent(karate)
        shapes = []
        loss = nnet.weighted_mse

        def spy(pred, *args):
            shapes.append(pred.data.shape)
            return loss(pred, *args)

        monkeypatch.setattr(nnet, "weighted_mse", spy)
        agent.train_step(np.random.default_rng(5))
        assert shapes == [(agent.config.batch_size,)]

    @pytest.mark.parametrize("all_done", [False, True])
    def test_nan_parameter_raises_before_any_update(self, karate, all_done):
        agent = filled_agent(karate)
        if all_done:  # no target pass: the loss check must catch it
            agent.buffer.done[:len(agent.buffer)] = True
        agent.policy.node_fc2.W.data[0, 0] = np.nan
        params = [p.data.copy() for p in agent.policy.parameters() + agent.target.parameters()]
        m, v = [a.copy() for a in agent.optimizer.m], [a.copy() for a in agent.optimizer.v]
        step_count, update_steps = agent.optimizer.step_count, agent.update_steps
        with pytest.raises(PruneRLError, match="non-finite"):
            agent.train_step(np.random.default_rng(5))
        for p, before in zip(agent.policy.parameters() + agent.target.parameters(), params):
            assert np.array_equal(p.data, before, equal_nan=True)
        for a, before in zip(agent.optimizer.m + agent.optimizer.v, m + v):
            assert np.array_equal(a, before)
        assert agent.optimizer.step_count == step_count
        assert agent.update_steps == update_steps

    def test_nan_parameter_stops_sparsify(self, karate, rng):
        agent = Agent(karate, AgentConfig(**SMALL), rng=rng)
        agent.policy.embeddings.data[:] = np.nan
        with pytest.raises(PruneRLError, match="non-finite"):
            agent.sparsify(karate, 0.5, 8, rng)


def assert_flat_layout(agent):
    """Each parameter of both models is a view of its model's `flat`, at its
    own offset, and Adam's `m` and `v` views of flat_m and flat_v likewise:
    a parameter rebound to a new array would stop training unnoticed."""
    opt = agent.optimizer
    layouts = [(model.flat, [p.data for p in model.parameters()])
               for model in (agent.policy, agent.target)]
    for flat, views in layouts + [(opt.flat_m, opt.m), (opt.flat_v, opt.v)]:
        assert all(np.shares_memory(view, flat) for view in views)
        assert np.array_equal(flat, np.concatenate([view.ravel() for view in views]))
        saved = flat.copy()
        flat[...] = np.arange(flat.size)
        assert np.array_equal(np.concatenate([view.ravel() for view in views]), np.arange(flat.size))
        flat[...] = saved


class TestFlatParameters:
    def test_new_agent(self, karate):
        agent = Agent(karate, AgentConfig(**SMALL), rng=np.random.default_rng(0))
        assert np.array_equal(agent.target.flat, agent.policy.flat)
        assert_flat_layout(agent)

    def test_loaded_fixture(self, karate):
        assert_flat_layout(Agent.load(CHECKPOINT_V1, karate))

    def test_after_train_steps_and_a_round_trip(self, karate, tmp_path):
        agent = filled_agent(karate)
        before = agent.policy.flat.copy(), agent.target.flat.copy()
        rng = np.random.default_rng(5)
        for _ in range(20):
            agent.train_step(rng)
        assert not np.array_equal(agent.policy.flat, before[0])
        assert not np.array_equal(agent.target.flat, before[1])
        assert_flat_layout(agent)
        agent.save(tmp_path / "ckpt.npz")
        again = Agent.load(tmp_path / "ckpt.npz", karate)
        assert_flat_layout(again)
        for a, b in ((agent.policy.flat, again.policy.flat), (agent.target.flat, again.target.flat),
                     (agent.optimizer.flat_m, again.optimizer.flat_m),
                     (agent.optimizer.flat_v, again.optimizer.flat_v)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("rebind", ["policy", "target", "m", "v"])
    def test_a_rebound_array_is_caught(self, karate, rebind):
        agent = Agent(karate, AgentConfig(**SMALL), rng=np.random.default_rng(0))
        if rebind in ("m", "v"):
            views = getattr(agent.optimizer, rebind)
            views[3] = views[3].copy()
        else:
            p = getattr(agent, rebind).head.b
            p.data = p.data.copy()
        with pytest.raises(AssertionError):
            assert_flat_layout(agent)


class TestSoftUpdate:
    def test_rate_one_copies(self, rng):
        a = QModel(4, emb_dim=4, hidden_dim=8, rng=rng)
        b = QModel(4, emb_dim=4, hidden_dim=8, rng=np.random.default_rng(5))
        b.soft_update_from(a, 1.0)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_rate_zero_freezes(self, rng):
        a = QModel(4, emb_dim=4, hidden_dim=8, rng=rng)
        b = QModel(4, emb_dim=4, hidden_dim=8, rng=np.random.default_rng(5))
        before = [p.data.copy() for p in b.parameters()]
        b.soft_update_from(a, 0.0)
        for p, old in zip(b.parameters(), before):
            assert np.array_equal(p.data, old)


class TestQModelLaws:
    def test_output_length_matches_subgraph(self, rng):
        g = complete_graph(5)
        model = QModel(5, emb_dim=4, hidden_dim=8, rng=rng)
        for k in (1, 3, 10):
            sub = g.sample_subgraph(k, rng)
            assert model.q_forward(sub).data.shape == (len(sub),)

    def test_edge_order_permutation_equivariant(self, rng):
        g = complete_graph(5)
        model = QModel(5, emb_dim=4, hidden_dim=8, rng=rng)
        sub = g.sample_subgraph(6, rng)
        q = model.q_forward(sub).data
        perm = rng.permutation(len(sub))
        import copy

        sub2 = copy.copy(sub)
        sub2.eids = sub.eids[perm]
        sub2.ends = sub.ends[perm]
        q2 = model.q_forward(sub2).data
        assert np.allclose(q2, q[perm], atol=1e-12)

    def test_endpoint_order_symmetric_when_undirected(self, rng):
        g = complete_graph(4)
        model = QModel(4, emb_dim=4, hidden_dim=8, rng=rng)
        sub = g.sample_subgraph(6, rng)
        q = model.q_forward(sub).data
        import copy

        flipped = copy.copy(sub)
        flipped.ends = sub.ends[:, ::-1].copy()
        q2 = model.q_forward(flipped).data
        assert np.allclose(q2, q, atol=1e-12)

    def test_stale_snapshot_rejected_when_acting(self, rng):
        from prunerl.errors import DeadEdgeError

        g = complete_graph(4)
        sub = g.sample_subgraph(6, rng)
        g.prune_edge(sub.eids[0])
        model = QModel(4, emb_dim=4, hidden_dim=8, rng=rng)
        model.q_forward(sub)  # replay path: snapshot stays evaluable
        with pytest.raises(DeadEdgeError):
            sub.require_live(g)


class TestTrainStep:
    def test_td_error_shrinks_on_fixed_transition(self, rng):
        g = complete_graph(5)
        cfg = AgentConfig(batch_size=1, lr=0.01, soft_update_rate=1e-6, **{
            k: v for k, v in SMALL.items() if k != "batch_size"})
        agent = Agent(g, cfg, rng=rng)
        t = Transition(state=g.sample_subgraph(4, rng), action=1, reward=1.0,
                       next_state=g.sample_subgraph(4, rng), done=True)
        agent.buffer.add(*t, priority=1.0)

        def td_error():
            q = agent.policy.q_forward(t.state).data[t.action]
            return abs(1.0 - q)

        e0 = td_error()
        agent.train_step(rng)
        e1 = td_error()
        agent.train_step(rng)
        e2 = td_error()
        assert e1 < e0
        assert e2 < e1

    def test_empty_buffer_rejected(self, rng):
        g = complete_graph(5)
        agent = Agent(g, AgentConfig(**SMALL), rng=rng)
        with pytest.raises(PruneRLError):
            agent.train_step(rng)


class TestEpisodes:
    def test_episode_prune_counts(self, karate, rng):
        agent = Agent(karate, AgentConfig(t_max=4, **SMALL), rng=rng)
        rec = agent.run_episode(PagerankReward(karate), rng)
        assert 1 <= len(rec.prunes) <= 4
        assert len(rec.rewards) == len(rec.prunes)

    def test_deterministic_rerun(self, karate):
        def run(seed):
            agent = Agent(karate, AgentConfig(seed=seed, **SMALL),
                          rng=np.random.default_rng(seed))
            rec = agent.run_episode(SpspReward(karate, pairs_per_endpoint=4),
                                    np.random.default_rng(seed))
            return rec.rewards, rec.prunes

        assert run(3) == run(3)

    def test_train_loop_writes_log(self, karate, rng, tmp_path):
        agent = Agent(karate, AgentConfig(**SMALL), rng=rng)
        log = tmp_path / "log.csv"
        train_loop(agent, PagerankReward(karate), 3, rng, log_path=log)
        lines = log.read_text().strip().splitlines()
        assert lines[0].split(",") == [
            "episode", "step", "epsilon", "loss", "mean_reward", "buffer_size"
        ]
        assert len(lines) == 4

    def test_log_rows_reach_disk_before_a_crash(self, karate, rng, tmp_path):
        log = tmp_path / "log.csv"

        class FailsInThirdEpisode(PagerankReward):
            started = 0

            def on_episode_start(self, g_working, rng):
                self.started += 1
                if self.started == 3:
                    self.on_disk = log.read_text()  # while the log is still open
                    raise RuntimeError("reward failed")

        agent = Agent(karate, AgentConfig(**SMALL), rng=rng)
        reward = FailsInThirdEpisode(karate)
        with pytest.raises(RuntimeError):
            train_loop(agent, reward, 5, rng, log_path=log)
        for text in (reward.on_disk, log.read_text()):
            lines = text.strip().splitlines()
            assert lines[0].startswith("episode,step,")
            assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]


class TestSparsify:
    def test_ratio_one_unchanged(self, karate, rng):
        agent = Agent(karate, AgentConfig(**SMALL), rng=rng)
        out = agent.sparsify(karate, 1.0, 8, rng)
        assert out.live_edge_set() == karate.live_edge_set()

    def test_exact_prune_count(self, karate, rng):
        agent = Agent(karate, AgentConfig(**SMALL), rng=rng)
        out = agent.sparsify(karate, 0.6, 8, rng)
        assert out.edge_count == round(0.6 * 78)

    def test_eval_subgraph_may_exceed_train_length(self, karate, rng):
        agent = Agent(karate, AgentConfig(train_subgraph_len=32, **{
            k: v for k, v in SMALL.items() if k != "train_subgraph_len"}), rng=rng)
        out = agent.sparsify(karate, 0.9, 64, rng)
        assert out.edge_count == round(0.9 * 78)

    def test_unattainable_target_rejected(self, karate, rng):
        agent = Agent(karate, AgentConfig(**SMALL), rng=rng)
        sparser = karate.copy()
        sparser.random_prune(40, rng)
        with pytest.raises(PruneRLError, match="^target of 70 edges exceeds the 38 still live$"):
            agent.sparsify(sparser, 0.9, 8, rng)

    @pytest.mark.parametrize("ratio", [0.0, -0.25, 1.5])
    def test_bad_ratio_message_is_the_baselines(self, karate, rng, ratio):
        agent = Agent(karate, AgentConfig(**SMALL), rng=rng)
        runs = [lambda g, r, rng: agent.sparsify(g, r, 8, rng), *baselines.AT_RATIO.values()]
        for run in runs:
            with pytest.raises(PruneRLError) as exc:
                run(karate, ratio, rng)
            assert str(exc.value) == f"edge-kept ratio must be in (0, 1], got {ratio}"


@pytest.fixture(scope="module")
def benchmark_scale():
    """A seeded 2,000-node, 10,000-edge graph, the size of the planted
    benchmark graph, whole and with 3,000 edges pruned."""
    g = random_sparse_graph(2000, 10000, np.random.default_rng(11))
    pruned = g.copy()
    pruned.random_prune(3000, np.random.default_rng(12))
    return {"whole": g, "pruned": pruned}


class TestInferenceAtBenchmarkScale:
    """At |H| = 128 a sample has ~240 endpoints and 2,100-2,800 hood entries
    over 1,200-1,400 distinct nodes, sizes the karate tests never reach."""

    @pytest.mark.parametrize("which", ["whole", "pruned"])
    def test_sample_equals_oracle(self, benchmark_scale, which):
        g = benchmark_scale[which]
        for size in (8, 32, 128):
            sub = g.sample_subgraph(size, np.random.default_rng(size))
            want = sample_subgraph_oracle(g, size, np.random.default_rng(size))
            for f in fields(CandidateSubgraph):
                got = getattr(sub, f.name)
                np.testing.assert_array_equal(got, getattr(want, f.name), f.name)
                assert got.dtype == getattr(want, f.name).dtype, f.name

    @pytest.mark.parametrize("which", ["whole", "pruned"])
    def test_sparsify_equals_oracle_loop(self, benchmark_scale, which, monkeypatch):
        """32 greedy prunes at each |H| keep the edges, and score them with
        the Q-values, of the op-by-op sample, score, argmax and prune loop."""
        g = benchmark_scale[which]
        agent = Agent(g, AgentConfig(emb_dim=16, hidden_dim=32), rng=np.random.default_rng(13))
        scored = []
        q_forward = agent.policy.q_forward
        monkeypatch.setattr(agent.policy, "q_forward",
                            lambda sub, grad=True: scored.append(q_forward(sub, grad)) or scored[-1])
        ratio = (g.edge_count - 32) / g.original_edge_count
        for size in (8, 32, 128):
            scored.clear()
            out = agent.sparsify(g, ratio, size, np.random.default_rng(size))
            want, rng = g.copy(), np.random.default_rng(size)
            for q in scored:
                sub = sample_subgraph_oracle(want, size, rng)
                q_want = q_forward_batch_oracle(agent.policy, [sub])[0].data
                assert np.array_equal(q.data, q_want)
                want.prune_edge(int(sub.eids[np.argmax(q_want)]))
            assert len(scored) == 32 and out.edge_count == g.edge_count - 32
            assert np.array_equal(out.live_edge_ids(), want.live_edge_ids())


class TestPersistence:
    def test_checkpoint_round_trip(self, karate, rng, tmp_path):
        agent = Agent(karate, AgentConfig(**SMALL), rng=rng)
        train_loop(agent, PagerankReward(karate), 3, rng)
        path = tmp_path / "ckpt.npz"
        agent.save(path)
        again = Agent.load(path, karate)
        assert again.update_steps == agent.update_steps
        assert again.episodes_done == agent.episodes_done
        for a, b in zip(agent.policy.parameters(), again.policy.parameters()):
            assert np.array_equal(a.data, b.data)
        for a, b in zip(agent.target.parameters(), again.target.parameters()):
            assert np.array_equal(a.data, b.data)
        assert again.optimizer.step_count == agent.optimizer.step_count > 0
        for a, b in zip(agent.optimizer.m + agent.optimizer.v, again.optimizer.m + again.optimizer.v):
            assert np.array_equal(a, b)

    def test_version_1_fixture_loads_every_array(self, karate):
        header, arrays = read_checkpoint(CHECKPOINT_V1)
        agent = Agent.load(CHECKPOINT_V1, karate)
        own = [(f"param_{i}_{p.name}", p.data) for i, p in enumerate(agent.policy.parameters())]
        own += [(f"target_{k}", p.data) for (k, _), p in zip(own, agent.target.parameters())]
        own += [(f"opt_{s}_{i}", a) for s in "mv" for i, a in enumerate(getattr(agent.optimizer, s))]
        assert [k for k, _ in own] == list(arrays)
        for k, a in own:
            assert np.array_equal(a, arrays[k]), k
        assert agent.optimizer.step_count == header["optimizer"]["step_count"] == 9
        assert (agent.update_steps, agent.episodes_done) == (9, 6)
        assert (agent.config.emb_dim, agent.config.hidden_dim, agent.config.seed) == (4, 8, 3)

    def test_saving_the_fixture_again_writes_it_unchanged(self, karate, tmp_path):
        Agent.load(CHECKPOINT_V1, karate).save(tmp_path / "again.npz")
        with np.load(CHECKPOINT_V1) as old, np.load(tmp_path / "again.npz") as new:
            assert new.files == old.files
            assert bytes(new["__header__"]) == bytes(old["__header__"])
            for k in old.files:
                assert np.array_equal(new[k], old[k]), k

    @pytest.mark.parametrize("section, name", [
        ("optimizer", "step_count"), ("agent_state", "update_steps"),
        ("agent_state", "episodes_done")])
    @pytest.mark.parametrize("value", [-1, 2.0, True, "3"])
    def test_counter_must_be_a_non_negative_integer(self, section, name, value, karate,
                                                    tmp_path):
        header, arrays = read_checkpoint(CHECKPOINT_V1)
        header[section][name] = value
        path = tmp_path / "edited.npz"
        np.savez(path, **arrays, __header__=np.frombuffer(json.dumps(header).encode(), np.uint8))
        with pytest.raises(DataError, match=f"checkpoint {section}.{name} must be a non-negative"):
            Agent.load(path, karate)

    def test_resume_continues_counters(self, karate, rng, tmp_path):
        agent = Agent(karate, AgentConfig(**SMALL), rng=rng)
        train_loop(agent, PagerankReward(karate), 2, rng)
        steps = agent.update_steps
        path = tmp_path / "ckpt.npz"
        agent.save(path)
        resumed = Agent.load(path, karate)
        train_loop(resumed, PagerankReward(karate), 3, np.random.default_rng(9))
        assert resumed.update_steps > steps
        assert resumed.episodes_done == 5
