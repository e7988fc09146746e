import copy
from dataclasses import fields

import numpy as np
import pytest

from prunerl.errors import PruneRLError
from prunerl.graph import CandidateSubgraph, Graph
from prunerl.replay import ReplayBuffer, SnapshotStore

from conftest import complete_graph, sampling_probabilities
from oracles import (SumTree, SumTreeReplay, Transition, concat_oracle, keep_transitions,
                     pick_oracle)


def make_transition(rng, reward=0.0, done=False):
    g = complete_graph(4)
    state = g.sample_subgraph(3, rng)
    nxt = g.sample_subgraph(3, rng)
    return Transition(state=state, action=0, reward=reward, next_state=nxt, done=done)


class FixedDraws:
    """Stands in for a generator whose `random(n)` returns given draws."""

    def __init__(self, draws):
        self.draws = np.array(draws)

    def random(self, size):
        assert size == len(self.draws)
        return self.draws


class TestTransition:
    def test_action_range_checked(self, rng):
        g = complete_graph(4)
        state = g.sample_subgraph(2, rng)
        buf = ReplayBuffer(capacity=4)
        with pytest.raises(PruneRLError, match="^action index 2 out of range for state of length 2$"):
            buf.add(state, 2, 0.0, state, False)
        assert len(buf) == 0


class TestSumTree:
    def test_total_is_sum(self):
        tree = SumTree(8)
        vals = [3.0, 1.0, 4.0, 1.5]
        for i, v in enumerate(vals):
            tree.update(i, v)
        assert tree.total() == pytest.approx(sum(vals))

    def test_find_respects_prefix(self):
        tree = SumTree(4)
        for i, v in enumerate([1.0, 2.0, 3.0, 4.0]):
            tree.update(i, v)
        # cumulative boundaries: [0,1), [1,3), [3,6), [6,10)
        assert tree.find(0.5) == 0
        assert tree.find(1.5) == 1
        assert tree.find(4.0) == 2
        assert tree.find(9.9) == 3

    def test_update_overwrites(self):
        tree = SumTree(4)
        tree.update(0, 5.0)
        tree.update(0, 1.0)
        assert tree.total() == pytest.approx(1.0)


class TestReplayBuffer:
    def test_sample_respects_prefix(self, rng):
        buf = ReplayBuffer(capacity=8, alpha=1.0)
        for i, p in enumerate((1.0, 2.0, 3.0, 4.0)):
            buf.add(*make_transition(rng, reward=float(i)), priority=p)
        # cumulative boundaries: [0,1], (1,3], (3,6], (6,10]; a draw on a
        # boundary takes the lower slot, as the sum tree's walk did
        draws = np.array([0.5, 1.5, 4.0, 9.9, 1.0, 6.0]) / 10
        idx, batch, _ = buf.sample(len(draws), FixedDraws(draws))
        assert idx.tolist() == [0, 1, 2, 3, 0, 2]
        assert batch.rewards.tolist() == idx.tolist()

    def test_update_overwrites(self, rng):
        buf = ReplayBuffer(capacity=4, alpha=1.0, priority_floor=1e-3)
        buf.add(*make_transition(rng), priority=1.0)
        buf.update_priorities([0], [5.0])
        buf.update_priorities([0], [1.0])
        assert buf.weight[0] == pytest.approx(1.001)
        assert buf.max_priority == pytest.approx(5.001)

    def test_repeated_index_keeps_last_td_error(self, rng):
        buf = ReplayBuffer(capacity=4, alpha=0.6)
        ref = SumTreeReplay(capacity=4, alpha=0.6)
        for _ in range(3):
            buf.add(*make_transition(rng), priority=1.0)
            ref.add(priority=1.0)
        indices, td = np.array([1, 0, 1, 1]), np.array([2.0, -3.0, 7.0, -0.5])
        buf.update_priorities(indices, td)
        ref.update_priorities(indices, td)
        assert buf.weight[1] == pytest.approx(0.501 ** 0.6, rel=1e-15)
        assert np.allclose(buf.weight, ref.tree.tree[3:], rtol=1e-15, atol=0)
        assert buf.max_priority == ref.max_priority == 7.001

    def test_lockstep_with_sum_tree_oracle(self):
        """Same generator stream, same indices as the sum tree's walk; the
        IS weights agree to rounding over more than 100k draws, the ring
        wrapping and repeated indices in the updates included."""
        capacity, batch_size = 2048, 40
        buf = ReplayBuffer(capacity)
        ref = SumTreeReplay(capacity)
        rng, draw_rng, ref_draw_rng = (np.random.default_rng(s) for s in (0, 1, 1))
        transition = make_transition(rng)
        draws = 0
        for step in range(3000):
            p = None if step % 3 else float(rng.uniform(0.01, 5.0))
            buf.add(*transition, priority=p)
            ref.add(priority=p)
            if len(buf) < batch_size:
                continue
            idx, _, weights = buf.sample(batch_size, draw_rng)
            ref_idx, ref_weights = ref.sample(batch_size, ref_draw_rng)
            assert np.array_equal(idx, ref_idx), step
            np.testing.assert_allclose(weights, ref_weights, rtol=1e-12, atol=0)
            td = rng.standard_normal(batch_size) * 10.0 ** rng.integers(-3, 2)
            buf.update_priorities(idx, td)
            ref.update_priorities(ref_idx, td)
            draws += batch_size
        assert draws >= 100_000
        assert buf.max_priority == ref.max_priority
        np.testing.assert_allclose(buf.weight, ref.tree.tree[capacity - 1:],
                                   rtol=1e-15, atol=0)

    def test_sampling_probability_law(self, rng):
        buf = ReplayBuffer(capacity=16, alpha=0.6)
        priorities = [0.5, 1.0, 2.0, 4.0]
        for p in priorities:
            buf.add(*make_transition(rng), priority=p)
        probs = sampling_probabilities(buf)
        expected = np.array(priorities) ** 0.6
        expected /= expected.sum()
        assert np.allclose(probs, expected)

    def test_empirical_frequencies(self, rng):
        buf = ReplayBuffer(capacity=8, alpha=0.6)
        for p in (0.2, 1.0, 3.0):
            buf.add(*make_transition(rng), priority=p)
        counts = np.zeros(3)
        draws = 20_000
        for _ in range(draws // 4):
            idx, _, _ = buf.sample(4, rng)
            for i in idx:
                counts[i] += 1
        freqs = counts / draws
        assert np.allclose(freqs, sampling_probabilities(buf), atol=0.02)

    def test_importance_weights(self, rng):
        buf = ReplayBuffer(capacity=8, alpha=0.6, beta=0.4)
        for p in (1.0, 2.0, 4.0):
            buf.add(*make_transition(rng), priority=p)
        probs = sampling_probabilities(buf)
        raw = (len(buf) * probs) ** -0.4
        expected = raw / raw.max()
        idx, _, weights = buf.sample(3, rng)
        assert np.allclose(weights, expected[idx])

    def test_priority_floor_applied(self, rng):
        buf = ReplayBuffer(capacity=4, alpha=1.0, priority_floor=1e-3)
        buf.add(*make_transition(rng), priority=1.0)
        buf.update_priorities([0], [0.0])  # zero TD error
        assert sampling_probabilities(buf)[0] == pytest.approx(1.0)
        assert buf.weight[0] == pytest.approx(1e-3)

    def test_new_items_get_max_priority(self, rng):
        buf = ReplayBuffer(capacity=4, alpha=1.0)
        buf.add(*make_transition(rng), priority=5.0)
        buf.add(*make_transition(rng))  # no explicit priority
        assert buf.weight[1] == pytest.approx(5.0)

    def test_capacity_ring(self, rng):
        buf = ReplayBuffer(capacity=3, alpha=1.0)
        for i in range(5):
            buf.add(*make_transition(rng, reward=float(i)), priority=1.0)
        assert len(buf) == 3
        assert sorted(buf.reward.tolist()) == [2.0, 3.0, 4.0]

    def test_empty_sample_rejected(self, rng):
        buf = ReplayBuffer(capacity=4)
        with pytest.raises(PruneRLError):
            buf.sample(1, rng)


def directed_graph():
    return Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (1, 4), (4, 1)],
                 directed=True)


def episode_stream(g, rng, count):
    """`count` transitions as `Agent.run_episode` hands them on: within an
    episode each state is the previous next state, the same object. States
    hold 1 to 12 candidates; a done item's next state is its state when the
    graph ran out of edges, and a sample of its own otherwise."""
    out = []
    while len(out) < count:
        gi = g.copy()
        gi.random_prune(int(rng.integers(0, g.edge_count // 2)), rng)
        state = gi.sample_subgraph(int(rng.integers(1, 13)), rng)
        done = False
        while not done:
            action = int(rng.integers(len(state)))
            gi.prune_edge(int(state.eids[action]))
            nxt = gi.sample_subgraph(int(rng.integers(1, 13)), rng) if gi.edge_count else state
            done = gi.edge_count == 0 or rng.random() < 0.2
            out.append(Transition(state, action, float(rng.normal()), nxt, done))
            state = nxt
    return out[:count]


def assert_same_snapshot(got, want):
    for f in fields(CandidateSubgraph):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
        np.testing.assert_array_equal(a, b, f.name)


class TestSnapshotStore:
    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_gathers_equal_the_oracle_after_every_wrap(self, karate, directed):
        """Both gathers of any slots, repeats included, equal field for field
        the oracle's layout of the transitions last written there."""
        rng = np.random.default_rng(11)
        buf = ReplayBuffer(capacity=8)
        slots = keep_transitions(buf)
        wraps = 0
        for tr in episode_stream(directed_graph() if directed else karate, rng, 5 * 8 + 3):
            buf.add(*tr)
            if buf.write:
                continue
            wraps += 1
            for _ in range(5):
                picks = rng.integers(8, size=int(rng.integers(1, 20)))
                kept = [slots[j] for j in picks]
                b = buf.batch(picks)
                assert b.actions.tolist() == [tr.action for tr in kept]
                assert b.rewards.tolist() == [tr.reward for tr in kept]
                assert b.done.tolist() == [tr.done for tr in kept]
                live = np.flatnonzero(~b.done)
                for recs, subs, rows in (
                        (b.states, [tr.state for tr in kept], b.actions),
                        (b.next_states[live], [kept[i].next_state for i in live], None)):
                    if not subs:
                        continue
                    sub, starts, counts = b.store.candidates(recs)
                    want = concat_oracle(subs)
                    assert_same_snapshot(sub, want)
                    assert counts.tolist() == [len(s) for s in subs]
                    assert starts.tolist() == np.cumsum([0] + counts.tolist()[:-1]).tolist()
                    if rows is None:
                        rows = np.array([int(rng.integers(len(s))) for s in subs])
                    assert_same_snapshot(b.store.rows(recs, rows), pick_oracle(want, starts + rows))
        assert wraps >= 5

    def test_a_handed_on_state_is_stored_once(self, karate, rng):
        s0, s1, s2 = (karate.sample_subgraph(k, rng) for k in (3, 5, 4))
        buf = ReplayBuffer(capacity=8)
        buf.add(s0, 0, 0.0, s1, False)
        buf.add(s1, 1, 0.0, s2, False)
        used = buf.store.used
        assert used[SnapshotStore.REC] == 3
        assert buf.store.recs[0, 1] == buf.store.recs[1, 0]
        buf.add(s2, 2, 0.0, s2, True)  # its own next state
        assert used[SnapshotStore.REC] == 3
        assert buf.store.recs[2].tolist() == [buf.store.recs[1, 1]] * 2
        buf.add(copy.copy(s0), 0, 0.0, s2, True)  # equal, but not the same object
        assert used[SnapshotStore.REC] == 4
        assert used[SnapshotStore.EDGE] == 3 + 5 + 4 + 3

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_store_holds_at_most_twice_its_live_entries(self, karate, directed):
        rng = np.random.default_rng(12)
        buf = ReplayBuffer(capacity=8)
        slots = keep_transitions(buf)
        stream = episode_stream(directed_graph() if directed else karate, rng, 40 * 8)
        for tr in stream:
            buf.add(*tr)
            live = {id(s): s for t in slots if t is not None
                    for s in ([t.state] if t.done else [t.state, t.next_state])}
            need = np.sum([[len(s), len(s.node_degrees), len(s.hood)] for s in live.values()], axis=0)
            used = np.array(buf.store.used)[[SnapshotStore.EDGE, SnapshotStore.NODE, SnapshotStore.HOOD]]
            assert (used <= 2 * need).all(), (used, need)
        assert buf.store.used[SnapshotStore.REC] < len(stream) // 4  # dropped as the ring wrapped
