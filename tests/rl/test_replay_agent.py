"""Tests for experience replay and the DQN control loop."""

import numpy as np
import pytest

from repro.rl import ale
from repro.rl.agent import DQNAgent, EpsilonSchedule, FrameStack
from repro.rl.replay import ReplayBuffer


class TestReplayBuffer:
    def _filled(self, capacity=10, count=5):
        buffer = ReplayBuffer(capacity, state_shape=(2, 2), seed=0)
        for i in range(count):
            state = np.full((2, 2), i, dtype=np.float32)
            buffer.add(state, i % 3, float(i), state + 1, i % 2 == 0)
        return buffer

    def test_length_grows_then_saturates(self):
        buffer = self._filled(capacity=4, count=10)
        assert len(buffer) == 4

    def test_circular_overwrite(self):
        buffer = self._filled(capacity=3, count=5)
        batch = buffer.sample(64)
        # Transitions 0 and 1 were overwritten by 3 and 4.
        assert batch["rewards"].min() >= 2.0

    def test_sample_fields_and_shapes(self):
        buffer = self._filled()
        batch = buffer.sample(8)
        assert batch["states"].shape == (8, 2, 2)
        assert batch["actions"].dtype == np.int32
        assert batch["dones"].dtype == np.float32
        assert set(batch) == {"states", "actions", "rewards", "next_states",
                              "dones"}

    def test_sample_empty_raises(self):
        buffer = ReplayBuffer(4, state_shape=(2,))
        with pytest.raises(ValueError):
            buffer.sample(1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0, state_shape=(2,))

    def test_stored_transitions_are_copies(self):
        buffer = ReplayBuffer(4, state_shape=(2,))
        state = np.zeros(2, dtype=np.float32)
        buffer.add(state, 0, 0.0, state, False)
        state[:] = 99.0
        assert buffer.sample(1)["states"].max() == 0.0

    def test_paper_scale_capacity_allocates_on_demand(self):
        """A 10^6-frame Atari buffer would need 2 x 105 GiB up front."""
        buffer = ReplayBuffer(10**6, state_shape=(84, 84, 4), seed=0)
        for i in range(3):
            state = np.full((84, 84, 4), i, dtype=np.float32)
            buffer.add(state, i, float(i), state + 1, False)
        batch = buffer.sample(16)
        assert len(buffer) == 3
        assert batch["states"].shape == (16, 84, 84, 4)
        np.testing.assert_array_equal(batch["next_states"][:, 0, 0, 0],
                                      batch["rewards"] + 1)


class TestEpsilonSchedule:
    def test_linear_annealing(self):
        schedule = EpsilonSchedule(start=1.0, end=0.1, decay_steps=100)
        assert schedule.value(0) == 1.0
        assert schedule.value(50) == pytest.approx(0.55)
        assert schedule.value(100) == 0.1
        assert schedule.value(10_000) == 0.1


class TestFrameStack:
    def test_reset_repeats_frame(self):
        stack = FrameStack(depth=4)
        frame = np.ones((3, 3), dtype=np.float32)
        state = stack.reset(frame)
        assert state.shape == (3, 3, 4)
        np.testing.assert_array_equal(state[..., 0], state[..., 3])

    def test_push_slides_window(self):
        stack = FrameStack(depth=3)
        stack.reset(np.zeros((2, 2), dtype=np.float32))
        newest = np.ones((2, 2), dtype=np.float32)
        state = stack.push(newest)
        np.testing.assert_array_equal(state[..., 2], newest)
        np.testing.assert_array_equal(state[..., 0], 0.0)


class _RandomQNetwork:
    """Protocol stub: uniform Q-values, counts training calls."""

    def __init__(self, num_actions):
        self.num_actions = num_actions
        self.train_calls = 0
        self.sync_calls = 0

    def q_values(self, states):
        return np.zeros((states.shape[0], self.num_actions),
                        dtype=np.float32)

    def train_on_batch(self, batch):
        self.train_calls += 1
        return 0.5

    def sync_target(self):
        self.sync_calls += 1


class TestDQNAgent:
    def _agent(self, **kwargs):
        env = ale.make("catch", screen_size=10, seed=0)
        network = _RandomQNetwork(env.num_actions)
        replay = ReplayBuffer(256, state_shape=(10, 10, 4), seed=0)
        defaults = dict(frame_depth=4, batch_size=4, min_replay=8,
                        target_sync_interval=10, seed=0)
        defaults.update(kwargs)
        return DQNAgent(network, env, replay, **defaults), network

    def test_fill_replay_populates_buffer(self):
        agent, _ = self._agent()
        agent.fill_replay(32)
        assert len(agent.replay) == 32

    def test_episode_trains_and_syncs(self):
        agent, network = self._agent()
        agent.fill_replay(16)
        for _ in range(3):
            reward, losses = agent.run_episode(max_steps=50)
        assert network.train_calls > 0
        assert network.sync_calls > 0
        assert len(agent.episode_rewards) == 3

    def test_no_training_until_min_replay(self):
        agent, network = self._agent(min_replay=10_000)
        agent.run_episode(max_steps=20)
        assert network.train_calls == 0

    def test_greedy_action_with_zero_epsilon(self):
        agent, _ = self._agent(epsilon=EpsilonSchedule(0.0, 0.0, 1))
        state = np.zeros((10, 10, 4), dtype=np.float32)
        # All-zero Q-values -> argmax is action 0, deterministically.
        assert agent.select_action(state) == 0

    def test_exploration_with_full_epsilon(self):
        agent, _ = self._agent(epsilon=EpsilonSchedule(1.0, 1.0, 1))
        state = np.zeros((10, 10, 4), dtype=np.float32)
        actions = {agent.select_action(state) for _ in range(50)}
        assert len(actions) > 1
