"""Experience replay (Mnih et al., 2013).

The paper highlights experience replay as one of deepq's "innovative
strategies" for decoupled feedback: transitions are stored in a circular
buffer and training samples minibatches uniformly at random, breaking the
temporal correlation of consecutive frames.
"""

from __future__ import annotations

import numpy as np


class ReplayBuffer:
    """Fixed-capacity circular transition store with uniform sampling.

    The backing arrays start empty and double on demand up to
    ``capacity``, so a paper-scale buffer (10^5 or 10^6 Atari frames)
    costs memory only for the transitions actually stored.
    """

    _FIELDS = ("_states", "_actions", "_rewards", "_next_states", "_dones")

    def __init__(self, capacity: int, state_shape: tuple[int, ...],
                 seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.rng = np.random.default_rng(seed)
        self._states = np.zeros((0,) + state_shape, dtype=np.float32)
        self._actions = np.zeros(0, dtype=np.int32)
        self._rewards = np.zeros(0, dtype=np.float32)
        self._next_states = np.zeros((0,) + state_shape, dtype=np.float32)
        self._dones = np.zeros(0, dtype=np.float32)
        self._next_slot = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _grow(self) -> None:
        """Double the backing arrays (at least one slot, at most capacity)."""
        allocated = len(self._actions)
        grown = min(self.capacity, max(1, 2 * allocated))
        for name in self._FIELDS:
            old = getattr(self, name)
            new = np.zeros((grown,) + old.shape[1:], dtype=old.dtype)
            new[:allocated] = old
            setattr(self, name, new)

    def add(self, state: np.ndarray, action: int, reward: float,
            next_state: np.ndarray, done: bool) -> None:
        slot = self._next_slot
        if slot == len(self._actions):
            self._grow()
        self._states[slot] = state
        self._actions[slot] = action
        self._rewards[slot] = reward
        self._next_states[slot] = next_state
        self._dones[slot] = float(done)
        self._next_slot = (slot + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int) -> dict[str, np.ndarray]:
        """A uniform random minibatch of stored transitions."""
        if self._size == 0:
            raise ValueError("cannot sample from an empty replay buffer")
        idx = self.rng.integers(0, self._size, size=batch_size)
        return {"states": self._states[idx],
                "actions": self._actions[idx],
                "rewards": self._rewards[idx],
                "next_states": self._next_states[idx],
                "dones": self._dones[idx]}
