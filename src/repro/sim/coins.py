"""Shared randomness derivation for every execution path.

Every engine — the per-node reference engine
(:class:`~repro.sim.engine.SynchronousEngine`), the vectorised multi-trial
:class:`~repro.sim.fast.BatchedFastEngine` (a single run is its one-trial
batch), and the macro-step engine — must produce *identical* executions
for the same ``(network, algorithm, seed)``.  Two pieces make
that possible:

* **Per-node RNG derivation.**  Node ``v`` of a run with master seed ``s``
  owns the stream ``random.Random(f"{s}:{v}")`` (the scheme the reference
  engine has always used).  :func:`derive_node_rng` is the single place
  this string is built; engines must not re-derive it themselves.

* **Slot-indexed coin flips.**  A sequential stream cannot be shared
  between a per-node protocol and a vectorised array program: the two
  would consume it in different orders.  Transmission coins are therefore
  *counter-based*: the coin of node ``v`` in slot ``t`` is a pure function
  ``uniform(s, v, t)`` of the master seed, the label, and the slot — a
  splitmix64-style hash, bit-identical between the scalar implementation
  (:meth:`NodeRandom.coin`, used by protocols) and the vectorised one
  (:meth:`CoinSource.uniform`, used by the fast engines).  Batching over
  trials is then just a second key axis.

Trial seeds for Monte-Carlo repetition are derived by
:func:`derive_trial_seeds` (``base_seed + i``, the historical
``repeat_broadcast`` convention) so serial and batched estimates use the
same per-trial executions.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np

__all__ = [
    "NODE_STREAM_TEMPLATE",
    "NodeRandom",
    "CoinSource",
    "derive_node_rng",
    "derive_trial_seeds",
    "node_key",
    "coin_uniform",
]

#: The canonical per-node stream id.  ``random.Random`` seeded with this
#: string is the node's private sequential RNG; changing the template forks
#: every recorded result, so it is pinned by tests.
NODE_STREAM_TEMPLATE = "{seed}:{label}"

_MASK64 = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15  # splitmix64 golden-ratio increment
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_STEP_SALT = 0xD6E8FEB86659FD93
# numpy scalars of the constants the vectorised paths use every slot.
_U_PHI = np.uint64(_PHI)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_U11, _U27, _U30, _U31 = (np.uint64(k) for k in (11, 27, 30, 31))
#: Share of live cells above which :meth:`CoinSource.thin` hashes the
#: whole key array rather than gathering the live keys.  Results never
#: depend on it.
_THIN_DENSE_SHARE = 0.5


def _mix64(z: int) -> int:
    """Scalar splitmix64 finalizer (Python ints, mod 2^64)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finalizer.  Mutates and returns ``z`` (uint64)."""
    z ^= z >> _U30
    z *= _U_MIX1
    z ^= z >> _U27
    z *= _U_MIX2
    z ^= z >> _U31
    return z


def node_key(seed: int, label: int) -> int:
    """64-bit coin key of node ``label`` under master seed ``seed``.

    Defined as ``mix64(mix64(seed + PHI) ^ (label * PHI mod 2^64))``; the
    vectorised paths compute exactly this per element.  (The ``+ PHI``
    keeps the all-zero input away from splitmix64's fixed point at 0, so
    the common ``seed=0, label=0, step=0`` cell is not degenerate.)
    """
    # int() lifts numpy integers to Python ints before the mod-2^64 math.
    return _mix64(_mix64(int(seed) + _PHI) ^ ((int(label) & _MASK64) * _PHI & _MASK64))


def _node_keys(seed: int, labels: np.ndarray) -> np.ndarray:
    """Vectorised :func:`node_key` over a label array -> uint64 keys."""
    z = labels.astype(np.uint64) * _U_PHI
    z ^= np.uint64(_mix64(seed + _PHI))
    return _mix64_inplace(z)


def _step_salt(step: int) -> int:
    return (int(step) & _MASK64) * _STEP_SALT & _MASK64


def _salt64(step: int) -> np.uint64:
    return np.uint64(_step_salt(step))


def _coin_bound(p: float) -> np.uint64:
    """The integer ``b`` with ``coin < p`` iff ``mixed < b``, for ``0 <= p < 1``.

    A coin is ``(mixed >> 11) * 2**-53`` with ``mixed >> 11`` an integer
    below ``2**53``, and scaling by a power of two is exact, so
    ``coin < p`` iff ``mixed >> 11 < ceil(p * 2**53)`` iff
    ``mixed < ceil(p * 2**53) << 11`` — a comparison of the mixed keys
    that skips the float conversion.
    """
    return np.uint64(math.ceil(p * 2.0**53) << 11)


def _coins_of(z: np.ndarray) -> np.ndarray:
    """Coins in [0, 1) from salted keys ``z`` (a private copy; mutated)."""
    _mix64_inplace(z)
    z >>= _U11
    out = z.astype(np.float64)
    out *= 2.0**-53
    return out


def coin_uniform(seed: int, label: int, step: int) -> float:
    """The transmission coin of ``(seed, label, step)`` as a float in [0, 1)."""
    z = _mix64(node_key(seed, label) ^ _step_salt(step))
    return (z >> 11) * 2.0**-53


class NodeRandom(random.Random):
    """The per-node RNG handed to protocols by the reference engine.

    Behaves exactly like ``random.Random(f"{seed}:{label}")`` for the
    sequential API (so protocols that draw free-form randomness keep their
    historical streams) and additionally exposes the slot-indexed
    :meth:`coin` that transmission decisions must use.
    """

    def __init__(self, seed: int, label: int) -> None:
        super().__init__(NODE_STREAM_TEMPLATE.format(seed=seed, label=label))
        self.run_seed = seed
        self.label = label
        self._coin_key = node_key(seed, label)

    def coin(self, step: int) -> float:
        """Slot-indexed transmission coin; equals :func:`coin_uniform`."""
        z = _mix64(self._coin_key ^ _step_salt(step))
        return (z >> 11) * 2.0**-53


def derive_node_rng(seed: int, label: int) -> NodeRandom:
    """Derive node ``label``'s private RNG for a run with master ``seed``.

    The single derivation point shared by every engine (the reference
    engine constructs protocols with it; the fast engines build their
    :class:`CoinSource` keys from the same ``(seed, label)`` pairs).
    """
    return NodeRandom(seed, label)


def derive_trial_seeds(base_seed: int, trials: int) -> list[int]:
    """Per-trial master seeds for ``trials`` Monte-Carlo repetitions.

    ``base_seed + i`` — the convention :func:`~repro.sim.run.repeat_broadcast`
    has always used; the batched path derives its trials identically.
    """
    return [base_seed + i for i in range(trials)]


class CoinSource:
    """Vectorised access to the slot-indexed coins of one run or one batch.

    Wraps a uint64 key array of shape ``(n,)`` (single run) or
    ``(trials, n)`` (batched run); :meth:`uniform` yields the coins of one
    slot for every (trial,) node at once, bit-identical to
    :func:`coin_uniform` / :meth:`NodeRandom.coin` element by element.
    """

    def __init__(self, keys: np.ndarray) -> None:
        self._keys = keys

    @property
    def shape(self) -> tuple[int, ...]:
        return self._keys.shape

    @classmethod
    def for_run(cls, seed: int, labels: np.ndarray) -> "CoinSource":
        """Keys of shape ``(n,)`` for a single run."""
        return cls(_node_keys(seed, labels))

    @classmethod
    def for_batch(cls, seeds: Sequence[int], labels: np.ndarray) -> "CoinSource":
        """Keys of shape ``(trials, n)``; row ``t`` equals ``for_run(seeds[t])``."""
        keys = np.empty((len(seeds), labels.shape[0]), dtype=np.uint64)
        for row, seed in enumerate(seeds):
            keys[row] = _node_keys(seed, labels)
        return cls(keys)

    def uniform(self, step: int) -> np.ndarray:
        """Coins of slot ``step`` as float64 in [0, 1), shaped like the keys."""
        return _coins_of(self._keys ^ _salt64(step))

    def uniform_at(self, step: int, idx: np.ndarray) -> np.ndarray:
        """Coins of slot ``step`` for the *flat* key indices ``idx`` only.

        ``uniform_at(step, idx)`` equals ``uniform(step).ravel()[idx]``
        element by element (each coin is a pure function of its own key)
        but costs ``O(len(idx))`` rather than the size of the key array.
        For ``(n,)`` keys a flat index is a node index; for
        ``(trials, n)`` keys it is ``trial * n + node``.
        """
        z = self._keys.take(idx)
        z ^= _salt64(step)
        return _coins_of(z)

    def keys_below(self, step: int, keys_sub: np.ndarray, p: float) -> np.ndarray:
        """``coins < p`` in slot ``step`` for a pre-gathered key subset.

        Equals ``uniform_at(step, idx) < p`` for ``keys_sub = keys[idx]``
        and ``0 <= p < 1``, compared as integers (:func:`_coin_bound`)
        without converting coins to floats.  Callers that flip coins for
        the same node subset over many consecutive slots (the macro-step
        engine, whose eligible set is constant within a KP stage) gather
        the keys once and amortise the fancy-index copy across the run of
        slots.
        """
        return _mix64_inplace(keys_sub ^ _salt64(step)) < _coin_bound(p)

    def thin(self, mask: np.ndarray, step: int, p: float) -> np.ndarray:
        """Clear each ``True`` cell of ``mask`` whose slot-``step`` coin is
        ``>= p``, in place; returns ``mask``.

        The one transmit-coin rule of the vectorised schedules: the result
        equals ``mask & (uniform(step) < p)`` exactly, but coins are
        flipped only at the ``True`` cells, so a slot costs the live set
        rather than the whole ``(n,)`` or ``(trials, n)`` key array (a
        slot with no live cell hashes nothing), and they are compared as
        integers (:meth:`keys_below`).  ``mask`` must be a C-contiguous
        boolean array shaped like the keys.
        """
        if mask.shape != self._keys.shape or not mask.flags.c_contiguous:
            raise ValueError(
                f"thin() needs a C-contiguous mask of shape {self._keys.shape}, "
                f"got {mask.shape}"
            )
        if not p > 0.0:  # NaN included: no coin is below it
            mask[...] = False
            return mask
        if p >= 1.0:  # every coin is below 1
            return mask
        live = np.count_nonzero(mask)
        if live > _THIN_DENSE_SHARE * mask.size:
            mask &= self.keys_below(step, self._keys, p)
        elif live:
            flat = mask.reshape(-1)  # a view: the mask is C-contiguous
            idx = flat.nonzero()[0]
            flat[idx] = self.keys_below(step, self._keys.take(idx), p)
        return mask
