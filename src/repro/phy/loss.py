"""Per-packet loss processes for a corrupting link.

Two processes are provided:

* :class:`BernoulliLoss` — independent and identically distributed drops,
  the model behind the paper's analytic effective-loss-rate expectation
  ``p**(N+1)`` (§3.4).
* :class:`GilbertElliottLoss` — a two-state bursty process used to study
  consecutive packet losses (paper Figure 20 and §3.5's provisioning of
  5 one-bit ``reTxReqs`` registers).  The paper observed that at very high
  attenuation losses are *not* i.i.d.; Gilbert–Elliott reproduces the
  short geometric loss bursts they measured.

A loss process answers one question per transmitted frame: is this frame
corrupted (and therefore dropped by the receiving MAC)?
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..core.rng import RngFactory

__all__ = [
    "LossProcess", "NoLoss", "BernoulliLoss", "GilbertElliottLoss",
    "ScriptedLoss", "DataFrameLoss", "burst_length_distribution",
]


def _default_stream(name: str) -> np.random.Generator:
    """Fallback for a forgotten ``rng=``: a fixed named stream rather than
    an OS-entropy generator, so omitting the argument can never silently
    break run-to-run reproducibility."""
    return RngFactory(0).stream(f"phy.loss.{name}")


class LossProcess:
    """Interface: ``corrupts(packet)`` is called once per frame, in order.

    The frame being transmitted is passed for processes that target
    specific traffic (test fixtures); physical processes ignore it.
    """

    #: nominal average loss rate (for reporting / Equation 2)
    rate: float = 0.0

    def corrupts(self, packet=None) -> bool:
        raise NotImplementedError

    def corrupts_idle(self, n: int) -> Optional[List[int]]:
        """The next ``n`` frames at once, for ``n`` header-less control
        frames (dummies, explicit ACKs): exactly what ``n`` calls of
        :meth:`corrupts` would answer and leave behind, as the sorted
        0-based indices of the corrupted ones.

        ``None`` means "cannot say without seeing each frame" — the
        default, so a process that targets particular traffic keeps
        being asked frame by frame.
        """
        return None


class NoLoss(LossProcess):
    """A healthy link."""

    rate = 0.0

    def corrupts(self, packet=None) -> bool:
        return False

    def corrupts_idle(self, n: int) -> List[int]:
        return []


class BernoulliLoss(LossProcess):
    """I.i.d. corruption with probability ``rate`` per frame."""

    def __init__(self, rate: float, rng: Optional[np.random.Generator] = None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0,1], got {rate}")
        self.rate = float(rate)
        self._rng = rng if rng is not None else _default_stream("bernoulli")
        # Drawing geometric gaps between losses is ~100x cheaper than one
        # uniform draw per packet at rates like 1e-5.
        self._until_next = self._draw_gap()

    def _draw_gap(self) -> int:
        if self.rate <= 0.0:
            return -1
        if self.rate >= 1.0:
            return 0
        return int(self._rng.geometric(self.rate)) - 1

    def corrupts(self, packet=None) -> bool:
        if self._until_next < 0:
            return False
        if self._until_next == 0:
            self._until_next = self._draw_gap()
            return True
        self._until_next -= 1
        return False

    def corrupts_idle(self, n: int) -> List[int]:
        # gap arithmetic: one draw per loss, none per clean frame —
        # the same draws, in the same order, as n calls of corrupts()
        lost: List[int] = []
        at = self._until_next
        if at < 0:
            return lost
        while at < n:
            lost.append(at)
            at += self._draw_gap() + 1
        self._until_next = at - n
        return lost


class GilbertElliottLoss(LossProcess):
    """Two-state Markov loss: GOOD (no loss) and BAD (loss w.p. ``h``).

    Parameters are derived from the target average loss rate and the mean
    burst length: with loss probability 1 in BAD, ``p_gb`` (GOOD->BAD) and
    ``p_bg`` (BAD->GOOD) satisfy

        mean burst length  = 1 / p_bg
        stationary loss    = p_gb / (p_gb + p_bg)
    """

    def __init__(
        self,
        rate: float,
        mean_burst: float = 1.35,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not math.isfinite(rate) or not 0.0 < rate < 1.0:
            raise ValueError(
                f"rate must be in (0,1) for Gilbert-Elliott, got {rate}"
            )
        if not math.isfinite(mean_burst) or mean_burst < 1.0:
            raise ValueError(
                f"mean burst length must be >= 1 packet, got {mean_burst}"
            )
        self.rate = float(rate)
        self.mean_burst = float(mean_burst)
        self._p_bg = 1.0 / mean_burst
        self._p_gb = rate * self._p_bg / (1.0 - rate)
        if not 0.0 <= self._p_gb <= 1.0 or not 0.0 <= self._p_bg <= 1.0:
            raise ValueError(
                f"infeasible (rate={rate}, mean_burst={mean_burst}): derived "
                f"transition probabilities p_gb={self._p_gb:g}, "
                f"p_bg={self._p_bg:g} must lie in [0,1]"
            )
        self._rng = rng if rng is not None else _default_stream("gilbert-elliott")
        self._bad = False

    def corrupts(self, packet=None) -> bool:
        if self._bad:
            if self._rng.random() < self._p_bg:
                self._bad = False
        else:
            if self._rng.random() < self._p_gb:
                self._bad = True
        return self._bad

    def corrupts_idle(self, n: int) -> List[int]:
        return [index for index in range(n) if self.corrupts()]


class ScriptedLoss(LossProcess):
    """Drops exactly the frames whose 0-based transmission index is listed.

    Deterministic, for tests and didactic examples: ``ScriptedLoss({3})``
    corrupts the 4th frame crossing the link and nothing else.
    """

    def __init__(self, drop_indices) -> None:
        indices = list(drop_indices)
        seen = set()
        for index in indices:
            if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
                raise ValueError(
                    f"drop index must be an integer, got {index!r}"
                )
            if index < 0:
                raise ValueError(f"drop index must be >= 0, got {index}")
            if index in seen:
                raise ValueError(
                    f"duplicate drop index {index}: each frame index can "
                    f"only be dropped once"
                )
            seen.add(int(index))
        self.drop_indices = seen
        self.rate = 0.0
        self._index = -1

    def corrupts(self, packet=None) -> bool:
        self._index += 1
        return self._index in self.drop_indices

    def corrupts_idle(self, n: int) -> List[int]:
        first = self._index + 1
        self._index += n
        return sorted(index - first for index in self.drop_indices
                      if first <= index < first + n)

    @property
    def frames_seen(self) -> int:
        return self._index + 1


class DataFrameLoss(LossProcess):
    """Drops selected *protected original data* frames, by index.

    Unlike :class:`ScriptedLoss` (which counts every frame crossing the
    link, dummies and retransmissions included), this process counts
    only LinkGuardian-stamped original data frames — the population the
    analytic backend reasons about — so a drop placement computed
    analytically ("the k-th data frame of flow 7") lands on exactly that
    frame regardless of how control traffic interleaves.  The hybrid
    splicing backend uses it to materialize conditioned loss placements
    inside packet-engine windows.

    Args:
        drop_indices: 0-based indices among all protected original data
            frames crossing the link, in transmission order.
        per_flow: optional ``{flow_id: indices}``; each flow's data
            frames are counted separately (retx copies excluded).
        rate: the *nominal* loss rate the placements were conditioned
            on — reported to Equation 2 (``ProtectedLink.activate``
            derives the copy count N from it) but never drawn from.
    """

    def __init__(self, drop_indices=(), per_flow=None, rate: float = 0.0) -> None:
        self.rate = float(rate)
        self.drop_indices = {int(i) for i in drop_indices}
        self.per_flow = {
            flow_id: {int(i) for i in indices}
            for flow_id, indices in (per_flow or {}).items()
        }
        self._seen = 0
        self._flow_seen: dict = {}

    def corrupts(self, packet=None) -> bool:
        if packet is None or packet.lg is None or packet.lg.is_retx:
            return False
        index = self._seen
        self._seen += 1
        drop = index in self.drop_indices
        flow_drops = self.per_flow.get(packet.flow_id)
        if flow_drops is not None:
            flow_index = self._flow_seen.get(packet.flow_id, 0)
            self._flow_seen[packet.flow_id] = flow_index + 1
            drop = drop or flow_index in flow_drops
        return drop

    def corrupts_idle(self, n: int) -> List[int]:
        return []   # control frames carry no LinkGuardian data header

    @property
    def frames_seen(self) -> int:
        return self._seen


def burst_length_distribution(
    process: LossProcess, n_packets: int
) -> "np.ndarray":
    """Lengths of consecutive-loss runs observed over ``n_packets`` frames.

    Used by the Figure 20 reproduction: feed a high-rate loss process and
    histogram how many packets are lost back-to-back.
    """
    bursts = []
    run = 0
    for _ in range(n_packets):
        if process.corrupts():
            run += 1
        elif run:
            bursts.append(run)
            run = 0
    if run:
        bursts.append(run)
    return np.asarray(bursts, dtype=np.int64)
