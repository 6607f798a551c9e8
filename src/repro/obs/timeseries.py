"""Windowed time-series collection.

End-of-run aggregates (``analysis/instrumentation.py``) answer *whether*
f-rings ran hot; the time series answers *when*: per sampling window it
records channel utilization split f-ring vs ordinary, per-class virtual
channel occupancy (the c0..c3 usage Lemmas 1-2 reason about), and the
active worm count — enough to see a TransitionWindow congestion spike or
a retransmission storm as it happens.

Sampling is driven from ``sim.cycle_hooks`` (both engine cores fire
them), costs O(channels) once per window, and touches no simulation
state, so it cannot perturb results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..router.channels import ChannelKind


@dataclass(frozen=True)
class WindowSample:
    """Aggregates over one sampling window ``[cycle - window, cycle)``.

    Utilizations are mean flits/cycle per channel over the window;
    occupancy and worm counts are instantaneous at the window boundary.
    """

    cycle: int
    window: int
    #: mean utilization over every internode channel
    utilization: float
    #: mean utilization of internode channels on an f-ring
    ring_utilization: float
    #: mean utilization of internode channels not on any f-ring
    other_utilization: float
    ring_channels: int
    other_channels: int
    #: busy virtual channels per class within the bank (c0..c{base-1}),
    #: summed over protocol banks
    vc_occupancy: Tuple[int, ...]
    #: messages in flight at the window boundary
    active_worms: int


@dataclass
class TimeSeries:
    """Per-window samples off a live simulator (see module docstring)."""

    sim: object
    window: int = 100
    samples: List[WindowSample] = field(default_factory=list)
    #: every channel's transfer count at the last window boundary, by
    #: channel index (empty before the first sample)
    _last_transfers: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("sampling window must be at least one cycle")

    # ------------------------------------------------------------------
    def on_cycle(self, now: int) -> None:
        """Cycle hook: sample at every window boundary."""
        if now and now % self.window == 0:
            self.sample(now)

    def sample(self, now: int) -> WindowSample:
        """Take one sample covering the window ending at ``now``."""
        sim = self.sim
        net = sim.net
        base = net.base_classes
        occupancy = [0] * base
        ring_flits = other_flits = 0
        ring_count = other_count = 0
        store = net.store
        transfers = store.transfers
        last = self._last_transfers
        for channel in net.channels:
            ci = channel.index
            vb = store.vbase[ci]
            for vid in store.busy_vids(ci):
                occupancy[(vid - vb) % base] += 1
            if channel.kind is not ChannelKind.INTERNODE:
                continue
            delta = transfers[ci] - last[ci] if last else transfers[ci]
            if channel.on_ring:
                ring_flits += delta
                ring_count += 1
            else:
                other_flits += delta
                other_count += 1
        self._last_transfers = list(transfers)
        window = self.window
        total_count = ring_count + other_count
        sample = WindowSample(
            cycle=now,
            window=window,
            utilization=(ring_flits + other_flits) / (total_count * window)
            if total_count
            else 0.0,
            ring_utilization=ring_flits / (ring_count * window) if ring_count else 0.0,
            other_utilization=other_flits / (other_count * window) if other_count else 0.0,
            ring_channels=ring_count,
            other_channels=other_count,
            vc_occupancy=tuple(occupancy),
            active_worms=sim.in_flight,
        )
        self.samples.append(sample)
        return sample

    # ------------------------------------------------------------------
    def ring_series(self) -> List[Tuple[int, float]]:
        """(cycle, f-ring utilization) pairs — the hotspot's time axis."""
        return [(s.cycle, s.ring_utilization) for s in self.samples]

    def other_series(self) -> List[Tuple[int, float]]:
        return [(s.cycle, s.other_utilization) for s in self.samples]

    def mean_ring_gap(self) -> float:
        """Mean over windows of (f-ring − ordinary) utilization; positive
        when the paper's hotspot claim holds dynamically."""
        gaps = [
            s.ring_utilization - s.other_utilization
            for s in self.samples
            if s.ring_channels
        ]
        return sum(gaps) / len(gaps) if gaps else 0.0
