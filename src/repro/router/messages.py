"""Message objects tracked by the simulator."""

from __future__ import annotations

from typing import Optional

from ..core import MessageRoute
from ..topology import Coord


class Message:
    """One wormhole message: a worm of ``length`` flits (header first,
    tail last) plus its routing state and lifecycle timestamps."""

    __slots__ = (
        "msg_id",
        "src",
        "dst",
        "length",
        "route",
        "generated_cycle",
        "injected_cycle",
        "consumed_cycle",
        "exited_source",
        "is_bisection",
        "protocol",
        "seq",
        "ack_for",
        "attempt",
        "killed",
    )

    def __init__(
        self,
        msg_id: int,
        src: Coord,
        dst: Coord,
        length: int,
        route: MessageRoute,
        generated_cycle: int,
        is_bisection: bool,
        protocol: int = 0,
    ):
        self.msg_id = msg_id
        self.src = src
        self.dst = dst
        self.length = length
        self.route = route
        self.generated_cycle = generated_cycle
        self.injected_cycle: Optional[int] = None
        self.consumed_cycle: Optional[int] = None
        #: set once the tail has left the source node (frees an injection slot)
        self.exited_source = False
        self.is_bisection = is_bisection
        #: protocol class (0 = request bank); selects the virtual channel
        #: bank used on every physical channel
        self.protocol = protocol
        #: end-to-end sequence number assigned by the reliability layer
        #: (per source node); None when no transport is attached
        self.seq: Optional[int] = None
        #: if set, this message is a delivery acknowledgement for the flow
        #: ``(source coord, seq)`` it names (transport control traffic)
        self.ack_for: Optional[tuple] = None
        #: 0 for the original transmission, incremented per retransmission
        self.attempt = 0
        #: set once a reconfiguration has truncated this worm — guards the
        #: loss accounting against double-counting when back-to-back
        #: runtime faults land in the same transition window
        self.killed = False

    @property
    def is_control(self) -> bool:
        """True for transport control traffic (ACKs) that should not count
        toward the paper's delivered-message metrics."""
        return self.ack_for is not None

    @property
    def latency(self) -> int:
        """Injection-to-consumption latency in cycles (the paper's average
        message latency metric)."""
        if self.injected_cycle is None or self.consumed_cycle is None:
            raise ValueError(f"message {self.msg_id} not yet consumed")
        return self.consumed_cycle - self.injected_cycle

    @property
    def queueing_delay(self) -> int:
        """Cycles spent waiting at the source before injection began."""
        if self.injected_cycle is None:
            raise ValueError(f"message {self.msg_id} not yet injected")
        return self.injected_cycle - self.generated_cycle

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Message(#{self.msg_id} {self.src}->{self.dst})"
