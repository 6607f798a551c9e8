"""Router models: channels, messages, PDR and crossbar node organizations,
and timing."""

from .channels import DEFAULT_BUFFER_DEPTH, ChannelKind, PhysicalChannel
from .messages import Message
from .modules import CrossbarNode, Module, NodeModel, PDRNode, Resolution, sharing_set
from .timing import PIPELINED, UNPIPELINED, UNPIPELINED_SLOW_CLOCK, RouterTiming

__all__ = [
    "DEFAULT_BUFFER_DEPTH",
    "PIPELINED",
    "UNPIPELINED",
    "UNPIPELINED_SLOW_CLOCK",
    "ChannelKind",
    "CrossbarNode",
    "Message",
    "Module",
    "NodeModel",
    "PDRNode",
    "PhysicalChannel",
    "Resolution",
    "RouterTiming",
    "sharing_set",
]
