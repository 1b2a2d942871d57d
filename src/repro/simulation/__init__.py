"""Edge-network simulation: transport, accounting, scheduling, faults."""

from .clock import VirtualClock, split_by_deadline
from .faults import (
    ClientDropout,
    FaultInjector,
    FaultPlan,
    LinkPartition,
    ServerCrash,
)
from .latency import LogNormalLatency, round_time
from .network import Message, Network, NodeId, TrafficStats
from .scheduler import RoundScheduler

__all__ = [
    "NodeId",
    "Message",
    "TrafficStats",
    "Network",
    "RoundScheduler",
    "ServerCrash",
    "ClientDropout",
    "LinkPartition",
    "FaultPlan",
    "FaultInjector",
    "LogNormalLatency",
    "round_time",
    "VirtualClock",
    "split_by_deadline",
]
