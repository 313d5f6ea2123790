"""Cluster network models: the shared link/switch/topology fabric and the
TCP incast pathology (Fig 9), now a thin configuration of that fabric."""

from repro.net.fabric import Topology
from repro.net.feedback import FabricFeedback
from repro.net.fluid import FluidEngine, burst_stalls, windowed_rounds
from repro.net.incast import (
    IncastConfig,
    IncastResult,
    ONE_GE,
    TEN_GE,
    simulate_incast,
    sweep_senders,
)
from repro.net.params import (
    FabricParams,
    IDEAL_FABRIC,
    LeafSpineParams,
    Link,
    fluid_shared_Bps,
)
from repro.net.port import SwitchPort

__all__ = [
    "FabricFeedback",
    "FabricParams",
    "FluidEngine",
    "IDEAL_FABRIC",
    "IncastConfig",
    "IncastResult",
    "LeafSpineParams",
    "Link",
    "ONE_GE",
    "SwitchPort",
    "TEN_GE",
    "Topology",
    "burst_stalls",
    "fluid_shared_Bps",
    "simulate_incast",
    "sweep_senders",
    "windowed_rounds",
]
