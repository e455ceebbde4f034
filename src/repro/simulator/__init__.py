"""Discrete-event multicomputer simulator.

This package is the hardware substitute for the paper's CM-5/hypercube
testbed: SPMD rank programs (Python generators) exchange real payloads
while the engine charges the normalized ``ts + tw*m`` communication model
of Section 2 on a pluggable topology.
"""

from repro.simulator.collectives import (
    allgather_recursive_doubling,
    allgather_ring,
    barrier,
    bcast_binomial,
    my_index,
    reduce_binomial,
    reduce_scatter_halving,
    sendrecv,
    shift_cyclic,
    words_of,
)
from repro.simulator.compile import BatchSchedule, CompileFallback, SymmetrySpec
from repro.simulator.engine import Engine, RankInfo, SimConfig, SimResult, run_spmd
from repro.simulator.errors import (
    DeadlockError,
    ProgramError,
    RankCrashError,
    SimulationError,
    UnrecoverableFaultError,
)
from repro.simulator.faults import CompiledFaults, FaultPlan
from repro.simulator.gantt import gantt_chart
from repro.simulator.network import LinkReservations, retransmit_backoff_delay, route_path
from repro.simulator.jho import (
    bcast_pipelined_binomial,
    bcast_scatter_allgather,
    jho_broadcast_time,
    optimal_packet_words,
)
from repro.simulator.request import Barrier, Checkpoint, Compute, Recv, Send, SendAll
from repro.simulator.topology import (
    FullyConnected,
    Hypercube,
    Mesh2D,
    Topology,
    gray_code,
    inverse_gray_code,
)
from repro.simulator.trace import RankStats, Trace, TraceEvent

__all__ = [
    "Engine",
    "SimConfig",
    "RankInfo",
    "SimResult",
    "run_spmd",
    "BatchSchedule",
    "CompileFallback",
    "SymmetrySpec",
    "DeadlockError",
    "ProgramError",
    "RankCrashError",
    "SimulationError",
    "UnrecoverableFaultError",
    "CompiledFaults",
    "FaultPlan",
    "Barrier",
    "Checkpoint",
    "Compute",
    "Recv",
    "Send",
    "SendAll",
    "FullyConnected",
    "Hypercube",
    "Mesh2D",
    "Topology",
    "gray_code",
    "inverse_gray_code",
    "RankStats",
    "Trace",
    "TraceEvent",
    "gantt_chart",
    "LinkReservations",
    "retransmit_backoff_delay",
    "route_path",
    "bcast_pipelined_binomial",
    "bcast_scatter_allgather",
    "jho_broadcast_time",
    "optimal_packet_words",
    "allgather_recursive_doubling",
    "allgather_ring",
    "barrier",
    "bcast_binomial",
    "my_index",
    "reduce_binomial",
    "reduce_scatter_halving",
    "sendrecv",
    "shift_cyclic",
    "words_of",
]
