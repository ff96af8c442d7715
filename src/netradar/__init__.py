"""Ego-centered internet topology radar.

Tree-shaped probing from one monitor towards a destination set, scheduled
in periodic rounds, with event-detection analytics over the round
sequence and a deterministic network simulator to run it all against.

Modules
-------
::

 model       -- hops, probe records, raw/filtered trees, round-log format
 simnet      -- deterministic topology simulator (balancers, rate limits,
                scripted events)
 transport   -- probe send/poll contract; simulator backend
 icmp        -- real ICMP backend (optional, needs raw sockets)
 tracetree   -- backward tree measurement engine
 filtering   -- six-stage reduction to a routing tree on addresses
 radar       -- periodic rounds with distance caching
 baseline    -- classic traceroute and probing-cost comparisons
 analytics   -- series, peaks, new-address components, event graphs
 cli         -- command-line interface
"""

from .analytics import (
    NewAddressComponent,
    component_size_distribution,
    detect_peaks,
    discovery_time,
    event_graph,
    new_address_components,
    new_addresses,
    per_round_ip_count,
    size_vs_discovery_correlation,
    value_distribution,
    windowed_ip_count,
)
from .baseline import (
    cumulative_discovery_curves,
    link_load_distribution,
    simulate_destination_subset,
    simulate_tracetree_from_traceroute,
    traceroute_round,
)
from .filtering import FilterReport, filter_tree
from .model import (
    FilteredTree,
    Hop,
    Ip,
    ProbeRecord,
    RadarDataset,
    RawTraceTree,
    RoundRecord,
    Star,
    TtlNode,
    hop_sort_key,
    ip,
    parse_round_log,
    serialize_round,
)
from .radar import (
    DatasetWriter,
    RadarConfig,
    load_destinations,
    next_round_tasks,
    run_radar,
)
from .simnet import (
    PerDestination,
    PerPacket,
    RateLimited,
    SimState,
    Topology,
    load_topology,
)
from .tracetree import DestinationTask, TracetreeConfig, TracetreeResult, tracetree
from .transport import SimClock, SimTransport, TransportReply

__version__ = "0.1.0"
