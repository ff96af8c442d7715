"""Ego-centered internet topology radar.

Tree-shaped probing from one monitor towards a destination set, scheduled
in periodic rounds, with event-detection analytics over the round
sequence and a deterministic network simulator to run it all against.

The package itself imports nothing.  Import the module you need, for
example `from netradar.radar import run_radar`::

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
