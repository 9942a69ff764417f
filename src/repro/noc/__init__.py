"""On-chip network cost model for scale-out grids (Sec. IV-A).

The paper notes that partitioning trades the systolic array's short
internal wires for "longer traversals over an on-chip/off-chip network
(depending on the location of the partitions) to distribute data to the
different partitions and collecting outputs — which in turn can affect
overall energy."  This package quantifies that cost with a first-order
2D-mesh model: byte-hops for operand distribution and output
collection, a port-bandwidth feasibility check, and an energy term that
composes with :mod:`repro.energy`.
"""
