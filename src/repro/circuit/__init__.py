"""Circuit-level models: DRAM cell, sense amplifier and the derived
latency tables (paper Figure 6 and Table 2).

This subpackage is the reproduction's substitute for the paper's SPICE
setup (55 nm DDR3 sense-amplifier netlist with PTM low-power
transistors).  It provides a transient simulator of the charge-sharing
and sense-amplification phases plus the caching-duration -> (tRCD, tRAS)
tables the memory controller consumes.
"""
