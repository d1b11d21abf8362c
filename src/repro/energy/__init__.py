"""Energy and area models.

* :mod:`repro.energy.drampower` - command-level DRAM energy (the
  paper's DRAMPower substitute, Section 6.2 / Figure 8), parameterized
  by the per-standard IDD presets of :mod:`repro.dram.standards`.
* :mod:`repro.energy.mcpat` - ChargeCache storage/area/power overhead
  (the paper's McPAT substitute, Section 6.3, equations 1-2).
"""
