"""Energy and area models.

* :mod:`repro.energy.drampower` - command-level DRAM energy (the
  paper's DRAMPower substitute, Section 6.2 / Figure 8), with the
  paper's DDR3-1600 IDD currents.
* :mod:`repro.energy.mcpat` - ChargeCache storage/area/power overhead
  (the paper's McPAT substitute, Section 6.3, equations 1-2).
"""
