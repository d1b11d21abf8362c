"""DRAM device model: commands, timing constraints and bank/rank/channel
state machines.

This subpackage is the reproduction's substitute for the C++ Ramulator
device model the paper used.  It implements the DDR3 command protocol at
the level ChargeCache interacts with: ACT/PRE/RD/WR/REF commands gated by
the standard inter-command timing constraints.
"""
