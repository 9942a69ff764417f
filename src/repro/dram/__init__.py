"""Cycle-level DRAM back-end (the DRAMSim2 stand-in of Sec. II-B).

SCALE-Sim emits DRAM traces meant to be replayed through a memory
simulator; this package provides one: a multi-channel, multi-bank
model with open-page policy, first-ready scheduling and classic
tRCD/tCL/tRP/tRAS timing.  It answers the question the paper poses in
Fig. 11 — whether a real DRAM device can sustain the stall-free
bandwidth the accelerator demands.
"""
