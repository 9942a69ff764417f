"""PE-level functional systolic-array simulator (the RTL stand-in).

The paper validates SCALE-Sim's cycle counts against a Verilog
implementation (Fig. 4).  This package plays that role: it models every
PE's store-and-forward registers cycle by cycle, actually performs the
arithmetic, and reports when the last result leaves the array — a
microarchitecturally explicit model that is independent of both the
trace-based engine and the closed-form Eq. 3/4.
"""
