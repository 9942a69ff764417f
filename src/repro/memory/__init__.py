"""Accelerator memory system: double-buffered SRAMs and DRAM demand."""
