"""Hardware configuration (paper Table I): array shape, SRAM sizes, dataflow."""
