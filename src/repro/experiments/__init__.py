"""Paper experiments as library functions.

Each module regenerates one table or figure of the paper and returns
its data as a list of row dicts — the benchmarks assert on these, the
CLI ``reproduce`` subcommand prints them, and downstream users can call
them directly (e.g. to re-plot with different budgets).

:func:`~repro.experiments.registry.run_experiment` dispatches by the
paper's figure/table id and imports only that experiment's module.
"""
