"""Differential verification: fuzzing, metamorphic properties, shrinking.

``repro.verify`` is the subsystem behind the ``repro verify`` CLI
subcommand.  It cross-examines the library's independent models of the
same machine (iterative engine, closed-form analytical equations,
fold-plan shape classes, PE-level golden array, degraded-mode remap
prediction), checks metamorphic relations between related scenarios,
shrinks every violation to a minimal repro, publishes it as a
replayable regression bundle, and guards the paper's reproduced
numbers behind blessed golden baselines.
"""
