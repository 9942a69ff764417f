"""Single source of the package version.

``pyproject.toml`` reads this constant when the package is built, so
the version that stamps service job keys, ledger and checkpoint
versions and the bench history is always that of the code being run,
never that of whatever ``repro`` distribution metadata (a stale
``*.egg-info``, an older wheel) is first on ``sys.path``.
"""

__version__ = "1.0.0"
