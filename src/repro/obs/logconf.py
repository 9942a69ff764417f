"""Logging configuration for the ``repro.*`` logger hierarchy.

Library modules log under ``repro.<package>`` (e.g.
``repro.robust.executor``); nothing is printed unless the embedding
application — or the CLI via ``-v`` / ``--log-level`` — configures the
hierarchy.  :func:`configure_logging` attaches one stderr handler to
the ``repro`` root logger, idempotently, leaving stdout exclusively for
report tables.
"""

from __future__ import annotations

import logging
import sys
from typing import Optional, Union

#: CLI verbosity (-v count) to logging level.
_VERBOSITY_LEVELS = {0: logging.WARNING, 1: logging.INFO}

_LOG_FORMAT = "%(levelname)s %(name)s: %(message)s"


class _DynamicStderrHandler(logging.StreamHandler):
    """A StreamHandler that always writes to the *current* sys.stderr.

    Resolving the stream per emit keeps log output visible to capture
    tools (pytest's capsys, subprocess pipes) that swap sys.stderr
    after logging was configured.
    """

    def __init__(self) -> None:
        super().__init__(stream=sys.stderr)

    @property
    def stream(self):  # type: ignore[override]
        return sys.stderr

    @stream.setter
    def stream(self, value) -> None:  # the dynamic lookup wins
        pass


def resolve_level(level: Union[str, int, None], verbosity: int = 0) -> int:
    """Map an explicit level name/number plus ``-v`` count to a level.

    An explicit ``level`` wins; otherwise verbosity 0 is WARNING, 1 is
    INFO and 2+ is DEBUG.
    """
    if isinstance(level, int):
        return level
    if level:
        resolved = logging.getLevelName(str(level).upper())
        if not isinstance(resolved, int):
            raise ValueError(f"unknown log level {level!r}")
        return resolved
    return _VERBOSITY_LEVELS.get(verbosity, logging.DEBUG)


def configure_logging(
    level: Union[str, int, None] = None,
    verbosity: int = 0,
) -> logging.Logger:
    """Configure the ``repro`` root logger and return it (idempotent)."""
    logger = logging.getLogger("repro")
    logger.setLevel(resolve_level(level, verbosity))
    if not any(isinstance(h, _DynamicStderrHandler) for h in logger.handlers):
        handler = _DynamicStderrHandler()
        handler.setFormatter(logging.Formatter(_LOG_FORMAT))
        logger.addHandler(handler)
    logger.propagate = False
    return logger


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """A logger in the ``repro`` hierarchy (``repro`` itself if unnamed)."""
    return logging.getLogger(f"repro.{name}" if name else "repro")
