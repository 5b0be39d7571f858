"""Thin logging facade used across the library.

All modules obtain loggers through :func:`get_logger` so the root
``repro`` logger can be configured once by the application without each
module touching global logging state.
"""

from __future__ import annotations

import logging
from typing import Optional

__all__ = ["get_logger"]

_ROOT_NAME = "repro"


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """Return a child logger under the ``repro`` namespace.

    ``get_logger("training")`` yields ``repro.training``; ``get_logger()``
    yields the root library logger.
    """
    if name is None or name == _ROOT_NAME:
        return logging.getLogger(_ROOT_NAME)
    if name.startswith(_ROOT_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")
