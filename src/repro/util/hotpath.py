"""Reference-mode switch for the optimized hot paths.

Every performance-sensitive function that was rewritten for speed keeps
its original ("reference") implementation alongside the optimized one,
and consults this module to decide which to run.  The contract is that
both produce byte-identical outputs; the reference paths exist so that
equivalence tests can pin the optimized implementations against the
originals on the same inputs.

The mode is process-global and off at import.  Tests toggle it with
:func:`set_reference_mode` / :func:`reference_hotpaths`.

Hot functions read the module-level ``_REFERENCE`` flag directly — one
attribute lookup per call — so toggling affects already-imported
modules immediately.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

_REFERENCE: bool = False


def reference_mode() -> bool:
    """True when the slow reference implementations are active."""
    return _REFERENCE


def set_reference_mode(enabled: bool) -> bool:
    """Switch reference mode on or off; returns the previous setting."""
    global _REFERENCE
    previous = _REFERENCE
    _REFERENCE = bool(enabled)
    return previous


@contextlib.contextmanager
def reference_hotpaths(enabled: bool = True) -> Iterator[None]:
    """Context manager scoping a reference-mode switch to a block."""
    previous = set_reference_mode(enabled)
    try:
        yield
    finally:
        set_reference_mode(previous)
