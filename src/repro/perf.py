"""The sanctioned clocks for performance instrumentation.

Stage timing and counters live in :mod:`repro.obs`; this module only
names the two clocks every instrumented call site reads, so each
wall-clock read stays greppable.
"""

from __future__ import annotations

import time

__all__ = ["unix_clock", "wall_clock"]

#: The one sanctioned wall-clock for performance instrumentation.
#: Everything outside :mod:`repro.perf` and :mod:`repro.obs` must read
#: wall time through this alias, never through a bare
#: ``time.perf_counter()`` — reprolint rule RL106 enforces it, keeping
#: every wall-clock read greppable and the simulated-time purity rule
#: (RL102) easy to audit.
wall_clock = time.perf_counter

#: The one sanctioned epoch clock (seconds since the Unix epoch), for
#: provenance stamps like ``RunManifest.created_unix_s``.  Same policy
#: as :data:`wall_clock`: library code never calls ``time.time()``
#: directly — the stamp happens once, at the CLI boundary, so
#: deterministic pipelines stay byte-identical below it.
unix_clock = time.time
