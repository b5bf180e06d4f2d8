"""Zero counters for ``benchmarks/spine/child.py``, the one importer.

The packet pool that lived here is deleted (docs/performance.md, "Why
there is no packet pool").  This module leaves with the ``benchmark``
PR that drops the spine's import and its two ``packets.arena_*``
per-layer entries; nothing under ``src/`` may import it.
"""


class ARENA:
    @staticmethod
    def stats() -> dict:
        return {"pooled_builds": 0, "fresh_builds": 0}
