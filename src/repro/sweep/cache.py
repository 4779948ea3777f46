"""On-disk result cache for sweep points.

Each executed point is stored as one JSON file under the cache root,
named by the point's content hash (canonical point JSON + the engine
:data:`CODE_VERSION`).  Re-running an unchanged sweep therefore performs
zero engine runs and reproduces byte-identical results; changing a
parameter (or bumping the code version after a semantics change)
invalidates exactly the affected points.
"""

from __future__ import annotations

import json
import os
import pathlib

from .spec import SweepPoint, canonical_json

__all__ = ["CODE_FINGERPRINT", "CODE_VERSION", "DEFAULT_CACHE_DIR", "ResultCache"]

#: Version tag of the execution semantics.  Bump whenever an engine or
#: algorithm change alters what a (point, seed) pair computes — cached
#: results from older semantics must never be served as current.
CODE_VERSION = "batched-coins-1"

#: SHA-256 of the wake times and fault counters that the engines compute
#: under :data:`CODE_VERSION` for a small canonical matrix (KP and BGI
#: Decay, batched and single-run engines, with and without a fault plan;
#: see ``tests/sweep/test_cache_fingerprint.py``, which recomputes it).
#: Re-pin it only together with a :data:`CODE_VERSION` bump.
CODE_FINGERPRINT = "91742644ec06634e00473e963f9ed3a06ed5f6c9d2988584911f0ed0d2774cc5"

#: Default cache location, relative to the repository root / CWD.
DEFAULT_CACHE_DIR = pathlib.Path("benchmarks") / "results" / "sweep-cache"


class ResultCache:
    """Content-addressed JSON store for sweep point results.

    Args:
        root: Directory to hold the per-point files (created on first
            write).
        code_version: Engine semantics tag entering every key; tests
            override it to simulate invalidation.
    """

    def __init__(self, root: os.PathLike | str, code_version: str = CODE_VERSION):
        self.root = pathlib.Path(root)
        self.code_version = code_version

    def path_for(self, point: SweepPoint) -> pathlib.Path:
        return self.root / f"{point.content_hash(self.code_version)}.json"

    def get(self, point: SweepPoint) -> dict | None:
        """Stored payload for ``point``, or ``None`` on a miss."""
        path = self.path_for(point)
        try:
            with path.open("r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError):
            # A torn or corrupt entry is a miss; the point simply re-runs.
            return None

    def put(
        self, point: SweepPoint, payload: dict, text: str | None = None
    ) -> pathlib.Path:
        """Store ``payload`` for ``point`` atomically; returns the path.

        Args:
            text: Pre-serialised ``canonical_json(payload)``; callers that
                time serialisation separately from the write pass it in so
                the payload is not encoded twice.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(point)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            text if text is not None else canonical_json(payload),
            encoding="utf-8",
        )
        os.replace(tmp, path)
        return path
