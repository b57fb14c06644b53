"""Spec-addressed on-disk result cache.

A resolved :class:`~repro.api.RunSpec` is canonical (two specs describing
the same run resolve equal and serialise to the same sorted JSON), so its
hash addresses the run's result: repeated grid cells are free, and an
interrupted repro-scale sweep resumes from where it stopped.

Keys are ``sha256(sorted-JSON of {spec, cache_version})``.  Bumping
:data:`CACHE_VERSION` -- done whenever a code change alters what a spec
*means* (trainer numerics, cost model, aggregation) -- invalidates every
entry at once without touching the store.  Entries are single JSON files
written atomically (temp file + ``os.replace``), so a crashed writer never
leaves a half-entry behind, and a corrupted or stale entry is treated as a
miss and dropped on read.

The default store location is ``~/.cache/repro/results`` (override with
the ``REPRO_CACHE_DIR`` environment variable or the ``root`` argument).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional

from repro.api.result import RunResult
from repro.api.spec import RunSpec

__all__ = ["CACHE_VERSION", "ResultCache", "default_cache_dir", "spec_key"]

#: Bump to invalidate every cached result after a semantics-changing code
#: change (anything that alters what a resolved spec produces).
CACHE_VERSION = 1

_ENV_VAR = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """The store location: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/results``."""
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "results"


def spec_key(
    spec: RunSpec, cache_version: int = CACHE_VERSION, *, assume_resolved: bool = False
) -> str:
    """Stable content address of a spec's result.

    The spec is resolved first, so every declaration of the same run --
    Python, JSON, CLI argv, preset-defaulted or fully explicit -- maps to
    the same key.  Callers that already hold a resolved spec (``resolve()``
    is canonical and idempotent) pass ``assume_resolved=True`` to skip the
    redundant re-resolution.

    Observability flags are *excluded* from the key: they never change what
    a run computes, so a traced run and an untraced run of the same spec
    share one cache entry (and the key of every spec cached before the
    observability section existed stays valid).
    """
    resolved = spec if assume_resolved else spec.resolve()
    spec_dict = resolved.to_dict()
    spec_dict.pop("observability", None)
    payload = json.dumps(
        {"cache_version": int(cache_version), "spec": spec_dict},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """On-disk store of :meth:`RunResult.to_dict` summaries, keyed by spec."""

    def __init__(self, root=None, cache_version: int = CACHE_VERSION) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.cache_version = int(cache_version)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ #
    def key_for(self, spec: RunSpec, *, assume_resolved: bool = False) -> str:
        return spec_key(spec, self.cache_version, assume_resolved=assume_resolved)

    def path_for(self, spec: RunSpec) -> Path:
        return self.root / f"{self.key_for(spec)}.json"

    def _path(self, spec: RunSpec, key: Optional[str]) -> Path:
        return self.root / f"{key}.json" if key is not None else self.path_for(spec)

    # ------------------------------------------------------------------ #
    def get(self, spec: RunSpec, key: Optional[str] = None) -> Optional[RunResult]:
        """The cached result of ``spec``, or ``None`` on a miss.

        Truncated, malformed or version-mismatched entries count as misses
        and are removed, so one bad file never wedges a sweep.  A transient
        read error (flaky storage) is a plain miss: the entry itself may be
        fine, so it is left in place.  ``key`` skips re-deriving the spec's
        hash when the caller already holds it.
        """
        path = self._path(spec, key)
        try:
            text = path.read_text()
        except OSError:
            # Missing entry or a transient read failure: miss, keep the file.
            self.misses += 1
            return None
        try:
            payload = json.loads(text)
            if payload.get("cache_version") != self.cache_version:
                raise ValueError(f"stale cache_version {payload.get('cache_version')!r}")
            result = RunResult.from_dict(payload["result"])
        except (ValueError, KeyError, TypeError):
            # Corrupted or stale entry: recover by dropping it.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, spec: RunSpec, result: RunResult, key: Optional[str] = None) -> Path:
        """Store a result summary under its spec's key (atomic write)."""
        path = self._path(spec, key)
        result_dict = result.to_dict()
        # Trace/metrics payloads are per-execution artifacts (host
        # timestamps differ run to run) and can dwarf the summary itself;
        # the cache stores only what a rehydrated result must answer.
        result_dict.pop("observability", None)
        payload = {
            "cache_version": self.cache_version,
            "key": path.stem,
            "result": result_dict,
        }
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for entry in self.root.glob("*.json"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self)}
