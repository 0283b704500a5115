"""Content-addressed chart cache.

Cache keys hash (command, parameters, engine version, sha256 of the
engine's own sources); payloads round-trip byte-identically.  Entries
written by another engine, a changed source included, are never reused.
Writes go through a temporary file and an atomic rename; a write that
fails is reported and skipped.  Corrupt entries, whatever their bytes,
are reported and evicted, never silently served, and the caller
recomputes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys

ENGINE_VERSION = "0.1.0"


class CacheCorrupt(Exception):
    pass


@functools.cache
def source_digest() -> str:
    """sha256 of the package's *.py files, computed once per process."""
    package = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        with open(os.path.join(package, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def cache_key(command: str, params: dict) -> str:
    blob = json.dumps({"command": command, "params": params,
                       "engine_version": ENGINE_VERSION,
                       "source": source_digest()},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, f"{key}.json")


def cache_store(cache_dir: str, key: str, payload: str) -> str | None:
    """Write an entry and return its path; a directory that cannot be
    written is reported on stderr, and nothing is stored (None)."""
    entry = {"key": key, "payload": payload}
    path = _path(cache_dir, key)
    tmp = path + f".tmp.{os.getpid()}"
    try:
        os.makedirs(cache_dir, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        os.replace(tmp, path)
    except OSError as exc:
        print(f"stemcharts: cannot write cache entry {path}: {exc}",
              file=sys.stderr)
        return None
    return path


def cache_load(cache_dir: str, key: str) -> str | None:
    """Return the cached payload, or None on miss.  A corrupt entry (bytes
    that are not UTF-8, text that is not JSON, JSON that is not an object,
    a wrong key or a payload that is not a string) is reported on stderr
    and evicted."""
    path = _path(cache_dir, key)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
        if not isinstance(entry, dict):
            raise CacheCorrupt("entry is not a JSON object")
        if entry.get("key") != key:
            raise CacheCorrupt("key mismatch")
        payload = entry["payload"]
        if not isinstance(payload, str):
            raise CacheCorrupt("payload is not a string")
        return payload
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, OSError,
            CacheCorrupt) as exc:
        print(f"stemcharts: evicting corrupt cache entry {path}: {exc}",
              file=sys.stderr)
        try:
            os.remove(path)
        except OSError:
            pass
        return None
