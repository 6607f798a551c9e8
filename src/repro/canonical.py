"""The one canonical digest behind every content-addressed key.

Result-store keys, checkpoint task keys, service job ids, Monte-Carlo
plan keys and shard digests are all "sha256 of the payload's canonical
JSON".  Two spellings of that encoding would be two key spaces — a store
written through one could not be read through the other — so the
encoding lives here, once, stdlib only, importable from every layer.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def canonical_digest(payload: Any) -> str:
    """Hex sha256 of ``payload`` as compact, key-sorted JSON."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
