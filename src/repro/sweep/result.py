"""Aggregated sweep output: records + provenance, with a canonical form.

The *canonical* view of a result -- records sorted by item index with the
volatile keys (timings) stripped -- is the thing that must be byte-identical
across ``--jobs 1`` and ``--jobs N`` runs of the same spec.  The artifact
file keeps the full records plus a ``meta`` block (jobs, elapsed, cache
hits) that is allowed to differ between runs; the canonical SHA-256 is
embedded so two artifacts can be compared without re-parsing.

Sentinel-escape rule (schema note): non-finite floats are written as the
strings ``"NaN"``/``"Infinity"``/``"-Infinity"``.  To keep the encode ->
decode round trip lossless for *genuine string values* with those
spellings, :func:`encode_nonfinite` escapes any string that reads as a
sentinel (optionally behind escape markers) by prepending one ``"~"``:
``"NaN"`` -> ``"~NaN"``, ``"~NaN"`` -> ``"~~NaN"``.  :func:`decode_nonfinite`
maps bare sentinels to floats and strips exactly one marker from escaped
forms.  All other strings pass through untouched, so canonical hashes of
artifacts that never contained colliding strings are unchanged, and
artifacts written before this rule existed still decode identically
(their only sentinel spellings came from floats).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import tempfile
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import ModelError

#: Artifact schema version.
ARTIFACT_FORMAT = 1

#: Sentinel strings for non-finite floats.  Stability margins are ``nan``
#: past the stable latency range and pathological costs are ``inf``;
#: Python's ``allow_nan`` emits literal ``NaN``/``Infinity`` tokens that
#: strict RFC-8259 parsers (jq, JSON.parse) reject, so artifacts encode
#: them as these strings instead and decode them on load.
_NONFINITE = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}

#: Strings that are ambiguous on decode: a sentinel spelling, possibly
#: behind one or more escape markers.  Exactly these get (un)escaped.
_SENTINEL_LIKE = re.compile(r"~*(?:NaN|Infinity|-Infinity)\Z")


def producer_version() -> str:
    """Stamp identifying the code that produced a cached result.

    Sweep chunk files and serve disk-store entries carry it, and entries
    from any other package or schema version are treated as misses:
    cache keys cover the input only, so only same-version bytes are
    guaranteed identical to a fresh computation.
    """
    from repro import __version__
    from repro.api.report import SCHEMA_VERSION

    return f"{__version__}/schema{SCHEMA_VERSION}"


def escape_sentinel(value: str) -> str:
    """Escape one string if it would collide with a non-finite sentinel."""
    if _SENTINEL_LIKE.fullmatch(value):
        return "~" + value
    return value


def unescape_sentinel(value: str) -> str:
    """Strip one escape marker from an escaped sentinel-like string.

    The string half of :func:`decode_nonfinite`, for schema fields that
    are strings *by type* (names): ``"~NaN"`` -> ``"NaN"``, while a bare
    ``"NaN"`` passes through -- in a string-typed field it can only be a
    genuine name, never an encoded float.
    """
    if value.startswith("~") and _SENTINEL_LIKE.fullmatch(value):
        return value[1:]
    return value


def encode_nonfinite(value: Any) -> Any:
    """Recursively replace non-finite floats with sentinel strings.

    Genuine strings that would collide with a sentinel spelling are
    escaped (see the module docstring), so
    ``decode_nonfinite(encode_nonfinite(x)) == x`` for every JSON-able
    ``x`` -- including records whose string values are literally
    ``"NaN"``/``"Infinity"``/``"-Infinity"``.
    """
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return value
    if isinstance(value, str):
        return escape_sentinel(value)
    if isinstance(value, dict):
        return {k: encode_nonfinite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_nonfinite(v) for v in value]
    return value


def decode_nonfinite(value: Any) -> Any:
    """Inverse of :func:`encode_nonfinite`.

    Bare sentinel strings become floats; escaped sentinel-like strings
    lose one escape marker; everything else passes through.  Only apply
    this to data that went through :func:`encode_nonfinite` (artifact
    files, chunk-cache records) -- on raw, never-encoded data it would
    eat genuine sentinel-spelled strings, which is exactly the corruption
    the escape rule exists to prevent.
    """
    if isinstance(value, str):
        if value in _NONFINITE:
            return _NONFINITE[value]
        return unescape_sentinel(value)
    if isinstance(value, dict):
        return {k: decode_nonfinite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_nonfinite(v) for v in value]
    return value


def canonical_dumps(payload: Any) -> str:
    """The canonical JSON serialisation every artifact hash is built on.

    One idiom, one place: sentinel-encoded non-finites, sorted keys,
    compact separators, strict RFC-8259 output.  Reports, assignment
    outcomes, system models, scenario draws, and sweep records all hash
    this exact byte form -- the serving layer's byte-identity contract
    and the content-addressed caches depend on every producer agreeing.
    The first three are written by the schema encoder of
    :mod:`repro.api.encode`, for which this generic walk is the oracle.
    """
    return json.dumps(
        encode_nonfinite(payload),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


def canonical_sha256_of(payload: Any) -> str:
    """SHA-256 content address of :func:`canonical_dumps` of ``payload``.

    The one definition of "canonical hash" shared by reports, assignment
    outcomes, system models (the serve cache key), and sweep artifacts.
    """
    return hashlib.sha256(canonical_dumps(payload).encode("utf-8")).hexdigest()


def canonical_json_with_hash(
    payload: Dict[str, Any], *, key: str = "canonical_sha256"
) -> Tuple[str, str]:
    """Canonical JSON of a dict payload with its own hash embedded.

    Byte-identical to ``canonical_dumps({**payload, key:
    canonical_sha256_of(payload)})`` while dumping the payload only
    once: each top-level member is encoded once, the sorted members are
    joined and hashed, and the hash member is spliced in at its sorted
    position (a hex digest never needs sentinel escaping).  The
    detector envelope and the daemon's ``/v1/detect`` responses are
    built here.  Top-level keys must be strings (every schema's are).

    Returns ``(json_with_hash, sha)``.
    """
    members = {
        name: encode_basestring_ascii(name) + ":" + canonical_dumps(value)
        for name, value in payload.items()
    }
    body = "{" + ",".join([members[name] for name in sorted(members)]) + "}"
    sha = hashlib.sha256(body.encode("utf-8")).hexdigest()
    members[key] = encode_basestring_ascii(key) + ':"' + sha + '"'
    return (
        "{" + ",".join([members[name] for name in sorted(members)]) + "}",
        sha,
    )


def combined_sha256(shas: Sequence[str]) -> str:
    """Order-sensitive envelope hash over per-item canonical hashes.

    The one definition of "batch hash" shared by the analyze batch report
    and the assign batch envelope: newline-joined member hashes, hashed
    once, so two batch artifacts compare by a single field regardless of
    the job count that produced them.
    """
    return hashlib.sha256("\n".join(shas).encode("utf-8")).hexdigest()


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    The shared write discipline of every artifact producer (sweep
    artifacts, chunk-cache files, analysis reports, serve disk tier): a
    reader never observes a half-written file, and a killed writer leaves
    the previous version intact.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class SweepResult:
    """Records of one executed sweep plus provenance metadata."""

    name: str
    seed: int
    fingerprint: str
    records: List[Dict[str, Any]]
    volatile_keys: Tuple[str, ...] = ()
    meta: Dict[str, Any] = field(default_factory=dict)

    def canonical_records(self) -> List[Dict[str, Any]]:
        """Records in item order with volatile (timing) keys removed."""
        volatile = set(self.volatile_keys)
        ordered = sorted(self.records, key=lambda r: r["i"])
        return [
            {k: v for k, v in sorted(record.items()) if k not in volatile}
            for record in ordered
        ]

    def _canonical_payload(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "records": self.canonical_records(),
        }

    def canonical_json(self) -> str:
        """Deterministic JSON of the canonical records.

        Identical specs must produce identical strings regardless of the
        job count, chunking, or cache state of the run that made them.
        """
        return canonical_dumps(self._canonical_payload())

    def canonical_sha256(self) -> str:
        # canonical_json() is canonical_dumps() of this exact payload, so
        # routing through the shared helper leaves every hash unchanged.
        return canonical_sha256_of(self._canonical_payload())

    def to_dict(self) -> Dict[str, Any]:
        """Full artifact: all records (in item order) plus provenance.

        The volatile keys stay in the file -- fig5 needs its wall-clock
        samples for offline rendering -- but the embedded
        ``canonical_sha256`` covers only the deterministic view, so two
        artifacts from different job counts can be compared by that field.
        """
        return {
            "format": ARTIFACT_FORMAT,
            "name": self.name,
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "canonical_sha256": self.canonical_sha256(),
            "volatile_keys": list(self.volatile_keys),
            "meta": dict(self.meta),
            "records": sorted(self.records, key=lambda r: r["i"]),
        }

    def write(self, path: str) -> None:
        """Write the artifact atomically (temp file + rename)."""
        payload = json.dumps(
            encode_nonfinite(self.to_dict()),
            indent=2,
            sort_keys=True,
            allow_nan=False,
        )
        atomic_write_text(path, payload + "\n")

    @classmethod
    def load(cls, path: str) -> "SweepResult":
        with open(path) as handle:
            data = json.load(handle)
        if data.get("format") != ARTIFACT_FORMAT:
            raise ModelError(
                f"{path}: unsupported sweep artifact format {data.get('format')!r}"
            )
        return cls(
            name=data["name"],
            seed=data["seed"],
            fingerprint=data["fingerprint"],
            records=[decode_nonfinite(r) for r in data["records"]],
            volatile_keys=tuple(data.get("volatile_keys", ())),
            meta=decode_nonfinite(dict(data.get("meta", {}))),
        )
