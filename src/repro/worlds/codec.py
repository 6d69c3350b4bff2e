"""Canonical JSON encoding, decoding and hashing of world descriptions.

Every experiment world in this repository is a pure function of
declarative spec dataclasses (``Scenario``, ``FleetSpec``, ``MFCConfig``,
``WorldSpec``, ...).  This module gives those specs one shared wire
format:

- :func:`encode` — a JSON-able document, dataclasses tagged with
  ``__dc__``, enums with ``__enum__``, site content with ``__site__``.
  Cosmetic (display-only) fields are kept, so a dumped spec stays
  readable and annotated.
- :func:`decode` — rebuild the real objects from such a document via a
  registry of known spec types.
- :func:`canonical` / :func:`stable_key` — the hashing form: the same
  encoding *minus* cosmetic fields, reduced to a SHA-256 hex digest.
  This is the machinery the campaign layer has always keyed its result
  stores with (it previously lived privately in ``campaign/spec.py``);
  a spec round-tripped through encode→decode hashes identically.

Floats pass through untouched — ``json.dumps`` renders them via
``repr``, which round-trips exactly, so hashes computed from decoded
documents equal hashes computed from live objects.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Dict, Set, Type

from repro.content.objects import ContentType, WebObject
from repro.content.site import SiteContent
from repro.core.config import MFCConfig
from repro.core.epochs import PlannerSpec
from repro.net.topology import ClientSpec, TopologySpec
from repro.server.backends import BackendSpec
from repro.server.database import DatabaseSpec
from repro.server.presets import Scenario
from repro.server.resources import ServerSpec
from repro.workload.fleet import FleetSpec

#: display-only dataclass fields excluded from hashing, so editing
#: them never invalidates cached results
COSMETIC_FIELDS: Dict[str, Set[str]] = {
    "Scenario": {"notes"},
    "WorldSpec": {"notes"},
}

#: spec types whose *canonical* (hashing-form) document is memoized on
#: the instance after the first encode.  Campaign expansion encodes the
#: same ``WorldSpec`` (and its embedded ``Scenario`` with the whole
#: site-content tree) once for the job key and again for
#: ``spec_hash``/dry-run accounting — at 100k-job grids the repeated
#: deep walks dominate expansion time.  Memoized specs are treated as
#: immutable once encoded: mutating a field afterwards will NOT refresh
#: the cached canonical form (``dataclasses.replace`` makes a fresh,
#: memo-free instance and is the supported way to derive variants).
CANONICAL_MEMO_TYPES: Set[str] = {"WorldSpec", "Scenario"}

#: decodable dataclasses, by class name (the ``__dc__`` tag)
_DATACLASSES: Dict[str, Type] = {}
#: decodable enums, by class name (the ``__enum__`` tag)
_ENUMS: Dict[str, Type] = {}


def register_spec_type(cls: Type) -> Type:
    """Make *cls* (a dataclass or enum) decodable; returns *cls*."""
    if isinstance(cls, type) and issubclass(cls, enum.Enum):
        _ENUMS[cls.__name__] = cls
    elif dataclasses.is_dataclass(cls):
        _DATACLASSES[cls.__name__] = cls
    else:
        raise TypeError(f"{cls!r} is neither a dataclass nor an enum")
    return cls


for _cls in (
    Scenario,
    ServerSpec,
    DatabaseSpec,
    BackendSpec,
    FleetSpec,
    MFCConfig,
    PlannerSpec,
    WebObject,
    ClientSpec,
    TopologySpec,
    ContentType,
):
    register_spec_type(_cls)


def encode(obj, cosmetic: bool = True):
    """Reduce *obj* to a JSON-able document that is stable across runs.

    Only data that changes execution belongs here: dataclass specs,
    enums, site content, containers and primitives.  With
    ``cosmetic=False`` display-only fields (:data:`COSMETIC_FIELDS`)
    are skipped — that is the hashing form.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        name = type(obj).__name__
        memoize = not cosmetic and name in CANONICAL_MEMO_TYPES
        if memoize:
            memo = obj.__dict__.get("_canonical_memo")
            if memo is not None:
                return memo
        skip = () if cosmetic else COSMETIC_FIELDS.get(name, ())
        doc = {"__dc__": name}
        for f in dataclasses.fields(obj):
            if f.name not in skip:
                doc[f.name] = encode(getattr(obj, f.name), cosmetic)
        if memoize:
            # plain __dict__ write: works for frozen dataclasses too,
            # and never shows up in fields/encode/repr
            obj.__dict__["_canonical_memo"] = doc
        return doc
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "value": obj.value}
    if isinstance(obj, SiteContent):
        return {
            "__site__": obj.base_page,
            "objects": [encode(o, cosmetic) for o in obj.objects()],
        }
    if isinstance(obj, (list, tuple)):
        return [encode(x, cosmetic) for x in obj]
    if isinstance(obj, dict):
        return {str(k): encode(v, cosmetic) for k, v in sorted(obj.items())}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for a job key")


def canonical(obj):
    """The hashing form of *obj*: :func:`encode` minus cosmetic fields."""
    return encode(obj, cosmetic=False)


def stable_key(obj) -> str:
    """SHA-256 hex digest of the canonical encoding of *obj*."""
    memoize = (
        dataclasses.is_dataclass(obj)
        and not isinstance(obj, type)
        and type(obj).__name__ in CANONICAL_MEMO_TYPES
    )
    if memoize:
        cached = obj.__dict__.get("_stable_key_memo")
        if cached is not None:
            return cached
    blob = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    key = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    if memoize:
        obj.__dict__["_stable_key_memo"] = key
    return key


def decode(doc):
    """Rebuild live spec objects from an :func:`encode` document.

    Unknown ``__dc__``/``__enum__`` tags raise ``ValueError`` — decoding
    is limited to the registered spec vocabulary, never arbitrary
    classes — and so do unknown field names, so a typo in a hand-edited
    document fails loudly instead of silently running a different
    world.  List values feeding dataclass fields become tuples (all
    sequence-valued spec fields are tuples).
    """
    if isinstance(doc, dict):
        if "__dc__" in doc:
            name = doc["__dc__"]
            cls = _DATACLASSES.get(name)
            if cls is None:
                raise ValueError(f"unknown spec dataclass in document: {name!r}")
            field_names = {f.name for f in dataclasses.fields(cls)}
            unknown = sorted(set(doc) - field_names - {"__dc__"})
            if unknown:
                raise ValueError(
                    f"unknown field(s) for {name}: {', '.join(unknown)}"
                )
            kwargs = {}
            for f in dataclasses.fields(cls):
                if f.name not in doc:
                    # cosmetic field dropped by a canonical dump, or a
                    # field a hand-written document leaves at its default
                    continue
                value = decode(doc[f.name])
                if isinstance(value, list):
                    value = tuple(value)
                kwargs[f.name] = value
            return cls(**kwargs)
        if "__enum__" in doc:
            name = doc["__enum__"]
            cls = _ENUMS.get(name)
            if cls is None:
                raise ValueError(f"unknown spec enum in document: {name!r}")
            return cls(doc["value"])
        if "__site__" in doc:
            return SiteContent(
                [decode(o) for o in doc["objects"]], base_page=doc["__site__"]
            )
        return {k: decode(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [decode(x) for x in doc]
    return doc


def dumps(obj, indent: int = 2) -> str:
    """Human-editable JSON text of *obj* (cosmetic fields included)."""
    return json.dumps(encode(obj), indent=indent, sort_keys=False)


def loads(text: str):
    """Inverse of :func:`dumps`."""
    return decode(json.loads(text))
