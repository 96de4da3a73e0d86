"""The deterministic ``amberelide/1`` artifact.

The schema discipline is the one :class:`repro.selfcheck.Artifact`
gives the AmberFlow ``amberflow-hints/1`` file too: the payload is
canonical (sorted keys, sorted entries, nothing time- or
path-order-dependent), the fingerprint is a sha256 over the canonical
JSON encoding, and :func:`load_artifact` never raises — a mangled file
loads with a wrong ``schema`` and fails ``valid``.

The artifact is a report: nothing at run time reads it.  It records
a sha256 per analyzed source, so two artifacts of the same tree
compare equal byte for byte and a changed source changes the
fingerprint.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

from repro.analyze.elide.model import MAIN_OWNER
from repro.selfcheck import Artifact

#: Schema tag checked by consumers; bump on incompatible change.
ELIDE_SCHEMA = "amberelide/1"

_LOCK_KEYS = ("path", "line", "owner", "var", "cls", "elidable",
              "reason")


def source_sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class ElideArtifact(Artifact):
    """The confinement facts derived from one analysis run."""

    SCHEMA = ELIDE_SCHEMA

    schema: str
    #: Analyzed sources: path -> sha256 of the text that was analyzed.
    sources: Dict[str, str] = field(default_factory=dict)
    #: Thread-confined classes (sorted).
    confined: List[str] = field(default_factory=list)
    #: Effectively-immutable classes (sorted).
    immutable: List[str] = field(default_factory=list)
    #: Lock creation sites (sorted by path/line/var), each a dict with
    #: keys ``path line owner var cls elidable reason``.
    locks: List[Dict[str, Any]] = field(default_factory=list)

    # -- derived views ---------------------------------------------------

    @property
    def skip_classes(self) -> List[str]:
        """Classes proven confined or effectively immutable."""
        return sorted(set(self.confined) | set(self.immutable))

    @property
    def lock_owners(self) -> List[Tuple[str, str]]:
        """``(owner, lock_cls)`` pairs where *every* lock site of that
        owner and class is elidable.  A run tells a lock's site only by
        that pair (the class of the activation that creates it, and its
        own class), so a pair is elidable only if all its sites are.

        A site owned by ``<main>`` is in a module-level function, which
        any activation may delegate to with ``yield from`` — the lock
        is then created under *that* activation's class.  So one
        un-elidable ``<main>`` site vetoes its lock class for every
        owner."""
        verdict: Dict[Tuple[str, str], bool] = {}
        vetoed = set()
        for lock in self.locks:
            key = (str(lock.get("owner", "")), str(lock.get("cls", "")))
            verdict[key] = verdict.get(key, True) \
                and bool(lock.get("elidable"))
            if key[0] == MAIN_OWNER and not lock.get("elidable"):
                vetoed.add(key[1])
        return sorted(key for key, ok in verdict.items()
                      if ok and key[1] not in vetoed)

    # -- serialization ---------------------------------------------------

    def payload(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "sources": {path: self.sources[path]
                        for path in sorted(self.sources)},
            "confined": sorted(self.confined),
            "immutable": sorted(self.immutable),
            "locks": sorted(
                ({key: lock.get(key) for key in _LOCK_KEYS}
                 for lock in self.locks),
                key=lambda d: (str(d["path"]), int(d["line"] or 0),
                               str(d["var"]))),
            "skip_classes": self.skip_classes,
            "lock_owners": [list(pair) for pair in self.lock_owners],
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "ElideArtifact":
        sources_raw = raw.get("sources", {})
        sources = ({str(k): str(v) for k, v in sources_raw.items()}
                   if isinstance(sources_raw, Mapping) else {})
        locks_raw = raw.get("locks", [])
        locks: List[Dict[str, Any]] = []
        if isinstance(locks_raw, list):
            for lock in locks_raw:
                if isinstance(lock, Mapping):
                    locks.append({key: lock.get(key)
                                  for key in _LOCK_KEYS})
        def str_list(key: str) -> List[str]:
            value = raw.get(key, [])
            return ([str(c) for c in value]
                    if isinstance(value, list) else [])

        return cls(
            schema=str(raw.get("schema", "")),
            sources=sources,
            confined=str_list("confined"),
            immutable=str_list("immutable"),
            locks=locks)


def build_artifact(emodel: Any,
                   sources: Sequence[Tuple[str, str]]) -> ElideArtifact:
    """Freeze an :class:`~repro.analyze.elide.model.ElideModel` (duck-
    typed to avoid importing the analysis into artifact consumers)."""
    return ElideArtifact(
        schema=ELIDE_SCHEMA,
        sources={path: source_sha(text) for path, text in sources},
        confined=sorted(emodel.confined),
        immutable=sorted(emodel.immutable),
        locks=[{key: getattr(site, key) for key in _LOCK_KEYS}
               for site in emodel.lock_sites])


def load_artifact(source: Union[str, Path, Mapping[str, Any]]
                  ) -> ElideArtifact:
    """Load an elide artifact from a JSON file path or a parsed dict.

    Never raises on bad content — truncated, malformed, or unknown-
    schema files load with a wrong ``schema`` and fail ``valid``; the
    loader is :meth:`repro.selfcheck.Artifact.load`, as for the hints."""
    return ElideArtifact.load(source)
