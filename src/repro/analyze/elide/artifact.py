"""The deterministic ``amberelide/1`` artifact.

The schema discipline is the one :class:`repro.selfcheck.Artifact`
gives the AmberFlow ``amberflow-hints/1`` file too: the payload is
canonical (sorted keys, sorted entries, nothing time- or
path-order-dependent), the fingerprint is a sha256 over the canonical
JSON encoding, and :func:`load_artifact` never raises — a mangled file
loads with a wrong ``schema`` and fails ``valid``.

Unlike the hints artifact, elision changes *runtime mechanism*, so
staleness is checked before activation: the artifact records a sha256
per analyzed source, and :meth:`ElideArtifact.activate` refuses (and
counts, via :func:`repro.analyze.elide.runtime.note_stale`) when the
sources on disk no longer match.  A stale artifact silently disables
elision; it never half-applies.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from repro.analyze.elide import runtime as _ert
from repro.selfcheck import Artifact

#: Schema tag checked by consumers; bump on incompatible change.
ELIDE_SCHEMA = "amberelide/1"

_LOCK_KEYS = ("path", "line", "owner", "var", "cls", "elidable",
              "reason")


def source_sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class ElideArtifact(Artifact):
    """The elision facts derived from one analysis run."""

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
        """Classes whose field interposition may be skipped."""
        return sorted(set(self.confined) | set(self.immutable))

    @property
    def lock_owners(self) -> List[Tuple[str, str]]:
        """``(owner, lock_cls)`` pairs where *every* lock site of that
        owner and class is elidable — the all-sites rule keeps the
        runtime's per-creation marking sound at pair granularity.

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
            if key[0] == _ert.MAIN_OWNER and not lock.get("elidable"):
                vetoed.add(key[1])
        return sorted(key for key, ok in verdict.items()
                      if ok and key[1] not in vetoed)

    def to_elide_set(self) -> _ert.ElideSet:
        return _ert.ElideSet(
            skip_classes=frozenset(self.skip_classes),
            lock_owners=frozenset(self.lock_owners),
            confined=frozenset(self.confined),
            immutable=frozenset(self.immutable),
            fingerprint=self.fingerprint)

    # -- staleness -------------------------------------------------------

    def stale_sources(
            self,
            source_texts: Optional[Mapping[str, str]] = None
    ) -> List[str]:
        """Paths whose current text no longer matches the recorded
        sha256.  ``source_texts`` supplies in-memory texts (fixtures);
        otherwise the paths are read from disk.  Unreadable paths
        count as stale."""
        stale: List[str] = []
        for path, sha in sorted(self.sources.items()):
            if source_texts is not None:
                text = source_texts.get(path)
            else:
                try:
                    text = Path(path).read_text()
                except OSError:
                    text = None
            if text is None or source_sha(text) != sha:
                stale.append(path)
        return stale

    def activate(self,
                 source_texts: Optional[Mapping[str, str]] = None,
                 audit: bool = False) -> bool:
        """Activate this artifact's elision set for the process.

        Returns False — and bumps the stale counter — without
        activating anything when the artifact is invalid or any
        analyzed source changed since the analysis ran."""
        if not self.valid or self.stale_sources(source_texts):
            _ert.note_stale()
            return False
        _ert.activate(self.to_elide_set(), audit=audit)
        return True

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
    schema files load with a wrong ``schema`` and fail ``valid``,
    which consumers treat as stale (elision silently disabled); the
    loader is :meth:`repro.selfcheck.Artifact.load`, as for the hints."""
    return ElideArtifact.load(source)
