"""Checkpoint/resume journaling for crawl campaigns.

A campaign that dies at hour 30 of a multi-day crawl should not start
over.  This module is the write-ahead log that makes a campaign
restartable: each market lane appends one JSONL entry per completed
unit of work (discovery sweep, search round, per-package APK fetch) to
its own append-only file, together with a snapshot of the
deterministic state the unit left behind (server request ordinal and
fault-injector streak, download quota, client counters, lane-clock
offset and breaker state).

A resumed campaign replays the journal instead of re-issuing requests:
journaled work is applied verbatim, the last entry's state snapshot is
restored into the server and lane, and the first *live* request picks
up exactly where the dead run stopped — so the finished snapshot is
bit-identical to an uninterrupted run (the kill-and-resume tests assert
digest equality at arbitrary cut points).

Layout under the checkpoint root::

    <root>/journal.json                  format version
    <root>/apks.db                       served APK bytes (a BlobVault)
    <root>/<campaign>/<market>.jsonl     one WAL per market lane

APKs live in a :class:`~repro.store.blobs.BlobVault` — one SQLite row
of served RAPK1 bytes per MD5, the vault a checkpointed out-of-core
corpus shares — and journal entries reference them by MD5, so a lane
entry stays small, replay re-parses
:class:`~repro.apk.archive.ParsedApk` objects through the vault's
bounded LRU, and the journal never holds the corpus in RAM.

Entries are JSON lines ``{"kind", "key", "result", "state"}``.  The
first entry of each lane is ``begin`` — the state at campaign start,
which matters when a later campaign reuses servers a replayed earlier
campaign never touched.  A torn final line (the process died mid-write)
is discarded on load; any other line that is not JSON, or is JSON of
the wrong shape, raises :class:`JournalError` naming ``path:line`` and
the field at fault.  Replay that *diverges* from the journal (the
cursor entry's kind/key does not match the work the coordinator is
about to do) raises too, rather than silently mixing two different
campaigns.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.apk.archive import ApkParseError, ParsedApk
from repro.store.blobs import BlobVault, VaultError

__all__ = ["CrawlJournal", "CampaignJournal", "LaneJournal", "JournalError"]

#: Version 4: the vault keeps served APK bytes as SQLite rows
#: (``apks.db``).  Version 3 kept parsed-APK JSON documents in a sharded
#: file tree; version 2 added the client's lifetime send ordinal
#: (``sent``) to the lane state.
JOURNAL_FORMAT_VERSION = 4

KIND_BEGIN = "begin"

#: Fields every entry carries, and their JSON types; non-begin entries
#: also carry a ``result`` object.
_ENTRY_FIELDS = (("kind", str), ("key", str), ("state", dict))


class JournalError(Exception):
    """Raised for corrupt journals or replay/journal divergence."""


def _sanitize(name: str) -> str:
    """A label/market id as a safe file-system component."""
    return "".join(c if (c.isalnum() or c in "-_.") else "_" for c in name) or "_"


_JSON_TYPES = {
    dict: "object", list: "array", str: "string", int: "number",
    float: "number", bool: "boolean", type(None): "null",
}


def _entry_problem(entry: object, first: bool) -> Optional[str]:
    """What is wrong with one decoded journal line, or None.

    Only a lane's first entry may be ``begin`` (it has no result).
    """
    if not isinstance(entry, dict):
        return f"entry is a JSON {_JSON_TYPES[type(entry)]}, not an object"
    fields = _ENTRY_FIELDS
    if entry.get("kind") == KIND_BEGIN:
        if not first:
            return f"{KIND_BEGIN!r} entry after the first"
    else:
        fields += (("result", dict),)
    for name, kind in fields:
        if name not in entry:
            return f"entry has no {name!r} field"
        if not isinstance(entry[name], kind):
            return (
                f"field {name!r} is a JSON {_JSON_TYPES[type(entry[name])]}, "
                f"not {'an' if kind is dict else 'a'} {_JSON_TYPES[kind]}"
            )
    return None


class LaneJournal:
    """One market lane's WAL within one campaign.

    Only the lane's own thread touches its journal, so no locking is
    needed — the same ownership rule the lane clock and client stats
    already follow.
    """

    def __init__(self, path: Path, market_id: str):
        self._path = path
        self.market_id = market_id
        self._entries: List[dict] = []
        self._cursor = 0
        self._handle = None
        if path.exists():
            self._entries = self._load(path)

    @staticmethod
    def _load(path: Path) -> List[dict]:
        entries: List[dict] = []
        with path.open("r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        for lineno, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # Nesting too deep to decode is damage, never a torn write.
                if lineno == len(lines) - 1 and isinstance(exc, ValueError):
                    # Torn final line: the process died mid-append.  The
                    # WAL contract is that everything *before* it is
                    # complete, so resume simply loses the last unit.
                    break
                raise JournalError(f"{path}:{lineno + 1}: corrupt entry") from exc
            problem = _entry_problem(entry, first=not entries)
            if problem is not None:
                raise JournalError(f"{path}:{lineno + 1}: {problem}")
            entries.append(entry)
        return entries

    # -- reading (replay) --------------------------------------------------

    @property
    def entries(self) -> int:
        return len(self._entries)

    def begin_state(self) -> Optional[dict]:
        """The campaign-start state, if this lane was journaled before."""
        if self._entries and self._entries[0].get("kind") == KIND_BEGIN:
            return self._entries[0]["state"]
        return None

    def last_state(self) -> Optional[dict]:
        """State after the most recent journaled unit of work."""
        if not self._entries:
            return None
        return self._entries[-1]["state"]

    def replay(self, kind: str, key: str) -> Optional[dict]:
        """The journaled result for the next unit of work, or None.

        None means the journal is exhausted: the unit must run live (and
        be recorded).  A cursor entry that does not match ``(kind, key)``
        means the caller's work stream diverged from the journaled
        campaign — a different config, seed, or label — and replaying it
        would corrupt the snapshot.
        """
        if self._cursor == 0 and self.begin_state() is not None:
            self._cursor = 1  # the begin entry is consumed by restore
        if self._cursor >= len(self._entries):
            return None
        entry = self._entries[self._cursor]
        if entry.get("kind") != kind or entry.get("key") != key:
            raise JournalError(
                f"{self._path}: journal diverged at entry {self._cursor}: "
                f"expected ({kind!r}, {key!r}), "
                f"found ({entry.get('kind')!r}, {entry.get('key')!r})"
            )
        self._cursor += 1
        return entry["result"]

    # -- writing (live) ----------------------------------------------------

    def _append(self, entry: dict) -> None:
        if self._handle is None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self._path.open("a", encoding="utf-8")
        self._handle.write(json.dumps(entry, separators=(",", ":")) + "\n")
        self._handle.flush()

    def record_begin(self, state: dict) -> None:
        if self._entries:
            raise JournalError(f"{self._path}: begin after {len(self._entries)} entries")
        entry = {"kind": KIND_BEGIN, "key": self.market_id, "state": state}
        self._append(entry)
        self._entries.append(entry)
        self._cursor = 1

    def record(self, kind: str, key: str, result: dict, state: dict) -> None:
        """Journal one completed unit of work and its post-state."""
        if self._cursor < len(self._entries):
            raise JournalError(
                f"{self._path}: append while {len(self._entries) - self._cursor} "
                "journaled entries remain unreplayed"
            )
        entry = {"kind": kind, "key": key, "result": result, "state": state}
        self._append(entry)
        self._entries.append(entry)
        self._cursor += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class CampaignJournal:
    """All lane journals of one labeled campaign."""

    def __init__(self, root: Path, label: str, apks: BlobVault, resume: bool):
        self.label = label
        self.apks = apks
        self._dir = root / _sanitize(label)
        if not resume and self._dir.exists():
            # A fresh (non-resume) run must not replay a stale journal.
            for stale in self._dir.glob("*.jsonl"):
                stale.unlink()
        self._dir.mkdir(parents=True, exist_ok=True)
        self._lanes: Dict[str, LaneJournal] = {}

    def apk(self, md5: str) -> ParsedApk:
        """A journaled entry's APK, read back from the vault."""
        try:
            return self.apks.load(md5)
        except (ApkParseError, VaultError, sqlite3.Error) as exc:
            raise JournalError(f"APK vault entry {md5} unreadable: {exc!r}") from exc

    def lane(self, market_id: str) -> LaneJournal:
        lane = self._lanes.get(market_id)
        if lane is None:
            path = self._dir / f"{_sanitize(market_id)}.jsonl"
            lane = self._lanes[market_id] = LaneJournal(path, market_id)
        return lane

    def close(self) -> None:
        for lane in self._lanes.values():
            lane.close()


class CrawlJournal:
    """One checkpoint directory: a shared APK vault + per-campaign WALs.

    ``resume=False`` (the default) starts every campaign clean, deleting
    any stale lane journals under the same label; ``resume=True`` replays
    whatever the directory already holds.  The APK vault is kept either
    way — it is content-addressed, so stale entries are harmless — and
    stays open past :meth:`close`, since a checkpointed corpus reads
    from it.
    """

    def __init__(self, root: Union[str, Path], resume: bool = False):
        self.root = Path(root)
        self.resume = resume
        self.root.mkdir(parents=True, exist_ok=True)
        self._meta_path = self.root / "journal.json"
        self._check_version()
        self.apks = BlobVault(self.root / "apks.db")
        self._campaigns: Dict[str, CampaignJournal] = {}

    def _check_version(self) -> None:
        if self._meta_path.exists():
            try:
                meta = json.loads(self._meta_path.read_text(encoding="utf-8"))
            except ValueError as exc:
                raise JournalError(f"{self._meta_path}: corrupt metadata") from exc
            if meta.get("version") != JOURNAL_FORMAT_VERSION:
                raise JournalError(
                    f"{self._meta_path}: unsupported journal version "
                    f"{meta.get('version')}"
                )
        else:
            self._meta_path.write_text(
                json.dumps({"format": "repro-crawl-journal",
                            "version": JOURNAL_FORMAT_VERSION}),
                encoding="utf-8",
            )

    def campaign(self, label: str) -> CampaignJournal:
        campaign = self._campaigns.get(label)
        if campaign is None:
            campaign = self._campaigns[label] = CampaignJournal(
                self.root, label, self.apks, self.resume
            )
        return campaign

    def close(self) -> None:
        for campaign in self._campaigns.values():
            campaign.close()
