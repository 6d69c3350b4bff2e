"""Resumable result store: a directory of key-range JSONL shards.

One line per finished job:

    {"key": <sha256>, "job_id": ..., "meta": {...}, "detail": ...,
     "elapsed_s": ..., "result": {...}}

Appending a line is the commit point — a campaign killed mid-append
loses only the torn trailing line, which is skipped on the next load,
so resuming is always safe.  A ``"full"``-detail record satisfies a
``"summary"`` lookup (it is a superset); when both exist for one key,
the fuller record wins.

A store path is a directory of ``shard-NN.jsonl`` files, records
routed by the leading bytes of their job key.  Shard indexes load
lazily (a lookup touches only the one shard its key routes to) and
:meth:`append_batch` commits a whole worker batch with one write + one
``fsync`` per touched shard, which is what keeps 100k-job campaigns off
the per-record fsync path.

:meth:`compact` rewrites shards in place, dropping torn/corrupt lines
and superseded duplicates (summary records shadowed by a full record,
re-runs of the same key), and reports the bytes reclaimed.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.campaign.codec import FULL

#: shard count of a store; shard-NN names are zero-padded to two
#: digits, so keep this <= 100
N_SHARDS = 16


def shard_index(key: str, n_shards: int = N_SHARDS) -> int:
    """Route a job key to its shard (stable across runs and platforms)."""
    try:
        return int(key[:2], 16) % n_shards
    except ValueError:
        # non-hex keys (hand-written stores) still deserve a stable home
        return sum(key.encode("utf-8", "replace")) % n_shards


def _load_lines(path: Path) -> Tuple[List[Dict], int, bool]:
    """Parse one JSONL file: (records, mid-file corrupt count, torn tail).

    Only the *trailing* line may be silently partial — that is the
    kill-mid-append signature and everything before it is intact.  A
    malformed line anywhere else means real damage (disk fault, manual
    edit, concurrent writer) and is counted so the caller can warn
    instead of quietly dropping results.
    """
    records: List[Dict] = []
    bad_lines = 0  # malformed lines seen so far (tail status unknown yet)
    tail_torn = False
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError:
                bad_lines += 1
                tail_torn = True
                continue
            if not isinstance(record, dict) or "key" not in record:
                bad_lines += 1
                tail_torn = True
                continue
            tail_torn = False
            records.append(record)
    if tail_torn:
        bad_lines -= 1  # the torn trailing line is expected damage
    return records, bad_lines, tail_torn


class ResultStore:
    """Append-only result cache keyed by stable job hash.

    *path* is the shard directory, created on the first append;
    ``path=None`` gives an in-memory store: same interface, nothing
    persisted — the executor uses one when no cache is wanted.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        n_shards: int = N_SHARDS,
    ) -> None:
        self.path = Path(path) if path is not None else None
        if self.path is not None and self.path.is_file():
            # fail before a campaign computes anything it could not commit
            raise ValueError(
                f"result store {self.path} is a file; a store is a "
                "directory of shard files"
            )
        self.n_shards = n_shards
        #: per-shard key → record maps; a shard is absent until loaded
        self._shards: Dict[int, Dict[str, Dict]] = {}

    # -- layout ---------------------------------------------------------------

    def _shard_of(self, key: str) -> int:
        return shard_index(key, self.n_shards)

    def shard_path(self, shard: int) -> Optional[Path]:
        """On-disk file backing *shard* (None for in-memory stores)."""
        if self.path is None:
            return None
        return self.path / f"shard-{shard:02d}.jsonl"

    def shard_paths(self) -> List[Path]:
        """Every shard file that exists on disk."""
        if self.path is None or not self.path.is_dir():
            return []
        return sorted(self.path.glob("shard-*.jsonl"))

    def _shard_records(self, shard: int) -> Dict[str, Dict]:
        """The shard's key → record map, loading its file on first use."""
        records = self._shards.get(shard)
        if records is None:
            records = self._shards[shard] = {}
            path = self.shard_path(shard)
            if path is not None and path.is_file():
                loaded, corrupt, _ = _load_lines(path)
                if corrupt:
                    warnings.warn(
                        f"result store {path}: skipped {corrupt} corrupt "
                        "mid-file line(s); the shard is damaged beyond a "
                        "torn tail and may be missing results",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                for record in loaded:
                    self._remember(records, record)
        return records

    def _load_all(self) -> None:
        for shard in range(self.n_shards):
            self._shard_records(shard)

    @staticmethod
    def _remember(records: Dict[str, Dict], record: Dict) -> None:
        existing = records.get(record["key"])
        if existing is not None and existing.get("detail") == FULL:
            return  # never downgrade a full record
        records[record["key"]] = record

    # -- lookup ---------------------------------------------------------------

    def __len__(self) -> int:
        self._load_all()
        return sum(len(records) for records in self._shards.values())

    def __contains__(self, key: str) -> bool:
        return key in self._shard_records(self._shard_of(key))

    def get(self, key: str, detail: str) -> Optional[Dict]:
        """The stored record for *key*, if its detail level suffices."""
        record = self._shard_records(self._shard_of(key)).get(key)
        if record is None:
            return None
        if record.get("detail") == detail or record.get("detail") == FULL:
            return record
        return None

    def missing(self, keys: Iterable[str], detail: str) -> List[str]:
        """Keys from *keys* with no sufficient stored record, in order.

        The two-phase triage scheduler uses this to report how much of
        each phase a resumed run still owes before dispatching it.
        """
        return [key for key in keys if self.get(key, detail) is None]

    def records(self) -> Iterator[Dict]:
        """All live records (deduplicated by key)."""
        self._load_all()
        for shard in sorted(self._shards):
            yield from self._shards[shard].values()

    # -- append ---------------------------------------------------------------

    def append(self, record: Dict) -> None:
        """Persist one finished job (the durable commit point)."""
        self.append_batch([record])

    def append_batch(self, records: List[Dict]) -> None:
        """Persist a batch of finished jobs: one write + fsync per shard.

        The write itself is the commit point, exactly as for single
        appends: a kill mid-write leaves at most one torn trailing line
        per touched shard, which the next load skips — every record
        fully written before the kill survives.
        """
        if not records:
            return
        by_shard: Dict[int, List[Dict]] = {}
        for record in records:
            shard = self._shard_of(record["key"])
            self._remember(self._shard_records(shard), record)
            by_shard.setdefault(shard, []).append(record)
        if self.path is None:
            return
        self.path.mkdir(parents=True, exist_ok=True)
        for shard, batch in sorted(by_shard.items()):
            lines = "".join(
                json.dumps(record, separators=(",", ":")) + "\n"
                for record in batch
            )
            with self.shard_path(shard).open("a", encoding="utf-8") as fh:
                fh.write(lines)
                fh.flush()
                os.fsync(fh.fileno())

    # -- maintenance ----------------------------------------------------------

    def fsck(self) -> Dict:
        """Integrity report for every shard file, without rewriting.

        Returns ``{"shards": [per-shard dicts], "totals": {...},
        "damaged": bool}``.  Each shard dict counts ``lines`` (non-empty
        lines on disk), ``records`` (parseable result lines), ``live``
        (records that survive dedup), ``superseded`` (shadowed
        duplicates), ``corrupt`` (malformed *mid-file* lines — real
        damage), ``torn_tail`` (the expected kill-mid-append
        signature) and ``dead_letters`` (live records whose stored
        result is a dead letter).  ``damaged`` is True iff any shard
        has mid-file corruption; a torn tail alone is normal wear and
        does not flag the store.
        """
        shards: List[Dict] = []
        totals = {
            "files": 0,
            "lines": 0,
            "records": 0,
            "live": 0,
            "superseded": 0,
            "corrupt": 0,
            "torn_tails": 0,
            "dead_letters": 0,
        }
        for path in self.shard_paths():
            loaded, corrupt, torn = _load_lines(path)
            live: Dict[str, Dict] = {}
            for record in loaded:
                self._remember(live, record)
            dead = sum(
                1
                for record in live.values()
                if record.get("result", {}).get("kind") == "dead-letter"
            )
            lines = sum(
                1
                for line in path.read_text(encoding="utf-8").splitlines()
                if line.strip()
            )
            shards.append(
                {
                    "path": str(path),
                    "lines": lines,
                    "records": len(loaded),
                    "live": len(live),
                    "superseded": len(loaded) - len(live),
                    "corrupt": corrupt,
                    "torn_tail": torn,
                    "dead_letters": dead,
                }
            )
            totals["files"] += 1
            totals["lines"] += lines
            totals["records"] += len(loaded)
            totals["live"] += len(live)
            totals["superseded"] += len(loaded) - len(live)
            totals["corrupt"] += corrupt
            totals["torn_tails"] += int(torn)
            totals["dead_letters"] += dead
        return {
            "shards": shards,
            "totals": totals,
            "damaged": totals["corrupt"] > 0,
        }

    def compact(self) -> Dict[str, int]:
        """Rewrite every shard keeping only live records.

        Drops superseded duplicates (summary lines shadowed by a full
        record, repeated runs of one key), torn trailing lines and
        corrupt lines, then atomically replaces each shard file.
        Returns counters: lines/records before and after, and the
        bytes reclaimed.
        """
        stats = {
            "files": 0,
            "lines_before": 0,
            "records_after": 0,
            "bytes_before": 0,
            "bytes_after": 0,
        }
        for path in self.shard_paths():
            loaded, _, _ = _load_lines(path)
            live: Dict[str, Dict] = {}
            for record in loaded:
                self._remember(live, record)
            stats["files"] += 1
            stats["lines_before"] += sum(
                1 for line in path.read_text(encoding="utf-8").splitlines() if line
            )
            stats["records_after"] += len(live)
            stats["bytes_before"] += path.stat().st_size
            tmp = path.with_suffix(".jsonl.tmp")
            with tmp.open("w", encoding="utf-8") as fh:
                for record in live.values():
                    fh.write(json.dumps(record, separators=(",", ":")) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            stats["bytes_after"] += path.stat().st_size
        if self.path is not None:
            # every record is on disk: reload shards lazily from the rewrite
            self._shards.clear()
        stats["bytes_reclaimed"] = stats["bytes_before"] - stats["bytes_after"]
        return stats
