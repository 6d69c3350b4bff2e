"""Per-request server access log.

The cooperating-site experiments (paper §4) depend on server logs: the
operators' logs let the authors verify request synchronization
(Figure 3, Table 2) and measure background-traffic volume during each
stage (Tables 3a/3b).  Every simulated server keeps an equivalent log.

A world logs every request it serves, tens of thousands per cohort
world, and reads the log only in the analyses afterwards.  So the log
is stored by column: packed ``array`` columns for the times, byte
counts and request ids, one-byte codes for status and MFC flag, and
lists of the shared client-id, method and path objects, about 60 bytes
a record where a tuple per record costs 180.  :class:`LogRecord` is the
read type: :attr:`AccessLog.records` builds a fresh list of records on
each read, so write only through :meth:`AccessLog.log`.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterable, List, NamedTuple, Optional, Sequence

from repro.server.http import HTTPRequest, Method, Status


class LogRecord(NamedTuple):
    """One served (or refused) request (immutable, read by attribute)."""

    arrival_time: float
    client_id: str
    method: Method
    path: str
    status: Status
    bytes_sent: float
    completion_time: Optional[float]
    is_mfc: bool
    request_id: int


#: status column codes: one byte per record
_STATUSES = tuple(Status)
_STATUS_CODE = {status: code for code, status in enumerate(_STATUSES)}


class AccessLog:
    """Append-only request log with the paper's analyses built in."""

    def __init__(self, records: Iterable[LogRecord] = ()) -> None:
        """An empty log, or one holding *records* in order (a merge)."""
        (
            arrival, client_id, method, path, status,
            bytes_sent, completion, is_mfc, request_id,
        ) = tuple(zip(*records)) or ((),) * len(LogRecord._fields)
        self._arrival = array("d", arrival)
        self._client_id: List[str] = list(client_id)
        self._method: List[Method] = list(method)
        self._path: List[str] = list(path)
        self._status = bytearray(_STATUS_CODE[s] for s in status)
        self._bytes_sent = array("d", bytes_sent)
        #: NaN stands for a request that never completed
        self._completion = array("d", [math.nan if c is None else c for c in completion])
        self._is_mfc = bytearray(is_mfc)
        self._request_id = array("q", request_id)

    def log(
        self,
        request: HTTPRequest,
        arrival_time: float,
        status: Status,
        bytes_sent: float,
        completion_time: Optional[float] = None,
    ) -> None:
        """Append one record."""
        self._arrival.append(arrival_time)
        self._client_id.append(request.client_id)
        self._method.append(request.method)
        self._path.append(request.path)
        self._status.append(_STATUS_CODE[status])
        self._bytes_sent.append(bytes_sent)
        self._completion.append(math.nan if completion_time is None else completion_time)
        self._is_mfc.append(request.is_mfc)
        self._request_id.append(request.request_id)

    def __len__(self) -> int:
        return len(self._arrival)

    @property
    def records(self) -> List[LogRecord]:
        """Every record in log order (a fresh list on each call)."""
        return [
            LogRecord(
                arrival,
                client_id,
                method,
                path,
                _STATUSES[status],
                bytes_sent,
                None if math.isnan(completion) else completion,
                is_mfc != 0,
                request_id,
            )
            for (
                arrival, client_id, method, path, status,
                bytes_sent, completion, is_mfc, request_id,
            ) in zip(
                self._arrival, self._client_id, self._method, self._path, self._status,
                self._bytes_sent, self._completion, self._is_mfc, self._request_id,
            )
        ]

    # -- selections -------------------------------------------------------------

    def in_window(self, start: float, end: float) -> List[LogRecord]:
        """Records with ``start <= arrival_time < end``."""
        return [r for r in self.records if start <= r.arrival_time < end]

    def mfc_records(self, window: Optional[Sequence[LogRecord]] = None) -> List[LogRecord]:
        """Only MFC-issued requests (optionally within a window)."""
        records = self.records if window is None else list(window)
        return [r for r in records if r.is_mfc]

    def background_records(self, window: Optional[Sequence[LogRecord]] = None) -> List[LogRecord]:
        """Only non-MFC requests."""
        records = self.records if window is None else list(window)
        return [r for r in records if not r.is_mfc]

    # -- paper analyses ------------------------------------------------------------

    def arrival_offsets(self, records: Sequence[LogRecord]) -> List[float]:
        """Arrival times relative to the earliest arrival, sorted."""
        if not records:
            return []
        times = sorted(r.arrival_time for r in records)
        first = times[0]
        return [t - first for t in times]

    def spread_middle_fraction(
        self, records: Sequence[LogRecord], fraction: float = 0.9
    ) -> float:
        """Time-span of the middle *fraction* of arrivals (Table 2).

        The paper reports "the difference in timestamps for the middle
        90% of all requests in the epoch".
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        times = sorted(r.arrival_time for r in records)
        if len(times) < 2:
            return 0.0
        trim = (1.0 - fraction) / 2.0
        lo = int(round(len(times) * trim))
        hi = max(lo + 1, int(round(len(times) * (1.0 - trim))) - 1)
        hi = min(hi, len(times) - 1)
        return times[hi] - times[lo]

    def background_rate(self, start: float, end: float) -> float:
        """Background (non-MFC) requests/second over a window."""
        if end <= start:
            raise ValueError("window must have positive length")
        count = len(self.background_records(self.in_window(start, end)))
        return count / (end - start)

    def mfc_traffic_share(self, start: float, end: float) -> float:
        """Fraction of all requests in the window issued by the MFC.

        The cooperating-site tables report "MFC traffic (% of all)".
        """
        window = self.in_window(start, end)
        if not window:
            return 0.0
        return len(self.mfc_records(window)) / len(window)
