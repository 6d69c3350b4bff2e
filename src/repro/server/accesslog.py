"""Per-request server access log.

The cooperating-site experiments (paper §4) depend on server logs: the
operators' logs let the authors verify request synchronization
(Figure 3, Table 2) and measure background-traffic volume during each
stage (Tables 3a/3b).  Every simulated server keeps an equivalent log.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

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


class AccessLog:
    """Append-only request log with the paper's analyses built in."""

    def __init__(self) -> None:
        self.records: List[LogRecord] = []

    def log(
        self,
        request: HTTPRequest,
        arrival_time: float,
        status: Status,
        bytes_sent: float,
        completion_time: Optional[float] = None,
    ) -> None:
        """Append one record."""
        # positional, in field order: one call per request, and keyword
        # arguments cost a NamedTuple half again as much
        self.records.append(
            LogRecord(
                arrival_time,
                request.client_id,
                request.method,
                request.path,
                status,
                bytes_sent,
                completion_time,
                request.is_mfc,
                request.request_id,
            )
        )

    def __len__(self) -> int:
        return len(self.records)

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
