"""Simulated wall-clock time.

The study spans eight dated measurements in 2020; all timestamps in the
simulation (certificate validity, scan timing, FILETIME fields in the
OPC UA encoding) derive from a :class:`SimClock` so runs are
reproducible and independent of the real clock.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

UTC_EPOCH_2020 = datetime(2020, 1, 1, tzinfo=timezone.utc)

# Offset between 1601-01-01 (Windows FILETIME epoch, used by OPC UA
# DateTime) and 1970-01-01 in 100-nanosecond ticks.
_FILETIME_UNIX_OFFSET = 116444736000000000


def parse_utc(text: str) -> datetime:
    """Parse ``YYYY-MM-DD`` or ``YYYY-MM-DDTHH:MM:SS[Z]`` as UTC."""
    for fmt in ("%Y-%m-%dT%H:%M:%S", "%Y-%m-%dT%H:%M:%SZ", "%Y-%m-%d"):
        try:
            return datetime.strptime(text, fmt).replace(tzinfo=timezone.utc)
        except ValueError:
            continue
    raise ValueError(f"unrecognized UTC timestamp: {text!r}")


def format_utc(moment: datetime) -> str:
    """``YYYY-MM-DDTHH:MM:SS`` in UTC, the year zero-padded to four
    digits so that :func:`parse_utc` reads back every year."""
    utc = moment.astimezone(timezone.utc).replace(tzinfo=None)
    return utc.isoformat(timespec="seconds")


def datetime_to_filetime(moment: datetime) -> int:
    """Convert an aware datetime to OPC UA DateTime (FILETIME ticks)."""
    unix_seconds = moment.timestamp()
    return int(round(unix_seconds * 10_000_000)) + _FILETIME_UNIX_OFFSET


def filetime_to_datetime(ticks: int) -> datetime:
    """Convert OPC UA DateTime ticks back to an aware datetime."""
    unix_ticks = ticks - _FILETIME_UNIX_OFFSET
    return datetime.fromtimestamp(unix_ticks / 10_000_000, tz=timezone.utc)


class SimClock:
    """A settable, monotonically advancing simulated clock."""

    def __init__(self, start: datetime = UTC_EPOCH_2020):
        if start.tzinfo is None:
            raise ValueError("SimClock requires an aware datetime")
        self._now = start

    def now(self) -> datetime:
        return self._now

    def advance(self, seconds: float) -> datetime:
        if seconds < 0:
            raise ValueError("clock cannot move backwards")
        self._now = self._now + timedelta(seconds=seconds)
        return self._now

    def set_to(self, moment: datetime) -> None:
        if moment.tzinfo is None:
            raise ValueError("SimClock requires an aware datetime")
        if moment < self._now:
            raise ValueError("clock cannot move backwards")
        self._now = moment
