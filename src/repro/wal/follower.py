"""Read-only follower: tail a leader's WAL, serve the unmodified API.

:class:`FollowerDatabase` recovers a WAL directory and then keeps
**tailing** ``wal.log``: each :meth:`catch_up` reads the bytes past
its position and applies every *complete* frame through
:func:`~repro.wal.recovery.replay_record`, as recovery does: the
ordinary :meth:`LiveGraph.apply` / :meth:`LiveGraph.compact`, with the
same replay determinism, so the follower's edge ids match what the
leader had at each LSN.  A partial frame at the tail (the leader
is mid-write, or mid-group-commit) is simply retried on the next
poll: the read position only ever advances past valid frames, so a
torn tail can delay the follower but never desynchronize it.

Reads go through an internal, completely ordinary
:class:`repro.api.Database` — the follower registers its
:class:`LiveGraph` like any caller would, which means the façade's
plan/annotation caches and their fine-grained footprint invalidation
work unchanged: every applied record flows through the change feed,
and cached annotations untouched by a batch's labels stay warm across
catch-ups.

No write path: the follower attaches no WAL hook and owns no writer.
Mutating it directly would fork it from the leader — don't.
"""

from __future__ import annotations

import os
import time
from typing import Any, Optional

from repro.api.database import Database
from repro.wal.frames import checked_frames
from repro.wal.recovery import recover, replay_record
from repro.wal.writer import LOG_NAME


class FollowerDatabase:
    """Tails a WAL directory; serves reads via :mod:`repro.api`.

    ``poll_interval`` / ``max_backoff`` (seconds) bound the sleep
    between empty polls in :meth:`wait_for` and :meth:`run`: the
    interval doubles while the log is quiet and resets on progress.
    """

    def __init__(
        self,
        wal_dir: str,
        *,
        name: str = "default",
        poll_interval: float = 0.02,
        max_backoff: float = 1.0,
        **db_kwargs: Any,
    ) -> None:
        state = recover(wal_dir)
        self.wal_dir = wal_dir
        self.name = name
        self.poll_interval = poll_interval
        self.max_backoff = max_backoff
        self._path = os.path.join(wal_dir, LOG_NAME)
        self._live = state.graph
        self._lsn = state.last_lsn
        self._offset = state.valid_offset
        self.db = Database(**db_kwargs)
        self.db.register(name, self._live)

    # -- position -----------------------------------------------------

    @property
    def last_lsn(self) -> int:
        """LSN of the last record this follower has applied."""
        return self._lsn

    @property
    def offset(self) -> int:
        """Byte position in ``wal.log`` the next poll reads from."""
        return self._offset

    # -- tailing ------------------------------------------------------

    def catch_up(self) -> int:
        """Apply every complete frame past the current position.

        Returns the number of records applied.  Stops (without
        advancing) at the first incomplete or invalid frame — the
        leader may still be writing it, so it is retried on the next
        call rather than treated as corruption.  A complete frame with
        the wrong next LSN, however, raises
        :class:`~repro.exceptions.WalError` (the log was rewritten
        underneath the follower), and so does one that fails to replay,
        with the message recovery gives it.
        """
        try:
            with open(self._path, "rb") as fh:
                fh.seek(self._offset)
                data = fh.read()
        except FileNotFoundError:
            return 0
        applied = 0
        base = self._offset  # Frame offsets are data-relative.
        for record, end in checked_frames(data, start_lsn=self._lsn):
            replay_record(self._live, record)
            self._lsn = record["lsn"]
            self._offset = base + end
            applied += 1
        return applied

    def wait_for(self, lsn: int, *, timeout: float = 5.0) -> bool:
        """Poll (with backoff) until ``last_lsn >= lsn`` or timeout."""
        deadline = time.monotonic() + timeout
        backoff = self.poll_interval
        while self._lsn < lsn:
            if self.catch_up():
                backoff = self.poll_interval
                continue
            if time.monotonic() >= deadline:
                return False
            time.sleep(min(backoff, max(deadline - time.monotonic(), 0)))
            backoff = min(backoff * 2, self.max_backoff)
        return True

    def run(
        self,
        *,
        duration: Optional[float] = None,
        max_records: Optional[int] = None,
    ) -> int:
        """Tail until ``duration`` seconds elapse (or ``max_records``).

        Returns the number of records applied.  With neither bound the
        loop runs forever — the ``repro follow`` CLI mode.
        """
        deadline = (
            time.monotonic() + duration if duration is not None else None
        )
        total = 0
        backoff = self.poll_interval
        while True:
            applied = self.catch_up()
            total += applied
            if applied:
                backoff = self.poll_interval
            if max_records is not None and total >= max_records:
                return total
            if deadline is not None and time.monotonic() >= deadline:
                return total
            if not applied:
                sleep = backoff
                if deadline is not None:
                    sleep = min(sleep, max(deadline - time.monotonic(), 0))
                time.sleep(sleep)
                backoff = min(backoff * 2, self.max_backoff)

    # -- read façade --------------------------------------------------

    def query(self, query):
        """Start a façade query (see :meth:`repro.api.Database.query`)."""
        return self.db.query(query)

    @property
    def graph(self):
        """The follower's :class:`LiveGraph` replica (read it, don't
        mutate it — writes belong on the leader)."""
        return self._live

    def __repr__(self) -> str:
        return (
            f"FollowerDatabase({self.wal_dir!r}, lsn={self._lsn}, "
            f"offset={self._offset})"
        )
