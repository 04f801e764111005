"""Subscription fan-out: one resident query, many cheap consumers.

The "millions of users" story of the roadmap is not millions of plans —
it is few resident dataflows whose changelogs fan out to many
subscribers.  A :class:`SubscriptionRegistry` hangs off each standing
query and holds one **broadcast log** of its sequenced deltas:

* publishing appends each delta to the log **once**, however many
  subscribers there are;
* each :class:`Subscriber` is a **cursor** into that log (the global
  sequence number of the next delta it will read), so consumers drain
  at their own pace and a reconnecting consumer can state where it
  left off; its depth is ``next_seq - cursor``;
* a subscriber that a publish would push past its ``capacity`` is
  **evicted** — marked, counted, and detached — rather than allowed to
  hold the query's memory hostage (the slow-consumer policy every
  production pub/sub layer ends up with);
* the log is trimmed to the lowest live cursor, so it never holds more
  than the slowest live subscriber's lag, and nothing at all when no
  one is subscribed.

Deltas are :class:`~repro.core.changelog.Change` objects wrapped with
their per-query sequence number; the wire rendering lives in
:mod:`repro.service.server`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.changelog import Change

__all__ = ["Delta", "Subscriber", "SubscriptionRegistry"]


@dataclass(frozen=True, slots=True)
class Delta:
    """One changelog change of a standing query, as delivered.

    ``seq`` is the query's global delta sequence number (0-based,
    gap-free); subscribers admitted mid-stream start at the current
    sequence, so ``seq`` doubles as the resumption cursor.
    """

    seq: int
    change: Change

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "ptime": self.change.ptime,
            "kind": "insert" if self.change.is_insert else "retract",
            "values": list(self.change.values),
        }


class Subscriber:
    """One consumer of a standing query's changelog: a log cursor.

    ``capacity`` bounds how far the cursor may trail the log's head; a
    publish past it evicts the subscriber (``evicted`` flips and its
    undrained deltas are no longer readable).  The cursor advances on
    :meth:`take`, not on publish, so it always names the next sequence
    the consumer has *not* seen.
    """

    __slots__ = ("id", "capacity", "cursor", "evicted", "_registry")

    def __init__(
        self,
        subscriber_id: str,
        capacity: int,
        registry: "SubscriptionRegistry",
        cursor: int = 0,
    ):
        if capacity < 1:
            raise ValueError("subscriber capacity must be >= 1")
        self.id = subscriber_id
        self.capacity = capacity
        self.cursor = cursor
        self.evicted = False
        self._registry: Optional[SubscriptionRegistry] = registry

    @property
    def attached(self) -> bool:
        """False once unsubscribed, replaced, or its query withdrawn."""
        return self._registry is not None

    def detach(self) -> None:
        """Leave the registry; a no-op once no longer attached (so a
        subscriber replaced under the same id never detaches its
        replacement)."""
        if self._registry is not None:
            self._registry.unsubscribe(self.id)

    @property
    def depth(self) -> int:
        """Deltas published and not yet taken (0 once evicted or
        unsubscribed)."""
        if self.evicted or self._registry is None:
            return 0
        return self._registry.next_seq - self.cursor

    def take(self, limit: Optional[int] = None) -> list[Delta]:
        """Read up to ``limit`` undrained deltas, advancing the cursor."""
        registry = self._registry
        if self.evicted or registry is None:
            return []
        old = self.cursor
        count = registry._next_seq - old
        if limit is not None:
            count = min(limit, count)
        if count <= 0:
            return []
        offset = old - registry._base
        out = registry._log[offset : offset + count]
        self.cursor = old + count
        if not offset:
            registry._release(old)
        return out


class SubscriptionRegistry:
    """The subscribers of one standing query, its broadcast log, and
    delivery accounting."""

    def __init__(self, default_capacity: int = 256):
        self.default_capacity = default_capacity
        self._subscribers: dict[str, Subscriber] = {}
        self._next_seq = 0
        #: published deltas from sequence ``_base`` on; ``_base`` is the
        #: lowest live cursor (``_next_seq`` when no one is subscribed).
        self._log: list[Delta] = []
        self._base = 0
        #: live subscribers whose cursor sits at ``_base``; the log can
        #: only be trimmed once the last of them moves on.
        self._pinned = 0
        #: deltas successfully delivered to subscribers, summed over all.
        self.delivered = 0
        #: subscribers evicted for falling behind.
        self.evictions = 0

    @property
    def next_seq(self) -> int:
        """The sequence number the next published delta will carry."""
        return self._next_seq

    @property
    def log_size(self) -> int:
        """Deltas the broadcast log currently retains."""
        return len(self._log)

    def seek(self, seq: int) -> None:
        """Pin the next sequence number (catch-up and restore paths,
        before any subscriber attaches)."""
        self._next_seq = seq
        self._trim()

    def subscribe(
        self, subscriber_id: str, capacity: Optional[int] = None
    ) -> Subscriber:
        """Attach (or re-attach) a subscriber starting at the live edge."""
        self.unsubscribe(subscriber_id)
        subscriber = Subscriber(
            subscriber_id,
            capacity if capacity is not None else self.default_capacity,
            self,
            cursor=self._next_seq,
        )
        self._subscribers[subscriber_id] = subscriber
        if subscriber.cursor == self._base:
            self._pinned += 1
        return subscriber

    def unsubscribe(self, subscriber_id: str) -> bool:
        subscriber = self._subscribers.pop(subscriber_id, None)
        if subscriber is None:
            return False
        subscriber._registry = None
        if not subscriber.evicted:
            self._release(subscriber.cursor)
        return True

    def get(self, subscriber_id: str) -> Optional[Subscriber]:
        return self._subscribers.get(subscriber_id)

    def close(self) -> None:
        """Detach every subscriber and drop the log (query withdrawn)."""
        for subscriber_id in list(self._subscribers):
            self.unsubscribe(subscriber_id)

    def subscribers(self) -> list[Subscriber]:
        return list(self._subscribers.values())

    @property
    def live_count(self) -> int:
        return sum(1 for s in self._subscribers.values() if not s.evicted)

    def queue_depth(self) -> int:
        """Deltas undrained across all live subscribers (backpressure gauge)."""
        return sum(s.depth for s in self._subscribers.values())

    def publish(self, changes: list[Change]) -> list[Delta]:
        """Sequence ``changes`` and append them to the broadcast log.

        Returns the sequenced deltas (for checkpointing / the caller's
        own bookkeeping).  Costs O(deltas + subscribers): each delta is
        stored once, and each subscriber is only checked against its
        capacity.  Eviction happens here — a subscriber whose depth the
        publish would push past ``capacity`` is dropped and counted (the
        deltas that still fitted count as delivered), and delivery to
        the others continues.
        """
        start = self._next_seq
        deltas = [Delta(seq, change) for seq, change in enumerate(changes, start)]
        if not deltas:
            return deltas
        count = len(deltas)
        self._next_seq = start + count
        live = 0
        evicted = False
        for subscriber in self._subscribers.values():
            if subscriber.evicted:
                continue
            room = subscriber.capacity - (start - subscriber.cursor)
            if room >= count:
                self.delivered += count
                live += 1
            else:
                self.delivered += room
                self.evictions += 1
                subscriber.evicted = True
                evicted = True
        if live:
            self._log.extend(deltas)
        if evicted or not live:
            self._trim()
        return deltas

    # -- the log ----------------------------------------------------------------

    def _release(self, cursor: int) -> None:
        """A live cursor left position ``cursor``: trim if it pinned the log."""
        if cursor == self._base:
            self._pinned -= 1
            if not self._pinned:
                self._trim()

    def _trim(self) -> None:
        """Drop log entries below the lowest live cursor."""
        cursors = [s.cursor for s in self._subscribers.values() if not s.evicted]
        low = min(cursors, default=self._next_seq)
        if low > self._base:
            del self._log[: low - self._base]
        self._base = low
        self._pinned = cursors.count(low)
