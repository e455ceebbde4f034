"""Link-level contention modeling (optional engine mode).

The paper's cost model charges every message ``ts + tw*m`` regardless of
what else is in flight — justified by choosing communication patterns
whose paths do not conflict ("a simple one-to-one communication along
non-conflicting paths", Section 4.2).  This module lets the simulator
*check* that justification instead of assuming it: with
``SimConfig(link_contention=True)`` every message reserves the
directed links of a deterministic minimal route for its transfer
duration, and messages that share a link serialize.

Routing disciplines:

* :class:`Hypercube` — dimension-order (e-cube) routing: correct address
  bits from least-significant to most-significant,
* :class:`Mesh2D` — row-first (X-Y) routing with minimal wraparound,
* :class:`FullyConnected` — the dedicated pairwise link.

With circuit-style cut-through reservation the message holds its whole
path for ``ts + tw*m`` starting when the sender is ready *and* every
link is free.  The test-suite shows (a) two transfers sharing a link
serialize, and (b) Cannon's Gray-embedded rolls and the recursive-
doubling collectives on subcubes are contention-free — their simulated
times are bit-identical with contention on or off, which is exactly the
paper's assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simulator.topology import FullyConnected, Hypercube, Mesh2D, Topology

__all__ = ["route_path", "LinkReservations", "retransmit_backoff_delay"]


def retransmit_backoff_delay(timeout: float, backoff: float, attempts: int) -> float:
    """Total acknowledgment-timeout wait for *attempts* failed transmissions.

    The fault model (:mod:`repro.simulator.faults`) detects a dropped
    message when its acknowledgment timer expires; the timer starts at
    *timeout* and is multiplied by *backoff* after every failure
    (exponential backoff).  The delay charged on top of the failed
    injections is therefore ``timeout * (1 + backoff + backoff^2 + ...)``
    over *attempts* terms, accumulated left-to-right so the engine and
    any closed-form re-derivation agree bit-for-bit.
    """
    total = 0.0
    t = timeout
    for _ in range(attempts):
        total += t
        t *= backoff
    return total


def route_path(topology: Topology, src: int, dst: int) -> list[int]:
    """The deterministic minimal route from *src* to *dst* (inclusive)."""
    if src == dst:
        return [src]
    if isinstance(topology, Hypercube):
        path = [src]
        cur = src
        diff = src ^ dst
        bit = 0
        while diff:
            if diff & 1:
                cur ^= 1 << bit
                path.append(cur)
            diff >>= 1
            bit += 1
        return path
    if isinstance(topology, Mesh2D):
        r0, c0 = topology.coords(src)
        r1, c1 = topology.coords(dst)
        path = [src]
        c = c0
        while c != c1:
            c = _step_toward(c, c1, topology.cols, topology.wraparound)
            path.append(topology.rank(r0, c))
        r = r0
        while r != r1:
            r = _step_toward(r, r1, topology.rows, topology.wraparound)
            path.append(topology.rank(r, c1))
        return path
    if isinstance(topology, FullyConnected):
        return [src, dst]
    # generic fallback: greedy neighbor descent on the hop metric
    path = [src]
    cur = src
    while cur != dst:
        cur = min(topology.neighbors(cur), key=lambda x: (topology.distance(x, dst), x))
        path.append(cur)
    return path


def _step_toward(a: int, b: int, n: int, wrap: bool) -> int:
    """One minimal-direction step from *a* toward *b* along an axis of length *n*."""
    if not wrap:
        return a + 1 if b > a else a - 1
    fwd = (b - a) % n
    bwd = (a - b) % n
    return (a + 1) % n if fwd <= bwd else (a - 1) % n


@dataclass
class LinkReservations:
    """Time-interval bookkeeping for directed links.

    ``earliest_start(links, t, duration)`` finds the first time >= *t* at
    which every link in *links* is simultaneously free for *duration*,
    and ``reserve`` books it.  Reservations per link are kept as a sorted
    list of half-open busy intervals.
    """

    _busy: dict[tuple[int, int], list[tuple[float, float]]] = field(default_factory=dict)

    def earliest_start(
        self, links: list[tuple[int, int]], t: float, duration: float
    ) -> float:
        if duration <= 0 or not links:
            return t
        start = t
        # iterate until a start time clears every link (terminates: each
        # adjustment jumps past the end of some existing reservation)
        for _ in range(1_000_000):
            bumped = False
            for link in links:
                for b0, b1 in self._busy.get(link, ()):
                    if b0 < start + duration and start < b1:
                        start = b1
                        bumped = True
            if not bumped:
                return start
        raise RuntimeError("link reservation search did not converge")

    def reserve(self, links: list[tuple[int, int]], start: float, duration: float) -> None:
        if duration <= 0:
            return
        for link in links:
            intervals = self._busy.setdefault(link, [])
            intervals.append((start, start + duration))
            intervals.sort()

    def busy_time(self, link: tuple[int, int]) -> float:
        """Total reserved time on one directed link."""
        return sum(b1 - b0 for b0, b1 in self._busy.get(link, ()))

    @property
    def links_used(self) -> int:
        return len(self._busy)
