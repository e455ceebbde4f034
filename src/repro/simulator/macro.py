"""Closed-form, vectorized executors for macro-simulated collectives.

When a collective's cost can be computed without actually routing its
``2·g·log g`` point-to-point messages through the engine — tracing off,
link contention off, event-driven scheduler — every member of a group
posts one :class:`~repro.simulator.request.CollectiveOp` and the engine
calls :func:`run_collective` once.  Each executor replays the reference
collective's per-rank event sequence level by level, but over the whole
group at once in numpy: the per-rank clocks and accounts live in a
:class:`~repro.simulator.trace.RankArrays` and each communication round
becomes a handful of array operations instead of ``O(g)`` generator
resumptions.

Bit-identity with the message-level reference implementations in
:mod:`repro.simulator.collectives` is a hard contract (the fuzz suite
pins it).  Three rules keep it:

* Cost expressions use the exact parenthesization of the engine's hot
  loop — ``ts + tw*m + th*hops`` and ``ts + (tw*m + th)*hops`` — so each
  float operation happens in the same order.
* Per-rank accounts accumulate one addition per simulated event, in the
  same order the reference scheduler would perform them; no algebraic
  batching of float sums (float addition is not associative).
* Receive waits add ``max(gap, 0.0)``; adding ``+0.0`` to a
  non-negative accumulator is a bitwise no-op, matching the reference's
  conditional add.

Executors are generic over arbitrary group shapes — any ordered subset
of ranks, any topology — exactly like the reference helpers.
"""

from __future__ import annotations

import math
from typing import Any, Callable

import numpy as np

from repro.core.machine import MachineParams
from repro.simulator.charging import message_times, recv_wait_times
from repro.simulator.errors import ProgramError
from repro.simulator.request import CollectiveOp, SymCollective, words_of
from repro.simulator.topology import PairHopCache, Topology
from repro.simulator.trace import RankArrays

__all__ = ["run_collective", "run_batch_collective", "BATCH_KINDS"]


class _Charger:
    """Per-run vectorized cost model over one group's gathered accounts.

    Holds the group-local (gathered) rows of the global
    :class:`RankArrays` plus the hoisted machine constants; ``send`` and
    ``recv`` charge one communication round for an arbitrary subset of
    the group.  All indices are positions in the gathered arrays (group
    order, or rotated/relative order for rooted collectives).
    """

    __slots__ = (
        "machine", "topology", "order",
        "clock", "compute", "send_t", "recv_w", "msgs", "words",
    )

    def __init__(
        self, arr: RankArrays, topology: Topology, machine: MachineParams, order: np.ndarray
    ) -> None:
        self.machine = machine
        self.topology = topology
        self.order = order  # gathered position -> absolute rank
        # fancy indexing gathers copies; scatter() writes them back
        self.clock = arr.clock[order]
        self.compute = arr.compute_time[order]
        self.send_t = arr.send_time[order]
        self.recv_w = arr.recv_wait_time[order]
        self.msgs = arr.messages_sent[order]
        self.words = arr.words_sent[order]

    def send(self, s: np.ndarray, dst: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Charge senders *s* injecting *m*-word messages toward *dst*.

        Returns each message's arrival time.  Mirrors the engine's Send
        branch: arrival is computed at the pre-send clock, then the
        sender advances by its injection time.
        """
        hops = np.maximum(self.topology.distances(self.order[s], self.order[dst]), 1)
        busy, arrival = message_times(self.machine, self.clock[s], m, hops)
        self.clock[s] += busy
        self.send_t[s] += busy
        self.msgs[s] += 1
        self.words[s] += m
        return arrival

    def recv(self, r: np.ndarray, arrival: np.ndarray) -> None:
        """Complete receives on ranks *r* for messages arriving at *arrival*."""
        waited, advanced = recv_wait_times(self.clock[r], arrival)
        self.recv_w[r] += waited
        self.clock[r] = advanced

    def scatter(self, arr: RankArrays) -> None:
        arr.clock[self.order] = self.clock
        arr.compute_time[self.order] = self.compute
        arr.send_time[self.order] = self.send_t
        arr.recv_wait_time[self.order] = self.recv_w
        arr.messages_sent[self.order] = self.msgs
        arr.words_sent[self.order] = self.words


def _declared_words(post: CollectiveOp) -> int:
    return post.nwords if post.nwords is not None else words_of(post.data)


def _require_agreement(posts: list[CollectiveOp], attr: str, modulus: int) -> int:
    """The common value of *attr* modulo *modulus* (the reference helpers
    only ever use these parameters reduced by the group size)."""
    v = getattr(posts[0], attr) % modulus
    for q in posts:
        if getattr(q, attr) % modulus != v:
            raise ProgramError(
                f"collective {posts[0].kind!r} posts disagree on {attr}: "
                f"{v!r} vs {getattr(q, attr) % modulus!r} (mod {modulus})"
            )
    return v


def _rounds(g: int) -> int:
    return max(1, math.ceil(math.log2(g))) if g > 1 else 0


def _bcast(posts: list[CollectiveOp], ch: _Charger, garr: np.ndarray) -> list[Any]:
    """Binomial-tree broadcast; gathered arrays are in *relative* order."""
    g = len(posts)
    root = _require_agreement(posts, "root_index", g)
    data = posts[root].data
    # posts_rel[rel] belongs to group index (rel + root) % g == ch.order position
    posts_rel = [posts[(rel + root) % g] for rel in range(g)]
    root_words = None
    m = np.empty(g, dtype=np.int64)
    for rel, q in enumerate(posts_rel):
        if q.nwords is not None:
            m[rel] = q.nwords
        else:
            if root_words is None:
                root_words = words_of(data)
            m[rel] = root_words
    for k in range(_rounds(g)):
        step = 1 << k
        senders = np.arange(min(step, g - step))
        receivers = senders + step
        arrival = ch.send(senders, receivers, m[senders])
        ch.recv(receivers, arrival)
    return [data] * g


def _reduce(posts: list[CollectiveOp], ch: _Charger, garr: np.ndarray) -> list[Any]:
    """Binomial-tree reduction; gathered arrays are in *relative* order."""
    g = len(posts)
    root = _require_agreement(posts, "root_index", g)
    posts_rel = [posts[(rel + root) % g] for rel in range(g)]
    m = np.fromiter((_declared_words(q) for q in posts_rel), dtype=np.int64, count=g)
    acc = [q.data for q in posts_rel]
    for k in range(_rounds(g)):
        step = 1 << k
        senders = np.arange(step, g, 2 * step)
        receivers = senders - step
        arrival = ch.send(senders, receivers, m[senders])
        ch.recv(receivers, arrival)
        # op/charge_op are per-rank callables over payload objects: the
        # merge itself stays scalar, in the reference's event order
        for s_rel, r_rel in zip(senders.tolist(), receivers.tolist()):
            q = posts_rel[r_rel]
            other = acc[s_rel]
            if q.charge_op is not None:
                cost = q.charge_op(other)
                if cost < 0:
                    raise ValueError("compute cost must be non-negative")
                ch.compute[r_rel] += cost
                ch.clock[r_rel] += cost
            acc[r_rel] = q.op(acc[r_rel], other)
    out: list[Any] = [None] * g
    out[0] = acc[0]  # relative order: the root is rel 0
    return out


def _allgather_rd(posts: list[CollectiveOp], ch: _Charger, garr: np.ndarray) -> list[Any]:
    """Recursive-doubling all-gather (power-of-two group, index order)."""
    g = len(posts)
    m = np.fromiter((_declared_words(q) for q in posts), dtype=np.int64, count=g)
    w = np.fromiter((words_of(q.data) for q in posts), dtype=np.int64, count=g)
    idx = np.arange(g)
    for k in range(g.bit_length() - 1):
        step = 1 << k
        partner = idx ^ step
        # held block before round k = the 2**k consecutive indices sharing
        # bits >= k; own contribution counts at its declared size
        block_sum = w.reshape(-1, step).sum(axis=1) if step > 1 else w
        pay = block_sum[idx >> k] - w + m
        arrival = ch.send(idx, partner, pay)
        ch.recv(idx, arrival[partner])
    contributions = [q.data for q in posts]
    return [list(contributions) for _ in range(g)]


def _allgather_ring(posts: list[CollectiveOp], ch: _Charger, garr: np.ndarray) -> list[Any]:
    """Ring all-gather: g-1 steps, each rank always sends at its own size."""
    g = len(posts)
    m = np.fromiter((_declared_words(q) for q in posts), dtype=np.int64, count=g)
    idx = np.arange(g)
    right = (idx + 1) % g
    left = (idx - 1) % g
    for _ in range(g - 1):
        arrival = ch.send(idx, right, m)
        ch.recv(idx, arrival[left])
    contributions = [q.data for q in posts]
    return [list(contributions) for _ in range(g)]


def _reduce_scatter(posts: list[CollectiveOp], ch: _Charger, garr: np.ndarray) -> list[Any]:
    """Recursive-halving reduce-scatter (power-of-two group, index order).

    ``post.data`` is already this rank's private flattened working copy
    (the helper copies eagerly, exactly when the reference would).
    """
    g = len(posts)
    flats = [q.data for q in posts]
    charge = np.fromiter((bool(q.charge_adds) for q in posts), dtype=bool, count=g)
    idx = np.arange(g)
    lo = np.zeros(g, dtype=np.int64)
    hi = np.fromiter((f.size for f in flats), dtype=np.int64, count=g)
    block = g
    while block > 1:
        half = block // 2
        mid = lo + (hi - lo) // 2
        in_low = (idx % block) < half
        partner = np.where(in_low, idx + half, idx - half)
        send_sz = np.where(in_low, hi - mid, mid - lo)
        keep_sz = np.where(in_low, mid - lo, hi - mid)
        arrival = ch.send(idx, partner, send_sz)
        ch.recv(idx, arrival[partner])
        if charge.any():
            cost = keep_sz.astype(np.float64)
            ch.compute[charge] += cost[charge]
            ch.clock[charge] += cost[charge]
        # copy-on-send, then elementwise merge of the kept half
        sent = [
            flats[i][mid[i]:hi[i]].copy() if in_low[i] else flats[i][lo[i]:mid[i]].copy()
            for i in range(g)
        ]
        for i in range(g):
            other = sent[partner[i]]
            if in_low[i]:
                flats[i][lo[i]:mid[i]] += other
            else:
                flats[i][mid[i]:hi[i]] += other
        hi = np.where(in_low, mid, hi)
        lo = np.where(in_low, lo, mid)
        block = half
    return [
        (flats[i][lo[i]:hi[i]].copy(), int(lo[i]), int(hi[i]))
        for i in range(g)
    ]


def _shift(posts: list[CollectiveOp], ch: _Charger, garr: np.ndarray) -> list[Any]:
    """Cyclic shift by a common offset (the helper strips offset % g == 0)."""
    g = len(posts)
    offset = _require_agreement(posts, "offset", g)
    m = np.fromiter((_declared_words(q) for q in posts), dtype=np.int64, count=g)
    idx = np.arange(g)
    dst = (idx + offset) % g
    src = (idx - offset) % g
    arrival = ch.send(idx, dst, m)
    ch.recv(idx, arrival[src])
    return [posts[src[i]].data for i in range(g)]


_EXECUTORS: dict[str, Callable[[list[CollectiveOp], _Charger, np.ndarray], list[Any]]] = {
    "bcast": _bcast,
    "reduce": _reduce,
    "allgather_rd": _allgather_rd,
    "allgather_ring": _allgather_ring,
    "reduce_scatter": _reduce_scatter,
    "shift": _shift,
}


def run_collective(
    posts: list[CollectiveOp],
    arr: RankArrays,
    topology: Topology,
    machine: MachineParams,
) -> list[Any]:
    """Execute one fully posted collective; return per-member results.

    *posts* is indexed by group position.  Clocks and accounts in *arr*
    are updated in place for every member; the returned list holds the
    value each member's generator is resumed with.
    """
    kind = posts[0].kind
    executor = _EXECUTORS.get(kind)
    if executor is None:
        raise ProgramError(f"unknown macro collective kind {kind!r}")
    g = len(posts)
    garr = np.asarray(posts[0].group, dtype=np.int64)
    if kind in ("bcast", "reduce"):
        root = posts[0].root_index % g
        order = garr[(np.arange(g) + root) % g]
    else:
        order = garr
    ch = _Charger(arr, topology, machine, order)
    result = executor(posts, ch, garr)
    ch.scatter(arr)
    if kind in ("bcast", "reduce"):
        # executor results are in relative order; restore group order
        out: list[Any] = [None] * g
        for rel in range(g):
            out[(rel + root) % g] = result[rel]
        return out
    return result


# -- batch (cross-group) executors for the trace compiler ----------------------
#
# A compiled schedule (:mod:`repro.simulator.compile`) knows that every
# group of a symmetry axis executes the *same* collective at the same
# program step, so instead of one `run_collective` call per group it
# charges all G groups of the ``(G, g)`` partition matrix at once.  The
# per-rank arithmetic is the same elementwise expressions the per-group
# executors evaluate (via the shared :mod:`repro.simulator.charging`
# helpers), just over matrices instead of vectors — which is what keeps
# the compiled path bit-identical to the macro path, and transitively to
# the message-level reference.
#
# Only payload-structure-independent kinds are supported: ``bcast`` and
# ``reduce`` move and merge real payload objects, which a replay without
# live generators cannot produce, so the compiler falls back to ``heap``
# for programs that post them.  ``shift`` needs no executor here: it is
# one fixed permutation of the machine, which the compiler routes once
# and charges directly on the full rank arrays.

BATCH_KINDS = ("allgather_rd", "allgather_ring", "reduce_scatter")


class _BatchCharger:
    """Vectorized cost model over the gathered ``(G, g)`` group matrix."""

    __slots__ = ("machine", "hop_cache", "mat",
                 "clock", "compute", "send_t", "recv_w", "msgs", "words")

    def __init__(
        self, arr: RankArrays, topology: Topology, machine: MachineParams, mat: np.ndarray
    ) -> None:
        self.machine = machine
        self.hop_cache = PairHopCache.shared(topology)
        self.mat = mat  # (G, g): group row -> absolute ranks in group order
        self.clock = arr.clock[mat]
        self.compute = arr.compute_time[mat]
        self.send_t = arr.send_time[mat]
        self.recv_w = arr.recv_wait_time[mat]
        self.msgs = arr.messages_sent[mat]
        self.words = arr.words_sent[mat]

    def send(self, dst_pos: np.ndarray, m: Any) -> np.ndarray:
        """Every rank sends *m* words to the rank at ``dst_pos[col]`` of its own
        group; returns the (G, g) arrival matrix indexed by sender position."""
        dst = self.mat[:, dst_pos]
        hops = self.hop_cache.bulk(
            self.mat.ravel(), dst.ravel()
        ).reshape(self.mat.shape)
        busy, arrival = message_times(self.machine, self.clock, m, hops)
        self.clock += busy
        self.send_t += busy
        self.msgs += 1
        self.words += m
        return arrival

    def recv(self, arrival: np.ndarray) -> None:
        """Complete receives for messages arriving at *arrival* (receiver order)."""
        waited, advanced = recv_wait_times(self.clock, arrival)
        self.recv_w += waited
        self.clock = advanced

    def charge_compute(self, cost: np.ndarray) -> None:
        self.compute = self.compute + cost
        self.clock = self.clock + cost

    def scatter(self, arr: RankArrays) -> None:
        arr.clock[self.mat] = self.clock
        arr.compute_time[self.mat] = self.compute
        arr.send_time[self.mat] = self.send_t
        arr.recv_wait_time[self.mat] = self.recv_w
        arr.messages_sent[self.mat] = self.msgs
        arr.words_sent[self.mat] = self.words


def _batch_allgather_rd(bc: _BatchCharger, g: int, m: int, w: int) -> None:
    idx = np.arange(g)
    for k in range(g.bit_length() - 1):
        step = 1 << k
        partner = idx ^ step
        # uniform sizes: every held block sums to w*step words
        pay = w * step - w + m
        arrival = bc.send(partner, pay)
        bc.recv(arrival[:, partner])


def _batch_allgather_ring(bc: _BatchCharger, g: int, m: int) -> None:
    idx = np.arange(g)
    right = (idx + 1) % g
    left = (idx - 1) % g
    for _ in range(g - 1):
        arrival = bc.send(right, m)
        bc.recv(arrival[:, left])


def _batch_reduce_scatter(bc: _BatchCharger, g: int, size: int, charge_adds: bool) -> None:
    idx = np.arange(g)
    lo = np.zeros(g, dtype=np.int64)
    hi = np.full(g, size, dtype=np.int64)
    block = g
    while block > 1:
        half = block // 2
        mid = lo + (hi - lo) // 2
        in_low = (idx % block) < half
        partner = np.where(in_low, idx + half, idx - half)
        send_sz = np.where(in_low, hi - mid, mid - lo)
        keep_sz = np.where(in_low, mid - lo, hi - mid)
        arrival = bc.send(partner, send_sz)
        bc.recv(arrival[:, partner])
        if charge_adds:
            bc.charge_compute(keep_sz.astype(np.float64))
        hi = np.where(in_low, mid, hi)
        lo = np.where(in_low, lo, mid)
        block = half


def run_batch_collective(
    phase: SymCollective,
    arr: RankArrays,
    topology: Topology,
    machine: MachineParams,
) -> None:
    """Charge one compiled collective phase across every group of its axis."""
    kind = phase.kind
    if kind not in BATCH_KINDS:
        raise ProgramError(f"collective kind {kind!r} has no batch executor")
    mat = phase.groups
    g = int(mat.shape[1])
    bc = _BatchCharger(arr, topology, machine, mat)
    if kind == "allgather_rd":
        _batch_allgather_rd(bc, g, phase.nwords, phase.payload_words)
    elif kind == "allgather_ring":
        _batch_allgather_ring(bc, g, phase.nwords)
    else:
        _batch_reduce_scatter(bc, g, phase.flat_size, phase.charge_adds)
    bc.scatter(arr)
