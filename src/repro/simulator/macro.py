"""Closed-form, vectorized executors for macro-simulated collectives.

When a collective's cost can be computed without actually routing its
``2·g·log g`` point-to-point messages through the engine — tracing off,
link contention off, event-driven scheduler — every member of a group
posts one :class:`~repro.simulator.request.CollectiveOp`.  The engine
parks each completed group and, once it runs out of runnable ranks,
hands every parked group of one ``(kind, g)`` to :func:`run_collective`
in a single call.  Each executor replays the reference collective's
per-rank event sequence round by round, but over the ``(G, g)`` matrix
of all those groups at once: the members' clocks and accounts are
gathered from the run's :class:`~repro.simulator.trace.RankArrays` and
each communication round becomes a handful of array operations instead
of ``O(G·g)`` generator resumptions.  Rooted collectives (``bcast``,
``reduce``) rotate each row so that its own root sits in column 0, which
lets groups with different roots share one call.

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

Deferral is exact because a parked rank's clock and accounts are only
ever written by its own collective: sends from other ranks land in
mailboxes, not on the receiver's clock.  Executors are generic over
arbitrary group shapes — any ordered subset of ranks, any topology —
exactly like the reference helpers.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable

import numpy as np

from repro.core.machine import MachineParams
from repro.simulator.charging import message_times, recv_wait_times
from repro.simulator.errors import ProgramError
from repro.simulator.request import CollectiveOp, SymCollective, words_of
from repro.simulator.topology import PairHopCache, Topology
from repro.simulator.trace import RankArrays

__all__ = ["run_collective", "run_batch_collective", "binomial_rounds", "BATCH_KINDS"]


def binomial_rounds(g: int) -> int:
    """Rounds of a binomial tree over *g* ranks: the least ``k`` with ``2**k >= g``."""
    return max(g - 1, 0).bit_length()


def _per_row(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``out[q, c] = a[q, cols[q, c]]``: each row picks its own columns."""
    return a[np.arange(len(a))[:, None], cols]


class _BatchCharger:
    """Vectorized cost model over a gathered ``(G, g)`` group matrix.

    Row ``q`` of *mat* lists one group's absolute ranks in executor
    order (group order, or rotated so the root is column 0).  ``send``
    and ``recv`` charge one communication round for a set of columns,
    the same columns in every row.
    """

    __slots__ = ("machine", "hop_cache", "mat",
                 "clock", "compute", "send_t", "recv_w", "msgs", "words")

    def __init__(
        self, arr: RankArrays, topology: Topology, machine: MachineParams, mat: np.ndarray
    ) -> None:
        self.machine = machine
        self.hop_cache = PairHopCache.shared(topology)
        self.mat = mat
        # fancy indexing gathers copies; scatter() writes them back
        self.clock = arr.clock[mat]
        self.compute = arr.compute_time[mat]
        self.send_t = arr.send_time[mat]
        self.recv_w = arr.recv_wait_time[mat]
        self.msgs = arr.messages_sent[mat]
        self.words = arr.words_sent[mat]

    def send(self, dst_pos: np.ndarray, m: Any, src_pos: np.ndarray | None = None) -> np.ndarray:
        """The rank at column ``src_pos[c]`` of every row sends *m* words to
        column ``dst_pos[c]`` of its own row; returns the arrival matrix,
        indexed like the senders.

        ``src_pos=None`` means every column sends.  *dst_pos* is one column
        vector for all rows or a ``(G, ·)`` matrix of per-row columns; *m*
        is a scalar or a matrix shaped like the senders.  Mirrors the
        engine's Send branch: arrival is computed at the pre-send clock,
        then the sender advances by its injection time.
        """
        mat = self.mat
        if src_pos is None:
            src, clock = mat, self.clock
        else:
            src, clock = mat[:, src_pos], self.clock[:, src_pos]
        dst = mat[:, dst_pos] if dst_pos.ndim == 1 else _per_row(mat, dst_pos)
        hops = self.hop_cache.bulk(src.ravel(), dst.ravel()).reshape(src.shape)
        busy, arrival = message_times(self.machine, clock, m, hops)
        if src_pos is None:
            self.clock += busy
            self.send_t += busy
            self.msgs += 1
            self.words += m
        else:
            self.clock[:, src_pos] = clock + busy
            self.send_t[:, src_pos] += busy
            self.msgs[:, src_pos] += 1
            self.words[:, src_pos] += m
        return arrival

    def recv(self, arrival: np.ndarray, pos: np.ndarray | None = None) -> None:
        """Complete receives in columns *pos* (all when ``None``) for messages
        arriving at *arrival* (receiver order)."""
        if pos is None:
            waited, self.clock = recv_wait_times(self.clock, arrival)
            self.recv_w += waited
        else:
            waited, self.clock[:, pos] = recv_wait_times(self.clock[:, pos], arrival)
            self.recv_w[:, pos] += waited

    def charge_compute(self, cost: np.ndarray, pos: np.ndarray | None = None) -> None:
        """Charge local work *cost* to columns *pos* (all when ``None``)."""
        if pos is None:
            self.compute = self.compute + cost
            self.clock = self.clock + cost
        else:
            self.compute[:, pos] += cost
            self.clock[:, pos] += cost

    def scatter(self, arr: RankArrays) -> None:
        arr.clock[self.mat] = self.clock
        arr.compute_time[self.mat] = self.compute
        arr.send_time[self.mat] = self.send_t
        arr.recv_wait_time[self.mat] = self.recv_w
        arr.messages_sent[self.mat] = self.msgs
        arr.words_sent[self.mat] = self.words


# -- charging rounds, shared by the dynamic and the compiled executors -------------


def _allgather_rd_rounds(bc: _BatchCharger, g: int, m: np.ndarray, w: np.ndarray) -> None:
    """Recursive doubling; *m* declared and *w* actual words, both ``(G, g)``."""
    idx = np.arange(g)
    for k in range(g.bit_length() - 1):
        step = 1 << k
        partner = idx ^ step
        # held block before round k = the 2**k consecutive indices sharing
        # bits >= k; own contribution counts at its declared size
        block_sum = w.reshape(len(w), -1, step).sum(axis=2) if step > 1 else w
        pay = block_sum[:, idx >> k] - w + m
        arrival = bc.send(partner, pay)
        bc.recv(arrival[:, partner])


def _allgather_ring_rounds(bc: _BatchCharger, g: int, m: Any) -> None:
    """Ring: g-1 steps, each rank always sends at its own size *m*."""
    idx = np.arange(g)
    right = (idx + 1) % g
    left = (idx - 1) % g
    for _ in range(g - 1):
        arrival = bc.send(right, m)
        bc.recv(arrival[:, left])


def _reduce_scatter_rounds(
    bc: _BatchCharger, g: int, size: np.ndarray, charge: Any
) -> tuple[list[tuple[np.ndarray, ...]], np.ndarray, np.ndarray]:
    """Recursive halving over flat sizes *size* ``(G, g)``; ranks where
    *charge* holds pay one add per kept word.

    Returns every round's ``(in_low, partner, lo, mid, hi)``, so a caller
    holding payloads can replay the merges, and each rank's final word
    interval ``[lo, hi)``.
    """
    idx = np.arange(g)
    lo = np.zeros_like(size)
    hi = size
    rounds: list[tuple[np.ndarray, ...]] = []
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
        if np.any(charge):
            # +0.0 on the uncharged ranks is a bitwise no-op
            bc.charge_compute(np.where(charge, keep_sz, 0).astype(np.float64))
        rounds.append((in_low, partner, lo, mid, hi))
        hi = np.where(in_low, mid, hi)
        lo = np.where(in_low, lo, mid)
        block = half
    return rounds, lo, hi


# -- dynamic executors: one (kind, g) batch of completed post lists ----------------
#
# ``rows[q]`` is group q's post list in executor order (rotated to its
# root for bcast/reduce); each executor returns per-row results in that
# same order.


def _declared_matrix(rows: list[list[CollectiveOp]], g: int) -> np.ndarray:
    """``(G, g)`` declared message words: ``nwords``, else the payload's size."""
    return np.fromiter(
        (q.nwords if q.nwords is not None else words_of(q.data) for posts in rows for q in posts),
        dtype=np.int64, count=len(rows) * g,
    ).reshape(len(rows), g)


def _require_agreement(posts: list[CollectiveOp], attr: str, modulus: int) -> int:
    """The common value of *attr* modulo *modulus* (the reference helpers
    only ever use these parameters reduced by the group size)."""
    values = list(map(attrgetter(attr), posts))
    v = values[0] % modulus
    if values.count(values[0]) != len(values):
        for other in values:
            if other % modulus != v:
                raise ProgramError(
                    f"collective {posts[0].kind!r} posts disagree on {attr}: "
                    f"{v!r} vs {other % modulus!r} (mod {modulus})"
                )
    return v


def _bcast(rows: list[list[CollectiveOp]], bc: _BatchCharger, g: int) -> list[list[Any]]:
    """Binomial-tree broadcast; column 0 of every row is its root."""
    declared = []
    for posts in rows:
        row = [q.nwords for q in posts]
        if None in row:
            root_words = words_of(posts[0].data)
            row = [root_words if w is None else w for w in row]
        declared.append(row)
    m = np.array(declared, dtype=np.int64)
    for k in range(binomial_rounds(g)):
        step = 1 << k
        senders = np.arange(min(step, g - step))
        receivers = senders + step
        arrival = bc.send(receivers, m[:, senders], senders)
        bc.recv(arrival, receivers)
    return [[posts[0].data] * g for posts in rows]


def _reduce(rows: list[list[CollectiveOp]], bc: _BatchCharger, g: int) -> list[list[Any]]:
    """Binomial-tree reduction; column 0 of every row is its root."""
    m = _declared_matrix(rows, g)
    accs = [[q.data for q in posts] for posts in rows]
    charged = any(q.charge_op is not None for posts in rows for q in posts)
    for k in range(binomial_rounds(g)):
        step = 1 << k
        senders = np.arange(step, g, 2 * step)
        receivers = senders - step
        arrival = bc.send(receivers, m[:, senders], senders)
        bc.recv(arrival, receivers)
        # op/charge_op are per-rank callables over payload objects: the
        # merges stay scalar, in the reference's per-rank event order
        pairs = list(zip(senders.tolist(), receivers.tolist()))
        cost: list[float] = []
        for posts, acc in zip(rows, accs):
            for s_rel, r_rel in pairs:
                q = posts[r_rel]
                other = acc[s_rel]
                if charged:
                    work = 0.0 if q.charge_op is None else q.charge_op(other)
                    if work < 0:
                        raise ValueError("compute cost must be non-negative")
                    cost.append(work)
                acc[r_rel] = q.op(acc[r_rel], other)  # type: ignore[misc]
        if charged:
            # +0.0 where a rank has no charge_op is a bitwise no-op
            bc.charge_compute(np.array(cost, dtype=np.float64).reshape(len(rows), -1), receivers)
    return [[acc[0]] + [None] * (g - 1) for acc in accs]


def _gathered(posts: list[CollectiveOp]) -> list[Any]:
    """A fresh list per member of the contributed objects themselves."""
    contributions = [q.data for q in posts]
    return [list(contributions) for _ in posts]


def _allgather_rd(rows: list[list[CollectiveOp]], bc: _BatchCharger, g: int) -> list[list[Any]]:
    """Recursive-doubling all-gather (power-of-two group, index order)."""
    w = np.fromiter(
        (words_of(q.data) for posts in rows for q in posts),
        dtype=np.int64, count=len(rows) * g,
    ).reshape(len(rows), g)
    _allgather_rd_rounds(bc, g, _declared_matrix(rows, g), w)
    return [_gathered(posts) for posts in rows]


def _allgather_ring(rows: list[list[CollectiveOp]], bc: _BatchCharger, g: int) -> list[list[Any]]:
    """Ring all-gather: g-1 steps, each rank always sends at its own size."""
    _allgather_ring_rounds(bc, g, _declared_matrix(rows, g))
    return [_gathered(posts) for posts in rows]


def _reduce_scatter(rows: list[list[CollectiveOp]], bc: _BatchCharger, g: int) -> list[list[Any]]:
    """Recursive-halving reduce-scatter (power-of-two group, index order).

    ``post.data`` is already this rank's private flattened working copy
    (the helper copies eagerly, exactly when the reference would).
    """
    n = len(rows) * g
    flats = [[q.data for q in posts] for posts in rows]
    size = np.fromiter((f.size for row in flats for f in row), dtype=np.int64, count=n)
    charge = np.fromiter((bool(q.charge_adds) for posts in rows for q in posts), dtype=bool, count=n)
    rounds, lo, hi = _reduce_scatter_rounds(
        bc, g, size.reshape(len(rows), g), charge.reshape(len(rows), g)
    )
    for in_low_a, partner_a, lo_a, mid_a, hi_a in rounds:
        in_low, partner = in_low_a.tolist(), partner_a.tolist()
        for f, lo_r, mid_r, hi_r in zip(flats, lo_a.tolist(), mid_a.tolist(), hi_a.tolist()):
            # copy-on-send, then elementwise merge of the kept half
            sent = [
                f[i][mid_r[i]:hi_r[i]].copy() if in_low[i] else f[i][lo_r[i]:mid_r[i]].copy()
                for i in range(g)
            ]
            for i in range(g):
                if in_low[i]:
                    f[i][lo_r[i]:mid_r[i]] += sent[partner[i]]
                else:
                    f[i][mid_r[i]:hi_r[i]] += sent[partner[i]]
    return [
        [(f[i][lo_r[i]:hi_r[i]].copy(), lo_r[i], hi_r[i]) for i in range(g)]
        for f, lo_r, hi_r in zip(flats, lo.tolist(), hi.tolist())
    ]


def _shift(rows: list[list[CollectiveOp]], bc: _BatchCharger, g: int) -> list[list[Any]]:
    """Cyclic shift by each group's common offset (the helper strips offset % g == 0)."""
    offsets = np.array([_require_agreement(posts, "offset", g) for posts in rows], dtype=np.int64)
    idx = np.arange(g)
    dst = (idx + offsets[:, None]) % g
    src = (idx - offsets[:, None]) % g
    arrival = bc.send(dst, _declared_matrix(rows, g))
    bc.recv(_per_row(arrival, src))
    return [[posts[s].data for s in row_src] for posts, row_src in zip(rows, src.tolist())]


_EXECUTORS: dict[str, Callable[[list[list[CollectiveOp]], _BatchCharger, int], list[list[Any]]]] = {
    "bcast": _bcast,
    "reduce": _reduce,
    "allgather_rd": _allgather_rd,
    "allgather_ring": _allgather_ring,
    "reduce_scatter": _reduce_scatter,
    "shift": _shift,
}


def run_collective(
    groups: list[list[CollectiveOp]],
    arr: RankArrays,
    topology: Topology,
    machine: MachineParams,
) -> list[list[Any]]:
    """Execute fully posted collectives that share one kind and group size.

    Each entry of *groups* is one group's post list, indexed by group
    position; the groups must be disjoint.  Clocks and accounts in *arr*
    are updated in place for every member, and the returned lists hold,
    per group and in group order, the value each member's generator is
    resumed with.
    """
    kind = groups[0][0].kind
    executor = _EXECUTORS.get(kind)
    if executor is None:
        raise ProgramError(f"unknown macro collective kind {kind!r}")
    g = len(groups[0])
    mat = np.array([posts[0].group for posts in groups], dtype=np.int64)
    rooted = kind in ("bcast", "reduce")
    if rooted:
        roots = [_require_agreement(posts, "root_index", g) for posts in groups]
        groups = [posts[root:] + posts[:root] for posts, root in zip(groups, roots)]
        cols = (np.arange(g) + np.array(roots, dtype=np.int64)[:, None]) % g
        mat = _per_row(mat, cols)
    bc = _BatchCharger(arr, topology, machine, mat)
    results = executor(groups, bc, g)
    bc.scatter(arr)
    if rooted:
        # executor rows are in relative order; restore group order
        results = [res[g - root:] + res[:g - root] for res, root in zip(results, roots)]
    return results


# -- compiled phases --------------------------------------------------------------
#
# A compiled schedule (:mod:`repro.simulator.compile`) knows that every
# group of a symmetry axis executes the *same* collective at the same
# program step, so it charges all G groups of the axis's ``(G, g)``
# partition matrix through the same charger and rounds as the dynamic
# executors above, with uniform word counts.
#
# Only payload-structure-independent kinds are supported: ``bcast`` and
# ``reduce`` move and merge real payload objects, and a probe cannot
# synthesize a root's payload, so the compiler falls back to ``heap``
# for programs that post them.  ``shift`` needs no executor here: it is
# one fixed permutation of the machine, which the compiler routes once
# and charges directly on the full rank arrays.

BATCH_KINDS = ("allgather_rd", "allgather_ring", "reduce_scatter")


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
        _allgather_rd_rounds(
            bc, g, np.full(mat.shape, phase.nwords), np.full(mat.shape, phase.payload_words)
        )
    elif kind == "allgather_ring":
        _allgather_ring_rounds(bc, g, phase.nwords)
    else:
        _reduce_scatter_rounds(bc, g, np.full(mat.shape, phase.flat_size), phase.charge_adds)
    bc.scatter(arr)
