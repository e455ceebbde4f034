"""Record→replay trace compilation for rank-symmetric SPMD programs.

The algorithms under study are SPMD and rank-symmetric by construction:
every rank runs the same program text, and peers differ only by a fixed
rank relabeling (a cyclic or dimension-exchange law over a process-grid
axis).  The request stream of one representative rank therefore
determines the stream of all ``p`` ranks — which is what lets
``scheduler="compiled"`` simulate 64k–256k ranks with *zero* generator
resumes:

1. **Record.**  A handful of *probe* ranks (first/second/last member of
   each symmetry axis, plus the global corners) run as ordinary
   generators, but against a *reflection* mailbox: each ``Recv`` is
   resumed with the probe's own earlier tag-matched ``Send`` payload
   (rank symmetry says the true payload has the same structure).  The
   concrete request stream — op kinds, byte counts, tags, peers — is
   recorded symbolically.
2. **Detect symmetry.**  The probe traces are compared structurally
   (same op kinds, sizes, tags at every step) and each peer field must
   be explained by one law — ``peer = group[(pos + d) % g]`` (cyclic) or
   ``peer = group[pos ^ d]`` (dimension exchange) — on one axis of the
   driver-provided :class:`SymmetrySpec`.  Any mismatch raises
   :class:`CompileFallback` and the engine transparently re-runs the
   program on the ``heap`` scheduler.
3. **Lower + replay.**  The trace becomes a :class:`BatchSchedule`: a
   list of symbolic phases (:mod:`repro.simulator.request`) whose peer
   and hop fields are precomputed ``(p,)`` vectors, built once per
   ``(axis, law, offset)`` and shared read-only between phases.  Sends
   and receives are FIFO-matched per (tag, law) channel at compile
   time, and replay charges each phase as one vectorized update into
   :class:`~repro.simulator.trace.RankArrays` through the shared
   :mod:`repro.simulator.charging` helpers.  A macro ``shift`` is one
   fixed permutation, so it is charged the same way on its precomputed
   absolute-rank ``dst``/``src``/``hops``; the other macro collectives
   go to the cross-group batch executors in :mod:`repro.simulator.macro`
   (``run_batch_collective``).  The replay evaluates exactly the
   reference cost expressions elementwise, so a compiled run is
   bit-identical to ``heap``/``rescan`` whenever it compiles at all.

What falls back (by design, not by accident):

* no :class:`SymmetrySpec` from the driver (a driver that cannot carry
  the product it was asked for, e.g. over ragged blocks, passes none),
  or tracing / link contention / an active fault plan (those regimes
  need live per-rank event interleaving);
* any probe whose ``Recv`` precedes a reflectable ``Send`` (rooted
  broadcasts, relay chains — genuinely position-dependent programs);
* ``bcast``/``reduce`` macro collectives (their results are real merged
  payload objects a generator-free replay cannot produce);
* programs whose payload *structure* feeds back into message sizes in a
  way reflection cannot mirror (e.g. message-level recursive-doubling
  allgather, whose dict payloads double each round — the reflected
  dict keys collide and recording fails safely);
* probe traces that disagree structurally, or peers no single law
  explains.

Payloads ride along when the caller needs them.  A driver that wants
every rank's return value (the product matrix) supplies
``SymmetrySpec(stacked=...)``: the same rank program body bound *once* to rank-stacked operands — ``(p, ...)`` arrays
whose leading axis is the rank.  The replay drives that one generator in
lockstep with the lowered phases: each ``Send`` payload is stashed on
its :class:`SymSend`, each ``Recv`` is resumed with the stash permuted
along the phase's compiled source vector (``payload[src]``), and macro
``shift`` collectives permute by their precomputed ``src``.  Local
arithmetic therefore runs once per program step over the whole stack
(Cannon's ``c + a @ b`` becomes one batched matmul), and the stacked
return value is split back into ``returns[r]``.  The stacked body must
not depend on the rank's own position except through its peers (it runs
as rank 0); a request stream that stops matching the phases, a payload
without the rank axis, or a macro collective other than ``shift``
raises :class:`CompileFallback` and the run goes to ``heap``.  Without
``stacked`` the replay moves no payloads and ``returns`` is
``[None]*p`` — the timing-only mode for callers that declare they need
no product.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.core.machine import MachineParams
from repro.simulator.charging import message_times, recv_wait_times
from repro.simulator.macro import BATCH_KINDS, run_batch_collective
from repro.simulator.request import (
    Barrier,
    Checkpoint,
    CollectiveOp,
    Compute,
    Recv,
    Send,
    SendAll,
    SymBarrier,
    SymCollective,
    SymCompute,
    SymPhase,
    SymRecv,
    SymSend,
    SymSendAll,
    words_of,
)
from repro.simulator.topology import PairHopCache, Topology
from repro.simulator.trace import RankArrays

__all__ = [
    "CompileFallback",
    "SymmetrySpec",
    "BatchSchedule",
    "compile_spmd",
]

_MAX_TRACE_OPS = 200_000


class CompileFallback(Exception):
    """The program cannot be trace-compiled; run it on ``heap`` instead."""


@dataclass(frozen=True)
class SymmetrySpec:
    """Driver-provided rank-symmetry annotation for the trace compiler.

    *partitions* maps an axis name (e.g. ``"row"``, ``"col"``,
    ``"reduce"``) to a ``(G, g)`` integer matrix whose rows are the
    ordered communication groups of that axis; the rows of each axis
    must partition ``0..p-1``.  Peer laws are inferred per message over
    these axes.  The spec is an *assertion candidate*, not a promise:
    probe recording verifies it structurally and the engine falls back
    to ``heap`` when the program turns out not to be rank-symmetric.

    *extra_probes* optionally adds ranks to the probe set (the default
    probes are the first/second/last members of each axis's first group,
    the last member of its last group, and the global corner ranks).

    *stacked* carries every rank's return value through a compiled run:
    a program factory (called with rank 0's :class:`RankInfo`) running
    the same body over rank-stacked operands — every rank-dependent
    value is an array whose leading axis is the rank, every other value
    is the same on all ranks.  Without it a compiled run is timing-only
    and ``SimResult.returns`` is ``[None] * p``.
    """

    partitions: Mapping[str, Any]
    extra_probes: tuple[int, ...] = ()
    stacked: Callable[[Any], Any] | None = None


@dataclass(frozen=True)
class _Axis:
    name: str
    mat: np.ndarray  # (G, g) group rows
    pos: np.ndarray  # rank -> position within its group
    row: np.ndarray  # rank -> group row index
    g: int


def _build_axes(spec: SymmetrySpec, p: int) -> dict[str, _Axis]:
    axes: dict[str, _Axis] = {}
    for name, raw in spec.partitions.items():
        mat = np.asarray(raw, dtype=np.int64)
        if mat.ndim != 2 or mat.size != p or not np.array_equal(
            np.sort(mat.ravel()), np.arange(p)
        ):
            raise ValueError(
                f"symmetry axis {name!r} must be a (G, g) matrix whose rows "
                f"partition ranks 0..{p - 1}"
            )
        g = int(mat.shape[1])
        pos = np.empty(p, dtype=np.int64)
        row = np.empty(p, dtype=np.int64)
        flat = mat.ravel()
        pos[flat] = np.tile(np.arange(g, dtype=np.int64), mat.shape[0])
        row[flat] = np.repeat(np.arange(mat.shape[0], dtype=np.int64), g)
        axes[name] = _Axis(name, mat, pos, row, g)
    if not axes:
        raise ValueError("SymmetrySpec needs at least one partition axis")
    return axes


def _probe_ranks(axes: dict[str, _Axis], spec: SymmetrySpec, p: int) -> list[int]:
    """Probe set covering distinct positions along every axis.

    Position diversity is what makes structural comparison catch
    position-dependent programs (roots that only send, ring ends that
    only receive), so each axis contributes its first group's first,
    second, and last members plus the last group's last member.
    """
    probes = {0, p - 1}
    for ax in axes.values():
        probes.add(int(ax.mat[0, 0]))
        probes.add(int(ax.mat[-1, -1]))
        if ax.g > 1:
            probes.add(int(ax.mat[0, 1]))
            probes.add(int(ax.mat[0, -1]))
    for r in spec.extra_probes:
        if not 0 <= int(r) < p:
            raise ValueError(f"extra probe rank {r} out of range for p={p}")
        probes.add(int(r))
    return sorted(probes)


# -- recording -----------------------------------------------------------------


class _Foreign:
    """Fresh dict key standing in for a remote rank's key during reflection."""

    __slots__ = ()


def _reflect(value: Any) -> Any:
    """The probe's own payload, restructured as a *remote* rank's would be.

    Arrays and tuples come back as-is (rank symmetry: same shape either
    way).  Dict keys are replaced with fresh sentinels: a real peer's
    dict would carry *its* keys, so handing back the probe's own keys
    would let key-merging programs (recursive-doubling allgather)
    silently collapse — with foreign keys the collapse becomes a loud
    recording failure and a safe fallback instead.
    """
    if isinstance(value, dict):
        return {_Foreign(): _reflect(v) for v in value.values()}
    return value


def _synthesize_collective(req: CollectiveOp, rank: int) -> Any:
    """The structural stand-in a probe is resumed with for a macro collective."""
    if req.kind == "shift":
        # reference returns the (src)-neighbor's payload: same structure
        return req.data
    g = len(req.group)
    if req.kind in ("allgather_rd", "allgather_ring"):
        return [req.data] * g
    # reduce_scatter: walk the recursive-halving index arithmetic for
    # this rank's position; values are the probe's own (unsummed) words
    # but the slice geometry — all that can feed back into timing — is exact
    idx = list(req.group).index(rank)
    flat = req.data
    lo, hi = 0, int(flat.size)
    block = g
    while block > 1:
        half = block // 2
        mid = lo + (hi - lo) // 2
        if idx % block < half:
            hi = mid
        else:
            lo = mid
        block = half
    return (flat[lo:hi].copy(), lo, hi)


def _record_collective(req: CollectiveOp, rank: int, ops: list[tuple]) -> Any:
    kind = req.kind
    if kind != "shift" and kind not in BATCH_KINDS:
        raise CompileFallback(
            f"macro collective {kind!r} moves real payloads; not compilable"
        )
    # hashed once, when _lower looks it up among the symmetry-axis rows
    group = tuple(req.group)
    g = len(group)
    if kind in ("allgather_rd", "reduce_scatter") and (g & (g - 1)):
        raise CompileFallback(f"{kind!r} needs a power-of-two group, got g={g}")
    m = int(req.nwords) if req.nwords is not None else words_of(req.data)
    w = words_of(req.data)
    flat_size = int(req.data.size) if kind == "reduce_scatter" else 0
    ops.append(
        (
            "coll",
            kind,
            group,
            m,
            w,
            int(req.tag),
            int(req.offset) % g,
            bool(req.charge_adds),
            flat_size,
        )
    )
    return _synthesize_collective(req, rank)


def _record_probe(
    factory: Callable[..., Any], info: Any, rank: int, max_ops: int
) -> list[tuple]:
    """Drive one probe generator against the reflection mailbox."""
    gen = factory(info)
    ops: list[tuple] = []
    pending: dict[int, deque[Any]] = {}
    try:
        resume: Any = None
        req = gen.send(None)
        while True:
            if len(ops) >= max_ops:
                raise CompileFallback(
                    f"probe trace exceeds {max_ops} ops; program too long to compile"
                )
            resume = None
            cls = req.__class__
            if cls is Compute:
                ops.append(("compute", float(req.cost)))
            elif cls is Send:
                ops.append(("send", int(req.dst), int(req.nwords), int(req.tag)))
                pending.setdefault(int(req.tag), deque()).append(req.data)
            elif cls is SendAll:
                parts = tuple(
                    (int(m.dst), int(m.nwords), int(m.tag)) for m in req.messages
                )
                ops.append(("sendall", parts))
                for m in req.messages:
                    pending.setdefault(int(m.tag), deque()).append(m.data)
            elif cls is Recv:
                queue = pending.get(int(req.tag))
                if not queue:
                    raise CompileFallback(
                        f"probe rank {rank}: Recv(tag={req.tag}) precedes any "
                        f"reflectable Send — program is position-dependent"
                    )
                ops.append(("recv", int(req.src), int(req.tag)))
                resume = _reflect(queue.popleft())
            elif cls is Barrier:
                ops.append(("barrier",))
            elif cls is Checkpoint:
                ops.append(("checkpoint",))
            elif cls is CollectiveOp:
                resume = _record_collective(req, rank, ops)
            else:
                raise CompileFallback(
                    f"probe rank {rank}: unsupported request {cls.__name__}"
                )
            req = gen.send(resume)
    except StopIteration:
        return ops
    except CompileFallback:
        raise
    except Exception as exc:
        # reflection handed the program a structurally wrong value (or the
        # program is simply broken) — fall back and let the real scheduler
        # surface the real behavior
        raise CompileFallback(
            f"probe rank {rank} raised {type(exc).__name__} during recording: {exc}"
        ) from exc
    finally:
        gen.close()


# -- law inference and lowering ------------------------------------------------


def _infer_law(
    axes: dict[str, _Axis], peers: list[tuple[int, int]], what: str
) -> tuple[str, str, int]:
    """The (axis, law-kind, offset) explaining every probe's peer, or fallback."""
    for name in sorted(axes):
        ax = axes[name]
        for law in ("cyc", "xor"):
            d0: int | None = None
            ok = True
            for r, q in peers:
                if ax.row[q] != ax.row[r]:
                    ok = False
                    break
                if law == "cyc":
                    d = int(ax.pos[q] - ax.pos[r]) % ax.g
                else:
                    d = int(ax.pos[q] ^ ax.pos[r])
                    if d >= ax.g:
                        ok = False
                        break
                if d0 is None:
                    d0 = d
                elif d != d0:
                    ok = False
                    break
            if ok and d0 is not None:
                return (name, law, d0)
    raise CompileFallback(f"no cyclic/exchange law explains {what} peers {peers!r}")


class _Routes:
    """Absolute-rank routing vectors of one lowering, shared between phases.

    Every phase with the same ``(axis, law, d)`` gets the *same*
    read-only ``(p,)`` peer vector, and every send over it the same hop
    vector, so a schedule holds one array per distinct permutation
    rather than one per phase.
    """

    __slots__ = ("axes", "hop_cache", "everyone", "_peers", "_hops")

    def __init__(self, axes: dict[str, _Axis], topology: Topology, p: int) -> None:
        self.axes = axes
        self.hop_cache = PairHopCache.shared(topology)
        self.everyone = np.arange(p, dtype=np.int64)
        self._peers: dict[tuple[str, str, int], np.ndarray] = {}
        self._hops: dict[tuple[str, str, int], np.ndarray] = {}

    def peers(self, axis: str, law: str, d: int) -> np.ndarray:
        """``peer[r]``: rank *r*'s partner under *law* with offset *d* on *axis*."""
        key = (axis, law, d)
        vec = self._peers.get(key)
        if vec is None:
            ax = self.axes[axis]
            newpos = (ax.pos + d) % ax.g if law == "cyc" else ax.pos ^ d
            vec = self._peers[key] = ax.mat[ax.row, newpos]
            vec.flags.writeable = False
        return vec

    def hops(self, axis: str, law: str, d: int) -> np.ndarray:
        """Routed hops from every rank to its ``peers(axis, law, d)`` partner."""
        key = (axis, law, d)
        vec = self._hops.get(key)
        if vec is None:
            vec = self._hops[key] = self.hop_cache.bulk(
                self.everyone, self.peers(axis, law, d)
            )
            vec.flags.writeable = False
        return vec


# -- payload carrying -----------------------------------------------------------

_REQUEST_OF: dict[type, type] = {
    SymCompute: Compute,
    SymSend: Send,
    SymSendAll: SendAll,
    SymRecv: Recv,
    SymBarrier: Barrier,
    SymCollective: CollectiveOp,
}


def _check_stacked(value: Any, p: int, what: str) -> None:
    """Fallback unless every array in *value* carries the rank axis first."""
    if isinstance(value, np.ndarray):
        if value.ndim == 0 or value.shape[0] != p:
            raise CompileFallback(
                f"{what}: array of shape {value.shape} is not rank-stacked "
                f"(leading axis must be p={p})"
            )
    elif isinstance(value, (tuple, list)):
        for v in value:
            _check_stacked(v, p, what)
    elif isinstance(value, dict):
        raise CompileFallback(f"{what}: dict payloads cannot be rank-stacked")


def _route(value: Any, src: np.ndarray) -> Any:
    """*value* as received: rank ``r`` gets rank ``src[r]``'s slice."""
    if isinstance(value, np.ndarray):
        return value[src]
    if isinstance(value, (tuple, list)):
        return type(value)(_route(v, src) for v in value)
    return value  # rank-invariant


def _unstack(value: Any, p: int) -> list[Any]:
    """Split a rank-stacked return value into one value per rank."""
    if isinstance(value, np.ndarray):
        return value.tolist() if value.ndim == 1 else list(value)
    if isinstance(value, (tuple, list)):
        if not value:
            return [type(value)() for _ in range(p)]
        return [type(value)(row) for row in zip(*(_unstack(v, p) for v in value))]
    return [value] * p


class _PayloadCarrier:
    """Drives one rank-stacked program in lockstep with a schedule's phases.

    The program yields the same request stream as every rank's own
    program; each phase checks that the next request has the phase's
    kind (and rank 0's peer and tag), then resumes the program with the
    routed payload.  Anything that does not line up raises
    :class:`CompileFallback`.
    """

    __slots__ = ("gen", "p", "req", "done", "value")

    def __init__(self, gen: Any, p: int) -> None:
        self.gen = gen
        self.p = p
        self.done = False
        self.value: Any = None
        self.req = self._resume(None)

    def _resume(self, value: Any) -> Any:
        try:
            req = self.gen.send(value)
            while req.__class__ is Checkpoint:
                req = self.gen.send(None)
        except StopIteration as stop:
            self.done = True
            self.value = stop.value
            return None
        except CompileFallback:
            raise
        except Exception as exc:
            raise CompileFallback(
                f"stacked program raised {type(exc).__name__}: {exc}"
            ) from exc
        return req

    def _mismatch(self, ph: SymPhase, detail: str) -> CompileFallback:
        got = "its return" if self.req is None else type(self.req).__name__
        return CompileFallback(
            f"stacked program reached {got} at a {type(ph).__name__} phase: {detail}"
        )

    def step(self, ph: SymPhase) -> None:
        req = self.req
        cls = ph.__class__
        if req.__class__ is not _REQUEST_OF[cls]:
            raise self._mismatch(ph, "request kinds diverge")
        value: Any = None
        if cls is SymSend:
            self._stash(ph, req)
        elif cls is SymSendAll:
            if len(req.messages) != len(ph.parts):
                raise self._mismatch(ph, "SendAll widths differ")
            for sp, m in zip(ph.parts, req.messages):
                self._stash(sp, m)
        elif cls is SymRecv:
            if req.src != ph.src[0] or req.tag != ph.tag:
                raise self._mismatch(ph, "rank 0's source or tag differs")
            src_phase = ph.source
            assert src_phase is not None
            value = _route(src_phase.payload, ph.src)
            src_phase.payload = None  # each send is matched exactly once
        elif cls is SymCollective:
            value = self._collective(ph, req)
        self.req = self._resume(value)

    def _stash(self, ph: SymSend, req: Send) -> None:
        if req.dst != ph.dst[0] or req.tag != ph.tag:
            raise self._mismatch(ph, "rank 0's destination or tag differs")
        _check_stacked(req.data, self.p, "Send payload")
        ph.payload = req.data

    def _collective(self, ph: SymCollective, req: CollectiveOp) -> Any:
        groups = ph.groups
        g = int(groups.shape[1])
        row0 = groups[int(np.flatnonzero((groups == 0).any(axis=1))[0])]
        if req.kind != ph.kind or list(req.group) != row0.tolist():
            raise self._mismatch(ph, "collective kind or rank 0's group differs")
        if req.kind != "shift":
            raise CompileFallback(
                f"macro collective {req.kind!r}: only shift payloads are carried"
            )
        if int(req.offset) % g != ph.offset:
            raise self._mismatch(ph, "shift offsets differ")
        _check_stacked(req.data, self.p, "shift payload")
        return _route(req.data, ph.src)

    def finish(self) -> list[Any]:
        if not self.done:
            raise CompileFallback(
                "stacked program issues more requests than the schedule has phases"
            )
        _check_stacked(self.value, self.p, "return value")
        return _unstack(self.value, self.p)


class BatchSchedule:
    """A lowered SPMD program: one symbolic phase per program step."""

    __slots__ = ("phases", "nprocs", "probe_ranks")

    def __init__(
        self, phases: list[SymPhase], nprocs: int, probe_ranks: list[int]
    ) -> None:
        self.phases = phases
        self.nprocs = nprocs
        self.probe_ranks = probe_ranks

    def __len__(self) -> int:
        return len(self.phases)

    def replay(
        self,
        arr: RankArrays,
        topology: Topology,
        machine: MachineParams,
        program: Any = None,
    ) -> list[Any] | None:
        """Charge the whole schedule into *arr* — zero per-rank generator resumes.

        With *program* (a started-fresh generator of a
        :attr:`SymmetrySpec.stacked` factory) the payloads move too and
        the per-rank return values come back; without one the replay is
        timing-only and returns ``None``.  Raises
        :class:`CompileFallback` when the program does not follow the
        schedule.
        """
        if program is None:
            self._charge(arr, topology, machine, None)
            return None
        try:
            carrier = _PayloadCarrier(program, self.nprocs)
            self._charge(arr, topology, machine, carrier)
            return carrier.finish()
        finally:
            program.close()
            # drop stashes an aborted replay left in flight
            for ph in self.phases:
                for sp in ph.parts if ph.__class__ is SymSendAll else (ph,):
                    if sp.__class__ is SymSend:
                        sp.payload = None

    def _charge(
        self,
        arr: RankArrays,
        topology: Topology,
        machine: MachineParams,
        carrier: _PayloadCarrier | None,
    ) -> None:
        clock = arr.clock
        all_port = machine.all_port
        for ph in self.phases:
            if carrier is not None:
                carrier.step(ph)
            cls = ph.__class__
            if cls is SymCompute:
                arr.compute_time += ph.cost
                clock += ph.cost
            elif cls is SymSend:
                busy, arrival = message_times(
                    machine, clock, float(ph.nwords), ph.hops
                )
                ph.arrival = arrival
                clock += busy
                arr.send_time += busy
                arr.messages_sent += 1
                arr.words_sent += ph.nwords
            elif cls is SymRecv:
                src_phase = ph.source
                assert src_phase is not None and src_phase.arrival is not None
                arrival = src_phase.arrival[ph.src]
                src_phase.arrival = None  # each send is matched exactly once
                waited, advanced = recv_wait_times(clock, arrival)
                arr.recv_wait_time += waited
                clock[:] = advanced
            elif cls is SymSendAll:
                if all_port:
                    busy = None
                    for sp in ph.parts:
                        b, a = message_times(
                            machine, clock, float(sp.nwords), sp.hops
                        )
                        sp.arrival = a
                        busy = b if busy is None else np.maximum(busy, b)
                        arr.messages_sent += 1
                        arr.words_sent += sp.nwords
                    if busy is not None:
                        clock += busy
                        arr.send_time += busy
                else:
                    for sp in ph.parts:
                        b, a = message_times(
                            machine, clock, float(sp.nwords), sp.hops
                        )
                        sp.arrival = a
                        clock += b
                        arr.send_time += b
                        arr.messages_sent += 1
                        arr.words_sent += sp.nwords
            elif cls is SymBarrier:
                t = clock.max()
                gap = t - clock
                arr.barrier_wait_time += np.where(gap > 0.0, gap, 0.0)
                clock[:] = t
            elif ph.kind == "shift":
                # the same elementwise expressions as the macro executor's
                # shift, over absolute ranks: send, then receive from src
                busy, arrival = message_times(machine, clock, ph.nwords, ph.hops)
                clock += busy
                arr.send_time += busy
                arr.messages_sent += 1
                arr.words_sent += ph.nwords
                waited, advanced = recv_wait_times(clock, arrival[ph.src])
                arr.recv_wait_time += waited
                clock[:] = advanced
            else:
                run_batch_collective(ph, arr, topology, machine)


def _check_uniform(values: Sequence[Any], step: int, what: str) -> Any:
    first = values[0]
    for v in values[1:]:
        if v != first:
            raise CompileFallback(
                f"probe traces diverge at step {step}: {what} {first!r} vs {v!r}"
            )
    return first


def _lower(
    traces: list[tuple[int, list[tuple]]],
    axes: dict[str, _Axis],
    topology: Topology,
    p: int,
) -> list[SymPhase]:
    nops = len(traces[0][1])
    for r, ops in traces[1:]:
        if len(ops) != nops:
            raise CompileFallback(
                f"probe traces diverge: rank {traces[0][0]} ran {nops} ops, "
                f"rank {r} ran {len(ops)}"
            )
    routes = _Routes(axes, topology, p)
    identity = routes.everyone
    phases: list[SymPhase] = []
    channels: dict[tuple[int, str, str, int], deque[SymSend]] = {}
    # group tuple -> the (axis, row) pairs having it as a row, in sorted
    # axis order: a collective lowers onto the first axis that explains
    # every probe's group
    rows_of: dict[tuple[int, ...], list[tuple[str, int]]] = {}
    for name in sorted(axes):
        for i, grp in enumerate(axes[name].mat.tolist()):
            rows_of.setdefault(tuple(grp), []).append((name, i))

    def lower_send(step: int, fields: list[tuple], part: str = "") -> SymSend:
        """fields: per-probe (dst, nwords, tag) triples for one message."""
        nwords = _check_uniform([f[1] for f in fields], step, f"send{part} nwords")
        tag = _check_uniform([f[2] for f in fields], step, f"send{part} tag")
        peers = [(r, f[0]) for (r, _), f in zip(traces, fields)]
        axis, law, d = _infer_law(axes, peers, f"Send{part}(tag={tag})")
        ph = SymSend(
            dst=routes.peers(axis, law, d),
            hops=routes.hops(axis, law, d),
            nwords=int(nwords),
            tag=int(tag),
        )
        channels.setdefault((int(tag), axis, law, d), deque()).append(ph)
        return ph

    for step in range(nops):
        row = [ops[step] for _, ops in traces]
        kind = _check_uniform([op[0] for op in row], step, "op kind")
        if kind == "compute":
            cost = _check_uniform([op[1] for op in row], step, "compute cost")
            phases.append(SymCompute(cost=float(cost)))
        elif kind == "send":
            phases.append(lower_send(step, [op[1:] for op in row]))
        elif kind == "sendall":
            k = _check_uniform([len(op[1]) for op in row], step, "SendAll width")
            parts = tuple(
                lower_send(step, [op[1][j] for op in row], part=f"[{j}]")
                for j in range(k)
            )
            phases.append(SymSendAll(parts=parts))
        elif kind == "recv":
            tag = _check_uniform([op[2] for op in row], step, "recv tag")
            peers = [(r, op[1]) for (r, _), op in zip(traces, row)]
            axis, law, e = _infer_law(axes, peers, f"Recv(tag={tag})")
            d = (axes[axis].g - e) % axes[axis].g if law == "cyc" else e
            queue = channels.get((int(tag), axis, law, d))
            if not queue:
                raise CompileFallback(
                    f"step {step}: Recv(tag={tag}) matches no outstanding "
                    f"compiled Send on axis {axis!r}"
                )
            src_phase = queue.popleft()
            src = routes.peers(axis, law, e)
            # the matched send must route exactly back: dst[src[r]] == r
            if not np.array_equal(src_phase.dst[src], identity):
                raise CompileFallback(
                    f"step {step}: matched Send/Recv laws are not inverse "
                    f"permutations on axis {axis!r}"
                )
            phases.append(SymRecv(src=src, tag=int(tag), source=src_phase))
        elif kind == "barrier":
            phases.append(SymBarrier())
        elif kind == "checkpoint":
            pass  # free without a fault plan, and compiled excludes fault plans
        else:  # "coll"
            (_, ckind, _g0, m, w, tag, offset, charge_adds, flat_size) = (
                _check_uniform(
                    [op[:2] + (len(op[2]),) + op[3:] for op in row],
                    step,
                    "collective shape",
                )
            )
            # axes on which every probe's group is its own row
            candidates: list[str] | None = None
            for (r, _), op in zip(traces, row):
                names = [
                    name for name, i in rows_of.get(op[2], ())
                    if axes[name].row[r] == i
                ]
                candidates = names if candidates is None else [
                    name for name in candidates if name in names
                ]
            if not candidates:
                raise CompileFallback(
                    f"step {step}: collective {ckind!r} group is not a "
                    f"symmetry-axis row"
                )
            axis_name = candidates[0]
            ph = SymCollective(
                kind=ckind,
                groups=axes[axis_name].mat,
                nwords=int(m),
                payload_words=int(w),
                offset=int(offset),
                charge_adds=bool(charge_adds),
                flat_size=int(flat_size),
            )
            if ckind == "shift":
                # rank r sends to group position (pos + offset) % g and
                # receives from (pos - offset) % g
                g = axes[axis_name].g
                ph.dst = routes.peers(axis_name, "cyc", ph.offset)
                ph.hops = routes.hops(axis_name, "cyc", ph.offset)
                ph.src = routes.peers(axis_name, "cyc", (g - ph.offset) % g)
            phases.append(ph)
    return phases


def compile_spmd(
    factories: Sequence[Callable[..., Any]],
    topology: Topology,
    machine: MachineParams,
    symmetry: SymmetrySpec,
    *,
    make_info: Callable[[int], Any],
    max_ops: int = _MAX_TRACE_OPS,
) -> BatchSchedule:
    """Record probe ranks, verify symmetry, and lower to a batch schedule.

    Raises :class:`CompileFallback` whenever the program turns out not
    to be compilable; the caller (the engine) re-runs the untouched
    factories on the ``heap`` scheduler.  Probe generators are consumed
    here, but factories are re-invoked fresh on fallback, so recording
    is side-effect-free as long as programs do not mutate driver state
    before their first yield.
    """
    p = len(factories)
    axes = _build_axes(symmetry, p)
    probe_ranks = _probe_ranks(axes, symmetry, p)
    traces = [
        (r, _record_probe(factories[r], make_info(r), r, max_ops))
        for r in probe_ranks
    ]
    phases = _lower(traces, axes, topology, p)
    return BatchSchedule(phases, p, probe_ranks)
