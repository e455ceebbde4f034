"""The Dekel–Nassimi–Sahni (DNS) algorithm — paper Section 4.5.

Processors form a logical ``r x r x r`` cube.  Stage 1 routes and
broadcasts the operand blocks so that processor ``(i, j, k)`` holds
``A[j, i]`` and ``B[i, k]``; stage 2 multiplies locally; stage 3 sums the
partial products along the *i* axis into plane ``i = 0``.

Two forms are implemented:

* :func:`run_dns_one_per_element` — the original ``p = n^3`` version
  (one matrix element per processor, ``O(log n)`` time);
* :func:`run_dns_block` — the §4.5.2 adaptation to ``p = n^2 * r``
  processors (``1 <= r <= n``): an ``r^3`` cube of *superprocessors*,
  each an ``(n/r) x (n/r)`` grid running one-element-per-processor
  Cannon for the block products.  Modeled time (Eq. 6)::

      T_p = n^3/p + (ts + tw) * (5*log(p/n^2) + 2*n^3/p)

The cube program (stage 1 route/broadcast + stage 3 reduce) is shared
with the GK algorithm (:mod:`repro.algorithms.gk`), which differs only
in using ``(n/p^{1/3})^2``-element blocks on a ``p^{1/3}`` cube.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    MatmulResult,
    check_same_shape,
    cube_route,
    default_topology,
    matmul_cost,
)
from repro.blockops.partition import BlockSpec
from repro.core.machine import MachineParams, NCUBE2_LIKE
from repro.simulator.collectives import (
    bcast_binomial,
    reduce_binomial,
    shift_cyclic,
    words_of,
)
from repro.simulator.engine import Engine, RankInfo
from repro.simulator.faults import FaultPlan
from repro.simulator.request import Compute, Recv, Send
from repro.simulator.topology import Hypercube, Topology, gray_code

__all__ = [
    "run_dns_one_per_element",
    "run_dns_block",
    "make_cube_program",
    "T_ADD",
]

#: Split of the unit multiply-add cost used when an add occurs alone
#: (stage-3 merges): ``t_mult + t_add = 1`` per Section 4.6.
T_ADD = 0.5

# spread out so multi-tag collectives (scatter-allgather uses tag and
# tag+1) cannot collide across phases
_TAG_ROUTE_A, _TAG_BCAST_A, _TAG_ROUTE_B, _TAG_BCAST_B, _TAG_REDUCE = 10, 20, 30, 40, 50


def _charge_adds(x: np.ndarray) -> float:
    """Stage-3 merge cost: one add per element of the received block."""
    return T_ADD * x.size


def _cube_route(info: RankInfo, src: int, dst: int, data, nwords: int, tag: int, route_mode: str):
    """Move *data* from rank *src* to rank *dst*; returns it at *dst*, else ``None``."""
    if src == dst:
        return data if info.rank == src else None
    if route_mode == "relay":
        got = yield from cube_route(info, src, dst, data, nwords=nwords, tag=tag)
        return got if info.rank == dst else None
    if info.rank == src:
        yield Send(dst=dst, data=data, nwords=nwords, tag=tag)
        return None
    if info.rank == dst:
        got = yield Recv(src=src, tag=tag)
        return got
    return None


def _cube_bcast(info: RankInfo, broadcast: str, group: list[int], root_idx: int, payload, tag: int):
    if broadcast == "binomial":
        out = yield from bcast_binomial(info, group, root_idx, payload, tag=tag)
    elif broadcast == "scatter-allgather":
        from repro.simulator.jho import bcast_scatter_allgather

        out = yield from bcast_scatter_allgather(info, group, root_idx, payload, tag=tag)
    else:
        from repro.simulator.jho import bcast_pipelined_binomial

        out = yield from bcast_pipelined_binomial(info, group, root_idx, payload, tag=tag)
    return out


def make_cube_program(
    i: int,
    j: int,
    k: int,
    a0: np.ndarray | None,
    b0: np.ndarray | None,
    a_words: int,
    b_words: int,
    group_l: list[int],
    group_m: list[int],
    group_i: list[int],
    route_mode: str,
    broadcast: str = "binomial",
):
    """SPMD body for cube position ``(i, j, k)`` of the DNS/GK data flow.

    ``a0``/``b0`` are the initial blocks (present only on plane
    ``i == 0``); ``a_words``/``b_words`` their sizes (known to every rank
    of the route group).  The three groups are the ranks of the cube
    lines through ``(i, j, k)``: ``group_l[l] = (i, j, l)``,
    ``group_m[l] = (i, l, k)`` and ``group_i[t] = (t, j, k)``; drivers
    share one list object between all members of a line.
    ``route_mode`` is ``"relay"`` (one message per
    hypercube dimension, the paper's ``log r``-step routing) or
    ``"direct"`` (a single message — the CM-5 form behind Eq. 18).
    ``broadcast`` selects the stage-1 one-to-all scheme: ``"binomial"``
    (the naive scheme the paper's CM-5 code uses, Eq. 7),
    ``"scatter-allgather"`` or ``"pipelined"`` (the §5.4.1 "improved GK"
    large-message schemes; see :mod:`repro.simulator.jho`).
    Returns ``(j, k, C_block)`` on plane ``i == 0`` and ``None`` elsewhere.
    """
    if route_mode not in ("relay", "direct"):
        raise ValueError(f"route_mode must be 'relay' or 'direct', got {route_mode!r}")
    if broadcast not in ("binomial", "scatter-allgather", "pipelined"):
        raise ValueError(f"unknown broadcast scheme {broadcast!r}")

    def body(info: RankInfo):
        # Stage 1, matrix A: (0,j,k) -> (k,j,k), then broadcast along the third axis.
        a_routed = yield from _cube_route(
            info, group_i[0], group_i[k], a0, a_words, _TAG_ROUTE_A, route_mode
        )
        # the broadcast block is A[j,i], not A[j,k]; under uneven partitions
        # their sizes differ, so the collectives size the payload themselves
        a = yield from _cube_bcast(info, broadcast, group_l, i, a_routed, _TAG_BCAST_A)
        # Stage 1, matrix B: (0,j,k) -> (j,j,k), then broadcast along the second axis.
        b_routed = yield from _cube_route(
            info, group_i[0], group_i[j], b0, b_words, _TAG_ROUTE_B, route_mode
        )
        b = yield from _cube_bcast(info, broadcast, group_m, i, b_routed, _TAG_BCAST_B)
        # Stage 2: local block product.  This rank now holds A[j,i] and B[i,k].
        yield Compute(matmul_cost(a.shape[0], a.shape[1], b.shape[1]), label="gemm")
        c = a @ b
        # Stage 3: sum partial products along the i axis into plane i == 0.
        total = yield from reduce_binomial(
            info, group_i, 0, c, tag=_TAG_REDUCE, charge_op=_charge_adds
        )
        if total is None:
            return None
        return j, k, total

    return body


def _cube_ranks(r: int) -> np.ndarray:
    """``ranks[i, j, k]``: the hypercube rank of cube position ``(i, j, k)``."""
    bits = max(r - 1, 0).bit_length()
    i, j, k = np.indices((r, r, r), dtype=np.int64)
    return (((i << bits) | j) << bits) | k


def _lines(ranks: np.ndarray, axis: int) -> list:
    """Nested lists of *ranks* with *axis* moved last: each innermost list
    is one line of the grid, shared by every member it names."""
    return np.moveaxis(ranks, axis, -1).tolist()


def _positions(ranks: np.ndarray) -> list[list[int]]:
    """``pos[rank]``: the grid coordinates of each rank."""
    pos = np.empty((ranks.size, ranks.ndim), dtype=np.int64)
    pos[ranks.ravel()] = np.indices(ranks.shape).reshape(ranks.ndim, -1).T
    return pos.tolist()


def _run_cube(
    A: np.ndarray,
    B: np.ndarray,
    r: int,
    machine: MachineParams,
    topo: Topology,
    algorithm: str,
    *,
    route_mode: str | None = None,
    broadcast: str = "binomial",
    trace: bool = False,
    scheduler: str | None = None,
    fault_plan: FaultPlan | None = None,
    product: bool = True,
) -> MatmulResult:
    """Shared driver for the one-element DNS and GK algorithms."""
    n = A.shape[0]
    p = r**3
    if topo.size != p:
        raise ValueError(f"topology size {topo.size} != r^3 = {p}")
    if isinstance(topo, Hypercube) and r & (r - 1):
        raise ValueError("cube side must be a power of two on a hypercube")
    if route_mode is None:
        route_mode = "relay" if isinstance(topo, Hypercube) else "direct"

    spec = BlockSpec(n, n, r, r)
    a_blocks = spec.scatter(A)
    b_blocks = spec.scatter(B)
    heights = [hi - lo for lo, hi in map(spec.row_bounds, range(r))]
    widths = [hi - lo for lo, hi in map(spec.col_bounds, range(r))]

    ranks = _cube_ranks(r)
    lines_l, lines_m, lines_i = _lines(ranks, 2), _lines(ranks, 1), _lines(ranks, 0)
    ijk = _positions(ranks)

    def program(info: RankInfo):
        # one factory for every rank: set-up happens as each rank starts
        i, j, k = ijk[info.rank]
        words = heights[j] * widths[k]
        return make_cube_program(
            i,
            j,
            k,
            a_blocks[j][k] if i == 0 else None,
            b_blocks[j][k] if i == 0 else None,
            a_words=words,
            b_words=words,
            group_l=lines_l[i][j],
            group_m=lines_m[i][k],
            group_i=lines_i[j][k],
            route_mode=route_mode,
            broadcast=broadcast,
        )(info)

    # cube_route is position-dependent (relay ranks recv+send, bystanders
    # idle), so DNS/GK programs are not rank-symmetric: no SymmetrySpec,
    # and scheduler="compiled" degrades to the heap scheduler.
    sim = Engine(
        topo, machine, trace=trace, scheduler=scheduler, fault_plan=fault_plan,
        symmetry=None,
    ).run(program)

    C = None
    if product:
        C = np.zeros((n, n), dtype=np.result_type(A, B))
        for ret in sim.returns:
            if ret is None:
                continue
            j, k, c_block = ret
            C[spec.block_slice(j, k)] = c_block
    return MatmulResult(C=C, sim=sim, n=n, p=p, machine=machine, algorithm=algorithm)


def run_dns_one_per_element(
    A: np.ndarray,
    B: np.ndarray,
    machine: MachineParams = NCUBE2_LIKE,
    topology: Topology | None = None,
    *,
    trace: bool = False,
    scheduler: str | None = None,
    fault_plan: FaultPlan | None = None,
    product: bool = True,
) -> MatmulResult:
    """Multiply with the original DNS formulation: ``p = n^3``, one element per PE.

    Accomplishes the ``O(n^3)`` computation in ``O(log n)`` simulated
    time.  *n* must be a power of two on the (default) hypercube.
    """
    n = check_same_shape(A, B)
    topo = topology or default_topology(n**3)
    return _run_cube(
        A, B, n, machine, topo, "dns",
        trace=trace, scheduler=scheduler, fault_plan=fault_plan,
        product=product,
    )


def _dns_block_ranks(r: int, s: int) -> np.ndarray:
    """``ranks[i, j, k, li, lj]``: the hypercube rank of element ``(li, lj)``
    of superprocessor ``(i, j, k)`` (Gray-coded inside the superprocessor)."""
    lbits = max(s - 1, 0).bit_length()
    gray = np.array([gray_code(x) for x in range(s)], dtype=np.int64)
    i, j, k, li, lj = np.indices((r, r, r, s, s), dtype=np.int64)
    return (_cube_ranks(r)[i, j, k] << (2 * lbits)) | (gray[li] << lbits) | gray[lj]


def _scalar_add(x, y):
    return x + y


def _one_add(_x) -> float:
    return T_ADD


def _dns_block_program(
    i: int,
    j: int,
    k: int,
    li: int,
    lj: int,
    a0: float | None,
    b0: float | None,
    group_l: list[int],
    group_m: list[int],
    group_i: list[int],
    row_group: list[int],
    col_group: list[int],
    route_mode: str,
):
    """SPMD body of the §4.5.2 block-DNS variant for one hypercube processor.

    The processor is element ``(li, lj)`` of superprocessor ``(i, j, k)``;
    its groups are the lines through it along the superprocessor axes
    (``group_l``, ``group_m``, ``group_i``, as in
    :func:`make_cube_program`) and inside its superprocessor
    (``row_group``, ``col_group``).  Stage 1 moves single elements along
    the superprocessor axes; stage 2 is one-element-per-processor Cannon
    inside the superprocessor (the host pre-skews the operands, mirroring
    ``run_cannon(align="pre")``); stage 3 reduces scalars along the
    superprocessor *i* axis.
    """
    s = len(row_group)

    def body(info: RankInfo):
        a_routed = yield from _cube_route(
            info, group_i[0], group_i[k], a0, 1, _TAG_ROUTE_A, route_mode
        )
        a = yield from bcast_binomial(info, group_l, i, a_routed, nwords=1, tag=_TAG_BCAST_A)
        b_routed = yield from _cube_route(
            info, group_i[0], group_i[j], b0, 1, _TAG_ROUTE_B, route_mode
        )
        b = yield from bcast_binomial(info, group_m, i, b_routed, nwords=1, tag=_TAG_BCAST_B)

        # Stage 2: one-element Cannon on the (n/r) x (n/r) superprocessor grid.
        c = a * 0  # zero of the operands' scalar type (works for complex too)
        for t in range(s):
            yield Compute(1.0, label="fma")
            c += a * b
            if t < s - 1:
                a = yield from shift_cyclic(info, row_group, -1, a, nwords=1, tag=_TAG_ROLL_A)
                b = yield from shift_cyclic(info, col_group, -1, b, nwords=1, tag=_TAG_ROLL_B)

        total = yield from reduce_binomial(
            info,
            group_i,
            0,
            c,
            op=_scalar_add,
            nwords=1,
            tag=_TAG_REDUCE,
            charge_op=_one_add,
        )
        if total is None:
            return None
        return j, k, li, lj, total

    return body


_TAG_ROLL_A, _TAG_ROLL_B = 60, 70


def run_dns_block(
    A: np.ndarray,
    B: np.ndarray,
    r: int,
    machine: MachineParams = NCUBE2_LIKE,
    topology: Topology | None = None,
    *,
    trace: bool = False,
    scheduler: str | None = None,
    fault_plan: FaultPlan | None = None,
    product: bool = True,
) -> MatmulResult:
    """Multiply with the §4.5.2 DNS variant on ``p = n^2 * r`` processors.

    ``r`` is the cube side of the superprocessor array (``1 <= r <= n``);
    the paper's applicability range is ``n^2 <= p <= n^3``.  *n*, *r*,
    and ``n/r`` must be powers of two on the (default) hypercube.
    """
    n = check_same_shape(A, B)
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if n % r:
        raise ValueError(f"r={r} must divide n={n}")
    s = n // r  # superprocessor grid side
    p = n * n * r
    topo = topology or default_topology(p)
    if topo.size != p:
        raise ValueError(f"topology size {topo.size} != n^2*r = {p}")
    route_mode = "relay" if isinstance(topo, Hypercube) else "direct"

    spec = BlockSpec(n, n, r, r)

    # Host-side pre-skew of each block for the inner one-element Cannon:
    # element (li, lj) starts as A_blk[li, (li+lj) % s] / B_blk[(li+lj) % s, lj].
    rows = np.arange(s)[:, None]
    cols = np.arange(s)[None, :]
    skew = (rows + cols) % s
    a_blocks = spec.scatter(A)
    b_blocks = spec.scatter(B)
    a_skewed = [[blk[rows, skew] for blk in row] for row in a_blocks]
    b_skewed = [[blk[skew, cols] for blk in row] for row in b_blocks]

    ranks = _dns_block_ranks(r, s)
    lines_l, lines_m, lines_i = _lines(ranks, 2), _lines(ranks, 1), _lines(ranks, 0)
    lines_row, lines_col = _lines(ranks, 4), _lines(ranks, 3)
    coords = _positions(ranks)

    def program(info: RankInfo):
        i, j, k, li, lj = coords[info.rank]
        return _dns_block_program(
            i,
            j,
            k,
            li,
            lj,
            a_skewed[j][k][li, lj].item() if i == 0 else None,
            b_skewed[j][k][li, lj].item() if i == 0 else None,
            group_l=lines_l[i][j][li][lj],
            group_m=lines_m[i][k][li][lj],
            group_i=lines_i[j][k][li][lj],
            row_group=lines_row[i][j][k][li],
            col_group=lines_col[i][j][k][lj],
            route_mode=route_mode,
        )(info)

    # not rank-symmetric (cube_route relays) — see _run_cube
    sim = Engine(
        topo, machine, trace=trace, scheduler=scheduler, fault_plan=fault_plan,
        symmetry=None,
    ).run(program)

    C = None
    if product:
        C = np.zeros((n, n), dtype=np.result_type(A, B))
        for ret in sim.returns:
            if ret is None:
                continue
            j, k, li, lj, val = ret
            C[j * s + li, k * s + lj] = val
    return MatmulResult(C=C, sim=sim, n=n, p=p, machine=machine, algorithm="dns-block")
