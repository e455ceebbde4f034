"""Payload-carrying compiled replay: verified products at batch-schedule speed.

A compiled run that needs the product drives one rank-stacked copy of
the rank program in lockstep with the lowered phases, so its ``C`` and
rank return values must be bitwise equal to the ``ready`` run's — on the
Figure 4/5 points the paper's crossovers rest on and on every Cannon
variant.  Where payloads cannot be carried exactly the run falls back to
``ready`` with a reason and still returns ``C``.  At scales ``ready``
cannot reach, compiled Cannon's ``T_p`` is pinned to its exact
closed form instead.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.algorithms.cannon as cannon_mod
import repro.simulator.collectives as coll
import repro.simulator.engine as engine_mod
from repro.algorithms import registry
from repro.algorithms.cannon import run_cannon
from repro.core.machine import CM5, MachineParams, NCUBE2_LIKE
from repro.experiments.figures45 import _FIG4_SIZES, _FIG5_SIZES
from repro.simulator.compile import SymmetrySpec
from repro.simulator.engine import Engine, RankInfo, SimConfig
from repro.simulator.request import (
    Barrier,
    Checkpoint,
    Compute,
    Recv,
    Send,
    SymCollective,
    SymRecv,
    SymSend,
)
from repro.simulator.topology import FullyConnected, Hypercube

from test_compiled_scheduler import DRIVER_CASES, assert_same_returns


def _operands(n, seed=0):
    rng = np.random.default_rng((seed, n))
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


def _assert_compiled_like_ready(res_c, res_d):
    assert res_c.sim.compiled, res_c.sim.compile_fallback
    assert res_c.parallel_time == res_d.parallel_time
    assert res_c.sim.total_messages == res_d.sim.total_messages
    assert res_c.sim.total_words == res_d.sim.total_words
    assert np.array_equal(res_c.C, res_d.C)
    assert_same_returns(res_c.sim.returns, res_d.sim.returns)


# ---------------------------------------------------------------------------
# differential: compiled C and returns == ready's
# ---------------------------------------------------------------------------

FIG45_CANNON_POINTS = [(n, 64) for n in _FIG4_SIZES] + [(n, 484) for n in _FIG5_SIZES]


def test_fig45_has_23_cannon_points():
    assert len(FIG45_CANNON_POINTS) == 23


@pytest.mark.parametrize("n,p", FIG45_CANNON_POINTS)
def test_fig45_cannon_points_compiled_equal_ready(n, p):
    A, B = _operands(n, seed=7)
    kw = dict(machine=CM5, topology=FullyConnected(p))
    res_c = run_cannon(A, B, p, config=SimConfig(scheduler="compiled"), **kw)
    res_d = run_cannon(A, B, p, config=SimConfig(scheduler="ready"), **kw)
    _assert_compiled_like_ready(res_c, res_d)
    np.testing.assert_allclose(res_c.C, A @ B, atol=1e-8 * n)


@pytest.mark.parametrize("macro", [False, True], ids=["message-level", "macro"])
@pytest.mark.parametrize("all_port", [False, True], ids=["one-port", "all-port"])
@pytest.mark.parametrize("overlap", [False, True], ids=["serial-shifts", "overlap-shifts"])
def test_cannon_variants_compiled_equal_ready(overlap, all_port, macro):
    machine = MachineParams(ts=30.0, tw=2.0, th=1.0, all_port=all_port, name="m")
    for key, n, p in [("cannon", 16, 16), ("cannon", 32, 64)]:
        A, B = _operands(n)
        kw = dict(machine=machine, overlap_shifts=overlap)
        config = SimConfig(macro_collectives=macro)
        res_c = run_cannon(A, B, p, config=replace(config, scheduler="compiled"), **kw)
        res_d = run_cannon(A, B, p, config=config, **kw)
        _assert_compiled_like_ready(res_c, res_d)


@pytest.mark.parametrize("scheduler", ["ready", "compiled"])
@pytest.mark.parametrize("key,n,p", DRIVER_CASES)
def test_product_false_is_timing_only_on_every_driver(key, n, p, scheduler):
    A, B = _operands(n)
    timing = registry.run(key, A, B, p, machine=NCUBE2_LIKE,
                          config=SimConfig(scheduler=scheduler), product=False)
    full = registry.run(key, A, B, p, machine=NCUBE2_LIKE, config=SimConfig(scheduler="ready"))
    assert timing.C is None
    assert timing.parallel_time == full.parallel_time


# ---------------------------------------------------------------------------
# fallback: payloads that cannot be carried exactly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key,n,p", [("simple", 16, 16), ("berntsen", 8, 8)])
def test_product_without_stacked_program_falls_back(key, n, p):
    A, B = _operands(n)
    timing = registry.run(key, A, B, p, machine=NCUBE2_LIKE,
                          config=SimConfig(scheduler="compiled"), product=False)
    assert timing.sim.compiled and timing.C is None
    res = registry.run(key, A, B, p, machine=NCUBE2_LIKE, config=SimConfig(scheduler="compiled"))
    assert res.sim.compiled is False
    assert "no SymmetrySpec" in res.sim.compile_fallback
    assert res.C is not None
    np.testing.assert_allclose(res.C, A @ B, atol=1e-8 * n)
    assert res.parallel_time == timing.parallel_time


def test_ragged_cannon_blocks_fall_back_with_product():
    A, B = _operands(18)  # 18 rows over a 4x4 grid: blocks of 5 and 4
    res = run_cannon(A, B, 16, config=SimConfig(scheduler="compiled"))
    assert res.sim.compiled is False
    assert res.sim.compile_fallback
    np.testing.assert_allclose(res.C, A @ B, atol=1e-7)


def _ring_spec(p, **kwargs):
    return SymmetrySpec(
        partitions={"ring": np.arange(p, dtype=np.int64)[None, :]}, **kwargs
    )


def _ring_body(rank, p, data, *, ident=None, extra=None):
    """Every rank sends *data* right and returns what arrives from the left.

    The stacked copy runs as rank 0 and returns the stacked *ident*.
    """

    def body(info: RankInfo):
        yield Compute(3.0)
        yield Checkpoint()
        yield Send(dst=(rank + 1) % p, data=data, nwords=4, tag=5)
        got = yield Recv(src=(rank - 1) % p, tag=5)
        yield Barrier()
        if extra is not None:
            yield extra
        return (rank if ident is None else ident), got * 2.0

    return body


def _ring_run(p, stacked, scheduler="compiled"):
    blocks = np.arange(p * 4, dtype=np.float64).reshape(p, 4)
    factories = [_ring_body(r, p, blocks[r]) for r in range(p)]
    spec = _ring_spec(p, stacked=stacked)
    return Engine(Hypercube(3), NCUBE2_LIKE, SimConfig(scheduler=scheduler),
                  symmetry=spec).run(factories), blocks


def test_stacked_ring_program_carries_payloads():
    p = 8
    blocks = np.arange(p * 4, dtype=np.float64).reshape(p, 4)
    res_c, _ = _ring_run(p, lambda info: _ring_body(0, p, blocks, ident=np.arange(p))(info))
    res_d, _ = _ring_run(p, None, scheduler="ready")
    assert res_c.compiled, res_c.compile_fallback
    assert res_c.parallel_time == res_d.parallel_time
    assert_same_returns(res_c.returns, res_d.returns)
    assert np.array_equal(res_c.returns[0][1], blocks[p - 1] * 2.0)


@pytest.mark.parametrize(
    "make_stacked,reason",
    [
        # payload without the rank axis
        (lambda p, blocks: _ring_body(0, p, blocks[:3], ident=np.arange(p)),
         "not rank-stacked"),
        # a return value without the rank axis
        (lambda p, blocks: _ring_body(0, p, blocks, ident=np.arange(p - 1)),
         "return value"),
        # a request the schedule does not have
        (lambda p, blocks: _ring_body(0, p, blocks, ident=np.arange(p), extra=Barrier()),
         "more requests"),
        # rank 0 sending somewhere else than the compiled law says
        (lambda p, blocks: _ring_body(3, p, blocks, ident=np.arange(p)), "destination"),
        # a program that fails outright
        (lambda p, blocks: _ring_body(0, p, None, ident=np.arange(p)), "raised TypeError"),
    ],
    ids=["ragged", "ragged-return", "extra-request", "wrong-peer", "raises"],
)
def test_unreplayable_stacked_program_falls_back(make_stacked, reason):
    p = 8
    blocks = np.arange(p * 4, dtype=np.float64).reshape(p, 4)
    res, _ = _ring_run(p, lambda info: make_stacked(p, blocks)(info))
    assert res.compiled is False
    assert reason in res.compile_fallback
    # the ready fallback ran the real programs
    assert [r for r, _ in res.returns] == list(range(p))
    assert np.array_equal(res.returns[0][1], blocks[p - 1] * 2.0)


def test_spec_without_stacked_program_is_timing_only():
    res_c, _ = _ring_run(8, None)
    res_d, _ = _ring_run(8, None, scheduler="ready")
    assert res_c.compiled, res_c.compile_fallback
    assert res_c.returns == [None] * 8
    assert res_c.parallel_time == res_d.parallel_time


# ---------------------------------------------------------------------------
# closed-form oracle where the dynamic scheduler cannot reach
# ---------------------------------------------------------------------------


def cannon_one_port_time(s, b, machine, *, overlap, hops=1):
    """Exact pre-aligned Cannon ``T_p`` on a one-port cut-through machine.

    Each of the ``s`` steps multiplies a ``b x b`` pair; each of the
    ``s - 1`` rolls injects the A and the B block (``ts + tw*b^2`` each).
    Serial shifts wait out each block's ``th*hops`` routing before the
    next injection; overlapped shifts post both blocks first, so only
    the B block's routing shows.
    """
    ts, tw, th = machine.ts, machine.tw, machine.th
    waits = 1 if overlap else 2
    return s * b**3 + (s - 1) * (2 * (ts + tw * b * b) + waits * th * hops)


ORACLE_MACHINE = MachineParams(ts=20.0, tw=1.0, th=0.5, name="oracle")


@pytest.mark.parametrize(
    "p,overlap",
    [(64, False), (64, True), (484, False), (484, True), (4096, False), (4096, True),
     (65536, False)],
)
def test_compiled_cannon_matches_closed_form(p, overlap):
    s = int(round(p**0.5))
    b = 2
    A, B = _operands(s * b)
    res = run_cannon(A, B, p, machine=ORACLE_MACHINE, topology=FullyConnected(p),
                     overlap_shifts=overlap, config=SimConfig(scheduler="compiled"), product=False)
    assert res.sim.compiled, res.sim.compile_fallback
    assert res.C is None
    assert res.sim.returns == [None] * p
    expected = cannon_one_port_time(s, b, ORACLE_MACHINE, overlap=overlap)
    assert res.parallel_time == pytest.approx(expected, rel=1e-12)
    assert res.sim.total_words == 2 * (s - 1) * b * b * p


@pytest.mark.parametrize("overlap", [False, True], ids=["serial-shifts", "overlap-shifts"])
def test_closed_form_matches_ready_where_ready_runs(overlap):
    """The oracle itself is checked against the dynamic scheduler."""
    p, b = 64, 3
    A, B = _operands(8 * b)
    res = run_cannon(A, B, p, machine=ORACLE_MACHINE, topology=FullyConnected(p),
                     overlap_shifts=overlap, config=SimConfig(scheduler="ready"))
    assert res.parallel_time == pytest.approx(
        cannon_one_port_time(8, b, ORACLE_MACHINE, overlap=overlap), rel=1e-12
    )


def test_non_shift_macro_collective_payloads_fall_back(monkeypatch):
    """Only a shift is a pure permutation; other collectives go to ready."""
    p = 8
    group = list(range(p))
    blocks = np.arange(p * 2, dtype=np.float64).reshape(p, 2)

    def make(data, ident):
        def body(info: RankInfo):
            got = yield from coll.allgather_ring(info, group, data, tag=1)
            return ident, got[0]

        return body

    spec = _ring_spec(p, stacked=make(blocks, np.arange(p)))
    res = Engine(Hypercube(3), NCUBE2_LIKE, SimConfig(scheduler="compiled"), symmetry=spec).run(
        [make(blocks[r], r) for r in range(p)]
    )
    assert res.compiled is False
    assert "only shift payloads" in res.compile_fallback
    assert all(np.array_equal(got, blocks[0]) for _, got in res.returns)


# ---------------------------------------------------------------------------
# cost shape: O(phases) vector work, O(probe ranks) Python
# ---------------------------------------------------------------------------


def _capture_schedules(monkeypatch):
    """Record every BatchSchedule the engine compiles."""
    schedules = []
    real = engine_mod.compile_spmd

    def capturing(*args, **kwargs):
        schedules.append(real(*args, **kwargs))
        return schedules[-1]

    monkeypatch.setattr(engine_mod, "compile_spmd", capturing)
    return schedules


def test_compiled_cannon_builds_programs_only_for_probes(monkeypatch):
    """The driver hands the engine one factory: a timing-only compiled run
    at p = 16384 binds the rank body for the probe ranks alone."""
    calls = []
    real = cannon_mod.cannon_program

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return real(*args, **kwargs)

    monkeypatch.setattr(cannon_mod, "cannon_program", counting)
    schedules = _capture_schedules(monkeypatch)
    p = 16384
    A, B = _operands(128)
    res = run_cannon(A, B, p, config=SimConfig(scheduler="compiled"), product=False)
    assert res.sim.compiled, res.sim.compile_fallback
    (schedule,) = schedules
    assert any(isinstance(ph, SymCollective) for ph in schedule.phases)
    assert len(calls) <= len(schedule.probe_ranks) + 1


def test_message_level_schedule_shares_routing_and_frees_arrivals(monkeypatch):
    """Without macro shifts every roll is a Send/Recv pair; the schedule
    holds one read-only dst vector per roll direction, and replay drops
    each arrival vector once its receive has read it."""
    schedules = _capture_schedules(monkeypatch)
    p = 1024
    A, B = _operands(64)
    message_level = SimConfig(macro_collectives=False)
    res_c = run_cannon(A, B, p, config=replace(message_level, scheduler="compiled"), product=False)
    res_d = run_cannon(A, B, p, config=message_level, product=False)
    assert res_c.sim.compiled, res_c.sim.compile_fallback
    (schedule,) = schedules
    sends = [ph for ph in schedule.phases if isinstance(ph, SymSend)]
    recvs = [ph for ph in schedule.phases if isinstance(ph, SymRecv)]
    assert len(sends) == len(recvs) == 2 * (32 - 1)
    assert len({id(ph.dst) for ph in sends}) == 2
    assert len({id(ph.hops) for ph in sends}) == 2
    assert len({id(ph.src) for ph in recvs}) == 2
    assert not any(ph.dst.flags.writeable or ph.hops.flags.writeable for ph in sends)
    assert all(ph.arrival is None for ph in sends)
    assert res_c.parallel_time == res_d.parallel_time
    for s_c, s_h in zip(res_c.sim.stats, res_d.sim.stats):
        assert s_c == s_h


def test_macro_shift_phases_share_precomputed_routing(monkeypatch):
    """Every serial roll lowers to a shift phase; phases rolling the same
    axis share one dst, src and hops vector, and src inverts dst."""
    schedules = _capture_schedules(monkeypatch)
    p = 1024
    A, B = _operands(64)
    res = run_cannon(A, B, p, config=SimConfig(scheduler="compiled"), product=False)
    assert res.sim.compiled, res.sim.compile_fallback
    (schedule,) = schedules
    shifts = [ph for ph in schedule.phases if isinstance(ph, SymCollective)]
    assert len(shifts) == 2 * (32 - 1)
    assert all(ph.kind == "shift" for ph in shifts)
    for field in ("dst", "src", "hops"):
        assert len({id(getattr(ph, field)) for ph in shifts}) == 2
    for ph in shifts:
        assert np.array_equal(ph.dst[ph.src], np.arange(p))
        assert not ph.src.flags.writeable
