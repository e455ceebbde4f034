"""The compiled (record→replay) scheduler: bit-identity and fallback rules.

The trace compiler's contract has two halves and both are load-bearing:

* when it engages, every observable of the run — ``T_p``, all per-rank
  accounts, message/word totals, and (when the product is requested)
  ``C`` and the rank return values — must be **bit-identical** to the
  generator schedulers (heap and the rescan reference), because the
  replay path evaluates the exact same IEEE expressions via
  :mod:`repro.simulator.charging` and runs the same rank body over
  stacked blocks;
* when the program is not provably rank-symmetric (position-dependent
  traffic, unsupported collectives, tracing/faults/contention), it must
  fall back to the heap scheduler **silently and correctly**, recording
  the reason in ``SimResult.compile_fallback``.

Driver-level cases run all six algorithms; program-level cases poke the
fallback taxonomy and fuzz random machine models (sf routing, per-hop
costs, all-port) against the reference.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.simulator.engine as engine_mod
from repro.algorithms import registry
from repro.core.machine import MachineParams, NCUBE2_LIKE
from repro.simulator.compile import SymmetrySpec
from repro.simulator.engine import Engine, RankInfo
from repro.simulator.faults import FaultPlan
from repro.simulator.request import Barrier, Compute, Recv, Send, SendAll
from repro.simulator.topology import FullyConnected, Hypercube, Mesh2D


def _assert_identical(compiled, reference, p):
    """Every observable of two SimResults, field for field, bitwise."""
    assert compiled.parallel_time == reference.parallel_time
    assert compiled.nprocs == reference.nprocs == p
    assert len(compiled.stats) == p
    for s_c, s_r in zip(compiled.stats, reference.stats):
        assert s_c == s_r, f"rank {s_r.rank} stats diverge"
    assert compiled.total_messages == reference.total_messages
    assert compiled.total_words == reference.total_words
    assert compiled.total_compute_time == reference.total_compute_time
    assert compiled.total_comm_time == reference.total_comm_time


# ---------------------------------------------------------------------------
# driver-level equivalence: all six algorithms
# ---------------------------------------------------------------------------

#: (key, n, p) — smallest instances that exercise each driver's traffic
DRIVER_CASES = [
    ("cannon", 16, 16),
    ("simple", 16, 16),
    ("fox", 16, 16),
    ("berntsen", 8, 8),
    ("dns", 4, 16),
    ("gk", 16, 8),
]


def _operands(key, n):
    rng = np.random.default_rng((hash(key) & 0xFFFF, n))
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


def _run_driver(key, n, p, scheduler, **kwargs):
    A, B = _operands(key, n)
    return registry.run(
        key, A, B, p, machine=NCUBE2_LIKE, scheduler=scheduler, **kwargs
    )


def assert_same_returns(got, want):
    """Rank return values equal field by field (arrays bitwise)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert np.array_equal(g, w)
        elif isinstance(w, (tuple, list)):
            assert len(g) == len(w)
            assert_same_returns(list(g), list(w))
        else:
            assert g == w


@pytest.mark.parametrize("macro", [False, True], ids=["message-level", "macro"])
@pytest.mark.parametrize("key,n,p", DRIVER_CASES)
def test_compiled_matches_heap_and_rescan_on_drivers(key, n, p, macro, monkeypatch):
    """The timing-only replay (``product=False``) of every driver that
    compiles matches heap and rescan on every per-rank account."""
    monkeypatch.setattr(engine_mod, "DEFAULT_MACRO_COLLECTIVES", macro)
    res_c = _run_driver(key, n, p, "compiled", product=False)
    res_h = _run_driver(key, n, p, "heap")
    res_r = _run_driver(key, n, p, "rescan")
    _assert_identical(res_c.sim, res_h.sim, p)
    _assert_identical(res_c.sim, res_r.sim, p)
    assert res_c.C is None
    if res_c.sim.compiled:
        assert res_c.sim.returns == [None] * p
        assert res_c.sim.compile_fallback is None
    else:
        assert res_c.sim.compile_fallback


@pytest.mark.parametrize("macro", [False, True], ids=["message-level", "macro"])
@pytest.mark.parametrize("key,n,p", DRIVER_CASES)
def test_compiled_product_matches_heap_on_drivers(key, n, p, macro, monkeypatch):
    """A compiled run that needs the product keeps it: either the blocks
    rode the replay (C and returns bitwise equal to heap's) or the run
    fell back to heap with a reason — never ``C is None``."""
    monkeypatch.setattr(engine_mod, "DEFAULT_MACRO_COLLECTIVES", macro)
    res_c = _run_driver(key, n, p, "compiled")
    res_h = _run_driver(key, n, p, "heap")
    _assert_identical(res_c.sim, res_h.sim, p)
    if res_c.sim.compiled:
        assert registry.get(key).compiled_product
        assert res_c.sim.compile_fallback is None
    else:
        assert res_c.sim.compile_fallback
    assert np.array_equal(res_c.C, res_h.C)
    assert_same_returns(res_c.sim.returns, res_h.sim.returns)
    A, B = _operands(key, n)
    np.testing.assert_allclose(res_c.C, A @ B, atol=1e-8 * n)


@pytest.mark.parametrize("product", [False, True], ids=["timing-only", "product"])
@pytest.mark.parametrize("key,n,p", DRIVER_CASES)
def test_compiled_engagement_matches_registry_annotation(key, n, p, product, monkeypatch):
    """With the macro path available, engagement == the library annotation.

    ``rank_symmetric`` advertises whether the default driver config
    compiles for timing; with the product requested only the drivers
    marked ``compiled_product`` stay compiled.  The small test grids take
    the same macro executors the 64k runs do.
    """
    res = _run_driver(key, n, p, "compiled", product=product)
    entry = registry.get(key)
    expected = entry.rank_symmetric and (entry.compiled_product or not product)
    assert res.sim.compiled == expected, res.sim.compile_fallback
    assert (res.C is not None) == product


@pytest.mark.parametrize("overlap", [False, True], ids=["serial-shifts", "overlap-shifts"])
@pytest.mark.parametrize("p", [64, 1024])
def test_cannon_macro_shifts_compiled_bit_identical(p, overlap, monkeypatch):
    """Mid-scale points on the real 64k path (macro collectives active):
    serial rolls replay as shift phases charged on precomputed routing,
    overlapped rolls as SendAll phases."""
    res_c = _run_driver("cannon", 32, p, "compiled", overlap_shifts=overlap)
    res_h = _run_driver("cannon", 32, p, "heap", overlap_shifts=overlap)
    assert res_c.sim.compiled, res_c.sim.compile_fallback
    _assert_identical(res_c.sim, res_h.sim, p)
    assert np.array_equal(res_c.C, res_h.C)


@pytest.mark.parametrize("all_port", [False, True], ids=["one-port", "all-port"])
def test_cannon_overlap_shifts_compiled(all_port, monkeypatch):
    """SendAll replay: the all-port max-fold and one-port serialization."""
    from repro.algorithms.cannon import run_cannon

    machine = MachineParams(ts=30.0, tw=2.0, th=1.0, all_port=all_port, name="m")
    rng = np.random.default_rng(7)
    A = rng.standard_normal((16, 16))
    B = rng.standard_normal((16, 16))
    res_c = run_cannon(A, B, 16, machine=machine, overlap_shifts=True,
                       scheduler="compiled")
    res_h = run_cannon(A, B, 16, machine=machine, overlap_shifts=True,
                       scheduler="heap")
    assert res_c.sim.compiled
    _assert_identical(res_c.sim, res_h.sim, 16)


def test_simple_on_mesh_ring_allgather_compiles():
    """The ring all-gather compiles at message level (no macro needed)."""
    from repro.algorithms.simple import run_simple

    rng = np.random.default_rng(3)
    A = rng.standard_normal((16, 16))
    B = rng.standard_normal((16, 16))
    topo = Mesh2D(4, 4)
    res_c = run_simple(A, B, 16, machine=NCUBE2_LIKE, topology=topo,
                       scheduler="compiled", product=False)
    res_h = run_simple(A, B, 16, machine=NCUBE2_LIKE, topology=topo,
                       scheduler="heap")
    assert res_c.sim.compiled, res_c.sim.compile_fallback
    _assert_identical(res_c.sim, res_h.sim, 16)


# ---------------------------------------------------------------------------
# program-level: fallback taxonomy
# ---------------------------------------------------------------------------


def _ring_spec(p):
    return SymmetrySpec(partitions={"ring": np.arange(p, dtype=np.int64)[None, :]})


def _ring_factories(p, nwords=10, tag=5):
    """Symmetric: every rank sends right, receives from the left."""

    def make(rank):
        def body(info: RankInfo):
            yield Compute(3.0)
            yield Send(dst=(rank + 1) % p, data=None, nwords=nwords, tag=tag)
            yield Recv(src=(rank - 1) % p, tag=tag)
            yield Barrier(label="done")
            return None

        return body

    return [make(r) for r in range(p)]


def _relay_factories(p, nwords=10, tag=5):
    """Asymmetric: a bucket-brigade line, every position behaves differently."""

    def make(rank):
        def body(info: RankInfo):
            if rank == 0:
                yield Send(dst=1, data=None, nwords=nwords, tag=tag)
            elif rank < p - 1:
                got = yield Recv(src=rank - 1, tag=tag)
                yield Send(dst=rank + 1, data=got, nwords=nwords, tag=tag)
            else:
                yield Recv(src=rank - 1, tag=tag)
            return rank

        return body

    return [make(r) for r in range(p)]


def test_rank_asymmetric_program_falls_back_bit_identically():
    """Acceptance criterion: the relay line is NOT rank-symmetric; the
    compiler must notice (probe traces diverge) and the heap fallback
    must agree with an explicit heap run on every field."""
    p = 16
    topo = Hypercube(4)
    res_c = Engine(topo, NCUBE2_LIKE, scheduler="compiled",
                   symmetry=_ring_spec(p)).run(_relay_factories(p))
    res_h = Engine(topo, NCUBE2_LIKE, scheduler="heap").run(_relay_factories(p))
    assert not res_c.compiled
    assert res_c.compile_fallback  # reason recorded
    _assert_identical(res_c, res_h, p)
    assert res_c.returns == list(range(p))  # real generators actually ran


def test_symmetric_program_compiles():
    p = 16
    topo = Hypercube(4)
    res_c = Engine(topo, NCUBE2_LIKE, scheduler="compiled",
                   symmetry=_ring_spec(p)).run(_ring_factories(p))
    res_h = Engine(topo, NCUBE2_LIKE, scheduler="heap").run(_ring_factories(p))
    assert res_c.compiled and res_c.compile_fallback is None
    assert res_c.arrays is not None
    assert res_c.returns == [None] * p
    _assert_identical(res_c, res_h, p)


@pytest.mark.parametrize(
    "kwargs,reason",
    [
        (dict(symmetry=None), "no SymmetrySpec"),
        (dict(trace=True), "tracing"),
        (dict(link_contention=True), "contention"),
        (dict(fault_plan=FaultPlan(seed=1)), "fault plan"),
    ],
)
def test_pre_probe_blockers_fall_back(kwargs, reason):
    p = 8
    topo = Hypercube(3)
    kwargs.setdefault("symmetry", _ring_spec(p))
    res = Engine(topo, NCUBE2_LIKE, scheduler="compiled", **kwargs).run(
        _ring_factories(p)
    )
    assert not res.compiled
    assert reason in res.compile_fallback


def test_malformed_symmetry_spec_raises():
    p = 8
    topo = Hypercube(3)
    bad = SymmetrySpec(
        partitions={"ring": np.arange(p - 1, dtype=np.int64)[None, :]}
    )
    with pytest.raises(ValueError):
        Engine(topo, NCUBE2_LIKE, scheduler="compiled", symmetry=bad).run(
            _ring_factories(p)
        )


def test_fallback_reruns_generators_fresh():
    """Recording probes must not consume the real factories' effects:
    after a fallback every rank's return value is intact."""
    p = 8
    res = Engine(Hypercube(3), NCUBE2_LIKE, scheduler="compiled",
                 symmetry=_ring_spec(p)).run(_relay_factories(p))
    assert res.returns == list(range(p))


# ---------------------------------------------------------------------------
# random-machine fuzz: the charging helpers under every cost regime
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_compiled_fuzz_random_machines(seed):
    rng = np.random.default_rng(seed)
    machine = MachineParams(
        ts=float(rng.uniform(1, 200)),
        tw=float(rng.uniform(0.1, 8)),
        th=float(rng.uniform(0, 5)),
        routing=("ct", "sf")[seed % 2],
        all_port=bool(seed % 3 == 0),
        name=f"fuzz{seed}",
    )
    p = 16
    topo = (Hypercube(4), FullyConnected(16), Mesh2D(4, 4))[seed % 3]

    def make(rank):
        def body(info: RankInfo):
            yield Compute(float(5 + seed))
            yield SendAll([
                Send(dst=(rank + 1) % p, data=None, nwords=17, tag=1),
                Send(dst=(rank - 1) % p, data=None, nwords=9, tag=2),
            ])
            yield Recv(src=(rank - 1) % p, tag=1)
            yield Recv(src=(rank + 1) % p, tag=2)
            yield Barrier(label="b")
            yield Send(dst=(rank + 3) % p, data=None, nwords=33, tag=3)
            yield Recv(src=(rank - 3) % p, tag=3)
            return None

        return body

    factories = [make(r) for r in range(p)]
    res_c = Engine(topo, machine, scheduler="compiled",
                   symmetry=_ring_spec(p)).run(factories)
    res_h = Engine(topo, machine, scheduler="heap").run(factories)
    res_r = Engine(topo, machine, scheduler="rescan").run(factories)
    assert res_c.compiled, res_c.compile_fallback
    _assert_identical(res_c, res_h, p)
    _assert_identical(res_c, res_r, p)


# ---------------------------------------------------------------------------
# numba opt-in: bit-identity with the pure-numpy kernel
# ---------------------------------------------------------------------------


def test_numba_kernel_bit_identical_when_available():
    from repro.simulator import charging

    try:
        import numba  # noqa: F401
    except ImportError:
        pytest.skip("numba not installed; pure-numpy fallback is the tested path")
    p = 16
    factories = _ring_factories(p)
    res_np = Engine(Hypercube(4), NCUBE2_LIKE, scheduler="compiled",
                    symmetry=_ring_spec(p)).run(factories)
    assert charging.set_numba(True)
    try:
        res_nb = Engine(Hypercube(4), NCUBE2_LIKE, scheduler="compiled",
                        symmetry=_ring_spec(p)).run(factories)
    finally:
        charging.set_numba(False)
    assert res_nb.compiled
    _assert_identical(res_nb, res_np, p)


def test_numba_gating_off_by_default():
    from repro.simulator import charging

    import os
    if os.environ.get("REPRO_NUMBA") == "1":
        pytest.skip("REPRO_NUMBA=1 set in this environment")
    assert not charging.numba_enabled()


# ---------------------------------------------------------------------------
# satellite: SimResult totals are numpy reductions pinned to per-rank views
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheduler", ["ready", "rescan", "heap", "compiled"])
def test_totals_match_per_rank_stats(scheduler, monkeypatch):
    res = _run_driver("cannon", 16, 16, scheduler)
    sim = res.sim
    # int totals: exact equality against the Python sum over the views
    assert sim.total_messages == sum(s.messages_sent for s in sim.stats)
    assert sim.total_words == sum(s.words_sent for s in sim.stats)
    # float totals: the reduction must agree with the per-rank accounts
    assert sim.total_compute_time == pytest.approx(
        sum(s.compute_time for s in sim.stats), rel=1e-12
    )
    assert sim.total_comm_time == pytest.approx(
        sum(s.send_time + s.recv_wait_time + s.barrier_wait_time for s in sim.stats),
        rel=1e-12,
    )
    # every scheduler path now exposes its RankArrays
    assert sim.arrays is not None
    assert sim.arrays.nprocs == 16


def test_totals_fall_back_to_python_sums_without_arrays():
    res = _run_driver("cannon", 16, 16, "heap")
    sim = res.sim
    with_arrays = (sim.total_messages, sim.total_words,
                   sim.total_compute_time, sim.total_comm_time)
    sim.arrays = None
    assert sim.total_messages == with_arrays[0]
    assert sim.total_words == with_arrays[1]
    assert sim.total_compute_time == pytest.approx(with_arrays[2], rel=1e-12)
    assert sim.total_comm_time == pytest.approx(with_arrays[3], rel=1e-12)
