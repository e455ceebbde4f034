"""Fast-path-vs-reference equivalence for the macro collectives.

The macro fast path (:mod:`repro.simulator.macro`) simulates a whole
collective as one closed-form, vectorized clock/stats update.  Its
contract is *bit-identity* with the message-level reference: same
``T_p``, same per-rank accounts, same message/word totals, and the same
payload objects (including aliasing relationships) delivered to every
rank.  This file pins that contract three ways:

* a deterministic sweep of all seven collectives across machine models
  (store-and-forward vs cut-through, hop costs, all-port) and
  topologies;
* a property-based fuzz over random group shapes, member permutations,
  payload shapes, staggered entry times, and collective sequences;
* payload-aliasing tests for the zero-copy ndarray handoff — where the
  reference shares one object the fast path must share it too, and
  where the reference copies (reduce-scatter) no two ranks may end up
  with memory-sharing views.

Every group size takes the macro path, so small (fast-to-run) groups
exercise the same executors the large runs use.  The engine defers
completed groups and charges all concurrent groups of one kind and size
in one call; the driver-level tests below pin that cross-group batching
on GK, DNS and the other algorithms, and the failure tests pin the
rendezvous errors under deferral.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simulator.engine as engine_mod
from repro.algorithms.dns import run_dns_block
from repro.algorithms.gk import run_gk
from repro.algorithms.registry import run as run_registered
from repro.core.machine import CM5, NCUBE2_LIKE, MachineParams
from repro.simulator.collectives import (
    allgather_recursive_doubling,
    allgather_ring,
    barrier,
    bcast_binomial,
    reduce_binomial,
    reduce_scatter_halving,
    shift_cyclic,
)
from repro.simulator.engine import SimConfig, run_spmd
from repro.simulator.errors import DeadlockError, ProgramError
from repro.simulator.macro import binomial_rounds
from repro.simulator.request import CollectiveOp
from repro.simulator.topology import FullyConnected, Hypercube, Mesh2D


def deep_eq(a, b) -> bool:
    """Bitwise-exact structural equality (arrays compare dtype + contents)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and np.array_equal(a, b)
        )
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(deep_eq(x, y) for x, y in zip(a, b))
        )
    return type(a) is type(b) and a == b


def assert_identical(res_a, res_b, label: str):
    """Every observable SimResult field, bit for bit."""
    assert res_a.parallel_time == res_b.parallel_time, label
    assert res_a.total_messages == res_b.total_messages, label
    assert res_a.total_words == res_b.total_words, label
    assert len(res_a.stats) == len(res_b.stats)
    for s_a, s_b in zip(res_a.stats, res_b.stats):
        assert s_a == s_b, f"{label}: rank {s_a.rank} stats diverge"
    assert len(res_a.returns) == len(res_b.returns)
    for r, (v_a, v_b) in enumerate(zip(res_a.returns, res_b.returns)):
        assert deep_eq(v_a, v_b), f"{label}: rank {r} return value diverges"


def run_three_ways(p, topo, machine, factory):
    """(macro+ready, message+ready, message+rescan) runs of one program."""
    macro = run_spmd(topo, machine, factory, SimConfig(macro_collectives=True))
    msg = run_spmd(topo, machine, factory, SimConfig(macro_collectives=False))
    rescan = run_spmd(
        topo, machine, factory, SimConfig(scheduler="rescan", macro_collectives=False)
    )
    return macro, msg, rescan


# -- deterministic sweep: all collectives x machine models x topologies ------------

MACHINES = [
    NCUBE2_LIKE,
    CM5,
    MachineParams(ts=10.0, tw=2.0, th=1.0, routing="ct"),
    MachineParams(ts=10.0, tw=2.0, th=3.0, routing="sf"),
    MachineParams(ts=0.0, tw=1.0, all_port=True),
]

TOPOLOGIES = [
    lambda p: Hypercube.of_size(p),
    lambda p: FullyConnected(p),
]


def _all_collectives_body(info, group):
    """One program touching all seven collectives with distinct payloads."""
    rng = np.random.default_rng((1234, info.rank))
    a = rng.standard_normal(6)
    results = []
    got = yield from bcast_binomial(info, group, 1, a if info.rank == group[1] else None)
    results.append(got)
    got = yield from reduce_binomial(
        info, group, 0, a.copy(), charge_op=lambda x: float(np.asarray(x).size)
    )
    results.append(got)
    got = yield from allgather_recursive_doubling(info, group, a * 2.0)
    results.append(got)
    got = yield from allgather_ring(info, group, a + 1.0)
    results.append(got)
    got = yield from reduce_scatter_halving(info, group, rng.standard_normal((4, 4)))
    results.append(got)
    got = yield from shift_cyclic(info, group, 3, a - 3.0)
    results.append(got)
    yield from barrier(info)
    return results


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name or m.routing)
@pytest.mark.parametrize("make_topo", TOPOLOGIES, ids=["hypercube", "fully-connected"])
def test_all_collectives_bit_identical(machine, make_topo):
    p = 8
    topo = make_topo(p)
    group = list(range(p))

    def factory(info):
        return _all_collectives_body(info, group)

    macro, msg, rescan = run_three_ways(p, topo, machine, factory)
    assert_identical(macro, msg, "macro vs message-ready")
    assert_identical(macro, rescan, "macro vs rescan reference")


def test_subgroup_and_permuted_group_bit_identical():
    """Disjoint concurrent subgroups with permuted member orders."""
    p = 16
    topo = Hypercube.of_size(p)
    groups = [
        [3, 1, 7, 5],
        [0, 4, 2, 6],
        [15, 11, 13, 9],
        [8, 12, 10, 14],
    ]

    def factory(info):
        def body():
            group = next(g for g in groups if info.rank in g)
            data = np.full(4, float(info.rank))
            got1 = yield from bcast_binomial(
                info, group, 2, data if group[2] == info.rank else None
            )
            got2 = yield from allgather_recursive_doubling(info, group, data)
            got3 = yield from reduce_scatter_halving(info, group, data)
            return got1, got2, got3

        return body()

    macro, msg, rescan = run_three_ways(p, topo, NCUBE2_LIKE, factory)
    assert_identical(macro, msg, "subgroups macro vs message-ready")
    assert_identical(macro, rescan, "subgroups macro vs rescan")


def test_mesh_topology_distances_bit_identical():
    p = 16
    topo = Mesh2D(4, 4)
    group = list(range(p))

    def factory(info):
        def body():
            got = yield from allgather_ring(info, group, np.arange(3.0) + info.rank)
            return got

        return body()

    macro, msg, rescan = run_three_ways(p, topo, MachineParams(ts=5.0, tw=1.5, th=2.0), factory)
    assert_identical(macro, msg, "mesh macro vs message-ready")
    assert_identical(macro, rescan, "mesh macro vs rescan")


# -- property-based fuzz -----------------------------------------------------------


def _build_schedule(seed: int, p: int, rounds: int):
    """Random rounds of (kind, group, params) plus per-rank entry stagger."""
    rng = np.random.default_rng(seed)
    kinds = ("bcast", "reduce", "allgather_rd", "allgather_ring", "reduce_scatter", "shift")
    schedule = []
    for r in range(rounds):
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind in ("allgather_rd", "reduce_scatter"):
            gs = int(2 ** rng.integers(1, int(np.log2(p)) + 1))
        else:
            gs = int(rng.integers(2, p + 1))
        members = [int(x) for x in rng.permutation(p)[:gs]]
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        schedule.append(
            {
                "kind": kind,
                "group": members,
                "root_index": int(rng.integers(gs)),
                "offset": int(rng.integers(0, 2 * gs)),
                "shape": shape,
                "nwords": None if rng.integers(2) else int(rng.integers(0, 30)),
                "tag": int(rng.integers(3)),
                "costs": [float(rng.integers(0, 500)) for _ in range(p)],
                "charge": bool(rng.integers(2)),
            }
        )
    return schedule


def _fuzz_factory(schedule, seed: int):
    from repro.simulator.request import Compute

    def factory(info):
        def body():
            results = []
            for i, rnd in enumerate(schedule):
                cost = rnd["costs"][info.rank]
                if cost:
                    yield Compute(cost)
                if info.rank not in rnd["group"]:
                    continue
                rng = np.random.default_rng((seed, i, info.rank))
                data = rng.standard_normal(rnd["shape"])
                kind, group, tag = rnd["kind"], rnd["group"], rnd["tag"]
                if kind == "bcast":
                    root = group[rnd["root_index"]]
                    got = yield from bcast_binomial(
                        info, group, rnd["root_index"],
                        data if info.rank == root else None,
                        nwords=rnd["nwords"], tag=tag,
                    )
                elif kind == "reduce":
                    got = yield from reduce_binomial(
                        info, group, rnd["root_index"], data,
                        nwords=rnd["nwords"], tag=tag,
                        charge_op=(lambda x: float(np.asarray(x).size))
                        if rnd["charge"] else None,
                    )
                elif kind == "allgather_rd":
                    got = yield from allgather_recursive_doubling(
                        info, group, data, nwords=rnd["nwords"], tag=tag
                    )
                elif kind == "allgather_ring":
                    got = yield from allgather_ring(
                        info, group, data, nwords=rnd["nwords"], tag=tag
                    )
                elif kind == "reduce_scatter":
                    got = yield from reduce_scatter_halving(
                        info, group, data, tag=tag, charge_adds=rnd["charge"]
                    )
                else:
                    got = yield from shift_cyclic(
                        info, group, rnd["offset"], data,
                        nwords=rnd["nwords"], tag=tag,
                    )
                results.append(got)
            return results

        return body()

    return factory


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    p=st.sampled_from([4, 8, 16]),
    rounds=st.integers(min_value=1, max_value=4),
    machine=st.sampled_from(MACHINES),
    fully_connected=st.booleans(),
)
def test_fuzz_macro_matches_reference(seed, p, rounds, machine, fully_connected):
    topo = FullyConnected(p) if fully_connected else Hypercube.of_size(p)
    schedule = _build_schedule(seed, p, rounds)
    factory = _fuzz_factory(schedule, seed)
    macro, msg, rescan = run_three_ways(p, topo, machine, factory)
    assert_identical(macro, msg, f"seed={seed} macro vs message-ready")
    assert_identical(macro, rescan, f"seed={seed} macro vs rescan reference")


# -- payload aliasing: the zero-copy contract --------------------------------------


def _run_macro(p, factory, machine=NCUBE2_LIKE):
    return run_spmd(
        Hypercube.of_size(p), machine, factory,
        SimConfig(scheduler="ready", macro_collectives=True),
    )


def _run_reference(p, factory, machine=NCUBE2_LIKE):
    return run_spmd(
        Hypercube.of_size(p), machine, factory,
        SimConfig(scheduler="ready", macro_collectives=False),
    )


class TestPayloadAliasing:
    """Where the reference shares objects the fast path shares them; where
    the reference copies, in-place mutation must stay private to a rank."""

    def test_bcast_delivers_the_root_object_zero_copy(self):
        p = 8
        group = list(range(p))
        payload = np.arange(5.0)

        def factory(info):
            def body():
                got = yield from bcast_binomial(
                    info, group, 0, payload if info.rank == 0 else None
                )
                return got

            return body()

        for runner in (_run_macro, _run_reference):
            res = runner(p, factory)
            for r in range(p):
                assert res.returns[r] is payload

    def test_allgather_returns_original_contribution_objects(self):
        p = 8
        group = list(range(p))
        contributions = [np.full(3, float(r)) for r in range(p)]

        def factory(info):
            def body():
                got = yield from allgather_recursive_doubling(
                    info, group, contributions[info.rank]
                )
                return got

            return body()

        for runner in (_run_macro, _run_reference):
            res = runner(p, factory)
            for r in range(p):
                # fresh list per rank...
                assert res.returns[r] is not res.returns[(r + 1) % p]
                # ...of the exact objects each member contributed
                for j in range(p):
                    assert res.returns[r][j] is contributions[j]

    def test_shift_hands_over_the_sender_object(self):
        p = 8
        group = list(range(p))
        payloads = [np.full(2, float(r)) for r in range(p)]

        def factory(info):
            def body():
                got = yield from shift_cyclic(info, group, 3, payloads[info.rank])
                return got

            return body()

        for runner in (_run_macro, _run_reference):
            res = runner(p, factory)
            for r in range(p):
                assert res.returns[r] is payloads[(r - 3) % p]

    def test_reduce_scatter_slices_share_no_memory(self):
        """Each rank's piece is a private copy: no cross-rank views, and
        no view of any rank's input array."""
        p = 8
        group = list(range(p))
        inputs = [np.full((4, 4), float(r + 1)) for r in range(p)]

        def factory(info):
            def body():
                piece, lo, hi = yield from reduce_scatter_halving(
                    info, group, inputs[info.rank]
                )
                return piece, lo, hi

            return body()

        for runner in (_run_macro, _run_reference):
            res = runner(p, factory)
            pieces = [res.returns[r][0] for r in range(p)]
            for r in range(p):
                for other in pieces[r + 1:]:
                    assert not np.shares_memory(pieces[r], other)
                for inp in inputs:
                    assert not np.shares_memory(pieces[r], inp)

    def test_reduce_scatter_inplace_mutation_stays_private(self):
        """A rank scribbling over its returned piece (and its own input)
        must not corrupt any other rank's result."""
        p = 8
        group = list(range(p))
        expected_total = sum(float(r + 1) for r in range(p))

        def make_inputs():
            return [np.full((4, 4), float(r + 1)) for r in range(p)]

        for runner in (_run_macro, _run_reference):
            inputs = make_inputs()

            def factory(info):
                def body():
                    piece, lo, hi = yield from reduce_scatter_halving(
                        info, group, inputs[info.rank]
                    )
                    # scribble: in-place mutation of everything this rank holds
                    snapshot = piece.copy()
                    piece[:] = -1e9
                    inputs[info.rank][:] = -1e9
                    return snapshot, lo, hi

                return body()

            res = runner(p, factory)
            for r in range(p):
                snapshot, lo, hi = res.returns[r]
                assert np.array_equal(snapshot, np.full(hi - lo, expected_total))

    def test_reduce_scatter_input_copied_at_call_time(self):
        """The working copy is taken when the helper is invoked, so the
        returned piece never aliases the caller's array."""
        p = 4
        group = list(range(p))
        inputs = [np.ones(8) for _ in range(p)]

        def factory(info):
            def body():
                piece, lo, hi = yield from reduce_scatter_halving(
                    info, group, inputs[info.rank]
                )
                return np.shares_memory(piece, inputs[info.rank])

            return body()

        for runner in (_run_macro, _run_reference):
            res = runner(p, factory)
            assert res.returns == [False] * p

    def test_reduce_root_gets_folded_value_others_none(self):
        p = 8
        group = list(range(p))

        def factory(info):
            def body():
                got = yield from reduce_binomial(
                    info, group, 3, np.full(4, float(info.rank))
                )
                return got

            return body()

        for runner in (_run_macro, _run_reference):
            res = runner(p, factory)
            for r in range(p):
                if r == 3:
                    assert np.array_equal(res.returns[r], np.full(4, float(sum(range(p)))))
                else:
                    assert res.returns[r] is None


# -- deferred cross-group execution on the algorithm drivers -----------------------

def _assert_driver_identical(res_a, res_b, label: str):
    assert_identical(res_a.sim, res_b.sim, label)
    assert res_a.C.dtype == res_b.C.dtype
    assert np.array_equal(res_a.C, res_b.C), label


def _operands(n: int, seed: int = 5):
    rng = np.random.default_rng((seed, n))
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


def _both_paths(run):
    """``run(config)`` with macro collectives on, then off (the message-level oracle)."""
    return [run(SimConfig(macro_collectives=macro)) for macro in (True, False)]


#: (p, uniform n, ragged n) for GK: p = r**3, ragged n not divisible by r
GK_CASES = [(8, 4, 5), (64, 8, 10), (512, 16, 20)]
TOPOLOGY_KINDS = {
    "hypercube-relay": lambda p: Hypercube.of_size(p),
    "fully-connected-direct": lambda p: FullyConnected(p),
}


#: a second machine for the driver batches: cut-through routing with a
#: per-hop cost, so relayed hypercube routes charge the hop term
CT_HOP = MachineParams(ts=10.0, tw=2.0, th=1.0, routing="ct", name="ct-hop")


@pytest.mark.parametrize("machine", [NCUBE2_LIKE, CT_HOP], ids=lambda m: m.name)
@pytest.mark.parametrize("topo_kind", sorted(TOPOLOGY_KINDS))
@pytest.mark.parametrize("blocks", ["uniform", "ragged"])
@pytest.mark.parametrize("p,n_uniform,n_ragged", GK_CASES, ids=[f"p{c[0]}" for c in GK_CASES])
def test_gk_deferred_batches_bit_identical(
    p, n_uniform, n_ragged, blocks, topo_kind, machine
):
    """GK's r² concurrent bcast/reduce groups charged together equal the
    message-level run; ragged blocks give per-row word counts."""
    n = n_uniform if blocks == "uniform" else n_ragged
    A, B = _operands(n)
    macro, msg = _both_paths(
        lambda config: run_gk(
            A, B, p, machine=machine, topology=TOPOLOGY_KINDS[topo_kind](p), config=config
        ),
    )
    _assert_driver_identical(macro, msg, f"gk p={p} n={n} {topo_kind} {machine.name}")
    np.testing.assert_allclose(macro.C, A @ B, atol=1e-10 * n)


#: (n, r) for DNS-block: p = n*n*r in {8, 64, 512}; the last has 8x8
#: superprocessors, so its inner Cannon shifts run as batches too
DNS_BLOCK_CASES = [(2, 2), (4, 4), (16, 2)]


@pytest.mark.parametrize("machine", [NCUBE2_LIKE, CT_HOP], ids=lambda m: m.name)
@pytest.mark.parametrize("topo_kind", sorted(TOPOLOGY_KINDS))
@pytest.mark.parametrize("n,r", DNS_BLOCK_CASES, ids=[f"p{n * n * r}" for n, r in DNS_BLOCK_CASES])
def test_dns_block_deferred_batches_bit_identical(n, r, topo_kind, machine):
    A, B = _operands(n)
    p = n * n * r
    macro, msg = _both_paths(
        lambda config: run_dns_block(
            A, B, r, machine=machine, topology=TOPOLOGY_KINDS[topo_kind](p), config=config
        ),
    )
    _assert_driver_identical(macro, msg, f"dns-block n={n} r={r} {topo_kind} {machine.name}")
    np.testing.assert_allclose(macro.C, A @ B, atol=1e-10 * n)


@pytest.mark.parametrize("key,n,p", [
    ("simple", 8, 16), ("simple", 16, 64),
    ("berntsen", 8, 8), ("berntsen", 16, 64),
    ("fox", 8, 16), ("fox", 16, 64),
])
@pytest.mark.parametrize("machine", [CM5, CT_HOP], ids=lambda m: m.name)
def test_other_algorithms_deferred_bit_identical(key, n, p, machine):
    A, B = _operands(n)
    macro, msg = _both_paths(
        lambda config: run_registered(key, A, B, p, machine=machine, config=config),
    )
    _assert_driver_identical(macro, msg, f"{key} p={p} {machine.name}")


@pytest.mark.parametrize("machine", [NCUBE2_LIKE, CT_HOP], ids=lambda m: m.name)
def test_one_flush_mixes_roots_and_word_counts(machine, monkeypatch):
    """Four concurrent groups with different roots and payload sizes are
    charged by a single executor call per collective, bit-identical to the
    message-level run."""
    p, g = 16, 4
    groups = [[q + 4 * i for i in range(g)] for q in range(p // g)]  # strided rows

    def factory(info):
        def body():
            q = info.rank % 4
            group = groups[q]
            root = q % g  # a different root in every group
            words = 3 + 5 * q  # a different size in every group
            data = np.full(words, float(info.rank)) if group[root] == info.rank else None
            got = yield from bcast_binomial(info, group, root, data)
            total = yield from reduce_binomial(
                info, group, (root + 1) % g, got * info.rank,
                charge_op=lambda x: float(x.size),
            )
            return got, total

        return body()

    calls = []
    real = engine_mod.run_collective

    def spy(batch, *args):
        calls.append((
            batch[0][0].kind,
            len(batch),
            {posts[0].root_index for posts in batch},
            {len(next(q.data for q in posts if q.data is not None)) for posts in batch},
        ))
        return real(batch, *args)

    monkeypatch.setattr(engine_mod, "run_collective", spy)
    topo = Hypercube.of_size(p)
    macro = run_spmd(topo, machine, factory, SimConfig(scheduler="ready", macro_collectives=True))
    msg = run_spmd(topo, machine, factory, SimConfig(scheduler="ready", macro_collectives=False))
    assert calls == [
        ("bcast", 4, {0, 1, 2, 3}, {3, 8, 13, 18}),
        ("reduce", 4, {0, 1, 2, 3}, {3, 8, 13, 18}),
    ]
    assert_identical(macro, msg, f"mixed roots/sizes {machine.name}")


# -- failure behaviour under deferral ----------------------------------------------


def _raw_post(kind="bcast", group=(0, 1, 2, 3), **kw):
    return CollectiveOp(kind=kind, group=list(group), data=np.zeros(2), **kw)


def test_group_that_never_fills_deadlocks_naming_parked_ranks():
    """Group [0, 1] completes and is flushed; rank 3 never joins [2, 3]."""

    def factory(info):
        def body():
            if info.rank in (0, 1):
                got = yield from bcast_binomial(info, [0, 1], 0, np.ones(2))
                return got
            if info.rank == 2:
                got = yield from bcast_binomial(info, [2, 3], 0, np.ones(2))
                return got
            return None
            yield  # pragma: no cover - makes this a generator

        return body()

    with pytest.raises(DeadlockError) as exc:
        run_spmd(Hypercube.of_size(4), NCUBE2_LIKE, factory,
                 SimConfig(scheduler="ready", macro_collectives=True))
    assert set(exc.value.blocked) == {2}
    assert "bcast" in exc.value.blocked[2]


@pytest.mark.parametrize("case", ["not-member", "disagreeing-roots", "duplicate", "out-of-range"])
def test_rendezvous_errors_under_deferral(case):
    def factory(info):
        def body():
            if case == "not-member":
                req = _raw_post(group=[1, 2, 3]) if info.rank == 0 else _raw_post()
            elif case == "disagreeing-roots":
                req = _raw_post(root_index=info.rank % 2)
            elif case == "duplicate":
                req = _raw_post(group=[0, 1, 1, 2])
            else:
                req = _raw_post(group=[0, 1, 2, 9])
            got = yield req
            return got

        return body()

    with pytest.raises(ProgramError):
        run_spmd(Hypercube.of_size(4), NCUBE2_LIKE, factory,
                 SimConfig(scheduler="ready", macro_collectives=True))


def test_posting_twice_to_a_pending_group_raises():
    eng = engine_mod.Engine(Hypercube.of_size(4), NCUBE2_LIKE)
    eng._post_collective(0, _raw_post(), 4)
    with pytest.raises(ProgramError, match="twice"):
        eng._post_collective(0, _raw_post(), 4)


def test_groups_sharing_end_ranks_rendezvous_separately():
    """Pending entries keyed by (kind, tag, g, first, last) still match by
    full group: [0, 1, 3] and [0, 2, 3] share a key but not a group."""
    eng = engine_mod.Engine(Hypercube.of_size(4), NCUBE2_LIKE)
    for r in (1, 3):
        eng._post_collective(r, _raw_post(group=[0, 1, 3]), 4)
    eng._post_collective(2, _raw_post(group=[0, 2, 3]), 4)
    assert not eng._completed_collectives
    eng._post_collective(0, _raw_post(group=[0, 1, 3]), 4)
    assert [posts[0].group for posts in eng._completed_collectives[("bcast", 3)]] == [[0, 1, 3]]


# -- the binomial round count ------------------------------------------------------


def test_binomial_rounds_is_least_covering_power_of_two():
    for g in range(1, 4097):
        k = binomial_rounds(g)
        assert 2**k >= g and (k == 0 or 2 ** (k - 1) < g), g
