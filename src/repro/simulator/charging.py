"""Shared vectorized charging helpers for the simulator cost model.

Every code path that charges message costs against whole rank vectors —
the macro-collective executor (:mod:`repro.simulator.macro`) and the
record→replay trace compiler (:mod:`repro.simulator.compile`) — goes
through the two helpers in this module so the arithmetic cannot drift
from the scalar reference in :meth:`repro.core.machine.MachineParams`:

* sender busy time: ``ts + tw*m``
* cut-through duration: ``ts + tw*m + th*hops``
* store-and-forward duration: ``ts + (tw*m + th)*hops``
* receive wait: ``gap = arrival - clock``; wait ``max(gap, 0)``; the
  receiver's clock advances to ``max(clock, arrival)``.

The expressions are written exactly as the scalar helpers write them (no
re-association), which is what makes the vectorized schedulers
bit-identical to ``rescan``.  The static-analysis rule ENG008 enforces
that the compiled scheduler never touches ``machine.ts``/``tw``/``th``
directly — all cost arithmetic must flow through this module.

Optional numba acceleration
---------------------------

Setting ``REPRO_NUMBA=1`` in the environment opts into a numba-JIT inner
kernel for :func:`message_times` when numba is importable.  The kernel
evaluates the same IEEE-754 operations in the same order (numba does not
enable fastmath by default), so the result is bit-identical to the pure
numpy path; the numpy path remains the primary implementation and is
always exercised by the tests.  When numba is absent the flag is a
silent no-op — nothing in this repository requires it.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.machine import MachineParams

__all__ = [
    "message_times",
    "recv_wait_times",
    "numba_enabled",
    "set_numba",
]

# -- optional numba kernel -----------------------------------------------------

_numba_message_times: Optional[Callable[..., Any]] = None


def _build_numba_kernel() -> Optional[Callable[..., Any]]:
    """Compile the fused message-cost kernel, or return None if numba is missing."""
    try:  # pragma: no cover - exercised only when numba is installed
        import numba  # type: ignore[import-not-found]
    except Exception:
        return None

    @numba.njit(cache=False)  # pragma: no cover - exercised only with numba
    def _kernel(
        clock: np.ndarray,
        nwords: np.ndarray,
        hops: np.ndarray,
        ts: float,
        tw: float,
        th: float,
        cut_through: bool,
        busy: np.ndarray,
        arrival: np.ndarray,
    ) -> None:
        for i in range(clock.shape[0]):
            m = nwords[i]
            b = ts + tw * m
            if cut_through:
                d = ts + tw * m + th * hops[i]
            else:
                d = ts + (tw * m + th) * hops[i]
            busy[i] = b
            arrival[i] = clock[i] + d

    return _kernel


def set_numba(enabled: bool) -> bool:
    """Enable/disable the numba kernel; returns whether it is now active.

    Enabling is best-effort: when numba is not importable the numpy path
    stays in effect and this returns False.
    """
    global _numba_message_times
    if not enabled:
        _numba_message_times = None
        return False
    if _numba_message_times is None:
        _numba_message_times = _build_numba_kernel()
    return _numba_message_times is not None


def numba_enabled() -> bool:
    """True when message_times currently dispatches to the numba kernel."""
    return _numba_message_times is not None


if os.environ.get("REPRO_NUMBA") == "1":  # pragma: no cover - env-dependent
    set_numba(True)


# -- the shared charging expressions -------------------------------------------


def message_times(
    machine: "MachineParams",
    clock: np.ndarray,
    nwords: Any,
    hops: Any,
) -> Tuple[Any, Any]:
    """Vectorized (sender busy, receiver arrival) for messages injected at *clock*.

    ``busy = ts + tw*m`` and ``arrival = clock + duration`` with the
    routing-discipline duration written exactly as
    :meth:`MachineParams.transfer_time` writes it.  ``nwords`` and
    ``hops`` may be scalars or arrays broadcastable against *clock*;
    ``hops`` must already be clamped to >= 1 (``PairHopCache`` does
    this).  Elementwise per rank, so charging a whole batch gives the
    same floats as charging each rank alone.
    """
    ts = machine.ts
    tw = machine.tw
    th = machine.th
    if (
        _numba_message_times is not None
        and isinstance(clock, np.ndarray)
        and clock.dtype == np.float64
        and clock.ndim == 1
    ):  # pragma: no cover - exercised only with numba installed
        n = clock.shape[0]
        m_arr = np.broadcast_to(np.asarray(nwords, dtype=np.float64), (n,))
        h_arr = np.broadcast_to(np.asarray(hops, dtype=np.float64), (n,))
        busy = np.empty(n, dtype=np.float64)
        arrival = np.empty(n, dtype=np.float64)
        _numba_message_times(
            np.ascontiguousarray(clock),
            np.ascontiguousarray(m_arr),
            np.ascontiguousarray(h_arr),
            float(ts),
            float(tw),
            float(th),
            machine.routing == "ct",
            busy,
            arrival,
        )
        return busy, arrival
    busy = ts + tw * nwords
    if machine.routing == "ct":
        duration = ts + tw * nwords + th * hops
    else:
        duration = ts + (tw * nwords + th) * hops
    return busy, np.asarray(clock) + duration


def recv_wait_times(clock: Any, arrival: Any) -> Tuple[Any, Any]:
    """Vectorized receive: (wait charged, advanced clock).

    ``gap = arrival - clock``; the wait is ``gap`` where positive else
    ``0.0`` (adding +0.0 to a non-negative accumulator is a bitwise
    no-op, so unconditionally accumulating the result matches the scalar
    ``if arrival > clock`` branch), and the new clock is
    ``max(clock, arrival)`` elementwise.
    """
    gap = np.asarray(arrival) - clock
    waited = np.where(gap > 0.0, gap, 0.0)
    return waited, np.maximum(clock, arrival)
