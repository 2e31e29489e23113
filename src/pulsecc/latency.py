"""Table pricing of instructions, and the one longest-path rule.

An instruction is priced by a callable instruction -> ns. table_price()
takes the critical path of the member gates' times from a named-gate table
(defaults match the published per-gate times for the worked example); the
optimal-control unit's latency() prices by the true minimum pulse time
instead.  asap_finishes() is the one critical-path rule every layer uses.
"""
from __future__ import annotations

import json
from importlib import resources


class LatencyError(ValueError):
    pass


def default_table() -> dict[str, float]:
    text = resources.files("pulsecc.data").joinpath("latency_table.json").read_text()
    return {k: float(v) for k, v in json.loads(text).items()}


def asap_finishes(items) -> list:
    """Finish of each (qubits, non-negative duration) item, in order, when each
    starts as soon as its qubits are free (Kelley and Walker's critical path)."""
    free, finishes = {}, []
    for qubits, duration in items:
        end = 0
        for q in qubits:
            if free.get(q, 0) > end:
                end = free[q]
        end += duration
        for q in qubits:
            free[q] = end
        finishes.append(end)
    return finishes


def table_price(override: dict[str, float] | None = None):
    """Price an instruction as the critical path of its member gates' table
    times, each gate starting as soon as its qubits are free.

    That equals the sum of the times for a single gate and for a chain whose
    every gate shares a qubit with the one before.  override maps gate names
    to ns and takes precedence over default_table().  The price depends
    only on the instruction's shape, so each shape is priced once per
    table_price() call.
    """
    table = default_table()
    if override:
        table.update({k.lower(): float(v) for k, v in override.items()})

    prices: dict[tuple, float] = {}  # shape -> ns, for this pricer

    def price(ins) -> float:
        ns = prices.get(ins.shape)
        if ns is None:
            missing = [g.name.value for g in ins.gates if g.name.value not in table]
            if missing:
                raise LatencyError(f"no table entry for gate {missing[0]!r}")
            ns = prices[ins.shape] = max(asap_finishes(
                (g.qubits, table[g.name.value]) for g in ins.gates), default=0.0)
        return ns

    return price
