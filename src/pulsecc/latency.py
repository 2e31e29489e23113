"""Table pricing of instructions.

An instruction is priced by a callable instruction -> ns. table_price()
takes the critical path of the member gates' times from a named-gate table
(defaults match the published per-gate times for the worked example); the
optimal-control unit's latency() prices by the true minimum pulse time
instead.
"""
from __future__ import annotations

import json
from importlib import resources


class LatencyError(ValueError):
    pass


def default_table() -> dict[str, float]:
    text = resources.files("pulsecc.data").joinpath("latency_table.json").read_text()
    return {k: float(v) for k, v in json.loads(text).items()}


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
            free: dict[int, float] = {}
            for gate in ins.gates:
                name = gate.name.value
                if name not in table:
                    raise LatencyError(f"no table entry for gate {name!r}")
                end = max(free.get(q, 0.0) for q in gate.qubits) + table[name]
                free.update(dict.fromkeys(gate.qubits, end))
            ns = prices[ins.shape] = max(free.values(), default=0.0)
        return ns

    return price
