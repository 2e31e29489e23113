"""The benchmark's per-layer tracer, read from perfbench/ and run on one small
compile: every layer it names must record a span, or a per-layer metric
silently reads zero."""
import sys
from pathlib import Path

import pulsecc as pc

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import tracing
finally:
    sys.path.remove(PERFBENCH)


def test_every_traced_layer_records_a_span():
    text = pc.emit_asm(pc.make_bench("ising-chain", 2))
    opts = pc.CompileOptions(strategy="cls+agg", max_width=2)
    targets = tracing.layer_targets(pc)
    with tracing.Tracer(targets) as t:
        circuit = pc.asm.parse_asm(text)
        pc.pipeline.compile_circuit(circuit, opts)
    assert [name for _, _, name, _ in targets if t.count(name) == 0] == []
