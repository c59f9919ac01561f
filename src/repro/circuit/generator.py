"""Synthetic sequential circuit generator.

The experiments need circuits whose size matches the ITC'99 profiles
(Table I) without access to the original RTL or a synthesis tool.  The
generator builds random — but structurally realistic — gate-level netlists:

* gates are created in a topological stream, each drawing its fan-in from a
  locality window of recently created nets (plus occasional long-range
  connections), which yields the narrow/deep cone structure real synthesised
  logic has instead of a flat random DAG;
* a configurable fraction of flip-flops closes state feedback loops (their
  D inputs come from late gates, their Q outputs feed early gates), matching
  the register-dominated ITC'99 designs;
* every net is consumed by at least one reader, so the fault universe has no
  trivially untestable floating logic, and leftover unread nets become
  primary outputs.

Generation is fully deterministic for a given :class:`CircuitSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit

#: Relative frequencies of gate types in generated logic (NAND/NOR-heavy,
#: like standard-cell mapped netlists).
_GATE_MIX = [
    (GateType.NAND, 0.28),
    (GateType.NOR, 0.18),
    (GateType.AND, 0.16),
    (GateType.OR, 0.14),
    (GateType.NOT, 0.12),
    (GateType.XOR, 0.07),
    (GateType.BUF, 0.03),
    (GateType.XNOR, 0.02),
]


@dataclass(frozen=True)
class CircuitSpec:
    """Parameters of a synthetic circuit.

    Attributes:
        name: circuit name.
        n_primary_inputs: number of primary inputs.
        n_flip_flops: number of D flip-flops (scan cells).
        n_gates: number of combinational gates.
        n_primary_outputs: number of primary outputs (defaults to roughly one
            per eight gates, at least one).
        locality: probability that a gate input is drawn from the recent-net
            window rather than uniformly from all earlier nets.
        window: size of the recent-net locality window.
        seed: RNG seed.
    """

    name: str
    n_primary_inputs: int
    n_flip_flops: int
    n_gates: int
    n_primary_outputs: int = 0
    locality: float = 0.75
    window: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_primary_inputs < 1:
            raise ValueError("at least one primary input is required")
        if self.n_flip_flops < 0 or self.n_gates < 1:
            raise ValueError("flip-flop count must be >= 0 and gate count >= 1")
        if not 0.0 <= self.locality <= 1.0:
            raise ValueError("locality must be within [0, 1]")


_GATE_TYPES, _GATE_WEIGHTS = zip(*_GATE_MIX)
#: The CDF ``Generator.choice(p=...)`` builds from ``_GATE_MIX``, so one
#: uniform draw searched in it picks the gate type ``rng.choice`` would.
_GATE_CDF = np.cumsum(np.array(_GATE_WEIGHTS) / np.sum(_GATE_WEIGHTS))
_GATE_CDF /= _GATE_CDF[-1]


def _sample_gate_type(rng: np.random.Generator) -> GateType:
    return _GATE_TYPES[int(_GATE_CDF.searchsorted(rng.random(), side="right"))]


def generate_circuit(spec: CircuitSpec) -> Circuit:
    """Generate a validated synthetic circuit matching ``spec``."""
    rng = np.random.default_rng(spec.seed)
    circuit = Circuit(name=spec.name)

    pi_names = [f"pi{i}" for i in range(spec.n_primary_inputs)]
    ff_names = [f"ff{i}" for i in range(spec.n_flip_flops)]
    for net in pi_names:
        circuit.add_input(net)

    # Flip-flop outputs act as sources; their D inputs are wired at the end.
    # ``unused`` is kept as an insertion-ordered dict so generation stays
    # deterministic across processes (set iteration order would depend on the
    # randomised string hash seed).
    sources: List[str] = pi_names + ff_names
    available: List[str] = list(sources)
    # Nets from completed layers that nothing reads yet.  Freshly created
    # gates only become eligible once their layer closes, so the forced
    # consumption below cannot create gate-to-next-gate chains.
    unused: dict = dict.fromkeys(sources)
    fresh_unused: dict = {}

    # Arrange gates in layers so the combinational depth grows like the depth
    # of synthesised logic (tens of levels) instead of degenerating into one
    # long chain.  Layer L draws most of its fan-in from layer L-1.
    depth_target = max(5, min(60, round(3.2 * np.log2(max(spec.n_gates, 2)))))
    layer_width = max(1, -(-spec.n_gates // depth_target))  # ceil division
    previous_layer: List[str] = list(sources)
    current_layer: List[str] = []

    gate_names: List[str] = []
    for index in range(spec.n_gates):
        gate_type = _sample_gate_type(rng)
        if gate_type in (GateType.NOT, GateType.BUF):
            fanin = 1
        else:
            fanin = int(rng.integers(2, 5)) if rng.random() < 0.25 else 2
        inputs: List[str] = []
        # First, consume completed-layer nets nobody reads yet so nothing is
        # left floating.
        while unused and len(inputs) < fanin:
            candidate = next(iter(unused))
            del unused[candidate]
            if candidate not in inputs:
                inputs.append(candidate)
        attempts = 0
        while len(inputs) < fanin and attempts < 16:
            attempts += 1
            if rng.random() < spec.locality and previous_layer:
                pool = previous_layer
            else:
                pool = available
            candidate = pool[int(rng.integers(0, len(pool)))]
            if candidate not in inputs:
                inputs.append(candidate)
        if len(inputs) == 1 and gate_type not in (GateType.NOT, GateType.BUF):
            # Not enough distinct driver nets yet; degrade to an inverter.
            gate_type = GateType.NOT
        name = f"g{index}"
        circuit.add_gate(name, gate_type, inputs)
        for net in inputs:
            unused.pop(net, None)
            fresh_unused.pop(net, None)
        available.append(name)
        fresh_unused[name] = None
        gate_names.append(name)
        current_layer.append(name)
        if len(current_layer) >= layer_width:
            previous_layer = current_layer
            current_layer = []
            unused.update(fresh_unused)
            fresh_unused = {}
    unused.update(fresh_unused)

    # Wire flip-flop D inputs from late gates so state feedback spans the logic.
    if spec.n_flip_flops:
        tail = gate_names[-max(spec.n_flip_flops * 2, 8):]
        for ff_name in ff_names:
            source = tail[int(rng.integers(0, len(tail)))] if tail else pi_names[0]
            circuit.add_gate(ff_name, GateType.DFF, [source])
            unused.pop(source, None)

    # Primary outputs: the requested count of the latest gates, plus every
    # other gate or flip-flop output still unread.
    n_outputs = spec.n_primary_outputs or max(1, spec.n_gates // 8)
    chosen = gate_names[::-1][:n_outputs]
    leftover = sorted(circuit.gates.keys() & (unused.keys() - set(chosen)))
    for net in chosen + leftover:
        circuit.add_output(net)

    circuit.validate()
    return circuit


def scaled_spec(
    name: str,
    n_primary_inputs: int,
    n_flip_flops: int,
    n_gates: int,
    scale: float = 1.0,
    seed: int = 0,
) -> CircuitSpec:
    """Build a spec scaled down by ``scale`` (used for the largest ITC'99 profiles).

    Scaling keeps at least one primary input, one gate and — when the
    original had any — one flip-flop, so the full-scan machinery still has
    something to exercise even at tiny scales.
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    return CircuitSpec(
        name=name,
        n_primary_inputs=max(1, round(n_primary_inputs * scale)),
        n_flip_flops=max(1 if n_flip_flops else 0, round(n_flip_flops * scale)),
        n_gates=max(1, round(n_gates * scale)),
        seed=seed,
    )
