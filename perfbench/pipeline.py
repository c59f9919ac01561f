"""Workloads of the pipeline benchmark and the per-set pipeline they run.

One *set* is one profile instance taken through a workload's whole
pipeline: circuit, test cubes, the five techniques of Tables V-VI and, when
a circuit exists, a power estimate per technique.  A run is fixed work: R
rounds over the workload's profiles, round ``i`` drawing its inputs from
``seed + i``, so the quality figures of a seed repeat exactly and no round
reuses anything an earlier round built.

The untraced run calls ``apply_technique`` for the four baselines.  The
traced run composes every technique from its layer calls inside spans;
``check_composition`` asserts that both give the same output.  Proposed is
composed in both runs (I-Ordering, then DP-fill on its extraction, as
``apply_technique`` does), because the certification check needs the
solver's lower bound and the peak I-Ordering reported.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.atpg.tpg import generate_test_cubes
from repro.benchmarks_data.profiles import get_profile
from repro.circuit.library import itc99_like
from repro.core.bcp import solve_weighted_bcp
from repro.core.dpfill import dp_fill
from repro.core.intervals import apply_assignment
from repro.cubes.bits import ONE, X, ZERO
from repro.cubes.cube import TestSet
from repro.cubes.generator import CubeSetSpec, generate_cube_set
from repro.cubes.metrics import peak_toggles, toggle_profile
from repro.engine.backend import get_backend
from repro.experiments.techniques import TECHNIQUES, apply_technique
from repro.experiments.workloads import ATPG_BACKTRACK_LIMIT, ATPG_GATE_LIMIT, ATPG_MAX_FAULTS
from repro.filling import get_filler
from repro.orderings import get_ordering
from repro.power.estimator import PowerEstimator

from spans import NullTracer, Tracer

BASELINES = ["Tool", "ISA", "Adj-fill", "XStat"]
#: The fills the Tool technique picks its best from, in its order.
EXISTING_FILLS = ["MT-fill", "R-fill", "0-fill", "1-fill", "B-fill"]
#: Warm-up sets per untraced run; ``setup_s`` counts their median.
SETUP_REPEATS = 3
WARMUP_SEED = 0
NULL = NullTracer()


@dataclass(frozen=True)
class Workload:
    """A fixed amount of pipeline work.

    Attributes:
        name: workload name, as in ``BENCHMARK.json``.
        profiles: Table I profiles taken through the pipeline each round.
        rounds: rounds per run; round ``i`` uses seed ``seed + i``.
        warmup: profile of the untimed warm-up set of the set-up.
        builds_circuit: build each set's circuit (and estimate power);
            otherwise the cube sets are generated during set-up.
        atpg: PODEM cubes for circuits of at most ``ATPG_GATE_LIMIT`` gates.
    """

    name: str
    profiles: Tuple[str, ...]
    rounds: int
    warmup: str
    builds_circuit: bool
    atpg: bool = False


WORKLOADS: Dict[str, Workload] = {
    # The paper's reproduction: ATPG does most of the work, the cube layers
    # run on tiny, dense sets where the cost per call dominates.
    "paper-default": Workload(
        "paper-default",
        ("b01", "b02", "b03", "b04", "b05", "b06", "b07", "b08", "b09", "b10", "b11", "b12", "b13"),
        rounds=10,
        warmup="b08",
        builds_circuit=True,
        atpg=True,
    ),
    # DP-fill as a library on large ATPG cube files: only orderings,
    # fillings and core run, on large sparse sets.  b19 (6666 pins) is left
    # out: it alone takes over half of a round, and with it a run has room
    # for three rounds only, too few samples per shape for steady medians.
    "large-cubes": Workload(
        "large-cubes",
        ("b14", "b15", "b17", "b18", "b20", "b21", "b22"),
        rounds=8,
        warmup="b14",
        builds_circuit=False,
    ),
    # Full-size circuits: construction and power dominate.  b17-b19 are left
    # out because building their circuits alone takes seconds to minutes.
    "fullscale-circuits": Workload(
        "fullscale-circuits",
        ("b14", "b15", "b20", "b21", "b22"),
        rounds=7,
        warmup="b14",
        builds_circuit=True,
    ),
}


class Tally:
    """Checks and calls attempted and failed over a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def call(self, tracer, span: str, fn: Callable[[], object]) -> Tuple[bool, object]:
        """Run ``fn`` inside ``span``; a raise counts as a failed call."""
        self.attempted += 1
        try:
            with tracer.span(span):
                return True, fn()
        except Exception as exc:  # the run goes on; the failure is counted
            self.failed += 1
            self.failures.append(f"{span}: {exc!r}")
            return False, None


@dataclass
class Outcome:
    """One technique's fill of one set."""

    filled: TestSet
    peak: int
    seconds: float = 0.0
    lower_bound: Optional[int] = None
    ordering_peak: Optional[int] = None
    intervals: int = 0
    iterations: int = 0


@dataclass
class SetResult:
    """The numbers a set leaves behind (its fills are checked and dropped)."""

    set_id: str
    wall_s: float
    peaks: Dict[str, int] = field(default_factory=dict)
    power_uw: Dict[str, float] = field(default_factory=dict)
    proposed_s: Optional[float] = None
    gates: int = 0
    detected: int = 0
    faults: int = 0
    intervals: int = 0
    gap: int = 0
    iterations: int = 0


# -- techniques ----------------------------------------------------------------


def _ordered(tracer, name: str, cubes: TestSet) -> TestSet:
    with tracer.span(f"orderings.{name}"):
        return get_ordering(name).order(cubes).ordered


def _filled(tracer, name: str, ordered: TestSet) -> TestSet:
    with tracer.span(f"filling.{name}"):
        return get_filler(name).fill(ordered)


def _peak(tracer, filled: TestSet) -> int:
    with tracer.span("cubes.metrics"):
        return peak_toggles(filled)


def _tool(tracer, cubes: TestSet) -> TestSet:
    ordered = _ordered(tracer, "tool", cubes)
    best, best_peak = None, None
    for name in EXISTING_FILLS:
        candidate = _filled(tracer, name, ordered)
        peak = _peak(tracer, candidate)
        if best_peak is None or peak < best_peak:
            best, best_peak = candidate, peak
    return best


_COMPOSED: Dict[str, Callable] = {
    "Tool": _tool,
    "ISA": lambda tracer, cubes: _filled(tracer, "Adj-fill", _ordered(tracer, "isa", cubes)),
    "Adj-fill": lambda tracer, cubes: _filled(tracer, "Adj-fill", _ordered(tracer, "tool", cubes)),
    "XStat": lambda tracer, cubes: _filled(tracer, "B-fill", _ordered(tracer, "xstat", cubes)),
}


def _baseline(tracer, name: str, cubes: TestSet, compose: bool) -> Outcome:
    if compose:
        filled = _COMPOSED[name](tracer, cubes)
        return Outcome(filled, _peak(tracer, filled))
    outcome = apply_technique(name, cubes)
    return Outcome(outcome.filled, outcome.peak_input_toggles)


def _proposed(tracer, cubes: TestSet, compose: bool) -> Outcome:
    start = time.perf_counter()
    with tracer.span("orderings.i-ordering"):
        result = get_ordering("i-ordering").order(cubes)
    if compose:
        with tracer.span("core.extract_intervals"):
            extraction = result.extraction
        with tracer.span("core.solve_weighted_bcp"):
            solution = solve_weighted_bcp(extraction.intervals, extraction.base_toggles)
        with tracer.span("core.apply_assignment"):
            pin_filled = apply_assignment(extraction, solution.colors)
        filled = result.ordered.filled(pin_filled.T)
        with tracer.span("cubes.metrics"):
            profile = toggle_profile(filled)
        peak = int(profile.max()) if profile.size else 0
        lower_bound, intervals = solution.lower_bound, len(extraction.intervals)
    else:
        report = dp_fill(result.ordered, extraction=result.extraction)
        filled, peak = report.filled, report.peak_toggles
        lower_bound, intervals = report.lower_bound, report.interval_count
    return Outcome(
        filled,
        peak,
        time.perf_counter() - start,
        lower_bound=lower_bound,
        ordering_peak=result.peak,
        intervals=intervals,
        iterations=result.iterations,
    )


def run_techniques(tracer, cubes: TestSet, tally: Tally, compose: bool) -> Dict[str, Outcome]:
    """Every technique of Tables V-VI on ``cubes``; failed calls are left out."""
    outcomes: Dict[str, Outcome] = {}
    for name in TECHNIQUES:
        if name == "Proposed":
            fn = lambda: _proposed(tracer, cubes, compose)  # noqa: E731
        else:
            fn = lambda: _baseline(tracer, name, cubes, compose)  # noqa: E731
        ok, outcome = tally.call(tracer, f"experiments.{name}", fn)
        if ok:
            outcomes[name] = outcome
    return outcomes


# -- checks ----------------------------------------------------------------------


def _has_perfect_matching(covers: np.ndarray) -> bool:
    options = [np.flatnonzero(row).tolist() for row in covers]
    owner = [-1] * covers.shape[1]

    def augment(cube: int, seen: List[bool]) -> bool:
        for row in options[cube]:
            if not seen[row]:
                seen[row] = True
                if owner[row] < 0 or augment(owner[row], seen):
                    owner[row] = cube
                    return True
        return False

    return all(augment(cube, [False] * covers.shape[1]) for cube in range(covers.shape[0]))


def keeps_care_bits(cubes: TestSet, filled: TestSet) -> bool:
    """Whether ``filled`` holds every cube, in some order, with its care bits kept.

    Row ``j`` covers cube ``i`` when ``sign_i . f_j`` equals cube ``i``'s
    count of care ones, where ``sign`` is +1 on care ones and -1 on care
    zeros; the sets agree when covering admits a perfect matching.
    """
    care, rows = cubes.matrix, filled.matrix
    if care.shape != rows.shape:
        return False
    sign = np.zeros(care.shape, dtype=np.float32)
    sign[care == ONE] = 1.0
    sign[care == ZERO] = -1.0
    ones = np.count_nonzero(care == ONE, axis=1)
    # float32 sums of at most n_pins unit terms are exact below 2**24.
    covers = (sign @ (rows == ONE).astype(np.float32).T) == ones[:, None]
    return _has_perfect_matching(covers)


def check_set(cubes: TestSet, outcomes: Dict[str, Outcome], reports, tally: Tally, set_id: str) -> None:
    """The correctness checks of one set, counted into ``tally``."""
    for name, outcome in outcomes.items():
        tally.check(not (outcome.filled.matrix == X).any(), f"{set_id} {name}: X left in fill")
        tally.check(keeps_care_bits(cubes, outcome.filled), f"{set_id} {name}: care bit lost")
    proposed = outcomes.get("Proposed")
    if proposed is not None:
        tally.check(
            proposed.peak == proposed.lower_bound == proposed.ordering_peak,
            f"{set_id} Proposed: peak {proposed.peak}, lower bound {proposed.lower_bound},"
            f" I-Ordering peak {proposed.ordering_peak}",
        )
    for name, report in reports.items():
        figures = (report.peak_power_uw, report.average_power_uw)
        tally.check(
            all(math.isfinite(v) and v >= 0 for v in figures), f"{set_id} {name}: power {figures}"
        )


# -- one set --------------------------------------------------------------------


def _synthetic(tracer, n_pins: int, profile, seed: int) -> TestSet:
    spec = CubeSetSpec(
        n_pins=n_pins,
        n_patterns=profile.n_patterns,
        x_fraction=min(profile.x_fraction, 0.97),
        seed=seed,
    )
    with tracer.span("cubes.generate_cube_set"):
        return generate_cube_set(spec)


def build_cube_sets(workload: Workload, seed: int, tracer=NULL) -> Dict[Tuple[int, str], TestSet]:
    """The cube sets a circuit-free workload generates during set-up."""
    if workload.builds_circuit:
        return {}
    return {
        (i, name): _synthetic(tracer, get_profile(name).test_pins, get_profile(name), seed + i)
        for i in range(workload.rounds)
        for name in workload.profiles
    }


def run_set(
    workload: Workload,
    name: str,
    seed: int,
    tally: Tally,
    tracer=NULL,
    compose: bool = False,
    cubes: Optional[TestSet] = None,
) -> Tuple[SetResult, Dict[str, Outcome], Optional[TestSet]]:
    """Take one profile instance through the workload's pipeline, then check it.

    Circuits are built at their published size (``scale=None``): no profile
    of ``paper-default`` is past the scaling threshold of
    ``build_workload``, and ``fullscale-circuits`` asks for full size.
    """
    profile = get_profile(name)
    set_id = f"{name}/s{seed}"
    tracer.set_id = set_id
    result = SetResult(set_id, 0.0)
    outcomes: Dict[str, Outcome] = {}
    reports = {}
    circuit = None
    start = time.perf_counter()
    with tracer.span("set"):
        if workload.builds_circuit:
            cubes = None
            ok, circuit = tally.call(
                tracer, "circuit.itc99_like", lambda: itc99_like(name, scale=None, seed=seed)
            )
            if ok and compose:
                # Memoised per circuit, so ATPG and power reuse this program.
                ok, _ = tally.call(
                    tracer, "engine.compile_circuit", lambda: get_backend().compiled_program(circuit)
                )
            if ok and workload.atpg and profile.gates <= ATPG_GATE_LIMIT:
                ok, atpg = tally.call(
                    tracer,
                    "atpg.generate_test_cubes",
                    lambda: generate_test_cubes(
                        circuit,
                        max_faults=ATPG_MAX_FAULTS,
                        backtrack_limit=ATPG_BACKTRACK_LIMIT,
                        seed=seed,
                    ),
                )
                if ok:
                    result.detected, result.faults = len(atpg.detected_faults), atpg.total_faults
                    cubes = atpg.cubes
            if ok and (cubes is None or len(cubes) < 4):
                # As ``build_workload`` does: a degenerate ATPG result, or a
                # circuit past the gate limit, gets synthetic cubes.
                ok, cubes = tally.call(
                    tracer, "cubes.generate_cube_set",
                    lambda: _synthetic(NULL, circuit.n_test_pins, profile, seed),
                )
        if cubes is not None:
            outcomes = run_techniques(tracer, cubes, tally, compose)
        if cubes is not None and circuit is not None:
            ok, estimator = tally.call(
                tracer, "power.setup", lambda: PowerEstimator(circuit, seed=seed)
            )
            for technique, outcome in outcomes.items() if ok else ():
                done, report = tally.call(
                    tracer, "power.estimate", lambda: estimator.estimate(outcome.filled)
                )
                if done:
                    reports[technique] = report
    result.wall_s = time.perf_counter() - start
    tracer.set_id = None
    if cubes is None:
        return result, outcomes, None

    check_set(cubes, outcomes, reports, tally, set_id)
    if circuit is not None:
        result.gates = len(circuit.gates)
    result.peaks = {technique: outcome.peak for technique, outcome in outcomes.items()}
    result.power_uw = {technique: report.peak_power_uw for technique, report in reports.items()}
    proposed = outcomes.get("Proposed")
    if proposed is not None:
        result.proposed_s = proposed.seconds
        result.intervals = proposed.intervals
        result.iterations = proposed.iterations
        result.gap = proposed.peak - proposed.lower_bound
    return result, outcomes, cubes


def check_composition(workload: Workload, name: str, seed: int, tally: Tally) -> None:
    """Check that the composed techniques of one set equal ``apply_technique``'s."""
    cubes = None
    if not workload.builds_circuit:
        cubes = _synthetic(NULL, get_profile(name).test_pins, get_profile(name), seed)
    _, outcomes, cubes = run_set(workload, name, seed, tally, Tracer(), True, cubes)
    for technique, outcome in outcomes.items():
        ok, reference = tally.call(NULL, "apply_technique", lambda: apply_technique(technique, cubes))
        if ok:
            tally.check(
                reference.filled == outcome.filled and reference.peak_input_toggles == outcome.peak,
                f"{name}/s{seed} {technique}: composed output differs from apply_technique",
            )


# -- a run ----------------------------------------------------------------------


@dataclass
class Run:
    """Everything one run measured."""

    workload: Workload
    build_s: float
    warmup_s: List[float]
    results: List[SetResult]
    tally: Tally
    tracer: Optional[Tracer] = None
    traced: List[SetResult] = field(default_factory=list)
    loop_s: float = 0.0


def run_workload(workload: Workload, seed: int, trace: bool) -> Run:
    """Set up, then run the workload's rounds (each set twice when traced).

    Set-up builds the rounds' inputs once (many generator calls, timed as a
    whole) and runs the warm-up set ``SETUP_REPEATS`` times; ``setup_s``
    takes the median warm-up.  The traced run warms up once.
    """
    tally = Tally()
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    inputs = build_cube_sets(workload, seed, tracer or NULL)
    build_s = time.perf_counter() - start
    warmups: List[float] = []
    for _ in range(1 if trace else SETUP_REPEATS):
        start = time.perf_counter()
        # The untimed warm-up set is the same for every seed, so that set-up
        # work does not vary with the seed; no cache outlives its set.
        check_composition(workload, workload.warmup, WARMUP_SEED, tally)
        warmups.append(time.perf_counter() - start)

    run = Run(workload, build_s, warmups, [], tally, tracer)
    start = time.perf_counter()
    for i in range(workload.rounds):
        for name in workload.profiles:
            cubes = inputs.get((i, name))
            run.results.append(run_set(workload, name, seed + i, tally, cubes=cubes)[0])
            if tracer is not None:
                run.traced.append(run_set(workload, name, seed + i, tally, tracer, True, cubes)[0])
    run.loop_s = time.perf_counter() - start
    return run


# -- metrics ----------------------------------------------------------------------


def tail(samples: List[float]) -> Tuple[float, float]:
    """The highest percentile of ``samples`` with at least ten samples beyond it.

    Returns ``(value, percentile)``; with ten samples or fewer it is the maximum.
    """
    ordered = sorted(samples)
    index = max(len(ordered) - 11, 0) if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def slowest_quarter_mean(samples: List[float]) -> float:
    """Mean of the slowest quarter of ``samples`` (at least one sample)."""
    ordered = sorted(samples)
    return statistics.fmean(ordered[-max(len(ordered) // 4, 1):])


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def quality(results: List[SetResult]) -> Dict[str, float]:
    """Table V and VI figures over the sets: they repeat exactly for a seed."""
    proposed = [r.peaks["Proposed"] for r in results if "Proposed" in r.peaks]
    baseline = [
        min(r.peaks[name] for name in BASELINES)
        for r in results
        if all(name in r.peaks for name in BASELINES)
    ]
    power = [r.power_uw["Proposed"] for r in results if "Proposed" in r.power_uw]
    return {
        "proposed_peak_mean": _mean(proposed),
        "baseline_peak_mean": _mean(baseline),
        "proposed_power_uw_mean": _mean(power),
    }


def digest(results: List[SetResult]) -> str:
    """Hash of every set's peak per technique and its power."""
    h = hashlib.blake2b(digest_size=12)
    for r in results:
        for technique in TECHNIQUES:
            h.update(
                f"{r.set_id} {technique} {r.peaks.get(technique)} {r.power_uw.get(technique)!r}\n".encode()
            )
    return h.hexdigest()


def end_to_end(run: Run, import_s: float) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics of an untraced run, as ``name -> (value, unit)``.

    Proposed latency is gated as means, not as the median and tail
    percentile of the per-set samples (``run.py`` prints those).  The host
    switches between a fast and a ~1.8x slower speed for seconds to minutes,
    so a percentile of a run's samples jumps between the two modes with the
    slow share of the run; a mean moves in proportion to it.
    """
    samples = [r.proposed_s * 1e3 for r in run.results if r.proposed_s is not None]
    figures = quality(run.results)
    wall = sum(r.wall_s for r in run.results)
    return {
        "setup_s": (import_s + run.build_s + statistics.median(run.warmup_s), "s"),
        "sets_per_s": (len(run.results) / wall if wall else 0.0, "sets/s"),
        "proposed_ms.mean": (_mean(samples), "ms"),
        "proposed_ms.slowest_quarter_mean": (slowest_quarter_mean(samples) if samples else 0.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "proposed_peak_mean": (figures["proposed_peak_mean"], "toggles"),
        "baseline_peak_mean": (figures["baseline_peak_mean"], "toggles"),
        "ok_frac": (1.0 - run.tally.failed / run.tally.attempted, "fraction"),
    }


#: Every span the traced run records, as ``<layer>.<call>``.
SPANS = (
    ["set"]
    + [f"experiments.{name}" for name in TECHNIQUES]
    + ["circuit.itc99_like", "engine.compile_circuit", "atpg.generate_test_cubes"]
    + ["cubes.generate_cube_set", "cubes.metrics"]
    + [f"orderings.{name}" for name in ("tool", "isa", "xstat", "i-ordering")]
    + ["core.extract_intervals", "core.solve_weighted_bcp", "core.apply_assignment"]
    + [f"filling.{name}" for name in EXISTING_FILLS[:4] + ["Adj-fill", "B-fill"]]
    + ["power.setup", "power.estimate"]
)
LAYERS = ["circuit", "engine", "atpg", "cubes", "orderings", "core", "filling", "power", "experiments"]


def per_layer(run: Run) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of a traced run, as ``name -> (value, unit)``."""
    summary = run.tracer.summary()
    unknown = set(summary) - set(SPANS)
    if unknown:
        raise ValueError(f"spans outside the declared list: {sorted(unknown)}")
    metrics: Dict[str, Tuple[float, str]] = {}
    for name in SPANS:
        entry = summary.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")
        metrics[f"{name}.calls"] = (entry["calls"], "count")
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (
            sum(e["self_s"] for n, e in summary.items() if n.split(".")[0] == layer),
            "s",
        )
    traced = run.traced
    faults = sum(r.faults for r in traced)
    plain_wall = sum(r.wall_s for r in run.results)
    traced_wall = sum(r.wall_s for r in traced)
    metrics.update(
        {
            "circuit.gates": (sum(r.gates for r in traced), "count"),
            "atpg.detected_frac": (sum(r.detected for r in traced) / faults if faults else 0.0, "fraction"),
            "core.intervals": (sum(r.intervals for r in traced), "count"),
            "core.gap": (sum(r.gap for r in traced), "toggles"),
            "orderings.i-ordering.iterations": (sum(r.iterations for r in traced), "count"),
            "power.proposed_peak_uw_mean": (quality(traced)["proposed_power_uw_mean"], "uW"),
            "trace.coverage": (run.tracer.coverage(), "fraction"),
            "trace.overhead_pct": (100.0 * (traced_wall / plain_wall - 1.0) if plain_wall else 0.0, "%"),
        }
    )
    return metrics
