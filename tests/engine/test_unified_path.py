"""The unified kernel substrate reproduces the pre-refactor selections.

``tests/data/unified_path_pins.json`` was generated by running the
PR 2 dual-path implementations (separate direct scoring loops) over
fixed ``random_instance`` grids and recording ``(F(U), U)`` per
algorithm.  After the collapse onto the single index-based substrate,
every algorithm — through the legacy row signature, through an explicit
kernel on either backend, and through the engine — must still produce
exactly those selections.  This is the refactor's no-behavior-change
certificate; regenerate the pins only for a deliberate semantic change.
"""

import json
from pathlib import Path

import pytest

from repro.api import EngineConfig
from repro.core.objectives import ObjectiveKind
from repro.engine import (
    ALGORITHMS,
    DiversificationEngine,
    ScoringKernel,
    numpy_available,
)
from repro.algorithms.incremental import early_termination_top_k
from repro.workloads.synthetic import random_instance

PINS = json.loads(
    (Path(__file__).parent.parent / "data" / "unified_path_pins.json").read_text()
)

KINDS = {
    "max_sum": ObjectiveKind.MAX_SUM,
    "max_min": ObjectiveKind.MAX_MIN,
    "mono": ObjectiveKind.MONO,
}

BACKENDS = [False] + ([True] if numpy_available() else [])


def pin_instance(pin):
    return random_instance(
        n=pin["n"],
        k=pin["k"],
        kind=KINDS[pin["kind"]],
        lam=pin["lam"],
        seed=pin["seed"],
    )


def check(pin, result):
    assert result is not None
    value, rows = result[0], result[1]
    assert value == pytest.approx(pin["value"], rel=1e-9, abs=1e-9)
    assert [list(row.values) for row in rows] == pin["rows"]


def pin_id(pin):
    return f"{pin['algorithm']}-{pin['kind']}-lam{pin['lam']}-s{pin['seed']}"


@pytest.mark.parametrize("pin", PINS, ids=pin_id)
def test_legacy_signature_matches_pins(pin):
    instance = pin_instance(pin)
    if pin["algorithm"] == "early_termination_top_k":
        result = early_termination_top_k(instance)
        assert result.consumed == pin["consumed"]
        check(pin, (result.value, result.selected))
        return
    check(pin, ALGORITHMS[pin["algorithm"]](instance, None))


@pytest.mark.parametrize("use_numpy", BACKENDS)
@pytest.mark.parametrize("pin", PINS, ids=pin_id)
def test_explicit_kernel_matches_pins(pin, use_numpy):
    instance = pin_instance(pin)
    kernel = ScoringKernel(instance, use_numpy=use_numpy)
    if pin["algorithm"] == "early_termination_top_k":
        result = early_termination_top_k(instance, kernel=kernel)
        assert result.consumed == pin["consumed"]
        check(pin, (result.value, result.selected))
        return
    check(pin, ALGORITHMS[pin["algorithm"]](instance, kernel))


@pytest.mark.parametrize("pin", PINS, ids=pin_id)
def test_spilling_kernel_matches_pins(pin, tmp_path):
    """A memory-bounded kernel (a 3×3 grid of which two tiles stay
    resident) is still the same substrate: every pinned selection
    survives tiles being evicted mid-selection — rebuilt on touch
    without a spill directory, read back from the spill segment with
    ``spill_dir``."""
    for spill_dir in (None, str(tmp_path)):
        instance = pin_instance(pin)
        config = EngineConfig(
            storage="tiled",
            block_size=4,
            max_resident_tiles=2,
            spill_dir=spill_dir,
        )
        kernel = ScoringKernel(instance, config=config)
        if pin["algorithm"] == "early_termination_top_k":
            result = early_termination_top_k(instance, kernel=kernel)
            assert result.consumed == pin["consumed"]
            check(pin, (result.value, result.selected))
            continue
        check(pin, ALGORITHMS[pin["algorithm"]](instance, kernel))


@pytest.mark.parametrize("pin", PINS, ids=pin_id)
def test_workers_spilling_kernel_matches_pins(pin, tmp_path):
    """A ``workers=2`` full build (threaded on NumPy, serial on pure
    Python) into a grid of which two tiles stay resident, spilled to the
    segment and read back row by row, is still the same substrate on
    both backends."""
    config = EngineConfig(
        storage="tiled",
        block_size=4,
        max_resident_tiles=2,
        spill_dir=str(tmp_path),
        workers=2,
    )
    for use_numpy in BACKENDS:
        instance = pin_instance(pin)
        kernel = ScoringKernel(instance, use_numpy=use_numpy, config=config)
        kernel.materialize_all()
        if pin["algorithm"] == "early_termination_top_k":
            result = early_termination_top_k(instance, kernel=kernel)
            assert result.consumed == pin["consumed"]
            check(pin, (result.value, result.selected))
            continue
        check(pin, ALGORITHMS[pin["algorithm"]](instance, kernel))


@pytest.mark.parametrize(
    "pin",
    [p for p in PINS if p["algorithm"] in ALGORITHMS and p["seed"] == 0],
    ids=pin_id,
)
def test_engine_dispatch_matches_pins(pin):
    instance = pin_instance(pin)
    engine = DiversificationEngine(algorithm=pin["algorithm"])
    result = engine.run(instance)
    check(pin, (result.value, result.rows))


def test_pins_cover_every_registered_algorithm():
    pinned = {p["algorithm"] for p in PINS}
    missing = set(ALGORITHMS) - pinned
    assert not missing, f"ALGORITHMS entries without pins: {sorted(missing)}"
