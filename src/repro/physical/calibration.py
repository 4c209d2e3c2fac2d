"""Calibration of the analytical cost models against the paper's anchors.

The delay, energy and area models are linear in a small set of physical
constants (per-stage overhead, per-span wire cost, quadratic long-wire
cost, per-crossing TSV cost, per-cross-point area, per-TSV keep-out area).
The paper publishes five fully characterised design points — the 2D
64-radix switch, the 4-layer folded switch, and the 1/2/4-channel 4-layer
Hi-Rise (Tables I and IV) — which over-determine each model; the constants
are obtained by non-negative least squares over those anchors, mirroring
how the paper calibrated its SPICE models against Swizzle-Switch silicon.

Residuals at the anchors are ~1-3% and are asserted in the test suite.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List

import numpy as np

from repro.core.config import HiRiseConfig
from repro.physical.geometry import (
    SwitchGeometry,
    flat2d_geometry,
    folded3d_geometry,
    hirise_geometry,
)

# ----------------------------------------------------------------------
# Published anchors (Tables I, IV and V; 64-radix, 4 layers, 128-bit)
# ----------------------------------------------------------------------
PAPER_FREQUENCY_GHZ: Dict[str, float] = {
    "2d": 1.69,
    "folded": 1.58,
    "hirise_c4": 2.24,   # L-2-L LRG variant (Table IV)
    "hirise_c2": 2.46,
    "hirise_c1": 2.64,
    "hirise_c4_clrg": 2.2,  # Table V
}

PAPER_ENERGY_PJ: Dict[str, float] = {
    "2d": 71.0,
    "folded": 73.0,
    "hirise_c4": 42.0,
    "hirise_c2": 39.0,
    "hirise_c1": 37.0,
    "hirise_c4_clrg": 44.0,
}

PAPER_AREA_MM2: Dict[str, float] = {
    "2d": 0.672,
    "folded": 0.705,
    "hirise_c4": 0.451,
    "hirise_c2": 0.315,
    "hirise_c1": 0.247,
}

PAPER_TSV_COUNT: Dict[str, int] = {
    "2d": 0,
    "folded": 8192,
    "hirise_c4": 6144,
    "hirise_c2": 3072,
    "hirise_c1": 1536,
}


def _anchor_geometries() -> Dict[str, SwitchGeometry]:
    hirise = lambda c: hirise_geometry(
        HiRiseConfig(radix=64, layers=4, channel_multiplicity=c,
                     arbitration="l2l_lrg")
    )
    return {
        "2d": flat2d_geometry(64),
        "folded": folded3d_geometry(64, 4),
        "hirise_c4": hirise(4),
        "hirise_c2": hirise(2),
        "hirise_c1": hirise(1),
    }


# ----------------------------------------------------------------------
# Fitted constant bundles
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DelayConstants:
    """Cycle-time model constants (nanoseconds at 0.8 um TSV pitch)."""

    per_stage_ns: float        # sense amp + precharge + driver per stage
    per_span_ns: float         # wire RC per cross-point span (repeated)
    per_span_sq_ns: float      # super-linear long-wire RC
    per_tsv_crossing_ns: float # TSV loading per vertical crossing
    clrg_extra_ns: float       # class-counter mux adder (Table V)


@dataclass(frozen=True)
class EnergyConstants:
    """Energy-per-transaction model constants (picojoules, 128-bit)."""

    per_stage_pj: float
    per_span_pj: float
    per_span_sq_pj: float
    per_tsv_crossing_pj: float
    clrg_extra_pj: float


@dataclass(frozen=True)
class AreaConstants:
    """Area model constants (mm^2 at 0.8 um TSV pitch, 128-bit buses)."""

    per_crosspoint_mm2: float
    per_tsv_mm2: float


def _delay_design_row(geometry: SwitchGeometry) -> List[float]:
    return [
        float(geometry.num_stages),
        float(geometry.span_linear),
        float(geometry.span_quadratic),
        float(geometry.tsv_crossings),
    ]


def _nnls(matrix: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Non-negative least-squares solution of ``matrix @ x = target``.

    scipy is imported on first use rather than with this module, so
    importing the package does not pay for it.
    """
    from scipy.optimize import nnls

    solution, _residual = nnls(matrix, target)
    return solution


@lru_cache(maxsize=1)
def calibrated_delay() -> DelayConstants:
    """Fit the cycle-time constants to the five published frequencies."""
    geometries = _anchor_geometries()
    matrix = np.array([_delay_design_row(g) for g in geometries.values()])
    target = np.array(
        [1.0 / PAPER_FREQUENCY_GHZ[name] for name in geometries]
    )
    solution = _nnls(matrix, target)
    clrg_extra = (
        1.0 / PAPER_FREQUENCY_GHZ["hirise_c4_clrg"]
        - 1.0 / PAPER_FREQUENCY_GHZ["hirise_c4"]
    )
    return DelayConstants(*solution, clrg_extra_ns=clrg_extra)


@lru_cache(maxsize=1)
def calibrated_energy() -> EnergyConstants:
    """Fit the energy constants to the five published energy points."""
    geometries = _anchor_geometries()
    matrix = np.array([_delay_design_row(g) for g in geometries.values()])
    target = np.array([PAPER_ENERGY_PJ[name] for name in geometries])
    solution = _nnls(matrix, target)
    clrg_extra = (
        PAPER_ENERGY_PJ["hirise_c4_clrg"] - PAPER_ENERGY_PJ["hirise_c4"]
    )
    return EnergyConstants(*solution, clrg_extra_pj=clrg_extra)


@lru_cache(maxsize=1)
def calibrated_area() -> AreaConstants:
    """Fit the area constants to the five published area points."""
    geometries = _anchor_geometries()
    matrix = np.array(
        [
            [float(g.crosspoints), float(g.tsv_count(128))]
            for g in geometries.values()
        ]
    )
    target = np.array([PAPER_AREA_MM2[name] for name in geometries])
    solution = _nnls(matrix, target)
    return AreaConstants(*solution)
