"""Generic parameter sweeps with replication and confidence intervals.

The figure functions cover the paper's sweeps; this module provides the
machinery for *new* studies: cross any parameter grid
(:func:`parameter_grid`) with any scalar measurement, optionally
replicating each point over seeds to get confidence intervals, and
render or export the result like any other harness product.
:func:`run_sweep` is :func:`repro.harness.parallel.run_sweep`, re-exported
here: every sweep, serial or not, runs through the one executor in
:mod:`repro.harness.parallel`, with its fleet batching, worker pool and
optional checkpoint/resume.
"""

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.parallel import run_sweep  # noqa: F401 (re-export)
from repro.metrics.confidence import ConfidenceInterval


@dataclass(frozen=True)
class SweepPoint:
    """One measured grid point."""

    parameters: Dict[str, object]
    value: float
    interval: Optional[ConfidenceInterval] = None


Measurement = Callable[..., float]
"""Measurement callable: keyword parameters (+ ``seed``) -> scalar."""


def parameter_grid(**axes: Sequence) -> List[Dict[str, object]]:
    """Cross the named axes into a list of parameter dictionaries.

    >>> parameter_grid(a=[1, 2], b=["x"])
    [{'a': 1, 'b': 'x'}, {'a': 2, 'b': 'x'}]
    """
    if not axes:
        return [{}]
    names = list(axes)
    combinations = itertools.product(*(axes[name] for name in names))
    return [dict(zip(names, combo)) for combo in combinations]


def render_sweep(points: Sequence[SweepPoint], title: str) -> str:
    """Aligned text rendering of sweep results."""
    lines = [title, "=" * len(title)]
    if not points:
        lines.append("(no points)")
        return "\n".join(lines)
    names = list(points[0].parameters)
    header = "  ".join(f"{name:>12}" for name in names) + f"  {'value':>12}"
    if points[0].interval is not None:
        header += f"  {'95% hw':>10}"
    lines.append(header)
    for point in points:
        row = "  ".join(
            f"{str(point.parameters[name]):>12}" for name in names
        )
        row += f"  {point.value:>12.4g}"
        if point.interval is not None:
            row += f"  {point.interval.half_width:>10.3g}"
        lines.append(row)
    return "\n".join(lines)


def to_json(points: Sequence[SweepPoint], title: Optional[str] = None) -> str:
    """Machine-readable JSON rendering of sweep results.

    The schema mirrors :class:`SweepPoint`: a ``points`` list of
    ``{parameters, value}`` objects, each with an ``interval`` object
    (``mean``/``half_width``/``confidence``/``observations``) when the
    point was replicated.  Non-JSON parameter values (enums, objects) are
    stringified rather than rejected.
    """
    payload: Dict[str, object] = {}
    if title is not None:
        payload["title"] = title
    payload["points"] = [
        {
            "parameters": point.parameters,
            "value": point.value,
            **(
                {
                    "interval": {
                        "mean": point.interval.mean,
                        "half_width": point.interval.half_width,
                        "confidence": point.interval.confidence,
                        "observations": point.interval.observations,
                    }
                }
                if point.interval is not None else {}
            ),
        }
        for point in points
    ]
    return json.dumps(payload, indent=2, default=str)


def to_series(
    points: Sequence[SweepPoint],
    x: str,
    series_by: Optional[str] = None,
) -> Dict[str, List[Tuple[float, float]]]:
    """Regroup sweep points into figure-style series for export.

    Args:
        x: Parameter name used as the x-axis.
        series_by: Optional parameter whose values name the series (a
            single unnamed series otherwise).
    """
    series: Dict[str, List[Tuple[float, float]]] = {}
    for point in points:
        key = (
            str(point.parameters[series_by]) if series_by is not None
            else "sweep"
        )
        series.setdefault(key, []).append(
            (point.parameters[x], point.value)
        )
    return series
