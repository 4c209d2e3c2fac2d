"""Maximum-weight matching oracle for VOQ scheduling quality bounds.

MWM scheduling (match the inputs to outputs maximizing total weight
served — head-of-line age in :class:`repro.switches.VOQSwitch`, i.e.
the oldest-cell-first discipline) is the classical quality upper bound
for input-queued switches: it achieves 100% throughput for any
admissible traffic but is far too slow for hardware — which is exactly
why iSLIP, and in this repo's framing the paper's single-cycle CLRG,
exist.  The oracle lets ``repro compare-schedulers`` place every
practical scheduler between two anchors: round-robin composition at
the bottom and MWM at the top.

The solver is a scipy-free Hungarian algorithm (Jonker-Volgenant style
shortest augmenting paths with dual potentials, O(n^3) in the worst
case).  Weights are negated into a min-cost assignment on a zero-padded
square matrix, and zero-weight pairs are dropped from the returned
matching so only real requests are ever matched.  Rows with no request
skip their search (see :func:`solve_assignment`), which at radix 64 is
most rows: busy, cooling and empty inputs all present zero rows.
"""

from typing import List

from repro.arbitration.matching import Matching, WeightMatrix

__all__ = ["MWMOracle", "solve_assignment"]

_INF = float("inf")


def solve_assignment(cost: List[List[float]]) -> List[int]:
    """Minimum-cost assignment on a square matrix.

    Returns ``assign`` with ``assign[row] = column``.  Classic Hungarian
    with row/column potentials ``u``/``v`` and one shortest-augmenting-
    path search per row; exact on integer inputs (comparisons only, no
    scaling).

    **All-zero rows need no search.**  For a row whose costs are all
    zero the search's outcome is known in advance:

    * Duals only move on columns the search marks used, and a used
      column is always a matched one (the search stops at the first
      unmatched column it reaches).  Columns never become unmatched, so
      every unmatched column still has ``v = 0``.
    * After a row's first scan every ``delta`` is a minimum of reduced
      costs, which dual feasibility keeps ``>= 0``; so ``v <= 0``
      everywhere.  The row's own ``u`` is 0 when its search starts, so
      its reduced costs ``0 - 0 - v[j] = -v[j]`` are all ``>= 0``, and
      every unmatched column sits at exactly 0 from the first scan.
    * Hence every ``delta`` of the search is 0 and no dual changes.
      Each step takes the lowest-index unused column at 0; every column
      below the smallest unmatched column ``J`` is matched, so the
      search can only stop at ``J``, and ``way[J] = 0`` from the first
      scan (nothing later is strictly below 0).

    So such a row is matched to ``J`` and nothing else changes.  Because
    columns never become unmatched, ``J`` is one index that only moves
    forward.  Warm-starting the duals from an earlier solve is *not*
    equivalent: it changes which of several optimal matchings the
    row-by-row search breaks ties toward.
    """
    n = len(cost)
    if n == 0:
        return []
    # 1-based potentials/links; way[j] remembers the previous column on
    # the alternating path that reached column j.
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match_col = [0] * (n + 1)  # match_col[j] = row matched to column j
    way = [0] * (n + 1)
    # 1-based cost rows (index 0 is never read).
    rows = [None] + [[0.0, *row] for row in cost]
    free_col = 1  # every column below it is matched
    for row in range(1, n + 1):
        if not any(cost[row - 1]):
            while match_col[free_col]:
                free_col += 1
            match_col[free_col] = row
            continue
        match_col[0] = row
        j0 = 0
        minv = [_INF] * (n + 1)
        used_cols = [0]
        unused = list(range(1, n + 1))  # ascending: keeps the tie-break
        while True:
            i0 = match_col[j0]
            cost_row = rows[i0]
            u_i0 = u[i0]
            delta = _INF
            j1 = 0
            for j in unused:
                cur = cost_row[j] - u_i0 - v[j]
                best = minv[j]
                if cur < best:
                    minv[j] = best = cur
                    way[j] = j0
                if best < delta:
                    delta = best
                    j1 = j
            if delta:
                for j in used_cols:
                    u[match_col[j]] += delta
                    v[j] -= delta
                for j in unused:
                    minv[j] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
            used_cols.append(j0)
            unused.remove(j0)
        while j0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
    assign = [0] * n
    for j in range(1, n + 1):
        if match_col[j]:
            assign[match_col[j] - 1] = j - 1
    return assign


class MWMOracle:
    """Stateless maximum-weight matcher over VOQ occupancy matrices.

    Mirrors the :class:`repro.arbitration.ISLIPArbiter` interface
    (``match(weights) -> Dict[input, output]``) so the VOQ switch can
    swap schedulers without caring which family it holds.  Ties between
    equal-weight matchings rotate: each call relabels inputs and outputs
    by an advancing offset before the row-major solve, so the port that
    wins a tie cycles round-robin instead of pinning to index 0 (a fixed
    tie-break starves high-index ports under light symmetric load, where
    nearly every request has weight 1).  The rotation is a permutation,
    so the matching weight is still maximal, and there is no RNG —
    seeded runs stay reproducible.
    """

    def __init__(self, num_ports: int) -> None:
        if num_ports < 1:
            raise ValueError("MWM needs at least one port")
        self.num_ports = num_ports
        self._offset = 0

    def match(self, weights: WeightMatrix, observer=None) -> Matching:
        """Maximum-weight matching over ``weights`` (input -> output).

        ``observer`` is accepted for interface parity with iSLIP and
        ignored — MWM is single-shot, there are no rounds to trace.
        """
        n = self.num_ports
        if len(weights) != n or any(len(row) != n for row in weights):
            raise ValueError(f"weights must be {n}x{n}")
        offset = self._offset
        self._offset = (offset + 1) % n
        # Negate for min-cost; clamp negatives (absent requests) to 0
        # so they never look attractive.  Rows and columns are rotated
        # by the tie-break offset; the permutation is undone below.
        # Rows without a request share one zero row.
        zero_row = [0.0] * n
        cost = []
        any_request = False
        for i in range(n):
            row = weights[(i + offset) % n]
            if max(row) > 0:
                any_request = True
                rotated = list(row[offset:]) + list(row[:offset])
                cost.append([-float(max(weight, 0)) for weight in rotated])
            else:
                cost.append(zero_row)
        if not any_request:
            return {}
        assign = solve_assignment(cost)
        matching = {}
        for row, col in enumerate(assign):
            inp = (row + offset) % n
            out = (col + offset) % n
            if weights[inp][out] > 0:
                matching[inp] = out
        return matching
