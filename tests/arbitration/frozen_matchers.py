"""Frozen copies of the original VOQ matchers, kept as test oracles.

``frozen_solve_assignment``, :class:`FrozenMWMOracle` and
:class:`FrozenISLIPArbiter` are the straightforward implementations the
fast matchers in :mod:`repro.arbitration.mwm` and
:mod:`repro.arbitration.islip` replaced: a full shortest-augmenting-path
search for every row, and per-iteration request sets.  They play the
role :class:`repro.core.reference.ReferenceHiRiseSwitch` plays for the
kernels: the fast matchers must return the same assignment, the same
pointers and the same observer stream on every input.  Do not optimise
these copies.
"""

from typing import Dict, List, Tuple

_INF = float("inf")


def frozen_solve_assignment(cost: List[List[float]]) -> List[int]:
    """The original O(n^3) Hungarian: one search per row, zero or not."""
    n = len(cost)
    if n == 0:
        return []
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match_col = [0] * (n + 1)
    way = [0] * (n + 1)
    for row in range(1, n + 1):
        match_col[0] = row
        j0 = 0
        minv = [_INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            delta = _INF
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match_col[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
    assign = [0] * n
    for j in range(1, n + 1):
        if match_col[j]:
            assign[match_col[j] - 1] = j - 1
    return assign


class FrozenMWMOracle:
    """The original MWM oracle: rotated element-wise cost build."""

    def __init__(self, num_ports: int) -> None:
        self.num_ports = num_ports
        self._offset = 0

    def match(self, weights, observer=None) -> Dict[int, int]:
        n = self.num_ports
        if len(weights) != n or any(len(row) != n for row in weights):
            raise ValueError(f"weights must be {n}x{n}")
        offset = self._offset
        self._offset = (offset + 1) % n
        if all(weights[i][j] <= 0 for i in range(n) for j in range(n)):
            return {}
        cost = [
            [
                -float(max(weights[(i + offset) % n][(j + offset) % n], 0))
                for j in range(n)
            ]
            for i in range(n)
        ]
        assign = frozen_solve_assignment(cost)
        matching = {}
        for row, col in enumerate(assign):
            inp = (row + offset) % n
            out = (col + offset) % n
            if weights[inp][out] > 0:
                matching[inp] = out
        return matching


class FrozenISLIPArbiter:
    """The original iSLIP: request sets rebuilt in every iteration."""

    def __init__(self, num_ports: int, iterations: int = 1) -> None:
        self.num_ports = num_ports
        self.iterations = iterations
        self.grant_pointers = [0] * num_ports
        self.accept_pointers = [0] * num_ports

    def _first_at_or_after(self, pointer: int, candidates: set) -> int:
        for offset in range(self.num_ports):
            slot = (pointer + offset) % self.num_ports
            if slot in candidates:
                return slot
        raise AssertionError("unreachable: candidates is non-empty")

    def match(self, weights, observer=None) -> Dict[int, int]:
        n = self.num_ports
        if len(weights) != n or any(len(row) != n for row in weights):
            raise ValueError(f"weights must be {n}x{n}")

        matching: Dict[int, int] = {}
        matched_outputs = set()
        for iteration in range(self.iterations):
            requests: Dict[int, set] = {}
            for out in range(n):
                if out in matched_outputs:
                    continue
                requesting = {
                    inp
                    for inp in range(n)
                    if inp not in matching and weights[inp][out] > 0
                }
                if requesting:
                    requests[out] = requesting
            if not requests:
                break

            grants: Dict[int, List[int]] = {}
            grant_pairs: List[Tuple[int, int]] = []
            for out, requesting in requests.items():
                inp = self._first_at_or_after(
                    self.grant_pointers[out], requesting
                )
                grants.setdefault(inp, []).append(out)
                grant_pairs.append((out, inp))
            if observer is not None:
                observer(iteration, "grant", grant_pairs)

            accept_pairs: List[Tuple[int, int]] = []
            made_progress = False
            for inp, granting in grants.items():
                out = self._first_at_or_after(
                    self.accept_pointers[inp], set(granting)
                )
                matching[inp] = out
                matched_outputs.add(out)
                accept_pairs.append((inp, out))
                made_progress = True
                if iteration == 0:
                    self.grant_pointers[out] = (inp + 1) % n
                    self.accept_pointers[inp] = (out + 1) % n
            if observer is not None:
                observer(iteration, "accept", accept_pairs)
            if not made_progress:
                break
        return matching
