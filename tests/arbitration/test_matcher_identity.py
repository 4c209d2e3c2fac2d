"""The fast VOQ matchers are bit-identical to their frozen originals.

:mod:`frozen_matchers` keeps the original Hungarian solve and the
original iSLIP match.  Every test here drives the fast matcher and its
frozen twin with the same inputs and requires the same outputs: the
same assignment from ``solve_assignment``, the same ``MWMOracle.match``
result at every rotation offset, and for iSLIP the same matching, the
same grant/accept pointers and the same observer stream.  The inputs
cover what the VOQ switch produces at radix 64 (mostly all-zero rows,
heavy ties among weight-1 requests, pointers warmed by earlier cycles)
plus the weights of a live radix-64 VOQ run.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frozen_matchers import (
    FrozenISLIPArbiter,
    FrozenMWMOracle,
    frozen_solve_assignment,
)
from repro.arbitration.islip import ISLIPArbiter
from repro.arbitration.matching import matching_weight
from repro.arbitration.mwm import MWMOracle, solve_assignment
from repro.core.config import HiRiseConfig
from repro.network.engine import Simulation
from repro.switches import make_switch
from repro.traffic import UniformRandomTraffic

SIZES = (1, 2, 3, 5, 8, 16, 33, 64)


def random_weights(rng, n, zero_rows=0.5, density=0.3, max_weight=3):
    """A VOQ-like weight matrix: forced zero rows, ties, a few negatives.

    ``max_weight=1`` makes every request tie, the common case under
    light load where head-of-line ages are all 1.
    """
    weights = []
    for _ in range(n):
        if rng.random() < zero_rows:
            weights.append([0] * n)
            continue
        weights.append([
            rng.randint(1, max_weight) if rng.random() < density
            else rng.choice((0, 0, 0, -1))
            for _ in range(n)
        ])
    return weights


def negated_cost(weights):
    return [[-float(max(w, 0)) for w in row] for row in weights]


def mwm_pair(n, offset):
    fast, frozen = MWMOracle(n), FrozenMWMOracle(n)
    fast._offset = frozen._offset = offset
    return fast, frozen


def islip_pair(n, iterations, rng=None):
    fast = ISLIPArbiter(n, iterations)
    frozen = FrozenISLIPArbiter(n, iterations)
    if rng is not None:  # warmed, desynchronized pointers
        grant = [rng.randrange(n) for _ in range(n)]
        accept = [rng.randrange(n) for _ in range(n)]
        fast.grant_pointers, frozen.grant_pointers = list(grant), grant
        fast.accept_pointers, frozen.accept_pointers = list(accept), accept
    return fast, frozen


def assert_islip_identical(fast, frozen, weights):
    fast_rounds, frozen_rounds = [], []
    fast_match = fast.match(
        weights, observer=lambda *event: fast_rounds.append(event)
    )
    frozen_match = frozen.match(
        weights, observer=lambda *event: frozen_rounds.append(event)
    )
    assert fast_match == frozen_match
    assert fast_rounds == frozen_rounds
    assert fast.grant_pointers == frozen.grant_pointers
    assert fast.accept_pointers == frozen.accept_pointers


class TestSolveAssignment:
    @pytest.mark.parametrize("n", SIZES)
    def test_seeded_matrices(self, n):
        rng = random.Random(n)
        for _ in range(40 if n < 64 else 8):
            cost = negated_cost(random_weights(
                rng, n,
                zero_rows=rng.random(),
                density=rng.random(),
                max_weight=rng.choice((1, 2, 5)),
            ))
            assert solve_assignment(cost) == frozen_solve_assignment(cost)

    def test_all_zero_matrix(self):
        cost = [[0.0] * 16 for _ in range(16)]
        assert solve_assignment(cost) == frozen_solve_assignment(cost)

    def test_positive_costs_and_zero_rows(self):
        # A generic min-cost input: positive costs next to zero rows.
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 12)
            cost = [
                [0.0] * n if rng.random() < 0.4
                else [float(rng.randint(-4, 4)) for _ in range(n)]
                for _ in range(n)
            ]
            assert solve_assignment(cost) == frozen_solve_assignment(cost)

    def test_empty(self):
        assert solve_assignment([]) == []


class TestMWMOracle:
    @pytest.mark.parametrize("n", (2, 5, 16, 64))
    def test_full_rotation_of_the_offset(self, n):
        rng = random.Random(100 + n)
        fast, frozen = MWMOracle(n), FrozenMWMOracle(n)
        # n + 1 calls: every offset, then the wrap back to 0.
        for _ in range(n + 1):
            weights = random_weights(
                rng, n, zero_rows=0.85, max_weight=rng.choice((1, 4))
            )
            assert fast.match(weights) == frozen.match(weights)
            assert fast._offset == frozen._offset

    def test_every_offset_on_one_tie_heavy_matrix(self):
        rng = random.Random(9)
        weights = random_weights(rng, 16, zero_rows=0.3, max_weight=1)
        for offset in range(16):
            fast, frozen = mwm_pair(16, offset)
            assert fast.match(weights) == frozen.match(weights)

    def test_no_request_returns_empty_and_advances(self):
        fast, frozen = mwm_pair(8, 3)
        weights = [[0] * 8 for _ in range(7)] + [[-1] * 8]
        assert fast.match(weights) == frozen.match(weights) == {}
        assert fast._offset == frozen._offset == 4

    def test_tuple_rows(self):
        rng = random.Random(4)
        weights = tuple(
            tuple(row) for row in random_weights(rng, 8, zero_rows=0.2)
        )
        fast, frozen = mwm_pair(8, 5)
        assert fast.match(weights) == frozen.match(weights)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_hypothesis_matrices(self, data):
        n = data.draw(st.integers(1, 64), label="n")
        zero = data.draw(
            st.sets(st.integers(0, n - 1), max_size=n), label="zero_rows"
        )
        cells = data.draw(st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1),
                st.integers(-1, 4),
            ),
            max_size=3 * n,
        ), label="cells")
        weights = [[0] * n for _ in range(n)]
        for row, col, weight in cells:
            if row not in zero:
                weights[row][col] = weight
        offset = data.draw(st.integers(0, n - 1), label="offset")
        fast, frozen = mwm_pair(n, offset)
        assert fast.match(weights) == frozen.match(weights)


class TestISLIP:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("iterations", (1, 2, 4, 64))
    def test_seeded_sequences_with_warmed_pointers(self, n, iterations):
        rng = random.Random(n * 1000 + iterations)
        fast, frozen = islip_pair(n, min(iterations, n), rng)
        for _ in range(12):
            weights = random_weights(
                rng, n,
                zero_rows=rng.random(),
                density=rng.random(),
                max_weight=rng.choice((1, 3)),
            )
            assert_islip_identical(fast, frozen, weights)

    def test_pointers_outside_the_port_range(self):
        rng = random.Random(21)
        fast, frozen = islip_pair(8, 3)
        fast.grant_pointers = [9, -1, 8, 15, -7, 3, 0, 11]
        frozen.grant_pointers = list(fast.grant_pointers)
        fast.accept_pointers = [-2, 10, 7, 8, 1, -9, 16, 4]
        frozen.accept_pointers = list(fast.accept_pointers)
        for _ in range(5):
            assert_islip_identical(
                fast, frozen, random_weights(rng, 8, zero_rows=0.2)
            )

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_hypothesis_matrices(self, data):
        n = data.draw(st.integers(1, 64), label="n")
        iterations = data.draw(st.integers(1, 5), label="iterations")
        fast, frozen = islip_pair(n, iterations)
        pointers = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
        grant = data.draw(pointers, label="grant_pointers")
        accept = data.draw(pointers, label="accept_pointers")
        fast.grant_pointers, frozen.grant_pointers = list(grant), grant
        fast.accept_pointers, frozen.accept_pointers = list(accept), accept
        for _ in range(data.draw(st.integers(1, 3), label="matches")):
            cells = data.draw(st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1),
                    st.integers(-1, 2),
                ),
                max_size=3 * n,
            ), label="cells")
            weights = [[0] * n for _ in range(n)]
            for row, col, weight in cells:
                weights[row][col] = weight
            assert_islip_identical(fast, frozen, weights)


class _DifferentialScheduler:
    """Runs the switch's scheduler and a frozen twin on the same weights."""

    def __init__(self, fast, frozen) -> None:
        self.fast = fast
        self.frozen = frozen
        self.matches = 0

    def match(self, weights, observer=None):
        fast_rounds, frozen_rounds = [], []
        result = self.fast.match(
            weights, observer=lambda *event: fast_rounds.append(event)
        )
        expected = self.frozen.match(
            weights, observer=lambda *event: frozen_rounds.append(event)
        )
        assert result == expected
        assert fast_rounds == frozen_rounds
        for pointers in ("grant_pointers", "accept_pointers"):
            assert getattr(self.fast, pointers, None) == getattr(
                self.frozen, pointers, None
            )
        self.matches += 1
        if observer is not None:
            for event in fast_rounds:
                observer(*event)
        return result


@pytest.mark.parametrize("arbitration, iterations, frozen_cls", [
    ("mwm", 1, FrozenMWMOracle),
    ("islip", 1, FrozenISLIPArbiter),
    ("islip", 4, FrozenISLIPArbiter),
])
def test_live_radix64_voq_weights(arbitration, iterations, frozen_cls):
    config = HiRiseConfig(
        radix=64, layers=4, channel_multiplicity=4,
        arbitration=arbitration, islip_iterations=iterations,
    )
    switch = make_switch(config)
    frozen = (
        frozen_cls(64) if arbitration == "mwm"
        else frozen_cls(64, iterations)
    )
    differential = _DifferentialScheduler(switch.scheduler, frozen)
    switch.scheduler = differential
    traffic = UniformRandomTraffic(64, load=0.3, seed=5)
    Simulation(switch, traffic, warmup_cycles=0).run(measure_cycles=40)
    assert differential.matches > 20


def test_mwm_weight_is_optimal_at_radix_64():
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(64)
    oracle = MWMOracle(64)
    for _ in range(12):
        weights = random_weights(
            rng, 64, zero_rows=rng.choice((0.0, 0.5, 0.9)),
            density=rng.random(), max_weight=rng.choice((1, 50)),
        )
        clamped = [[max(w, 0) for w in row] for row in weights]
        rows, cols = optimize.linear_sum_assignment(clamped, maximize=True)
        best = sum(clamped[r][c] for r, c in zip(rows, cols))
        assert matching_weight(oracle.match(weights), weights) == best
