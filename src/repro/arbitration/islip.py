"""iSLIP: iterative round-robin matching for VOQ input-queued switches.

McKeown's iSLIP (the Tiny Tera scheduler) computes a maximal matching
in rounds of request / grant / accept:

1. **Request** — every unmatched input sends a request to every output
   with a non-empty VOQ.
2. **Grant** — every unmatched output grants the requesting input at or
   after its *grant pointer* (round-robin).
3. **Accept** — every input that received grants accepts the granting
   output at or after its *accept pointer*; the pair is matched.

The pointer update rule is what makes iSLIP stable: pointers advance to
one past the matched partner **only when the grant is accepted in the
first iteration**.  Later-iteration matches leave pointers untouched.
Because an accepted output's pointer moves past the input it just
served, under loaded uniform traffic the pointers *desynchronize* —
after a handful of cycles no two outputs point at the same input, every
round-1 grant is accepted, and throughput reaches 100% (the property
battery in ``tests/arbitration/test_properties.py`` pins this).

With one iteration and at most one non-empty VOQ per input, iSLIP
degenerates to independent round-robin arbitration per output — the
differential parity test pins that equivalence against
:class:`repro.arbitration.RoundRobinArbiter`.
"""

from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.arbitration.matching import Matching, WeightMatrix

__all__ = ["ISLIPArbiter", "RoundObserver"]

#: Callback invoked once per (iteration, stage) with the per-port
#: pairings decided in that stage: ``observer(iteration, stage, pairs)``
#: where stage is "grant" (output -> input granted) or "accept"
#: (input -> output accepted) and pairs is a list of (port, partner).
RoundObserver = Callable[[int, str, List[Tuple[int, int]]], None]


class ISLIPArbiter:
    """iSLIP scheduler over an ``num_ports`` x ``num_ports`` VOQ fabric.

    Unlike the single-resource :class:`repro.arbitration.Arbiter`
    subclasses, an iSLIP arbiter owns the whole matching problem: one
    grant pointer per output and one accept pointer per input, advanced
    together under the iteration-1 accept rule.
    """

    def __init__(self, num_ports: int, iterations: int = 1) -> None:
        if num_ports < 1:
            raise ValueError("iSLIP needs at least one port")
        if iterations < 1:
            raise ValueError("iSLIP needs at least one iteration")
        self.num_ports = num_ports
        self.iterations = iterations
        #: Per-output round-robin pointer used in the grant stage.
        self.grant_pointers = [0] * num_ports
        #: Per-input round-robin pointer used in the accept stage.
        self.accept_pointers = [0] * num_ports

    def match(
        self,
        weights: WeightMatrix,
        observer: Optional[RoundObserver] = None,
    ) -> Matching:
        """Compute a matching over the request matrix ``weights``.

        ``weights[i][j] > 0`` means input ``i`` requests output ``j``
        (the magnitude is ignored — iSLIP sees only request presence).
        Returns input -> output; commits pointer updates for matches
        made in iteration 1.

        The request matrix is read once into per-output requester lists
        and matched by :meth:`match_requests`.
        """
        n = self.num_ports
        if len(weights) != n or any(len(row) != n for row in weights):
            raise ValueError(f"weights must be {n}x{n}")

        requesters: List[List[int]] = [[] for _ in range(n)]
        for inp, row in enumerate(weights):
            if max(row) > 0:
                for out, weight in enumerate(row):
                    if weight > 0:
                        requesters[out].append(inp)
        return self.match_requests(requesters, observer)

    def match_requests(
        self,
        requesters: Sequence[List[int]],
        observer: Optional[RoundObserver] = None,
    ) -> Matching:
        """Compute a matching from per-output requester lists.

        ``requesters[j]`` is the ascending list of inputs requesting
        output ``j``.  This is the one matching body: :meth:`match`
        derives the lists from a weight matrix, and
        :class:`repro.switches.VOQSwitch` builds them straight from its
        queue matrices.  "First at or after the pointer" is a
        :func:`bisect.bisect_left` into an output's list followed by a
        cyclic walk past inputs already matched in an earlier
        iteration.
        """
        n = self.num_ports
        if len(requesters) != n:
            raise ValueError(f"requesters must list {n} outputs")

        grant_pointers = self.grant_pointers
        accept_pointers = self.accept_pointers
        matching: Matching = {}
        open_outputs = [out for out in range(n) if requesters[out]]
        for iteration in range(self.iterations):
            # Request + grant: each unmatched output grants the first
            # unmatched requester at or after its grant pointer (the
            # pointer does not move yet).
            grants: Dict[int, List[int]] = {}
            grant_pairs: List[Tuple[int, int]] = []
            for out in open_outputs:
                candidates = requesters[out]
                count = len(candidates)
                start = bisect_left(candidates, grant_pointers[out] % n)
                for step in range(count):
                    inp = candidates[(start + step) % count]
                    if inp not in matching:
                        break
                else:
                    continue  # every requester is matched already
                grants.setdefault(inp, []).append(out)
                grant_pairs.append((out, inp))
            if not grants:
                break
            if observer is not None:
                observer(iteration, "grant", grant_pairs)

            # Accept: each granted input picks the granting output at or
            # after its accept pointer; iteration-1 accepts commit both
            # pointers (the desynchronization rule).
            accept_pairs: List[Tuple[int, int]] = []
            for inp, granting in grants.items():
                pick = bisect_left(granting, accept_pointers[inp] % n)
                out = granting[pick if pick < len(granting) else 0]
                matching[inp] = out
                accept_pairs.append((inp, out))
                if iteration == 0:
                    grant_pointers[out] = (inp + 1) % n
                    accept_pointers[inp] = (out + 1) % n
            if observer is not None:
                observer(iteration, "accept", accept_pairs)
            matched_outputs = set(matching.values())
            open_outputs = [
                out for out in open_outputs if out not in matched_outputs
            ]
        return matching
