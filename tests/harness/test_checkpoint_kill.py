"""Kill -9 drill for checkpointed sweeps.

Runs the drill of ``scripts/fault_smoke.py`` (see
:func:`fault_smoke.check_killed_sweep`): a checkpointed ``run_sweep``
with two pool workers runs in a child process that leads its own
session, and once the journal holds some, but not all, completed tasks
the whole process group — parent and workers — is SIGKILLed.  No
process of the group may survive; re-running the sweep in-process on
the same checkpoint must recompute only the unjournaled tasks and
return values bit-identical to an uninterrupted serial run.
"""

import os
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "killpg") and os.path.isdir("/proc")),
    reason="the drill kills a process group and inspects /proc",
)

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"


@pytest.fixture
def fault_smoke(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import fault_smoke

    return fault_smoke


def test_sigkilled_sweep_resumes_bit_identically(tmp_path, fault_smoke):
    outcome = fault_smoke.check_killed_sweep(tmp_path)
    tasks = len(fault_smoke.LOADS) * fault_smoke.REPLICATIONS
    assert outcome["journaled"]
    assert outcome["journaled"].isdisjoint(outcome["recomputed"])
    assert outcome["journaled"] | outcome["recomputed"] == set(range(tasks))
