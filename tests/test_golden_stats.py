"""Golden-stats equivalence tests for both timing engines.

``tests/golden/timing_stats.json`` was generated by the pre-rewrite timing
simulator, whose issue stage rescanned the whole issue queue every cycle.
These tests pin both timing engines to those statistics *bit-for-bit*
across every embedded workload, on both the baseline and the mini-graph
machine:

* ``fused`` — :meth:`Session.run`, which times through ``simulate_program``
  and the fused kernel (C, or Python without a compiler);
* ``reference`` — the object-model ``TimingSimulator`` (event-driven
  wakeup/select scheduler) run on the same session's program, trace and
  MGT.

Any scheduling divergence — an entity selected a cycle early or late, a
changed structural-conflict outcome, a different replay count — shows up as
a failed equality on the full stats dictionary.

Regenerate the golden file only when a *modelling* change is intended::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

import json
from pathlib import Path

import pytest

from repro.api import RunSpec, Session
from repro.uarch.pipeline import TimingSimulator

GOLDEN_PATH = Path(__file__).parent / "golden" / "timing_stats.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def session() -> Session:
    # One shared in-memory session: the equivalence sweep reuses each
    # benchmark's functional artifacts across engines and machines.
    return Session()


def _timings(session: Session, spec: RunSpec, engine: str):
    """(baseline, mini-graph) statistics of ``spec`` under ``engine``."""
    if engine == "fused":
        artifacts = session.run(spec)
        return artifacts.baseline_timing, artifacts.timing
    baseline = TimingSimulator(session.program(spec),
                               session.baseline_trace(spec),
                               spec.resolved_baseline_machine).run()
    minigraph = TimingSimulator(session.rewritten(spec),
                                session.minigraph_trace(spec),
                                spec.resolved_machine, mgt=session.mgt(spec),
                                compressed_layout=spec.compressed_layout).run()
    return baseline, minigraph


def _check_golden(session: Session, workload: str, engine: str) -> None:
    expected = GOLDEN[workload]
    spec = RunSpec(benchmark=workload, budget=expected["budget"])
    baseline, minigraph = _timings(session, spec, engine)
    assert baseline.as_dict() == expected["baseline"], \
        f"{workload}: {engine} baseline timing diverged from golden"
    assert minigraph.as_dict() == expected["minigraph"], \
        f"{workload}: {engine} mini-graph timing diverged from golden"
    assert session.minigraph_trace(spec).dynamic_coverage() \
        == expected["coverage"]


def test_golden_file_covers_the_embedded_suite():
    from repro.workloads import REGISTRY
    assert sorted(GOLDEN) == sorted(REGISTRY.names("embedded"))


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_scheduler_rewrite_matches_golden_stats(workload: str, session: Session):
    _check_golden(session, workload, "fused")


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_reference_simulator_matches_golden_stats(workload: str,
                                                  session: Session):
    _check_golden(session, workload, "reference")
