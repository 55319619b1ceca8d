#!/usr/bin/env python3
"""Regenerate the golden files next to this script.

    PYTHONPATH=src python tests/golden/regenerate.py [timing|store-keys]

``timing`` (the default) rewrites ``timing_stats.json`` from the current
timing simulator.  Run it only when a deliberate modelling change (not a
performance refactor) is supposed to move the numbers; the diff of the JSON
then documents exactly which statistics moved.

``store-keys`` rewrites ``store_keys.json``: every store key of three fixed
specs under the current ``repro.__version__``.  It refuses to record changed
keys under an unchanged version, because a store that serves entries across
a key-derivation change serves stale artifacts: bump ``__version__`` first.
"""

import json
import sys
from pathlib import Path
from typing import Any, Dict

import repro
from repro.api import RunSpec, Session
from repro.grid import cell_key
from repro.minigraph.policies import DEFAULT_POLICY, INTEGER_POLICY
from repro.uarch.catalog import machine_config
from repro.workloads import REGISTRY

HERE = Path(__file__).parent
BUDGET = 6000
STORE_KEYS_PATH = HERE / "store_keys.json"

#: The specs whose store keys are pinned: a baseline run, the paper's "int"
#: policy on its default machine, and "int-mem" on a non-default machine.
STORE_KEY_SPECS = {
    "baseline": RunSpec(benchmark="crc", budget=4000, policy=None),
    "int": RunSpec(benchmark="crc", budget=4000, policy=INTEGER_POLICY),
    "int-mem": RunSpec(
        benchmark="crc", budget=4000, policy=DEFAULT_POLICY,
        machine=machine_config("4-wide").with_minigraph_alu_pipelines(2)
        .with_sliding_window()),
}


def stage_keys(session: Session, spec: RunSpec) -> Dict[str, str]:
    """Every store key ``session.run(spec)`` reads or writes, the grid row
    key and the spec hash."""
    stages = ["assemble", "profile"]
    if spec.policy is not None:
        stages += ["select", "rewrite", "build_mgt", "trace"]
    keys = {stage: session._key(stage, spec) for stage in stages}
    keys["time_baseline"] = session._timing_key(
        spec, spec.resolved_baseline_machine, False)
    keys["time"] = session._timing_key(spec, spec.resolved_machine,
                                       spec.policy is not None)
    keys["cell"] = cell_key(spec, session.version)
    keys["spec_hash"] = spec.spec_hash
    return keys


def store_keys() -> Dict[str, Any]:
    session = Session()
    return {"version": repro.__version__,
            "keys": {name: stage_keys(session, spec)
                     for name, spec in STORE_KEY_SPECS.items()}}


def write_store_keys() -> None:
    current = store_keys()
    if STORE_KEYS_PATH.exists():
        pinned = json.loads(STORE_KEYS_PATH.read_text(encoding="utf-8"))
        if pinned["version"] == current["version"] \
                and pinned["keys"] != current["keys"]:
            sys.exit(f"store keys changed under __version__ "
                     f"{current['version']}: bump repro.__version__ first")
    STORE_KEYS_PATH.write_text(json.dumps(current, indent=2, sort_keys=True)
                               + "\n", encoding="utf-8")
    print(f"wrote store keys for {current['version']} to {STORE_KEYS_PATH}")


def write_timing_stats() -> None:
    session = Session()
    golden = {}
    for name in REGISTRY.names("embedded"):
        artifacts = session.run(RunSpec(benchmark=name, budget=BUDGET))
        golden[name] = {
            "budget": BUDGET,
            "baseline": artifacts.baseline_timing.as_dict(),
            "minigraph": artifacts.timing.as_dict(),
            "coverage": artifacts.coverage,
        }
    path = HERE / "timing_stats.json"
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {len(golden)} benchmarks to {path}")


def main(argv) -> None:
    targets = {"timing": write_timing_stats, "store-keys": write_store_keys}
    target = argv[0] if argv else "timing"
    if target not in targets or len(argv) > 1:
        sys.exit(f"usage: regenerate.py [{'|'.join(targets)}]")
    targets[target]()


if __name__ == "__main__":
    main(sys.argv[1:])
