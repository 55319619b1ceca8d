"""Record ``digests.json``: the rows every benchmark run is checked against.

Run from the repository root::

    python3 perfbench/record.py

It runs the fig8 grid and the whole synthetic-program pool cold and
serially (about a minute on a 2-core host) and rewrites ``digests.json``.
Re-record only when a change is *meant* to alter simulated results; a
change that only claims speed must leave the digests as they are.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import rows as rowcheck  # noqa: E402
import worker  # noqa: E402

#: Program seeds ``0 .. POOL_SIZE-1`` of ``SynthSpec.sample`` form the pool
#: that synth-sweep and serve-mixed draw their programs from.
POOL_SIZE = 768


def main() -> int:
    root = os.path.dirname(HERE)
    worker.import_repro(root)
    from repro.sim.functional import run_program
    from repro.workloads import load_benchmark

    with tempfile.TemporaryDirectory(dir=root) as store:
        fig8, _, _ = worker.run_campaign(worker.fig8_grid(),
                                         os.path.join(store, "fig8"))
        seeds = list(range(POOL_SIZE))
        synth, _, _ = worker.run_campaign(worker.synth_grid(seeds),
                                          os.path.join(store, "synth"))
    pool = {}
    for row in synth:
        seed, mode = rowcheck.synth_key(row)
        entry = pool.setdefault(str(seed), {"insts": None, "rows": {}})
        entry["rows"][mode] = rowcheck.row_digest(row)
        if entry["insts"] is None:
            program = load_benchmark(row["point"]["benchmark"])
            entry["insts"] = run_program(
                program, max_instructions=rowcheck.BUDGET
            ).instructions_executed
    digests = {"budget": rowcheck.BUDGET,
               "fig8": {rowcheck.fig8_key(row): rowcheck.row_digest(row)
                        for row in fig8},
               "synth": pool}
    with open(rowcheck.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(digests['fig8'])} fig8 rows and "
          f"{len(pool)} pool programs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
