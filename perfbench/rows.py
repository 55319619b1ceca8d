"""Row identity: the recorded digests every benchmark run checks against.

The simulator is deterministic, so every simulated quantity of a grid row
(cycles, IPC, coverage, speedup, template count) repeats exactly.  A row's
digest covers those quantities plus the run identity a user reads off the
row (benchmark, input, budget, machine names); it leaves out store keys and
hashes, which a change may re-derive without changing any result.

``digests.json`` (written by ``record.py``) holds:

* ``fig8``: one digest per Figure 8 cell, keyed ``benchmark|variant|mode``;
* ``synth``: the synthetic-program pool — for each pool program seed, its
  committed instruction count at the sweep budget (used to stratify the
  per-seed samples) and one digest per mode.

The model is not validated against hardware, so no error figure is given:
these digests pin the simulator to itself, not to a reference machine.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

#: Budget (committed instructions) of every fig8 and synth cell.
BUDGET = 8000

#: The synth sweep's policy axis (``worker.synth_grid`` maps the labels).
SYNTH_MODES = ("int", "int-mem", "baseline")

#: Row fields a digest covers (``as_dict`` names).
DIGEST_FIELDS = ("benchmark", "input", "budget", "machine", "baseline_machine",
                 "coverage", "baseline_ipc", "ipc", "speedup", "cycles",
                 "baseline_cycles", "templates")


def row_digest(row: Dict[str, Any]) -> str:
    """Digest of one row dict (``GridRow.as_dict()``)."""
    material = json.dumps([row[name] for name in DIGEST_FIELDS])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:20]


def fig8_key(row: Dict[str, Any]) -> str:
    point = row["point"]
    return f"{point['benchmark']}|{point['variant']}|{point['mode']}"


def synth_key(row: Dict[str, Any]) -> Tuple[int, str]:
    """(pool program seed, mode) of a synth row."""
    name = row["point"]["benchmark"]          # synth:v1-s<seed>-...
    seed = int(name.split("-s", 1)[1].split("-", 1)[0])
    return seed, row["point"]["policy"]


def load_digests() -> Dict[str, Any]:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class RowCheck:
    """Counts checked and mismatched rows; keeps the first few mismatches."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.messages) < 5:
            self.messages.append(message)

    def _check(self, rows: Iterable[Dict[str, Any]], expected: Dict[Any, Any],
               key_of: Callable[[Dict[str, Any]], Any],
               mismatch: Callable[[Dict[str, Any], Any], Optional[str]],
               what: str) -> None:
        """Every expected key exactly once, each row matching its entry.

        A duplicated or unexpected row is attempted and failed; an expected
        key no row carries is attempted and failed too.
        """
        seen = set()
        for row in rows:
            self.attempted += 1
            key = key_of(row)
            if key in seen:
                self.fail(1, f"{what} row {key} returned twice")
            elif key not in expected:
                self.fail(1, f"{what} row {key} was not asked for")
            else:
                message = mismatch(row, expected[key])
                if message is not None:
                    self.fail(1, f"{what} row {key}: {message}")
            seen.add(key)
        missing = [key for key in expected if key not in seen]
        if missing:
            self.attempted += len(missing)
            self.fail(len(missing), f"{what}: {len(missing)} cells returned "
                                    f"no row, e.g. {missing[0]}")

    def check_fig8(self, rows: Iterable[Dict[str, Any]],
                   digests: Dict[str, str]) -> None:
        """Rows of the fig8 cells in ``digests``, one per cell."""
        self._check(rows, digests, fig8_key, _digest_mismatch, "fig8")

    def check_synth(self, rows: Iterable[Dict[str, Any]], pool: Dict[str, Any],
                    seeds: Iterable[int]) -> None:
        """Rows of pool programs ``seeds`` × every synth mode."""
        expected = {(seed, mode): pool[str(seed)]["rows"][mode]
                    for seed in seeds for mode in SYNTH_MODES}
        self._check(rows, expected, synth_key, _digest_mismatch, "synth")

    def check_replay(self, rows: Iterable[Dict[str, Any]],
                     reference: Dict[int, Dict[str, Any]]) -> None:
        """Replayed rows must be bit-identical to the rows they replay and
        served from the store."""
        self._check(rows, reference, lambda row: row["index"],
                    _replay_mismatch, "replayed")

    def as_dict(self) -> Dict[str, Any]:
        return {"attempted": self.attempted, "failed": self.failed,
                "messages": self.messages}


def _digest_mismatch(row: Dict[str, Any], recorded: str) -> Optional[str]:
    actual = row_digest(row)
    return None if actual == recorded else \
        f"digest {actual} != recorded {recorded}"


def _replay_mismatch(row: Dict[str, Any],
                     original: Dict[str, Any]) -> Optional[str]:
    if {k: v for k, v in row.items() if k != "resumed"} != original:
        return "differs from the row it replays"
    if not row["resumed"]:
        return "was recomputed, not served from the store"
    return None


def bands(pool: Dict[str, Any], count: int) -> List[List[int]]:
    """Split the pool into ``count`` equal bands by instruction count; each
    band lists its program seeds shortest first.

    Drawing one program per band keeps every sample's size distribution
    the same, so host time per sample varies with the host, not the seed.
    """
    seeds = [int(seed) for _, seed in
             sorted((entry["insts"], int(seed)) for seed, entry in pool.items())]
    size = len(seeds) // count
    return [seeds[band * size:(band + 1) * size] for band in range(count)]
