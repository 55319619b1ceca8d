"""Store-key derivation: sensitivity, sharing and version pinning.

Every store key hashes a flat tuple of short component digests (policy, MGT
options, machine shape).  These tests pin the three properties that make
that safe: each field of each component still reaches exactly the keys that
depend on it; equal values give equal keys however they were built (fresh,
pickled, in a pool worker); and the key strings change only together with
``repro.__version__`` (``tests/golden/store_keys.json``).
"""

import dataclasses
import importlib.util
import json
import multiprocessing
import pickle
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import repro
from repro.api import RunSpec, Session
from repro.api import keys as keys_module
from repro.grid import cell_key, get_grid, plan_grid
from repro.minigraph.mgt import MgtBuildOptions
from repro.minigraph.policies import DEFAULT_POLICY, SelectionPolicy
from repro.uarch.config import (
    CacheConfig,
    ConfigError,
    MachineConfig,
    baseline_config,
    integer_memory_minigraph_config,
)

_GOLDEN = Path(__file__).parent / "golden"
_loader = importlib.util.spec_from_file_location(
    "golden_regenerate", _GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_loader)
_loader.loader.exec_module(regenerate)
stage_keys = regenerate.stage_keys

#: Keys that identify the whole run; every field of every component moves them.
RUN_KEYS = {"cell", "spec_hash"}
POLICY_KEYS = {"select", "rewrite", "build_mgt", "trace", "time"} | RUN_KEYS
MGT_KEYS = {"build_mgt", "trace", "time"} | RUN_KEYS
MACHINE_KEYS = {"time"} | RUN_KEYS
BASELINE_MACHINE_KEYS = {"time_baseline"} | RUN_KEYS


def _spec(**overrides) -> RunSpec:
    """An int-mem spec with every component explicit."""
    fields = dict(benchmark="crc", budget=3000, policy=DEFAULT_POLICY,
                  machine=integer_memory_minigraph_config(),
                  baseline_machine=baseline_config(),
                  mgt_options=MgtBuildOptions())
    fields.update(overrides)
    return RunSpec(**fields)


def _candidates(value):
    """Changed values to try for one field, most natural first."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value * 2, value + 1, value - 1]
    if isinstance(value, CacheConfig):
        return [dataclasses.replace(value, hit_latency=value.hit_latency + 1)]
    raise AssertionError(f"no changed value for {value!r}")


def _variants(obj):
    """(field name, valid copy of ``obj`` with that field changed) for every
    field except ``name``."""
    for field in dataclasses.fields(obj):
        if field.name == "name":
            continue
        current = getattr(obj, field.name)
        for candidate in _candidates(current):
            if candidate == current:
                continue
            try:
                yield field.name, dataclasses.replace(obj, **{field.name: candidate})
                break
            except ConfigError:
                continue
        else:
            raise AssertionError(f"no valid change for {field.name}")


def _moved(session, base, changed):
    before, after = stage_keys(session, base), stage_keys(session, changed)
    assert before.keys() == after.keys()
    return {stage for stage in before if before[stage] != after[stage]}


# -- sensitivity ----------------------------------------------------------------


class TestFieldSensitivity:
    def test_every_policy_field_moves_exactly_the_policy_keys(self):
        session, base = Session(), _spec()
        for name, policy in _variants(base.policy):
            assert _moved(session, base, _spec(policy=policy)) \
                == POLICY_KEYS, name

    def test_every_mgt_option_moves_exactly_the_mgt_keys(self):
        session, base = Session(), _spec()
        for name, options in _variants(base.resolved_mgt_options):
            assert _moved(session, base, _spec(mgt_options=options)) \
                == MGT_KEYS, name

    def test_every_machine_field_moves_exactly_the_timing_key(self):
        session, base = Session(), _spec()
        for name, machine in _variants(base.resolved_machine):
            assert _moved(session, base, _spec(machine=machine)) \
                == MACHINE_KEYS, name

    def test_every_baseline_machine_field_moves_only_baseline_timing(self):
        session, base = Session(), _spec()
        for name, machine in _variants(base.resolved_baseline_machine):
            assert _moved(session, base, _spec(baseline_machine=machine)) \
                == BASELINE_MACHINE_KEYS, name

    def test_machine_names_move_nothing(self):
        session, base = Session(), _spec()
        renamed = _spec(machine=base.machine.with_name("elsewhere"),
                        baseline_machine=baseline_config().with_name("ref"))
        assert _moved(session, base, renamed) == set()

    def test_every_field_is_covered(self):
        # A new field must be exercised above, i.e. have a changed value.
        for obj in (SelectionPolicy(), MgtBuildOptions(), MachineConfig()):
            names = {name for name, _ in _variants(obj)}
            assert names == {f.name for f in dataclasses.fields(obj)} - {"name"}


# -- sharing ----------------------------------------------------------------------


def _spec_keys(spec):
    """Worker-side key material: what the parent compares after a pool hop."""
    return (spec.spec_hash, cell_key(spec, repro.__version__),
            [spec.stage_material(stage) for stage in
             ("assemble", "profile", "select", "build_mgt", "trace")])


class TestSharing:
    def test_independently_built_specs_share_every_key(self):
        session = Session()
        explicit = _spec()
        defaults = RunSpec(benchmark="crc", budget=3000)
        rebuilt = RunSpec(
            benchmark="crc", budget=3000, policy=SelectionPolicy(),
            machine=MachineConfig().with_minigraph_alu_pipelines(2)
            .with_sliding_window(),
            baseline_machine=MachineConfig(), mgt_options=MgtBuildOptions())
        expected = stage_keys(session, explicit)
        assert stage_keys(session, defaults) == expected
        assert stage_keys(session, rebuilt) == expected
        assert defaults == explicit and hash(defaults) == hash(explicit)

    def test_pickle_round_trip_keeps_keys_and_drops_memos(self):
        session, spec = Session(), _spec()
        expected = stage_keys(session, spec)       # fills the memos
        assert any(name.startswith("_") for name in vars(spec))
        copy = pickle.loads(pickle.dumps(spec))
        assert not any(name.startswith("_") for name in vars(copy))
        assert stage_keys(session, copy) == expected

    def test_pool_worker_derives_the_same_keys(self):
        spec = _spec()
        with ProcessPoolExecutor(
                max_workers=1,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            remote = pool.submit(_spec_keys, spec).result(timeout=120)
        assert remote == _spec_keys(_spec())

    def test_replace_never_carries_a_stale_memo(self):
        session, spec = Session(), _spec()
        stage_keys(session, spec)
        for changed, fresh in (
                (dataclasses.replace(spec, budget=5000), _spec(budget=5000)),
                (spec.with_policy(None), _spec(policy=None)),
                (spec.with_machine(None), _spec(machine=None)),
                (spec.with_mgt_options(MgtBuildOptions(collapsing=True)),
                 _spec(mgt_options=MgtBuildOptions(collapsing=True)))):
            assert not any(name.startswith("_") for name in vars(changed))
            assert stage_keys(session, changed) == stage_keys(session, fresh)

    def test_fig8_cells_share_one_machine_per_variant_and_mode(self):
        grid = get_grid("fig8").build(benchmarks=("crc", "bitcount"),
                                      budget=2000)
        machines, references = {}, set()
        for cell in grid.cells():
            labels = cell.labels
            machines.setdefault((labels["variant"], labels["mode"]), set()) \
                .add(id(cell.spec.machine))
            references.add(id(cell.spec.baseline_machine))
        assert len(machines) == 8 * 3
        assert all(len(ids) == 1 for ids in machines.values())
        assert len(references) == 1

    def test_default_machines_are_built_once(self):
        assert RunSpec(benchmark="crc").resolved_machine \
            is RunSpec(benchmark="sha").resolved_machine
        assert RunSpec(benchmark="crc", policy=None).resolved_machine \
            is RunSpec(benchmark="crc").resolved_baseline_machine


# -- flat key material --------------------------------------------------------------


def test_fig8_keys_hash_only_flat_short_material(monkeypatch):
    """Planning and running a (small) fig8 grid hashes nothing but flat
    tuples of scalars and short strings: no key walks a nested value."""
    original = keys_module.content_hash
    seen = []

    def recording(value):
        seen.append(value)
        return original(value)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") \
                and getattr(module, "content_hash", None) is original:
            monkeypatch.setattr(module, "content_hash", recording)
    grid = get_grid("fig8").build(benchmarks=("crc",), budget=1500)
    rows = list(Session().run_grid(plan_grid(grid), workers=0))
    assert len(rows) == 24 and seen
    for value in seen:
        assert type(value) is tuple, value
        for item in value:
            assert item is None or type(item) in (bool, int, float) \
                or (type(item) is str and len(item) <= 64), value


# -- version pinning ---------------------------------------------------------------


def test_store_keys_change_only_with_the_version():
    pinned = json.loads((_GOLDEN / "store_keys.json").read_text(encoding="utf-8"))
    current = regenerate.store_keys()
    assert pinned["version"] == current["version"], (
        f"repro.__version__ is {current['version']} but store_keys.json pins "
        f"{pinned['version']}: run `python tests/golden/regenerate.py "
        f"store-keys`")
    assert current["keys"] == pinned["keys"], (
        "store keys changed without a __version__ bump: bump "
        "repro.__version__, then regenerate store_keys.json")
