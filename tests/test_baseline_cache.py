"""Persistent baseline cache: correctness of hits, and of misses.

A disk cache that returns a stale baseline silently corrupts every
overhead percentage computed from it, so the invalidation tests here
are the important ones (satellite 4): any change to the cost model,
the program, the fuel budget, or the timer period must change the key
and therefore miss. Round-trips, corruption tolerance, concurrent-ish
writes, and the CLI-facing maintenance surface ride along.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import HarnessError
from repro.harness import (
    BaselineCache,
    ExperimentRunner,
    baseline_key,
    cost_model_fingerprint,
    program_fingerprint,
)
from repro.vm import VM, CostModel, powerpc_ctr_model
from repro.workloads import get_workload


def _program():
    return get_workload("compress").compile(None)


def _run(program, cost_model=None):
    return VM(
        program, cost_model=cost_model or CostModel(), fuel=50_000_000,
        timer_period=100_000,
    ).run()


#: Entries that parse as JSON but hold no baseline: not an object, or
#: an object whose stats are not one.
NOT_ENTRIES = {
    "list": lambda entry: [],
    "number": lambda entry: 42,
    "string": lambda entry: "x",
    "null-stats": lambda entry: {**entry, "stats": None},
    "list-stats": lambda entry: {**entry, "stats": []},
}


class TestKeys:
    def test_key_is_deterministic(self):
        program = _program()
        model = CostModel()
        assert baseline_key(program, model, 10, 100) == baseline_key(
            program, model, 10, 100
        )

    def test_cost_model_change_changes_key(self):
        program = _program()
        base = baseline_key(program, CostModel(), 10, 100)
        assert baseline_key(program, CostModel(check_cost=2), 10, 100) != base
        assert baseline_key(program, powerpc_ctr_model(), 10, 100) != base

    def test_program_change_changes_key(self):
        model = CostModel()
        compress = get_workload("compress").compile(None)
        jess = get_workload("jess").compile(None)
        assert baseline_key(compress, model, 10, 100) != baseline_key(
            jess, model, 10, 100
        )

    def test_run_config_change_changes_key(self):
        program = _program()
        model = CostModel()
        base = baseline_key(program, model, 10, 100)
        assert baseline_key(program, model, 11, 100) != base
        assert baseline_key(program, model, 10, 101) != base
        assert baseline_key(program, model, 10, 100, ("call-edge",)) != base

    def test_fingerprints_are_content_addressed(self):
        # same workload compiled twice -> same program content -> same print
        assert program_fingerprint(_program()) == program_fingerprint(
            _program()
        )
        assert cost_model_fingerprint(CostModel()) == cost_model_fingerprint(
            CostModel()
        )
        assert cost_model_fingerprint(CostModel()) != cost_model_fingerprint(
            CostModel(check_cost=2)
        )


class TestCacheStore:
    def test_round_trip(self, tmp_path):
        cache = BaselineCache(tmp_path / "c")
        program = _program()
        result = _run(program)
        key = baseline_key(program, CostModel(), 50_000_000, 100_000)
        assert cache.get(key) is None
        assert cache.stats.misses == 1
        assert cache.put(key, result, label="compress")
        restored = cache.get(key)
        assert restored is not None
        assert cache.stats.hits == 1
        assert restored.value == result.value
        assert restored.stats.as_dict() == result.stats.as_dict()

    def test_shared_directory_hits_across_instances(self, tmp_path):
        program = _program()
        result = _run(program)
        key = baseline_key(program, CostModel(), 50_000_000, 100_000)
        BaselineCache(tmp_path / "c").put(key, result)
        other = BaselineCache(tmp_path / "c")
        assert other.get(key) is not None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = BaselineCache(tmp_path / "c")
        program = _program()
        key = baseline_key(program, CostModel(), 50_000_000, 100_000)
        cache.put(key, _run(program))
        (entry,) = list((tmp_path / "c").glob("*.json"))
        entry.write_text("{ not json")
        fresh = BaselineCache(tmp_path / "c")
        assert fresh.get(key) is None

    @pytest.mark.parametrize("corrupt", sorted(NOT_ENTRIES))
    def test_entry_holding_no_baseline_is_a_miss_and_an_error(
        self, tmp_path, corrupt
    ):
        runner = ExperimentRunner(cache=str(tmp_path / "c"))
        _, expected = runner.baseline("compress")
        (entry,) = runner.baseline_cache.entries()
        stored = json.loads(entry.read_text())
        entry.write_text(json.dumps(NOT_ENTRIES[corrupt](stored)))
        cache = BaselineCache(tmp_path / "c")
        assert cache.get(entry.stem) is None
        assert cache.stats.as_dict() == {
            "hits": 0, "misses": 1, "stores": 0, "errors": 1,
        }
        assert cache.label(entry) is None
        # A runner over the entry recomputes the baseline and overwrites
        # the entry with it.
        rerun = ExperimentRunner(cache=str(tmp_path / "c"))
        _, result = rerun.baseline("compress")
        assert result.stats.as_dict() == expected.stats.as_dict()
        assert rerun.baseline_cache.stats.as_dict() == {
            "hits": 0, "misses": 1, "stores": 1, "errors": 1,
        }
        assert json.loads(entry.read_text()) == stored

    def test_clear_empties_directory(self, tmp_path):
        cache = BaselineCache(tmp_path / "c")
        program = _program()
        cache.put(
            baseline_key(program, CostModel(), 50_000_000, 100_000),
            _run(program),
        )
        assert len(cache.entries()) == 1
        assert cache.clear() == 1
        assert cache.entries() == []
        assert cache.size_bytes() == 0


class TestRunnerIntegration:
    def test_warm_cache_skips_recompute(self, tmp_path):
        cold = ExperimentRunner(cache=str(tmp_path / "c"))
        cold.baseline("compress")
        assert cold.baseline_cache.stats.stores == 1

        warm = ExperimentRunner(cache=str(tmp_path / "c"))
        _, result = warm.baseline("compress")
        assert warm.baseline_cache.stats.hits == 1
        assert warm.baseline_cache.stats.stores == 0
        (_, cold_result) = cold.baseline("compress")
        assert result.stats.as_dict() == cold_result.stats.as_dict()
        # the hit is visible in the timing log
        assert [rec.source for rec in warm.cell_log] == ["baseline-cache"]

    def test_changed_cost_model_misses(self, tmp_path):
        """Satellite 4: a cost-model change must invalidate, not hit."""
        ExperimentRunner(cache=str(tmp_path / "c")).baseline("compress")

        changed = ExperimentRunner(
            cost_model=CostModel(check_cost=2), cache=str(tmp_path / "c")
        )
        _, result = changed.baseline("compress")
        assert changed.baseline_cache.stats.hits == 0
        assert changed.baseline_cache.stats.misses == 1
        assert changed.baseline_cache.stats.stores == 1
        # and the recomputed baseline reflects the new model, matching
        # what a cache-less runner computes
        uncached = ExperimentRunner(
            cost_model=CostModel(check_cost=2), cache=False
        )
        _, expected = uncached.baseline("compress")
        assert result.stats.as_dict() == expected.stats.as_dict()

    def test_changed_fuel_misses(self, tmp_path):
        ExperimentRunner(cache=str(tmp_path / "c")).baseline("compress")
        changed = ExperimentRunner(
            fuel=123_456_789, cache=str(tmp_path / "c")
        )
        changed.baseline("compress")
        assert changed.baseline_cache.stats.hits == 0

    def test_cache_disabled_by_default_flags(self):
        assert ExperimentRunner(cache=False).baseline_cache is None
        assert ExperimentRunner(cache=None).baseline_cache is None

    def test_a_file_is_not_a_cache_directory(self, tmp_path, monkeypatch):
        path = tmp_path / "file"
        path.write_text("")
        with pytest.raises(HarnessError, match="is not a directory"):
            ExperimentRunner(cache=str(path))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
        with pytest.raises(HarnessError, match="is not a directory"):
            ExperimentRunner()
        # A directory that does not exist yet is created on first store.
        assert ExperimentRunner(cache=str(tmp_path / "new")).baseline_cache

    def test_env_var_enables_cache(self, tmp_path, monkeypatch):
        from repro.harness.baseline_cache import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env-cache"))
        runner = ExperimentRunner()
        assert runner.baseline_cache is not None
        assert str(runner.baseline_cache.directory) == str(
            tmp_path / "env-cache"
        )
