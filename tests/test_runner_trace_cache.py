"""Runner on-disk trace cache tests: traces, upper records, profiles."""

import dataclasses
import json

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cache.hierarchy import Hierarchy
from repro.designs.base import ReferenceSystem
from repro.designs.configs import EH_CONFIGS, N_CONFIGS
from repro.designs.deephybrid import DeepHybridDesign
from repro.designs.fourlc import FourLCDesign
from repro.designs.fourlcnvm import FourLCNVMDesign
from repro.designs.ndm import NDMDesign
from repro.designs.nmm import NMMDesign
from repro.designs.reference import ReferenceDesign
from repro.experiments.figures import figure7, figure8
from repro.experiments.runner import Runner
from repro.partition.profiler import (
    TRAFFIC_COLUMNS,
    region_intervals,
    region_traffic,
)
from repro.partition.ranges import AddressRange
from repro.tech.params import EDRAM, FERAM, PCM, STTRAM
from repro.telemetry.core import Telemetry
from repro.trace.io import _write_artifact
from repro.trace.store import MappedStream
from repro.trace.stream import AddressStream
from repro.units import MiB
from repro.workloads.registry import get_workload

SCALE = 1.0 / 8192

#: Runner options of the three upper-record flavours: exact, drained
#: and sampled.
MODES = {
    "exact": {},
    "drain": {"drain": True},
    "sample": {"sample": "500:2000:5000"},
}


def family_designs(reference):
    """One member of every built-in design family."""
    return [
        ReferenceDesign(scale=SCALE, reference=reference),
        NMMDesign(PCM, N_CONFIGS["N6"], scale=SCALE, reference=reference),
        FourLCDesign(EDRAM, EH_CONFIGS["EH4"], scale=SCALE, reference=reference),
        FourLCNVMDesign(EDRAM, PCM, EH_CONFIGS["EH4"], scale=SCALE,
                        reference=reference),
        DeepHybridDesign(EDRAM, PCM, EH_CONFIGS["EH1"], N_CONFIGS["N6"],
                         scale=SCALE, reference=reference),
        NDMDesign(PCM, [AddressRange(0x1000_0000, 0x2000_0000, "hot")],
                  scale=SCALE, reference=reference),
    ]


def small_l3_reference():
    """A pyramid whose (scaled) L3 differs from the default one."""
    return dataclasses.replace(
        ReferenceSystem.sandy_bridge(),
        l3=CacheConfig("L3", 20 * MiB // ReferenceSystem.CORES_SHARING_L3, 10, 64),
    )


def results(runner, workload):
    """Everything a design evaluation reads off the prepared workload."""
    trace = runner.prepare(workload)
    stats = [
        runner.stats_for(design, workload).as_dict()
        for design in family_designs(runner.reference)
    ]
    return stats, trace.ref_raw, trace.post_l3_segments, trace.sample_factor


def forbid_upper_replay(monkeypatch):
    """Make any L1–L3 simulation fail the test."""
    def replayed(*args, **kwargs):
        raise AssertionError("L1-L3 replayed although an upper record exists")

    monkeypatch.setattr(Hierarchy, "run", replayed)
    monkeypatch.setattr(Hierarchy, "process_batch", replayed)


def upper_files(directory, suffix="json"):
    return sorted(directory.glob(f"CG-*.upper-*.{suffix}"))


class TestTraceCache:
    def test_cache_files_written(self, tmp_path):
        runner = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        runner.prepare(get_workload("CG"))
        assert list(tmp_path.glob("CG-*.stream.rts"))
        assert list(tmp_path.glob("CG-*.regions.json"))

    def test_second_runner_reloads(self, tmp_path):
        first = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        trace_a = first.prepare(get_workload("CG"))
        second = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        trace_b = second.prepare(get_workload("CG"))
        assert trace_b.result.checks == {"cached": True}
        assert len(trace_b.result.stream) == len(trace_a.result.stream)
        # Region maps survive for the NDM oracle.
        assert [r.name for r in trace_b.result.tracer.regions] == [
            r.name for r in trace_a.result.tracer.regions
        ]

    def test_cached_evaluations_identical(self, tmp_path):
        design_args = dict(scale=SCALE)
        fresh = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        ev_a = fresh.evaluate(
            NMMDesign(PCM, N_CONFIGS["N6"], reference=fresh.reference,
                      **design_args),
            get_workload("CG"),
        )
        reloaded = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        ev_b = reloaded.evaluate(
            NMMDesign(PCM, N_CONFIGS["N6"], reference=reloaded.reference,
                      **design_args),
            get_workload("CG"),
        )
        assert ev_a.time_norm == ev_b.time_norm
        assert ev_a.energy_j == ev_b.energy_j

    def test_different_seed_not_shared(self, tmp_path):
        a = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        a.prepare(get_workload("CG"))
        b = Runner(scale=SCALE, seed=5, trace_cache_dir=str(tmp_path))
        trace = b.prepare(get_workload("CG"))
        assert trace.result.checks != {"cached": True}

    def test_oracle_works_from_cache(self, tmp_path):
        Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path)).prepare(
            get_workload("CG")
        )
        reloaded = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        placements = reloaded.ndm_oracle(get_workload("CG"), PCM)
        assert placements

    def test_legacy_npz_cache_is_a_miss(self, tmp_path):
        # A cache from before the store format holds a compressed
        # ``.npz`` stream, its sidecar and the region map, no ``.rts``.
        import numpy as np

        from repro.trace.io import checksum_path, compute_checksum, save_regions

        workload = get_workload("CG")
        legacy = tmp_path / "legacy"
        runner = Runner(scale=SCALE, seed=4, trace_cache_dir=str(legacy))
        name = runner._cache_name(workload)
        traced = workload.trace(scale=SCALE, seed=4)
        batch = traced.stream.as_batch()
        npz = legacy / f"{name}.stream.npz"
        legacy.mkdir()
        np.savez_compressed(
            npz, version=np.int64(1), addresses=batch.addresses,
            sizes=batch.sizes, is_store=batch.is_store,
        )
        checksum_path(npz).write_text(f"{compute_checksum(npz)}  {npz.name}\n")
        save_regions(traced.tracer, legacy / f"{name}.regions.json")

        got = results(runner, workload)
        assert runner.prepare(workload).result.checks != {"cached": True}
        assert (legacy / f"{name}.stream.rts").exists()
        empty = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path / "new"))
        assert got == results(empty, workload)

    def test_no_cache_dir_no_files(self, tmp_path):
        runner = Runner(scale=SCALE, seed=4)
        runner.prepare(get_workload("CG"))
        assert not list(tmp_path.iterdir())


class TestCorruptCacheSelfHeal:
    def test_corrupt_entry_discarded_and_retraced(self, tmp_path):
        first = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        trace_a = first.prepare(get_workload("CG"))
        stream_path = next(iter(tmp_path.glob("CG-*.stream.rts")))
        # Corrupt a byte inside the first chunk's payload (chunks start
        # at the first page boundary), which the runner's eager
        # verify() pass must catch.
        data = bytearray(stream_path.read_bytes())
        data[4096 + 10] ^= 0xFF
        stream_path.write_bytes(bytes(data))

        healed = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        trace_b = healed.prepare(get_workload("CG"))
        # Re-traced (not served from the corrupt cache) ...
        assert trace_b.result.checks != {"cached": True}
        assert len(trace_b.result.stream) == len(trace_a.result.stream)
        # ... and the cache entry was rewritten cleanly for next time.
        third = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        assert third.prepare(get_workload("CG")).result.checks == {
            "cached": True
        }

    def test_discard_trace_removes_pair_and_sidecars(self, tmp_path):
        from repro.trace.io import discard_trace

        runner = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        runner.trace_only(get_workload("CG"))  # the pair, no upper record
        name = next(iter(tmp_path.glob("CG-*.stream.rts"))).name
        name = name.removesuffix(".stream.rts")
        removed = discard_trace(tmp_path, name)
        assert len(removed) == 4  # two artifacts + two sidecars
        assert not list(tmp_path.iterdir())


class TestUpperRecordWarmEqualsCold:
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_second_runner_loads_instead_of_replaying(
        self, tmp_path, monkeypatch, mode
    ):
        workload = get_workload("CG")
        cold = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path),
                      **MODES[mode])
        expected = results(cold, workload)
        assert not cold.prepare(workload).upper_cached
        assert len(upper_files(tmp_path)) == 1
        assert len(upper_files(tmp_path, "rts")) == 1

        forbid_upper_replay(monkeypatch)
        warm = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path),
                      **MODES[mode])
        assert warm.prepare(workload).upper_cached
        assert results(warm, workload) == expected


class TestUpperRecordKeys:
    def test_drain_sample_and_reference_get_their_own_records(self, tmp_path):
        workload = get_workload("CG")
        keys = set()
        for options in (*MODES.values(), {"reference": small_l3_reference()}):
            runner = Runner(scale=SCALE, seed=4,
                            trace_cache_dir=str(tmp_path), **options)
            trace = runner.prepare(workload)
            assert not trace.upper_cached, options
            keys.add(trace.upper_key)
        assert len(keys) == 4
        assert len(upper_files(tmp_path)) == 4

    def test_exact_engines_and_analytic_share_one_record(
        self, tmp_path, monkeypatch
    ):
        workload = get_workload("CG")
        first = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path),
                       engine="scalar")
        first.prepare(workload)
        forbid_upper_replay(monkeypatch)
        for engine in ("auto", "analytic"):
            trace = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path),
                           engine=engine).prepare(workload)
            assert trace.upper_cached, engine
            assert trace.upper_key == first.prepare(workload).upper_key
        assert len(upper_files(tmp_path)) == 1

    def test_keys_are_pinned(self, tmp_path):
        """Upper keys (which also name profiles and lower records) and
        sweep cell keys never move with how a cache is simulated: a
        change that reshapes configs or designs must leave every
        existing upper record, profile and journal valid."""
        from repro.experiments.cli import _parse_designs
        from repro.resilience.journal import cell_key_for

        workload = get_workload("CG")
        upper = {}
        for mode, options in MODES.items():
            runner = Runner(scale=SCALE, seed=4,
                            trace_cache_dir=str(tmp_path), **options)
            runner.trace_only(workload)
            upper[mode] = runner.upper_key(workload)
        assert upper == {
            "exact": "cc8052d7e12dbc49",
            "drain": "ed39be094c1c157d",
            "sample": "f258255b77dc917a",
        }
        designs = _parse_designs(
            "REF,NMM:PCM:N6,4LC:EDRAM:EH4,4LCNVM:EDRAM:PCM:EH4", SCALE,
            ReferenceSystem.sandy_bridge(),
        )
        cells = {
            (engine_class, drain): [
                cell_key_for(d, workload, SCALE, 4, drain, engine_class)
                for d in designs
            ]
            for engine_class, drain in (
                ("exact", False), ("exact", True), ("analytic", False)
            )
        }
        assert cells == {
            ("exact", False): [
                "cb81fc1c4cc481f2c0a4b1af", "e57777d75c093e5547b28583",
                "2a44909ab5a55453dfcddf64", "90ac4e8bc949fd1080190692",
            ],
            ("exact", True): [
                "5dc897343754adcffdf9e2d1", "30e0b8a8d8ab567ca98db06a",
                "0433ea0b2157b597a763e355", "000c45fdfaec396eb1621201",
            ],
            ("analytic", False): [
                "c51c00d520406769e2975f51", "55c9ea8a9b37593557db4182",
                "35495589a196111f59f7f3c1", "051c072858080ee02ff39119",
            ],
        }

    def test_no_record_without_a_trace_cache(self):
        trace = Runner(scale=SCALE, seed=4).prepare(get_workload("CG"))
        assert trace.upper_key is None and not trace.upper_cached

    def test_profiles_follow_the_runners_own_stream(self, tmp_path):
        """Two pyramids share one trace cache; each analytic runner must
        profile its own post-L3 stream, not load the other's."""
        workload = get_workload("CG")
        for reference in (ReferenceSystem.sandy_bridge(), small_l3_reference()):
            runner = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path),
                            reference=reference, engine="analytic")
            runner.stats_for(family_designs(reference)[1], workload)
            post_l3 = runner.prepare(workload).post_l3
            assert runner._profiles
            for profile in runner._profiles.values():
                assert profile.references == len(post_l3)
        assert len({p.name for p in tmp_path.glob("CG-*.profile-*.npz")}) >= 2


class TestUpperRecordSelfHeal:
    def _corrupt_flipped_chunk(self, tmp_path):
        rts = upper_files(tmp_path, "rts")[0]
        data = bytearray(rts.read_bytes())
        data[4096 + 10] ^= 0xFF  # inside the first chunk's payload
        rts.write_bytes(bytes(data))

    def _corrupt_truncated_json(self, tmp_path):
        path = upper_files(tmp_path)[0]
        path.write_bytes(path.read_bytes()[:40])

    def _corrupt_missing_rts(self, tmp_path):
        upper_files(tmp_path, "rts")[0].unlink()

    def _rewrite_json(self, tmp_path, edit):
        """Rewrite the record's JSON through ``edit``, with a matching
        sidecar (well-formed on disk, wrong in content)."""
        path = upper_files(tmp_path)[0]
        record = json.loads(path.read_bytes())
        edit(record)
        _write_artifact(path, json.dumps(record).encode())

    def _corrupt_version_1(self, tmp_path):
        """A record as version 1 wrote it: no footprint, no traffic."""
        def edit(record):
            record["version"] = 1
            del record["footprint_bytes"], record["region_traffic"]

        self._rewrite_json(tmp_path, edit)

    def _corrupt_short_traffic(self, tmp_path):
        """Region traffic one interval short of the trace's regions."""
        self._rewrite_json(
            tmp_path, lambda record: record["region_traffic"].pop()
        )

    def _corrupt_negative_traffic(self, tmp_path):
        """A counter no pass over a trace can produce."""
        def edit(record):
            record["region_traffic"][0][0] = -1

        self._rewrite_json(tmp_path, edit)

    def _corrupt_foreign_rts(self, tmp_path):
        """Swap in the ``.rts`` of a drained record: a valid store, but
        not the one this JSON was written with."""
        Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path),
               drain=True).prepare(get_workload("CG"))
        exact = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        key = exact.upper_key(get_workload("CG"))
        (rts,) = tmp_path.glob(f"CG-*.upper-{key}.rts")
        (other,) = [p for p in upper_files(tmp_path, "rts") if p != rts]
        rts.write_bytes(other.read_bytes())

    @pytest.mark.parametrize(
        "corruption",
        ["flipped_chunk", "truncated_json", "missing_rts", "foreign_rts",
         "version_1", "short_traffic", "negative_traffic"],
    )
    def test_corrupt_record_is_rebuilt_with_identical_results(
        self, tmp_path, corruption
    ):
        workload = get_workload("CG")
        cold = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        expected = results(cold, workload)
        getattr(self, f"_corrupt_{corruption}")(tmp_path)

        healed = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        assert not healed.prepare(workload).upper_cached
        assert results(healed, workload) == expected
        again = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        assert again.prepare(workload).upper_cached
        assert results(again, workload) == expected


class TestUpperRecordTraceSummary:
    """The upper record keeps the trace's footprint and region traffic,
    so a warm run never scans the trace for the NDM oracle."""

    def test_footprint_and_region_traffic_round_trip(self, tmp_path):
        workload = get_workload("CG")
        cold = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        built = cold.prepare(workload)
        stream, tracer = built.result.stream, built.result.tracer
        assert built.traced_footprint_bytes == stream.stats().footprint_bytes
        assert built.region_traffic == region_traffic(stream, tracer)
        record = json.loads(upper_files(tmp_path)[0].read_bytes())
        assert record["version"] == 2
        assert record["footprint_bytes"] == built.traced_footprint_bytes
        assert record["region_traffic"] == built.region_traffic

        warm = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path)).prepare(
            workload
        )
        assert warm.upper_cached
        assert warm.traced_footprint_bytes == built.traced_footprint_bytes
        # Rows of exact Python ints, one per interval, as counted cold.
        assert len(warm.region_traffic) == region_intervals(tracer)
        assert all(
            len(row) == len(TRAFFIC_COLUMNS)
            and all(type(value) is int for value in row)
            for row in warm.region_traffic
        )
        assert warm.region_traffic == region_traffic(stream, tracer)

    def test_without_a_trace_cache_prepare_summarizes_the_trace(self):
        trace = Runner(scale=SCALE, seed=4).prepare(get_workload("CG"))
        stream, tracer = trace.result.stream, trace.result.tracer
        assert trace.traced_footprint_bytes == stream.stats().footprint_bytes
        assert trace.region_traffic == region_traffic(stream, tracer)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_warm_oracle_never_scans_the_trace(
        self, tmp_path, monkeypatch, mode
    ):
        workload = get_workload("CG")
        cold = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path),
                      **MODES[mode])
        expected = [cold.ndm_oracle(workload, tech) for tech in (PCM, STTRAM)]
        cold.save_lower_records()

        scans = []
        for cls in (AddressStream, MappedStream):
            for name in ("stats", "chunks"):
                real = cls.__dict__.get(name)
                if real is None:
                    continue

                def counted(self, *args, _real=real, _name=name, **kwargs):
                    scans.append(_name)
                    return _real(self, *args, **kwargs)

                monkeypatch.setattr(cls, name, counted)
        warm = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path),
                      **MODES[mode])
        assert warm.prepare(workload).upper_cached
        assert [warm.ndm_oracle(workload, tech) for tech in (PCM, STTRAM)] == (
            expected
        )
        assert scans == []

    def test_ndm_figures_equal_cold_and_warm(self, tmp_path):
        workloads = [get_workload("CG"), get_workload("Hashing")]
        techs = [PCM, STTRAM, FERAM]

        def figures():
            runner = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
            out = [
                dataclasses.asdict(figure(runner, workloads, techs))
                for figure in (figure7, figure8)
            ]
            runner.save_lower_records()
            return out

        cold = figures()
        assert figures() == cold


class TestUpperRecordTelemetry:
    def _prepare(self, tmp_path, label):
        out = tmp_path / label
        telemetry = Telemetry(out)
        Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path / "cache"),
               telemetry=telemetry).prepare(get_workload("CG"))
        simulated = telemetry.counter("repro_references_simulated_total").value
        telemetry.close()
        events = [
            json.loads(line)
            for line in (out / "events.jsonl").read_text().splitlines()
        ]
        return out, simulated, events

    def test_record_hit_simulates_and_reports_nothing_upper(self, tmp_path):
        cold_dir, cold_refs, cold_events = self._prepare(tmp_path, "cold")
        warm_dir, warm_refs, warm_events = self._prepare(tmp_path, "warm")

        def spans(events):
            return {e["name"] for e in events if e["kind"] == "span"}

        def prepared(events):
            (event,) = [e for e in events if e["kind"] == "workload_prepared"]
            return event

        assert "runner.upper_sim" in spans(cold_events)
        assert "runner.upper_sim" not in spans(warm_events)
        def upper_windows(events):
            return [
                e for e in events
                if e["kind"] == "window" and e["context"] == "upper-CG"
            ]

        assert upper_windows(cold_events)
        assert not upper_windows(warm_events)
        assert cold_refs > 0 and warm_refs == 0
        assert prepared(cold_events)["upper_cached"] is False
        assert prepared(warm_events)["upper_cached"] is True
        assert (
            prepared(warm_events)["post_l3_requests"]
            == prepared(cold_events)["post_l3_requests"]
        )
