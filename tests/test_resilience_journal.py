"""Result journal: content-hash keys, atomic append, tolerant resume."""

import dataclasses
import json

import pytest

from repro.errors import SweepError
from repro.model.evaluate import Evaluation
from repro.resilience import (
    SCHEMA_VERSION,
    Journal,
    JournalEntry,
    cell_key,
)
from repro.resilience.journal import SYNC_INTERVAL_S

pytestmark = pytest.mark.resilience


def make_evaluation(design="D", workload="W"):
    return Evaluation(
        design_name=design, workload=workload, time_s=1.0, dynamic_j=2.0,
        static_j=3.0, energy_j=5.0, edp_js=5.0, amat_ns=1.5, time_norm=1.0,
        energy_norm=0.5, dynamic_norm=0.4, static_norm=0.6, edp_norm=0.5,
    )


def make_entry(key="k1", status="ok", **overrides):
    fields = dict(
        key=key, design="D", workload="W", scale=0.001, seed=0,
        status=status, attempts=1, duration_s=0.5,
    )
    fields.update(overrides)
    return JournalEntry(**fields)


class TestCellKey:
    def test_deterministic(self):
        assert cell_key("D", "S", "W", 0.1, 0) == cell_key("D", "S", "W", 0.1, 0)

    def test_sensitive_to_every_component(self):
        base = cell_key("D", "S", "W", 0.1, 0)
        assert cell_key("D2", "S", "W", 0.1, 0) != base
        assert cell_key("D", "S2", "W", 0.1, 0) != base
        assert cell_key("D", "S", "W2", 0.1, 0) != base
        assert cell_key("D", "S", "W", 0.2, 0) != base
        assert cell_key("D", "S", "W", 0.1, 1) != base


class TestEntryRoundtrip:
    def test_json_roundtrip(self):
        entry = make_entry(evaluation={"time_norm": 1.0})
        assert JournalEntry.from_json(entry.to_json()) == entry

    def test_schema_stamped(self):
        payload = json.loads(make_entry().to_json())
        assert payload["schema"] == SCHEMA_VERSION

    def test_unknown_schema_rejected(self):
        payload = json.loads(make_entry().to_json())
        payload["schema"] = 99
        with pytest.raises(SweepError, match="schema"):
            JournalEntry.from_json(json.dumps(payload))

    def test_malformed_line_rejected(self):
        with pytest.raises(SweepError):
            JournalEntry.from_json("{not json")

    def test_evaluation_reconstruction(self):
        import dataclasses

        evaluation = make_evaluation()
        entry = make_entry(evaluation=dataclasses.asdict(evaluation))
        assert entry.load_evaluation() == evaluation

    def test_no_evaluation_for_failures(self):
        assert make_entry(status="failed").load_evaluation() is None


#: One journal line per status, pinned byte for byte: the entry that
#: makes it, then the line. Serialization may change how it builds a
#: line, never the line.
GOLDEN_LINES = [
    (
        dict(
            key=cell_key("NMM-PCM-N6", "NMM-N6", "CG", 1 / 8192, 0),
            design="NMM-PCM-N6", workload="CG", scale=1 / 8192, seed=0,
            status="ok", attempts=1, duration_s=0.25, run_id="run-1",
            evaluation=dataclasses.asdict(Evaluation(
                "NMM-PCM-N6", "CG", 0.125, 2.5e-3, 1.0 / 3, 0.3358, 0.0419,
                12.75, 1.0625, 0.875, 0.9, 1.1, 0.93,
            )),
        ),
        '{"attempts": 1, "design": "NMM-PCM-N6", "duration_s": 0.25, '
        '"error": null, "evaluation": {"amat_ns": 12.75, "design_name": '
        '"NMM-PCM-N6", "dynamic_j": 0.0025, "dynamic_norm": 0.9, '
        '"edp_js": 0.0419, "edp_norm": 0.93, "energy_j": 0.3358, '
        '"energy_norm": 0.875, "static_j": 0.3333333333333333, '
        '"static_norm": 1.1, "time_norm": 1.0625, "time_s": 0.125, '
        '"workload": "CG"}, "key": "de518ee46dd9ffb1a6209412", "run_id": '
        '"run-1", "scale": 0.0001220703125, "schema": 1, "seed": 0, '
        '"status": "ok", "workload": "CG"}',
    ),
    (
        dict(
            key=cell_key("4LC-EDRAM-EH4", "4LC-EH4", "SP", 1 / 8192, 0,
                         True),
            design="4LC-EDRAM-EH4", workload="SP", scale=1 / 8192, seed=0,
            status="failed", attempts=3, duration_s=1.5,
            error="SimulationError: conservation violated\n  at L4",
        ),
        '{"attempts": 3, "design": "4LC-EDRAM-EH4", "duration_s": 1.5, '
        '"error": "SimulationError: conservation violated\\n  at L4", '
        '"evaluation": null, "key": "f384a16540b38f909ed20e65", "run_id": '
        'null, "scale": 0.0001220703125, "schema": 1, "seed": 0, '
        '"status": "failed", "workload": "SP"}',
    ),
    (
        dict(
            key=cell_key("REF", "REF", "Hashing", 0.5, 7, False, "analytic"),
            design="REF", workload="Hashing", scale=0.5, seed=7,
            status="timed_out", attempts=2, duration_s=30.0,
            error="CellTimeout: deadline 30s", engine_class="analytic",
        ),
        '{"attempts": 2, "design": "REF", "duration_s": 30.0, '
        '"engine_class": "analytic", "error": "CellTimeout: deadline 30s", '
        '"evaluation": null, "key": "a24cd579c2c413992c487e0e", "run_id": '
        'null, "scale": 0.5, "schema": 1, "seed": 7, "status": '
        '"timed_out", "workload": "Hashing"}',
    ),
    (
        dict(
            key=cell_key("NMM-STTRAM-N1", "NMM-N1", "Velvet", 1 / 1024, 3,
                         False, "sampled:500:2000:5000"),
            design="NMM-STTRAM-N1", workload="Velvet", scale=1 / 1024,
            seed=3, status="poisoned", attempts=4, duration_s=0.0,
            error="worker died 2 times on this cell", run_id="run-2",
            engine_class="sampled:500:2000:5000",
        ),
        '{"attempts": 4, "design": "NMM-STTRAM-N1", "duration_s": 0.0, '
        '"engine_class": "sampled:500:2000:5000", "error": "worker died 2 '
        'times on this cell", "evaluation": null, "key": '
        '"de214b6fe59280d5c5095fac", "run_id": "run-2", "scale": '
        '0.0009765625, "schema": 1, "seed": 3, "status": "poisoned", '
        '"workload": "Velvet"}',
    ),
]


class TestGoldenLines:
    @pytest.mark.parametrize(
        "fields,line", GOLDEN_LINES,
        ids=[fields["status"] for fields, _ in GOLDEN_LINES],
    )
    def test_line_is_pinned(self, fields, line):
        entry = JournalEntry(**fields)
        assert entry.to_json() == line
        assert JournalEntry.from_json(line) == entry

    def test_file_bytes_and_one_parse(self, tmp_path, monkeypatch):
        """A journal holds exactly the pinned lines, and a fresh handle
        parses each line once however often it is read."""
        journal = Journal(tmp_path / "golden.jsonl")
        entries = [JournalEntry(**fields) for fields, _ in GOLDEN_LINES]
        for entry in entries:
            journal.append(entry)
        assert journal.path.read_text() == "".join(
            line + "\n" for _, line in GOLDEN_LINES
        )
        parsed = []
        real = JournalEntry.from_json.__func__

        def counted(cls, line):
            parsed.append(line)
            return real(cls, line)

        monkeypatch.setattr(JournalEntry, "from_json", classmethod(counted))
        fresh = Journal(journal.path)
        assert fresh.entries() == entries
        assert fresh.entries() == entries
        assert list(fresh.load().values()) == entries
        assert len(parsed) == len(entries)


class TestJournalFile:
    def test_append_and_load(self, tmp_path):
        journal = Journal(tmp_path / "sweep.jsonl")
        journal.append(make_entry("a"))
        journal.append(make_entry("b", status="failed", error="boom"))
        loaded = Journal(tmp_path / "sweep.jsonl").load()
        assert set(loaded) == {"a", "b"}
        assert loaded["b"].error == "boom"

    def test_later_entries_win(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(make_entry("a", status="failed"))
        journal.append(make_entry("a", status="ok"))
        assert Journal(journal.path).load()["a"].status == "ok"

    def test_creates_parent_directories(self, tmp_path):
        journal = Journal(tmp_path / "deep" / "nested" / "j.jsonl")
        journal.append(make_entry("a"))
        assert journal.path.exists()

    def test_missing_file_loads_empty(self, tmp_path):
        assert Journal(tmp_path / "absent.jsonl").load() == {}

    def test_torn_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append(make_entry("a"))
        with open(path, "a") as handle:
            handle.write('{"schema": 1, "key": "tor')  # torn mid-append
        loaded = Journal(path).load()
        assert set(loaded) == {"a"}

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append(make_entry("a"))
        journal.append(make_entry("b"))
        lines = path.read_text().splitlines()
        lines[0] = "garbage"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SweepError, match="delete"):
            Journal(path).load()

    def test_append_preserves_existing_entries(self, tmp_path):
        path = tmp_path / "j.jsonl"
        Journal(path).append(make_entry("a"))
        other = Journal(path)  # fresh handle, as on resume
        other.append(make_entry("b"))
        assert set(Journal(path).load()) == {"a", "b"}

    def test_append_after_torn_tail_truncates_it(self, tmp_path):
        path = tmp_path / "j.jsonl"
        Journal(path).append(make_entry("a"))
        with open(path, "a") as handle:
            handle.write('{"schema": 1, "key": "tor')  # killed mid-append
        Journal(path).append(make_entry("b"))  # fresh handle, as on resume
        assert set(Journal(path).load()) == {"a", "b"}
        assert len(path.read_text().splitlines()) == 2

    def test_append_after_unterminated_last_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(make_entry("a").to_json())  # no trailing newline
        Journal(path).append(make_entry("b"))
        assert set(Journal(path).load()) == {"a", "b"}

    def test_append_extends_the_file_in_place(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append(make_entry("a"))
        before = path.stat()
        journal.append(make_entry("b"))
        after = path.stat()
        assert after.st_ino == before.st_ino  # not rewritten and swapped
        assert after.st_size == before.st_size + len(make_entry("b").to_json()) + 1
        assert [e.key for e in journal.entries()] == ["a", "b"]


class TestGroupCommit:
    """Every append writes its line at once; fsyncs come in groups."""

    def test_appends_inside_one_interval_cost_two_fsyncs(
        self, tmp_path, journal_io
    ):
        journal = Journal(tmp_path / "j.jsonl")
        for index in range(20):
            journal.append(make_entry(f"k{index}"))
        # Written, not yet all durable: the first append fsynced.
        assert len(Journal(journal.path).load()) == 20
        assert journal_io.fsyncs == 1 and not journal_io.synced
        journal.sync()
        assert journal_io.fsyncs == 2 and journal_io.synced
        journal.sync()  # nothing left to sync
        assert journal_io.fsyncs == 2

    def test_an_append_past_the_interval_fsyncs(self, tmp_path, journal_io):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(make_entry("a"))
        journal_io.now = SYNC_INTERVAL_S / 2
        journal.append(make_entry("b"))
        assert journal_io.fsyncs == 1
        journal_io.now = SYNC_INTERVAL_S
        journal.append(make_entry("c"))
        assert journal_io.fsyncs == 2 and journal_io.synced

    def test_sync_without_appends_is_a_no_op(self, tmp_path, journal_io):
        journal = Journal(tmp_path / "absent.jsonl")
        journal.sync()
        assert journal_io.calls == [] and not journal.exists()
