"""Unit tests for the framed-WAL substrate (framing, fencing, salvage)."""

import json
import re

import pytest

from repro.core.errors import CorruptRecordError, JournalError
from repro.storage.faults import FaultyFS, RealFS
from repro.storage.framing import (
    DurabilityPolicy,
    encode_frame,
    fence_records,
    frame_payload,
    load_checkpoint,
    read_log,
    scan_log,
    timed_fsync,
    write_checkpoint,
)


def frame(obj: dict, generation: int = 0) -> bytes:
    return encode_frame(json.dumps(obj, sort_keys=True), generation)


class TestFrameEncoding:
    def test_roundtrip(self):
        line = frame({"code": "AT", "name": "T_x"}, generation=7)
        assert line.startswith(b"#W1 7 ")
        assert line.endswith(b"\n")
        assert frame_payload(line) == {"code": "AT", "name": "T_x"}

    def test_newline_in_payload_rejected(self):
        with pytest.raises(ValueError):
            encode_frame("a\nb", 0)

    def test_crc_bit_flip_detected(self):
        line = bytearray(frame({"k": "value"}))
        line[-3] ^= 0x01  # flip one payload bit
        with pytest.raises(CorruptRecordError, match="checksum"):
            frame_payload(bytes(line))

    def test_length_mismatch_detected(self):
        line = frame({"k": "value"})
        truncated = line[:-3] + b"\n"  # drop payload bytes, keep header
        with pytest.raises(CorruptRecordError, match="length mismatch"):
            frame_payload(truncated)

    def test_unknown_frame_version_rejected(self):
        line = frame({"k": 1}).replace(b"#W1", b"#W9", 1)
        with pytest.raises(CorruptRecordError, match="version"):
            frame_payload(line)

    def test_unframed_line_rejected(self):
        with pytest.raises(CorruptRecordError, match="frame tag"):
            frame_payload(b'{"code": "AT"}')


class TestScanClassification:
    def test_clean_log(self):
        data = frame({"a": 1}) + frame({"b": 2})
        scan = scan_log(data)
        assert [r.payload for r in scan.records] == [{"a": 1}, {"b": 2}]
        assert scan.damage is None
        assert scan.valid_end == len(data)

    def test_unterminated_garbage_is_torn(self):
        data = frame({"a": 1}) + b"#W1 0 50 0000"
        scan = scan_log(data)
        assert scan.damage is not None and scan.damage.kind == "torn"
        assert len(scan.records) == 1

    def test_terminated_garbage_is_corrupt(self):
        data = frame({"a": 1}) + b"#W1 0 50 00000000 junk\n" + frame({"b": 2})
        scan = scan_log(data)
        assert scan.damage is not None and scan.damage.kind == "corrupt"
        assert scan.dropped_records == 1  # the valid record beyond damage

    def test_valid_but_unterminated_final_record_is_kept(self):
        # Crash after the last payload byte but before the newline: the
        # record is complete and must NOT be dropped.
        data = frame({"a": 1}) + frame({"b": 2})[:-1]
        scan = scan_log(data)
        assert [r.payload for r in scan.records] == [{"a": 1}, {"b": 2}]
        assert scan.damage is None
        assert scan.needs_newline

    def test_semantic_failure_is_corrupt_even_unterminated(self):
        # Checksummed payload that decodes to garbage: writer bug, not a
        # torn write — corrupt wherever it sits (satellite regression).
        def decode(obj):
            raise ValueError("no such operation")

        data = frame({"bogus": True})[:-1]  # also unterminated
        scan = scan_log(data, decode)
        assert scan.damage is not None and scan.damage.kind == "corrupt"

    def test_unframed_line_after_framed_is_corrupt(self):
        data = frame({"framed": 1}, generation=3) + b'{"bare": 2}\n'
        scan = scan_log(data)
        assert [r.generation for r in scan.records] == [3]
        assert scan.damage is not None and scan.damage.kind == "corrupt"
        assert "frame tag" in scan.damage.reason

    @pytest.mark.parametrize(
        "tail", [b'{"bare": 2}', b"#", b"#W"],
        ids=["bare-json", "lone-hash", "bare-magic"],
    )
    def test_unterminated_unframed_tail_is_torn(self, tail):
        data = frame({"framed": 1}) + tail
        scan = scan_log(data)
        assert len(scan.records) == 1
        assert scan.damage is not None and scan.damage.kind == "torn"
        assert scan.valid_end == len(data) - len(tail)


class TestReadLog:
    def test_strict_raises_on_corrupt(self, tmp_path):
        p = tmp_path / "log"
        p.write_bytes(frame({"a": 1}) + b"#W1 0 9 00000000 junkjunk\n")
        with pytest.raises(CorruptRecordError, match="salvage"):
            read_log(p, mode="strict")

    def test_strict_tolerates_torn_tail(self, tmp_path):
        p = tmp_path / "log"
        p.write_bytes(frame({"a": 1}) + b"#W1 0 99 par")
        records, report = read_log(p, mode="strict")
        assert [r.payload for r in records] == [{"a": 1}]
        assert report.torn_tail_bytes > 0
        assert not report.clean

    def test_repair_truncates_torn_tail(self, tmp_path):
        p = tmp_path / "log"
        good = frame({"a": 1})
        p.write_bytes(good + b"#W1 0 99 par")
        read_log(p, mode="strict", repair=True)
        assert p.read_bytes() == good

    def test_repair_reterminates_valid_final_record(self, tmp_path):
        p = tmp_path / "log"
        p.write_bytes(frame({"a": 1})[:-1])
        records, _ = read_log(p, mode="strict", repair=True)
        assert [r.payload for r in records] == [{"a": 1}]
        assert p.read_bytes() == frame({"a": 1})

    def test_salvage_quarantines_damaged_suffix(self, tmp_path):
        p = tmp_path / "log"
        good = frame({"a": 1})
        bad = b"#W1 0 9 00000000 junkjunk\n"
        lost = frame({"b": 2})  # valid but unreachable beyond the damage
        p.write_bytes(good + bad + lost)
        records, report = read_log(p, mode="salvage", repair=True)
        assert [r.payload for r in records] == [{"a": 1}]
        assert p.read_bytes() == good
        sidecar = tmp_path / "log.corrupt"
        assert sidecar.exists()
        quarantined = sidecar.read_bytes()
        assert quarantined.startswith(b"#QUARANTINE ")
        assert bad in quarantined and lost in quarantined
        assert report.records_dropped == 2
        assert report.bytes_quarantined == len(bad) + len(lost)
        assert report.quarantine_path == str(sidecar)

    def test_missing_file_is_clean_empty(self, tmp_path):
        records, report = read_log(tmp_path / "nope", mode="strict")
        assert records == [] and report.clean

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="recovery mode"):
            read_log(tmp_path / "x", mode="lenient")


class TestFencing:
    def test_stale_generations_fenced(self, tmp_path):
        p = tmp_path / "log"
        p.write_bytes(
            frame({"old": 1}, generation=1)
            + frame({"new": 2}, generation=2)
            + frame({"newer": 3}, generation=3)
        )
        records, _ = read_log(p)
        live, fenced = fence_records(records, 2)
        assert fenced == 1
        assert [r.payload for r in live] == [{"new": 2}, {"newer": 3}]


class TestCheckpoints:
    def test_roundtrip_with_generation(self, tmp_path):
        p = tmp_path / "ckpt"
        write_checkpoint(p, {"types": ["T_x"]}, 5)
        state, generation = load_checkpoint(p)
        assert state == {"types": ["T_x"]} and generation == 5
        assert not (tmp_path / "ckpt.tmp").exists()

    def test_empty_state_roundtrips(self, tmp_path):
        # A replica installs ``null`` for a primary with no checkpoint.
        p = tmp_path / "ckpt"
        write_checkpoint(p, None, 3)
        assert load_checkpoint(p) == (None, 3)

    @pytest.mark.parametrize(
        "doc",
        [
            {"format": 2, "generation": 1},
            {"format": 2, "generation": "1", "state": {}},
            [{"format": 2, "generation": 1, "state": {}}],
            {"format": 3, "generation": 1, "state": {}},
            {"format": 1, "types": []},
        ],
        ids=[
            "missing-state", "non-int-generation", "json-list",
            "unknown-format", "bare-state-dict",
        ],
    )
    def test_malformed_checkpoint_is_corrupt(self, tmp_path, doc):
        p = tmp_path / "ckpt"
        p.write_text(json.dumps(doc))
        with pytest.raises(CorruptRecordError, match=re.escape(str(p))):
            load_checkpoint(p)

    def test_missing_checkpoint(self, tmp_path):
        assert load_checkpoint(tmp_path / "nope") == (None, 0)

    def test_unreadable_checkpoint_raises(self, tmp_path):
        p = tmp_path / "ckpt"
        p.write_bytes(b"\xff\xfenot json")
        with pytest.raises(CorruptRecordError, match="checkpoint"):
            load_checkpoint(p)


class TestDurabilityPolicy:
    def test_defaults(self):
        policy = DurabilityPolicy()
        assert policy.fsync == "always"  # every acknowledged write is durable
        assert policy.checkpoint_every is None
        assert policy.replay_budget_seconds is None

    def test_always(self):
        assert DurabilityPolicy(fsync="always") == DurabilityPolicy()

    def test_batch(self):
        with pytest.raises(ValueError, match="'batch' is not supported.*removed"):
            DurabilityPolicy(fsync="batch")

    def test_never(self):
        with pytest.raises(ValueError, match="'never' is not supported.*removed"):
            DurabilityPolicy(fsync="never")

    def test_bad_fsync_rejected(self):
        with pytest.raises(ValueError, match="fsync policy"):
            DurabilityPolicy(fsync="sometimes")

    def test_bad_checkpoint_every_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            DurabilityPolicy(checkpoint_every=0)


class TestTimedFsync:
    def test_failure_surfaces_as_journal_error(self, tmp_path):
        p = tmp_path / "f"
        p.write_bytes(b"x")
        fs = FaultyFS(fail_fsync=True, base=RealFS())
        with pytest.raises(JournalError, match="fsync"):
            timed_fsync(fs, p)
