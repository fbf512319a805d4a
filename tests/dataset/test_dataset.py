"""Anonymization and JSONL round-trip tests."""

import json
from pathlib import Path

import pytest

from repro.dataset.anonymize import AnonymizationMap, anonymize_record, anonymize_snapshot
from repro.dataset.io import (
    DatasetFormatError,
    iter_snapshots,
    read_snapshots,
    write_snapshots,
)
from repro.scanner.records import (
    CertificateInfo,
    EndpointRecord,
    HostRecord,
    MeasurementSnapshot,
    NodeSummary,
)


def make_record(ip=167772161, asn=64600):
    return HostRecord(
        ip=ip,
        port=4840,
        asn=asn,
        timestamp="2020-08-30T00:00:00",
        tcp_open=True,
        is_opcua=True,
        application_uri="urn:bachmann:m1:device:42",
        application_type=0,
        endpoints=[
            EndpointRecord(
                endpoint_url="opc.tcp://10.0.0.1:4840/",
                security_mode=1,
                security_policy_uri="http://opcfoundation.org/UA/SecurityPolicy#None",
                token_types=[0],
            )
        ],
        certificate=CertificateInfo(
            der_hex="aabb",
            thumbprint_hex="cc",
            signature_hash="sha1",
            key_bits=2048,
            subject="O=Bachmann electronic GmbH,CN=device-42.plant.example",
            issuer="O=Bachmann electronic GmbH,CN=device-42.plant.example",
            not_before="2019-01-01T00:00:00",
            not_after="2029-01-01T00:00:00",
            application_uri="urn:bachmann:m1:device:42",
            self_signed=True,
            signature_valid=True,
            modulus_hex="c0ffee",
        ),
        namespaces=["http://bachmann.info/UA/M1"],
        nodes=NodeSummary(
            total_nodes=10,
            variables=5,
            methods=1,
            readable_variables=5,
            readable_names_sample=["sLicensePlate"],
        ),
    )


class TestAnonymization:
    def test_ip_renumbered_consecutively(self):
        mapping = AnonymizationMap()
        first = anonymize_record(make_record(ip=1111), mapping)
        second = anonymize_record(make_record(ip=2222), mapping)
        again = anonymize_record(make_record(ip=1111), mapping)
        assert first.ip == 1
        assert second.ip == 2
        assert again.ip == 1  # stable pseudonyms

    def test_asn_renumbered(self):
        mapping = AnonymizationMap()
        record = anonymize_record(make_record(asn=64600), mapping)
        assert record.asn == 1

    def test_certificate_fields_blackened(self):
        record = anonymize_record(make_record(), AnonymizationMap())
        assert "plant.example" not in record.certificate.subject
        assert "Bachmann" in record.certificate.subject  # org kept
        assert record.certificate.der_hex == ""
        assert record.certificate.application_uri == "[redacted]"

    def test_payload_excluded(self):
        record = anonymize_record(make_record(), AnonymizationMap())
        assert record.nodes.readable_names_sample == []
        assert record.nodes.readable_variables == 5  # counts kept

    def test_endpoint_urls_dropped(self):
        record = anonymize_record(make_record(), AnonymizationMap())
        assert all(e.endpoint_url is None for e in record.endpoints)

    def test_manufacturer_attribution_survives(self):
        from repro.deployments.manufacturers import classify_application_uri

        record = anonymize_record(make_record(), AnonymizationMap())
        assert classify_application_uri(record.application_uri) == "Bachmann"

    def test_analysis_still_works_on_anonymized_data(self):
        from repro.analysis.modes import analyze_security_modes

        snapshot = MeasurementSnapshot(
            date="2020-08-30", records=[make_record()]
        )
        released = anonymize_snapshot(snapshot, AnonymizationMap())
        stats = analyze_security_modes(released.records)
        assert stats.supported["N"] == 1


class TestJsonl:
    def test_round_trip(self, tmp_path: Path):
        snapshot = MeasurementSnapshot(
            date="2020-08-30",
            records=[make_record(ip=i) for i in range(5)],
            probed=100,
            port_open=5,
        )
        path = tmp_path / "data.jsonl"
        write_snapshots(path, [snapshot])
        loaded = read_snapshots(path)
        assert len(loaded) == 1
        assert loaded[0].date == "2020-08-30"
        assert loaded[0].probed == 100
        assert loaded[0].records == snapshot.records

    def test_multiple_snapshots(self, tmp_path: Path):
        snapshots = [
            MeasurementSnapshot(date=f"2020-0{i}-01", records=[make_record()])
            for i in range(1, 4)
        ]
        path = tmp_path / "multi.jsonl"
        write_snapshots(path, snapshots)
        loaded = read_snapshots(path)
        assert [s.date for s in loaded] == ["2020-01-01", "2020-02-01", "2020-03-01"]

    def test_record_before_header_rejected(self, tmp_path: Path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ip": 1, "port": 4840, "asn": null, "timestamp": "x"}\n')
        with pytest.raises(ValueError):
            read_snapshots(path)

    def test_gzip_round_trip(self, tmp_path: Path):
        snapshot = MeasurementSnapshot(
            date="2020-08-30", records=[make_record(ip=i) for i in range(3)]
        )
        path = tmp_path / "data.jsonl.gz"
        write_snapshots(path, [snapshot])
        loaded = read_snapshots(path)
        assert loaded[0].records == snapshot.records

    def test_gzip_bytes_are_reproducible(self, tmp_path: Path):
        """mtime=0 keeps the compressed file content-addressed."""
        snapshot = MeasurementSnapshot(date="2020-08-30", records=[make_record()])
        first, second = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
        write_snapshots(first, [snapshot])
        write_snapshots(second, [snapshot])
        assert first.read_bytes() == second.read_bytes()

    def test_iter_snapshots_streams_lazily(self, tmp_path: Path):
        snapshots = [
            MeasurementSnapshot(date=f"2020-0{i}-01", records=[make_record()])
            for i in range(1, 4)
        ]
        path = tmp_path / "multi.jsonl"
        write_snapshots(path, snapshots)
        stream = iter_snapshots(path)
        assert next(stream).date == "2020-01-01"
        assert next(stream).date == "2020-02-01"


class TestTruncationValidation:
    """The header's record count is authoritative (satellite bugfix:
    the old reader tracked a ``remaining`` counter it never checked)."""

    def _write(self, tmp_path: Path, count: int = 5) -> Path:
        snapshot = MeasurementSnapshot(
            date="2020-08-30",
            records=[make_record(ip=i) for i in range(count)],
        )
        path = tmp_path / "data.jsonl"
        write_snapshots(path, [snapshot])
        return path

    def test_truncated_tail_rejected(self, tmp_path: Path):
        path = self._write(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(DatasetFormatError, match="truncated"):
            read_snapshots(path)

    def test_short_snapshot_before_next_header_rejected(self, tmp_path: Path):
        path = self._write(tmp_path)
        lines = path.read_text().splitlines()
        # Drop one record line, then append a second snapshot header:
        # the count mismatch must surface at the header boundary.
        del lines[2]
        lines.append('{"snapshot": "2020-09-06", "records": 0}')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="precede the next header"):
            read_snapshots(path)

    def test_extra_records_rejected(self, tmp_path: Path):
        path = self._write(tmp_path)
        lines = path.read_text().splitlines()
        lines.append(lines[-1])  # duplicate the last record line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="more record lines"):
            read_snapshots(path)

    def test_half_written_json_line_rejected(self, tmp_path: Path):
        path = self._write(tmp_path)
        content = path.read_text()
        path.write_text(content[: len(content) - 40])
        with pytest.raises(DatasetFormatError):
            read_snapshots(path)

    def test_byte_truncated_gzip_rejected(self, tmp_path: Path):
        """A .gz cut mid-stream (interrupted write) must surface as a
        DatasetFormatError, not a raw EOFError from gzip."""
        snapshot = MeasurementSnapshot(
            date="2020-08-30",
            records=[make_record(ip=i) for i in range(5)],
        )
        path = tmp_path / "data.jsonl.gz"
        write_snapshots(path, [snapshot])
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(DatasetFormatError, match="truncated"):
            read_snapshots(path)


class TestWrongShapeLines:
    """A complete, valid-JSON line of the wrong shape is a
    DatasetFormatError naming its file and line, never a raw
    TypeError or ValueError out of the reader."""

    def _write_with(self, tmp_path: Path, index: int, line: str) -> Path:
        snapshot = MeasurementSnapshot(
            date="2020-08-30",
            records=[make_record(ip=i) for i in range(3)],
        )
        path = tmp_path / "data.jsonl"
        write_snapshots(path, [snapshot])
        lines = path.read_text().splitlines()
        lines[index] = line
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("index", [0, 1], ids=["header", "record"])
    @pytest.mark.parametrize("line", ["42", "null", '"x"', "[]"])
    def test_non_object_line_rejected(self, tmp_path, index, line):
        path = self._write_with(tmp_path, index, line)
        with pytest.raises(
            DatasetFormatError,
            match=rf"data\.jsonl:{index + 1}: expected a JSON object",
        ):
            read_snapshots(path)

    @pytest.mark.parametrize(
        "header",
        [
            '{"snapshot": 5, "records": "x"}',
            '{"snapshot": 5, "records": 3}',
            '{"snapshot": "2020-08-30", "records": "x"}',
            '{"snapshot": "2020-08-30", "records": -1}',
            '{"snapshot": "2020-08-30", "records": true}',
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, header):
        path = self._write_with(tmp_path, 0, header)
        with pytest.raises(
            DatasetFormatError,
            match=r"data\.jsonl:1: malformed snapshot header",
        ):
            read_snapshots(path)

    @pytest.mark.parametrize(
        "fields",
        [{}, {"bogus": 1}, {"endpoints": 5}, {"certificate": "x"}],
        ids=["empty", "unknown-field", "endpoints-int", "certificate-str"],
    )
    def test_rejected_record_line(self, tmp_path, fields):
        record = make_record().to_json_dict() if fields else {}
        line = json.dumps({**record, **fields})
        path = self._write_with(tmp_path, 2, line)
        with pytest.raises(
            DatasetFormatError, match=r"data\.jsonl:3: not a host record"
        ):
            read_snapshots(path)
