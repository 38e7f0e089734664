//! `.pqa` store integration tests: lossless round-trips against the
//! in-RAM analysis program, time-range pruning, crash/corruption
//! tolerance, and the committed `.pqa` fixture of `drive_program`.

use pq_bench::serving::{
    drive_program, spill_program, sweep_intervals, tiny_segments, tw_small, PORTS,
};
use printqueue::core::coefficient::Coefficients;
use printqueue::core::control::CoverageGap;
use printqueue::core::params::TimeWindowConfig;
use printqueue::core::printqueue::{PrintQueue, PrintQueueConfig};
use printqueue::core::queue_monitor::QueueMonitorSnapshot;
use printqueue::core::snapshot::{QueryInterval, TimeWindowSnapshot};
use printqueue::packet::FlowId;
use printqueue::store::{
    archives_to_pqa, ship_archive, verify_replica, write_archives, CheckpointArchive, Recovery,
    SegmentPolicy, SharedStoreWriter, StoreReader, StoreWriter, KIND_CHECKPOINTS, KIND_RTT,
};
use printqueue::telemetry::{names, Telemetry};
use proptest::prelude::*;
use std::io::Cursor;
use std::sync::Arc;

#[test]
fn spilled_store_queries_match_live_bit_for_bit() {
    let (ap, bytes) = spill_program(2_000, tiny_segments());
    let mut reader = StoreReader::open(Cursor::new(bytes)).unwrap();
    assert_eq!(reader.recovery(), Recovery::Index);
    assert!(
        reader.segments().len() >= 4,
        "expected several segments, got {}",
        reader.segments().len()
    );
    let coeffs = Coefficients::compute(&tw_small(), 1);
    for &port in &PORTS {
        assert_eq!(
            reader.checkpoint_count(port),
            ap.checkpoints(port).len() as u64
        );
        for interval in sweep_intervals() {
            let live = ap.query_time_windows(port, interval);
            let stored = reader.query(port, interval, &coeffs).unwrap();
            // f64 sums accumulate in the same order in both paths, so
            // exact equality is required, not approximate.
            assert_eq!(
                live.estimates.counts, stored.estimates.counts,
                "port {port} interval {interval:?}"
            );
            assert_eq!(live.gaps, stored.gaps, "port {port} interval {interval:?}");
            assert_eq!(live.degraded, stored.degraded);
        }
    }
}

#[test]
fn narrow_queries_prune_segments() {
    let (_ap, bytes) = spill_program(4_000, tiny_segments());
    let reader = StoreReader::open(Cursor::new(bytes)).unwrap();
    let interval = QueryInterval::new(100, 300);
    let port0: Vec<_> = reader.segments().iter().filter(|s| s.port == 0).collect();
    let overlapping = port0
        .iter()
        .filter(|s| s.overlaps_query(interval.from, interval.to))
        .count();
    assert!(
        overlapping < port0.len(),
        "narrow interval should prune segments ({overlapping} of {})",
        port0.len()
    );
    assert!(overlapping >= 1);
}

#[test]
fn bit_flip_loses_only_that_segment() {
    let (ap, bytes) = spill_program(2_000, tiny_segments());
    let clean = StoreReader::open(Cursor::new(bytes.clone())).unwrap();
    // Pick a middle segment of port 0 and flip one byte inside its body.
    let victims: Vec<_> = clean
        .segments()
        .iter()
        .filter(|s| s.port == 0)
        .copied()
        .collect();
    assert!(victims.len() >= 3);
    let victim = victims[victims.len() / 2];
    let mut corrupted = bytes.clone();
    corrupted[(victim.offset + victim.len - 8) as usize] ^= 0x01;

    let mut reader = StoreReader::open(Cursor::new(corrupted)).unwrap();
    // Trailer untouched: still the indexed fast path.
    assert_eq!(reader.recovery(), Recovery::Index);
    let mut clean_reader = StoreReader::open(Cursor::new(bytes)).unwrap();
    let coeffs = Coefficients::compute(&tw_small(), 1);

    // A query ending at the victim's chain predecessor never touches the
    // victim's checkpoints, so it is identical to the clean store.
    let before = QueryInterval::new(0, victim.prev_periodic.unwrap());
    let clean_q = clean_reader.query(0, before, &coeffs).unwrap();
    let corrupt_q = reader.query(0, before, &coeffs).unwrap();
    assert_eq!(clean_q.estimates.counts, corrupt_q.estimates.counts);
    assert_eq!(clean_q.degraded, corrupt_q.degraded);

    // Port 3 is untouched everywhere.
    for interval in sweep_intervals() {
        let c = clean_reader.query(3, interval, &coeffs).unwrap();
        let d = reader.query(3, interval, &coeffs).unwrap();
        assert_eq!(c.estimates.counts, d.estimates.counts);
        assert_eq!(c.gaps, d.gaps);
    }

    // A query overlapping the victim is flagged degraded with a gap
    // covering the lost span.
    let over = QueryInterval::new(victim.min_t, victim.max_t);
    let q = reader.query(0, over, &coeffs).unwrap();
    assert!(q.degraded, "query over corrupt segment must be degraded");
    assert!(q.gaps.iter().any(|g| g.to >= victim.max_t));

    // read_port skips exactly the victim's checkpoints.
    let full = clean_reader.read_port(0).unwrap();
    let partial = reader.read_port(0).unwrap();
    assert_eq!(
        partial.checkpoints.len(),
        full.checkpoints.len() - victim.count as usize
    );
    assert!(partial.gaps.len() > full.gaps.len());
    // The live program's own queries elsewhere still match.
    let live = ap.query_time_windows(0, before);
    assert_eq!(live.estimates.counts, corrupt_q.estimates.counts);
}

#[test]
fn torn_trailer_recovers_by_scan() {
    let (_ap, bytes) = spill_program(2_000, tiny_segments());
    let coeffs = Coefficients::compute(&tw_small(), 1);
    let mut clean_reader = StoreReader::open(Cursor::new(bytes.clone())).unwrap();

    // Corrupt the end magic: the trailer is unlocatable.
    let mut torn = bytes.clone();
    let n = torn.len();
    torn[n - 2] ^= 0xff;
    let mut reader = StoreReader::open(Cursor::new(torn)).unwrap();
    assert_eq!(reader.recovery(), Recovery::Scan);
    // Every segment is still on disk, so queries match the clean store.
    for &port in &PORTS {
        assert_eq!(
            reader.checkpoint_count(port),
            clean_reader.checkpoint_count(port)
        );
        for interval in sweep_intervals() {
            let c = clean_reader.query(port, interval, &coeffs).unwrap();
            let s = reader.query(port, interval, &coeffs).unwrap();
            assert_eq!(c.estimates.counts, s.estimates.counts);
        }
    }
}

#[test]
fn truncated_file_recovers_prefix_and_reports_tail() {
    let (_ap, bytes) = spill_program(2_000, tiny_segments());
    let clean = StoreReader::open(Cursor::new(bytes.clone())).unwrap();
    let last = *clean.segments().last().unwrap();
    // Cut mid-body of the last segment: trailer gone, body torn.
    let cut = (last.offset + last.len - 10) as usize;
    let truncated = bytes[..cut].to_vec();

    let mut reader = StoreReader::open(Cursor::new(truncated)).unwrap();
    assert_eq!(reader.recovery(), Recovery::Scan);
    assert!(reader.tail_torn());
    assert_eq!(reader.segments().len(), clean.segments().len() - 1);
    // The torn segment's port knows what it lost.
    let archive = reader.read_port(last.port).unwrap();
    assert!(
        archive.gaps.iter().any(|g| g.to >= last.max_t),
        "torn tail should surface as a gap"
    );
    // Earlier data still decodes.
    let coeffs = Coefficients::compute(&tw_small(), 1);
    let early = QueryInterval::new(0, 500);
    let q = reader.query(0, early, &coeffs).unwrap();
    assert!(!q.estimates.counts.is_empty());
}

#[test]
fn retention_drops_old_segments_and_records_gaps() {
    let policy = SegmentPolicy {
        checkpoints_per_segment: 4,
        max_segment_bytes: 1 << 20,
        retain_segments_per_port: Some(2),
    };
    let (_ap, bytes) = spill_program(4_000, policy);
    let mut reader = StoreReader::open(Cursor::new(bytes)).unwrap();
    let port0 = reader.segments().iter().filter(|s| s.port == 0).count();
    assert_eq!(port0, 2, "retention should keep exactly 2 segments");
    // Queries over the dropped prefix come back degraded, not silently
    // empty.
    let coeffs = Coefficients::compute(&tw_small(), 1);
    let q = reader
        .query(0, QueryInterval::new(0, 200), &coeffs)
        .unwrap();
    assert!(q.degraded);
}

/// `drive_program(None, FIXTURE_UNTIL, 0)`'s two ports as a `.pqa`, kept
/// byte for byte: the program's checkpoints may not drift from it.
const FIXTURE: &[u8] = include_bytes!("data/checkpoint_archive.pqa");
const FIXTURE_UNTIL: u64 = 640;

fn fixture_archives() -> Vec<CheckpointArchive> {
    StoreReader::open(Cursor::new(FIXTURE))
        .unwrap()
        .read_all()
        .unwrap()
}

/// Rewriting the fixture's archives under another segment policy loses
/// nothing: every port reads back equal.
#[test]
fn pqa_fixture_converts_losslessly() {
    let archives = fixture_archives();
    assert_eq!(archives.len(), PORTS.len());
    let pqa = archives_to_pqa(Vec::new(), &archives, tiny_segments()).unwrap();
    let mut reader = StoreReader::open(Cursor::new(pqa)).unwrap();
    for archive in &archives {
        assert_eq!(reader.read_port(archive.port).unwrap(), *archive);
    }
}

/// A coverage gap recorded in an archive survives its conversion:
/// `read_port` gives it back, and a query overlapping it is degraded with
/// it while one clear of it is not.
#[test]
fn coverage_gap_survives_conversion() {
    let gap = CoverageGap { from: 256, to: 448 };
    let mut archives = fixture_archives();
    archives.truncate(1);
    archives[0].gaps = vec![gap];
    let pqa = archives_to_pqa(Vec::new(), &archives, tiny_segments()).unwrap();
    let mut reader = StoreReader::open(Cursor::new(pqa)).unwrap();
    assert_eq!(reader.read_port(0).unwrap().gaps, [gap]);
    let coeffs = Coefficients::compute(&tw_small(), 1);
    let over = reader
        .query(0, QueryInterval::new(300, 400), &coeffs)
        .unwrap();
    assert!(over.degraded);
    assert_eq!(over.gaps, [gap]);
    let clear = reader
        .query(0, QueryInterval::new(0, 200), &coeffs)
        .unwrap();
    assert!(!clear.degraded);
    assert!(clear.gaps.is_empty());
}

/// The fixture answers exactly as the program rebuilt from the same
/// drive: every checkpoint and gap comes back from `read_all`, and every
/// `StoreReader::query` equals the live `query_time_windows` bit for bit.
#[test]
fn pqa_fixture_answers_like_its_program() {
    let ap = drive_program(None, FIXTURE_UNTIL, 0);
    let mut reader = StoreReader::open(Cursor::new(FIXTURE)).unwrap();
    let back = reader.read_all().unwrap();
    assert_eq!(back.len(), PORTS.len());
    let coeffs = Coefficients::compute(&tw_small(), 1);
    for (&port, archive) in PORTS.iter().zip(&back) {
        assert_eq!(archive.checkpoints, ap.checkpoints(port), "port {port}");
        assert_eq!(archive.gaps, ap.coverage_gaps(port), "port {port}");
        for interval in sweep_intervals() {
            let live = ap.query_time_windows(port, interval);
            let stored = reader.query(port, interval, &coeffs).unwrap();
            assert_eq!(
                live.estimates.counts, stored.estimates.counts,
                "port {port} interval {interval:?}"
            );
            assert_eq!(live.gaps, stored.gaps, "port {port} interval {interval:?}");
            assert_eq!(live.degraded, stored.degraded);
        }
    }
}

/// Runs `pqsim` with `args` and `--quiet`.
fn pqsim(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_pqsim"))
        .args(args)
        .arg("--quiet")
        .output()
        .unwrap()
}

/// `pqsim replay-query PATH --from 0 --to 2000 --port PORT`.
fn replay_query(path: &str, port: &str) -> std::process::Output {
    pqsim(&[
        "replay-query",
        path,
        "--from",
        "0",
        "--to",
        "2000",
        "--port",
        port,
    ])
}

/// Writes `text` to a scratch `.json` file and asserts that `pqsim
/// convert` and `pqsim replay-query` both refuse it at its missing `PQAR`
/// magic, with exit 1 and no file written.
fn assert_cli_refuses_json(name: &str, text: &[u8]) {
    let json = std::env::temp_dir().join(format!("pq-json-cli-{}-{name}.json", std::process::id()));
    let out = json.with_extension("out.pqa");
    std::fs::write(&json, text).unwrap();
    let (json_s, out_s) = (json.to_str().unwrap(), out.to_str().unwrap());
    let convert = pqsim(&["convert", json_s, out_s]);
    for refused in [convert, replay_query(json_s, "0")] {
        assert_eq!(refused.status.code(), Some(1), "{refused:?}");
        let stderr = String::from_utf8_lossy(&refused.stderr);
        assert!(stderr.contains("no PQAR magic"), "{stderr}");
    }
    assert!(!out.exists());
    std::fs::remove_file(json).ok();
}

/// `pqsim replay-query` answers the fixture and its `convert`ed copy
/// alike, and refuses a port the archive does not hold — with exit 1 and
/// the message a daemon serving the same file gives. A JSON archive is no
/// longer imported: both commands refuse it at its missing `PQAR` magic.
#[test]
fn replay_query_cli_imports_json_and_refuses_missing_ports() {
    let src = std::env::temp_dir().join(format!("pq-replay-cli-{}.pqa", std::process::id()));
    std::fs::write(&src, FIXTURE).unwrap();
    let dst = src.with_extension("v3.pqa");
    let (src, dst) = (src.to_str().unwrap(), dst.to_str().unwrap());
    let convert = pqsim(&["convert", src, dst]);
    assert!(convert.status.success(), "{convert:?}");
    let (from_src, from_dst) = (replay_query(src, "3"), replay_query(dst, "3"));
    assert!(from_src.status.success(), "{from_src:?}");
    assert!(!from_src.stdout.is_empty());
    assert_eq!(from_src.stdout, from_dst.stdout);
    for path in [src, dst] {
        let missing = replay_query(path, "9");
        assert_eq!(missing.status.code(), Some(1), "{missing:?}");
        let stderr = String::from_utf8_lossy(&missing.stderr);
        assert!(stderr.contains("port 9 not present in archive"), "{stderr}");
    }
    assert_cli_refuses_json("flat", br#"{"version":1,"port":0}"#);
    for p in [src, dst] {
        std::fs::remove_file(p).ok();
    }
}

/// A million-deep JSON nesting is refused at the header, by the reader
/// and by both CLI commands, without recursing into it.
#[test]
fn deeply_nested_json_is_refused_not_a_crash() {
    let text = "[".repeat(1_000_000).into_bytes();
    let err = StoreReader::open(Cursor::new(text.clone()))
        .err()
        .expect("refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("no PQAR magic"), "{err}");
    assert_cli_refuses_json("nested", &text);
}

/// A refused write publishes nothing. `pqsim convert` of archives that
/// disagree on their window configuration used to exit 1 and leave a
/// header-only `.pqa` behind, which read back as an archive of zero
/// checkpoints; an existing destination was truncated the same way.
#[test]
fn refused_archive_write_leaves_no_file_behind() {
    let mut archives = fixture_archives();
    archives[1].tw_config.k += 1;
    let tmp =
        |name: &str| std::env::temp_dir().join(format!("pq-refused-{}-{name}", std::process::id()));
    let (fresh, existing) = (tmp("fresh.pqa"), tmp("existing.pqa"));
    std::fs::write(&existing, b"an older archive").unwrap();
    for dst in [&fresh, &existing] {
        let err = write_archives(dst, &archives, tiny_segments()).unwrap_err();
        assert!(err.to_string().contains("disagree"), "{err}");
        let mut partial = dst.clone().into_os_string();
        partial.push(".tmp");
        assert!(!std::path::Path::new(&partial).exists());
    }
    assert!(!fresh.exists(), "a refused write left a file");
    assert_eq!(std::fs::read(&existing).unwrap(), b"an older archive");

    archives[1].tw_config = archives[0].tw_config;
    write_archives(&fresh, &archives, tiny_segments()).unwrap();
    let reader = StoreReader::open(std::fs::File::open(&fresh).unwrap()).unwrap();
    assert_eq!(
        reader.checkpoint_count(PORTS[1]),
        archives[1].checkpoints.len() as u64
    );
    for p in [fresh, existing] {
        std::fs::remove_file(p).ok();
    }
}

/// Opens `bytes` and returns the refusal, which must be `InvalidData`
/// at open, before any segment is read.
fn refused_at_open(bytes: Vec<u8>) -> String {
    let err = StoreReader::open(Cursor::new(bytes))
        .err()
        .expect("refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    err.to_string()
}

/// An archive of a version this reader does not know is refused: a
/// `.pqa` header of format version 4, and a JSON archive of any
/// `version`, which carries no `PQAR` magic.
#[test]
fn json_of_another_version_is_refused() {
    let mut v4 = FIXTURE.to_vec();
    v4[4] = 4;
    assert!(refused_at_open(v4).contains("unsupported .pqa version 4"));
    for version in [1, 2, 99] {
        let json = format!(r#"{{"version":{version},"port":0,"checkpoints":[]}}"#);
        assert!(refused_at_open(json.into_bytes()).contains("no PQAR magic"));
    }
}

/// A header holding a window configuration nothing could have captured
/// is refused at open.
#[test]
fn json_config_out_of_range_is_refused() {
    let mut bytes = FIXTURE.to_vec();
    // Byte 7 is `k`: 70 exceeds the 24 the registers allow.
    bytes[7] = 70;
    assert!(refused_at_open(bytes).contains("out of range"));
}

#[test]
fn spilled_store_matches_capture_exactly() {
    // The streaming spill path and the capture-at-end path must agree
    // when the snapshot ring never overflows.
    let (ap, bytes) = spill_program(2_000, tiny_segments());
    let mut reader = StoreReader::open(Cursor::new(bytes)).unwrap();
    for &port in &PORTS {
        let captured = CheckpointArchive::capture(&ap, port);
        assert_eq!(reader.read_port(port).unwrap(), captured);
    }
}

#[test]
fn telemetry_counts_writes_reads_and_spans() {
    // Writer side: counters mirror what lands on disk, segment seals emit
    // segment_flush spans when tracing is on.
    let plane = Telemetry::new();
    plane.set_tracing(true);
    let mut writer = StoreWriter::new(Vec::new(), tw_small(), tiny_segments()).unwrap();
    writer.set_telemetry(&plane);
    let handle = SharedStoreWriter::new(writer);
    let ap = drive_program(Some(handle.clone()), 2_000, 0);
    let bytes = handle.finish().unwrap();

    let snap = plane.snapshot();
    let pushed: u64 = PORTS.iter().map(|&p| ap.checkpoints(p).len() as u64).sum();
    assert_eq!(
        snap.counter(names::STORE_CHECKPOINTS_WRITTEN, &[]),
        Some(pushed)
    );
    let reader = StoreReader::open(Cursor::new(bytes.clone())).unwrap();
    let sealed = reader.segments().len() as u64;
    assert_eq!(
        snap.counter(names::STORE_SEGMENTS_SEALED, &[]),
        Some(sealed)
    );
    let seg_bytes: u64 = reader.segments().iter().map(|s| s.len).sum();
    assert_eq!(
        snap.counter(names::STORE_BYTES_WRITTEN, &[]),
        Some(seg_bytes)
    );
    let flush_spans = plane
        .spans()
        .snapshot()
        .iter()
        .filter(|s| s.name == names::SPAN_SEGMENT_FLUSH)
        .count() as u64;
    assert_eq!(flush_spans, sealed);

    // Reader side: decode counters and a replay_query span per query.
    let read_plane = Telemetry::new();
    read_plane.set_tracing(true);
    let mut reader = StoreReader::open(Cursor::new(bytes)).unwrap();
    reader.set_telemetry(&read_plane);
    let coeffs = Coefficients::compute(&tw_small(), 1);
    let interval = QueryInterval::new(0, 1_999);
    reader.query(0, interval, &coeffs).unwrap();
    let snap = read_plane.snapshot();
    assert!(snap.counter(names::STORE_SEGMENTS_DECODED, &[]).unwrap() >= 1);
    assert!(snap.counter(names::STORE_CHECKPOINTS_DECODED, &[]).unwrap() >= 1);
    let hist = snap.histogram(names::STORE_REPLAY_QUERY_NS, &[]).unwrap();
    assert_eq!(hist.count, 1);
    let spans = read_plane.spans().snapshot();
    let q = spans
        .iter()
        .find(|s| s.name == names::SPAN_REPLAY_QUERY)
        .expect("replay_query span recorded");
    assert_eq!((q.start, q.end), (interval.from, interval.to));
}

/// Rebuild port 0's checkpoints into a fresh store, optionally appending
/// one raw segment of `kind` spanning sim-time 2 500–2 900.
fn store_with_raw(kind: Option<u64>) -> Vec<u8> {
    let ap = drive_program(None, 1_000, 0);
    let mut w = StoreWriter::new(Vec::new(), tw_small(), tiny_segments()).unwrap();
    for cp in ap.checkpoints(0) {
        w.push(0, cp).unwrap();
    }
    if let Some(kind) = kind {
        w.push_raw(0, kind, 3, 2_500, 2_900, b"opaque future bytes")
            .unwrap();
    }
    w.finish().unwrap()
}

#[test]
fn unknown_kind_segments_skip_and_surface_as_distinct_gaps() {
    let bytes = store_with_raw(Some(99));
    let coeffs = Coefficients::compute(&tw_small(), 1);
    let mut plain = StoreReader::open(Cursor::new(store_with_raw(None))).unwrap();

    // Index path and scan path (torn end magic) must agree.
    let mut torn = bytes.clone();
    let n = torn.len();
    torn[n - 2] ^= 0xff;
    for (src, want) in [(bytes.clone(), Recovery::Index), (torn, Recovery::Scan)] {
        let mut reader = StoreReader::open(Cursor::new(src)).unwrap();
        assert_eq!(reader.recovery(), want);
        // The span is surfaced as an unknown-kind gap, not corruption.
        assert_eq!(
            reader.unknown_kind_gaps(),
            &[(
                0,
                CoverageGap {
                    from: 2_500,
                    to: 2_900
                }
            )]
        );
        assert!(!reader.tail_torn() || want == Recovery::Scan);
        // Queries overlapping the span degrade with that gap...
        let q = reader
            .query(0, QueryInterval::new(2_400, 3_000), &coeffs)
            .unwrap();
        assert!(q.degraded);
        assert!(q.gaps.iter().any(|g| g.from == 2_500 && g.to == 2_900));
        // ...while queries elsewhere are bit-identical to a store that
        // never carried the segment.
        let early = QueryInterval::new(0, 500);
        let a = plain.query(0, early, &coeffs).unwrap();
        let b = reader.query(0, early, &coeffs).unwrap();
        assert_eq!(a.estimates.counts, b.estimates.counts);
        assert_eq!(a.gaps, b.gaps);
        // read_port skips the segment but records the loss.
        let archive = reader.read_port(0).unwrap();
        assert!(archive
            .gaps
            .iter()
            .any(|g| g.from == 2_500 && g.to == 2_900));
        // Unknown segments never count as checkpoints.
        assert_eq!(reader.checkpoint_count(0), plain.checkpoint_count(0));
    }
}

#[test]
fn rtt_segments_ride_along_without_gaps() {
    let bytes = store_with_raw(Some(KIND_RTT));
    let coeffs = Coefficients::compute(&tw_small(), 1);
    let mut plain = StoreReader::open(Cursor::new(store_with_raw(None))).unwrap();

    let mut torn = bytes.clone();
    let n = torn.len();
    torn[n - 2] ^= 0xff;
    for src in [bytes.clone(), torn] {
        let mut reader = StoreReader::open(Cursor::new(src)).unwrap();
        // A known kind is data, not a gap.
        assert!(reader.unknown_kind_gaps().is_empty());
        let raw = reader.raw_segments(0, KIND_RTT);
        assert_eq!(raw.len(), 1);
        assert_eq!(
            (raw[0].count, raw[0].min_t, raw[0].max_t),
            (3, 2_500, 2_900)
        );
        assert_eq!(
            reader.read_raw_body(&raw[0]).unwrap(),
            b"opaque future bytes"
        );
        // Checkpoint queries are oblivious to the rider.
        assert_eq!(reader.checkpoint_count(0), plain.checkpoint_count(0));
        for interval in sweep_intervals() {
            let a = plain.query(0, interval, &coeffs).unwrap();
            let b = reader.query(0, interval, &coeffs).unwrap();
            assert_eq!(a.estimates.counts, b.estimates.counts);
            assert_eq!(a.gaps, b.gaps, "interval {interval:?}");
        }
        assert_eq!(
            reader
                .segments()
                .iter()
                .filter(|s| s.kind == KIND_CHECKPOINTS)
                .count(),
            plain.segments().len()
        );
    }
}

#[test]
fn replication_verifies_raw_segments() {
    let tmp =
        |name: &str| std::env::temp_dir().join(format!("pq-rttrepl-{}-{name}", std::process::id()));
    let bytes = store_with_raw(Some(KIND_RTT));
    let src = tmp("src.pqa");
    let dst = tmp("dst.pqa");
    std::fs::write(&src, &bytes).unwrap();
    ship_archive(&src, &dst).unwrap();
    assert_eq!(verify_replica(&src, &dst).unwrap(), None);

    // Same body, same bounds, different kind: not an equivalent replica.
    let other = tmp("kind2.pqa");
    std::fs::write(&other, store_with_raw(Some(2))).unwrap();
    assert!(verify_replica(&src, &other).unwrap().is_some());

    // A corrupted raw body must refuse to ship.
    let clean = StoreReader::open(Cursor::new(bytes.clone())).unwrap();
    let raw = clean.raw_segments(0, KIND_RTT)[0];
    let mut corrupted = bytes;
    corrupted[(raw.offset + raw.len - 8) as usize] ^= 0x01;
    let bad = tmp("bad.pqa");
    let bad_dst = tmp("bad-out.pqa");
    std::fs::write(&bad, &corrupted).unwrap();
    assert!(ship_archive(&bad, &bad_dst).is_err());
    assert!(!bad_dst.exists());
    for p in [src, dst, other, bad] {
        std::fs::remove_file(p).ok();
    }
}

/// Archives written with the default policy (64 checkpoints a segment)
/// over `single_port`'s 32 Ki-entry queue monitor ship and answer as the
/// live program does. A decoder that charged every monitor's whole array
/// against the 64 MiB per-segment `DecodeBudget` refused their full
/// segments ("decoded 1 of 129 indexed checkpoints"); it is charged the
/// slot table and the rows it builds, and a slot that refers back costs
/// nothing.
#[test]
fn default_policy_archive_of_a_32k_entry_monitor_ships_and_answers() {
    let tw = tw_small();
    let mut pq = PrintQueue::new(PrintQueueConfig::single_port(tw, 1));
    let handle =
        SharedStoreWriter::new(StoreWriter::new(Vec::new(), tw, SegmentPolicy::default()).unwrap());
    let ap = pq.analysis_mut();
    ap.set_spill(Box::new(handle.clone()));
    for t in 0..130 * tw.set_period() {
        ap.record_dequeue(0, FlowId((t % 7) as u32), t);
        if t % 5 == 0 {
            ap.qm_enqueue(0, 0, FlowId((t % 3) as u32), (t % 20) as u32, t);
        }
        ap.on_tick(t);
    }
    let stored = ap.checkpoints(0).len() as u64;
    assert!(stored >= 128, "only {stored} checkpoints");
    assert_eq!(
        ap.checkpoints(0)[0].queue_monitor().unwrap().len(),
        32 * 1024
    );

    let tmp =
        |name: &str| std::env::temp_dir().join(format!("pq-budget-{}-{name}", std::process::id()));
    let (src, dst) = (tmp("src.pqa"), tmp("dst.pqa"));
    std::fs::write(&src, handle.finish().unwrap()).unwrap();
    let report = ship_archive(&src, &dst).unwrap();
    assert_eq!(report.checkpoints, stored);

    let mut reader = StoreReader::open(Cursor::new(std::fs::read(&dst).unwrap())).unwrap();
    assert!(
        reader.segments().iter().any(|s| s.count == 64),
        "the default policy should have sealed full 64-checkpoint segments"
    );
    let coeffs = Coefficients::compute(&tw, 1);
    let end = 130 * tw.set_period();
    for interval in [
        QueryInterval::new(0, end),
        QueryInterval::new(end / 3, end / 2),
        QueryInterval::new(end - 500, end),
    ] {
        let live = ap.query_time_windows(0, interval);
        let replica = reader.query(0, interval, &coeffs).unwrap();
        assert_eq!(
            live.estimates.counts, replica.estimates.counts,
            "{interval:?}"
        );
        assert_eq!(live.gaps, replica.gaps);
        assert!(!replica.degraded, "{interval:?}");
    }
    assert_eq!(
        reader.read_port(0).unwrap().checkpoints.len() as u64,
        stored
    );
    for p in [src, dst] {
        std::fs::remove_file(p).ok();
    }
}

/// The end-to-end identity behind chunk sharing: a dense-polled standing
/// queue's archive — frozen chunk by chunk against the previous freeze,
/// encoded through the writer's per-port memo across fourteen segments —
/// is byte for byte the archive of the same checkpoints rebuilt from their
/// dense register images (no chunk shared with anything) and pushed
/// through a fresh writer.
#[test]
fn shared_chunk_archive_equals_its_unshared_rebuild() {
    let tw = TimeWindowConfig::new(6, 1, 10, 3);
    let policy = SegmentPolicy {
        checkpoints_per_segment: 32,
        ..SegmentPolicy::default()
    };
    let mut pq = PrintQueue::new(PrintQueueConfig::single_port(tw, 110));
    let handle = SharedStoreWriter::new(StoreWriter::new(Vec::new(), tw, policy).unwrap());
    let ap = pq.analysis_mut();
    ap.set_spill(Box::new(handle.clone()));
    // Near-MTU packets (19 cells each) climb for forty polls, then the
    // depth hovers: a poll period rewrites a few levels near the top.
    let (mut depth, mut rng) = (0u32, 12u64);
    for poll in 1..=436u64 {
        for step in 0..24u64 {
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let now = (poll - 1) * tw.set_period() + step * (tw.set_period() / 24);
            let flow = FlowId((rng >> 40) as u32 % 50);
            if poll <= 40 || rng >> 63 == 0 {
                depth += 19;
                ap.qm_enqueue(0, 0, flow, depth, now);
            } else {
                depth -= 19;
                ap.on_dequeue(0, 0, flow, depth, now);
            }
        }
        ap.on_tick(poll * tw.set_period());
    }
    let stored = ap.checkpoints(0);
    assert_eq!(stored.len(), 436);
    let (mut occupied, mut rebuilt) = (0, 0);
    for pair in stored[40..].windows(2) {
        let (old, new) = (&pair[0].queue_monitors[0], &pair[1].queue_monitors[0]);
        occupied += new.occupied_len();
        rebuilt += new.rows_not_shared_with(Some(old));
    }
    assert!(
        rebuilt * 5 < occupied,
        "sharing did not happen: {rebuilt} of {occupied} rows rebuilt"
    );

    let mut fresh = StoreWriter::new(Vec::new(), tw, policy).unwrap();
    for cp in stored {
        let mut unshared = cp.clone();
        for m in &mut unshared.queue_monitors {
            *m = QueueMonitorSnapshot::from_dense(&m.to_dense(), m.top);
        }
        fresh.push(0, &unshared).unwrap();
    }
    assert_eq!(
        fresh.sealed_segments(),
        13,
        "the memo has to outlive rotation"
    );
    let (shared, unshared) = (handle.finish().unwrap(), fresh.finish().unwrap());
    assert!(shared == unshared, "archives differ");
}

/// The same identity for the time windows: a dense-polled port whose
/// deeper windows rarely change between polls, frozen window by window
/// against the previous freeze and encoded through the writer's memo, is
/// byte for byte the archive of the same checkpoints with every window
/// deep-copied — and decoding that archive and writing it again gives the
/// same bytes once more.
#[test]
fn shared_window_archive_equals_its_unshared_rebuild() {
    let tw = TimeWindowConfig::new(6, 1, 10, 3);
    let policy = SegmentPolicy {
        checkpoints_per_segment: 32,
        ..SegmentPolicy::default()
    };
    let mut pq = PrintQueue::new(PrintQueueConfig::single_port(tw, 110));
    let handle = SharedStoreWriter::new(StoreWriter::new(Vec::new(), tw, policy).unwrap());
    let ap = pq.analysis_mut();
    ap.set_spill(Box::new(handle.clone()));
    // A few dozen near-MTU dequeues a poll at jittered instants: most of
    // them land in empty window-0 cells, and a pass now and then moves
    // the deeper windows.
    let mut rng = 13u64;
    for poll in 1..=200u64 {
        for step in 0..32u64 {
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let jitter = (rng >> 33) % (tw.set_period() / 32);
            let now = (poll - 1) * tw.set_period() + step * (tw.set_period() / 32) + jitter;
            ap.record_dequeue(0, FlowId((rng >> 40) as u32 % 50), now);
        }
        ap.on_tick(poll * tw.set_period());
    }
    let stored = ap.checkpoints(0);
    assert_eq!(stored.len(), 200);
    let (mut shared, mut walked) = (0, 0);
    for pair in stored.windows(2) {
        for w in 1..tw.t {
            let (old, new) = (
                pair[0].windows.shared_window(w),
                pair[1].windows.shared_window(w),
            );
            match Arc::ptr_eq(old, new) {
                true => shared += 1,
                false => walked += 1,
            }
        }
    }
    assert!(
        shared > walked && walked > 0,
        "want mostly shared deep windows, some not: {shared} shared, {walked} copied"
    );

    let mut fresh = StoreWriter::new(Vec::new(), tw, policy).unwrap();
    for cp in stored {
        let mut unshared = cp.clone();
        let windows = (0..tw.t).map(|w| cp.windows.window(w).to_vec()).collect();
        unshared.windows = TimeWindowSnapshot::from_parts(tw, windows, cp.windows.is_filtered());
        fresh.push(0, &unshared).unwrap();
    }
    let (shared, unshared) = (handle.finish().unwrap(), fresh.finish().unwrap());
    assert!(shared == unshared, "archives differ");

    let decoded = StoreReader::open(Cursor::new(shared.clone()))
        .unwrap()
        .read_port(0)
        .unwrap();
    assert!(decoded.gaps.is_empty());
    let mut again = StoreWriter::new(Vec::new(), tw, policy).unwrap();
    for cp in &decoded.checkpoints {
        again.push(0, cp).unwrap();
    }
    assert!(
        again.finish().unwrap() == shared,
        "re-encoding changed the bytes"
    );
}

proptest! {
    /// Random single-byte corruption anywhere in a valid store never
    /// panics and never allocates past the decode budget: every outcome
    /// is a clean result or a clean error.
    #[test]
    fn corrupted_store_never_panics(byte in 0usize..6_000, flip in 1u8..=255) {
        let (_ap, bytes) = spill_program(1_000, tiny_segments());
        let mut mutated = bytes.clone();
        let idx = byte % mutated.len();
        mutated[idx] ^= flip;
        if let Ok(mut reader) = StoreReader::open(Cursor::new(mutated)) {
            reader.set_decode_budget(8 << 20);
            let coeffs = Coefficients::compute(&tw_small(), 1);
            for &port in &PORTS {
                let _ = reader.read_port(port);
                let _ = reader.query(port, QueryInterval::new(0, 2_000), &coeffs);
            }
        }
    }

    /// Arbitrary bytes behind a valid magic are rejected without panic.
    #[test]
    fn garbage_after_magic_never_panics(tail in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut bytes = b"PQAR".to_vec();
        bytes.extend_from_slice(&tail);
        if let Ok(mut reader) = StoreReader::open(Cursor::new(bytes)) {
            let _ = reader.read_all();
        }
    }

    /// Random drive durations round-trip losslessly through the store.
    #[test]
    fn random_runs_roundtrip(until in 300u64..1_500, per_seg in 1usize..8) {
        let policy = SegmentPolicy {
            checkpoints_per_segment: per_seg,
            max_segment_bytes: 1 << 20,
            retain_segments_per_port: None,
        };
        let (ap, bytes) = spill_program(until, policy);
        let mut reader = StoreReader::open(Cursor::new(bytes)).unwrap();
        for &port in &PORTS {
            let captured = CheckpointArchive::capture(&ap, port);
            prop_assert_eq!(reader.read_port(port).unwrap(), captured);
        }
    }
}
