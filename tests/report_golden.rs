//! Golden report corpus: the bytes `ProfileReport::encode` (PQPF) and
//! `RttReport::encode` (`.pqa` kind-1 segment body, `Rtt` wire payload)
//! produced at commit `7a8317b`, when each crate still carried its own
//! histogram and sparse-bucket codec — one vector per line of
//! `tests/data/report_golden.hex`. Any rewrite of the histogram or of
//! either codec must reproduce them bit for bit and decode them to the
//! same values.
//!
//! To extend the corpus, add a vector below and run the test: it fails
//! printing the line to append to the file.
//!
//! Also here, because it is about what those decoders hand out: folding
//! decoded reports must not overflow, and no flipped byte of a vector
//! makes either decoder panic.

use printqueue::prof::{Hist, LockSnapshot, ProfileReport, ScopeEntry, StackEntry};
use printqueue::rtt::{
    Dir, FlowRtt, FlowRttTable, ObsKind, RttHist, RttObs, RttReport, TableConfig,
};
use std::collections::BTreeMap;
use std::panic::catch_unwind;

const CORPUS: &str = include_str!("data/report_golden.hex");

fn lock(name: &str, waits: &[u64], holds: &[u64]) -> LockSnapshot {
    let (wait, hold) = (Hist::default(), Hist::default());
    waits.iter().for_each(|&v| wait.record(v));
    holds.iter().for_each(|&v| hold.record(v));
    LockSnapshot {
        name: name.into(),
        acquisitions: waits.len() as u64,
        contended: 2,
        poisoned: 1,
        wait: wait.snapshot(),
        hold: hold.snapshot(),
    }
}

fn profile() -> ProfileReport {
    let scope = |name: &str, calls| ScopeEntry {
        name: name.into(),
        calls,
        total_ns: calls * 1_000,
        child_ns: calls * 250,
        allocs: calls / 2,
        alloc_bytes: calls * 64,
    };
    let stack = |frames: &[&str], count| StackEntry {
        frames: frames.iter().map(|f| f.to_string()).collect(),
        count,
    };
    ProfileReport {
        samples_total: 40,
        samples_dropped: 3,
        scopes: vec![scope("serve/worker_exec", 12), scope("store/decode", 7)],
        locks: vec![
            lock(
                "freeze",
                &[0, 64, 70, 80, 100, 127, 1_000, 1_100, 1_500, 1_900, 2_000],
                &[24_000, 25_000, 1_000_000],
            ),
            lock("store_writer", &[1, u64::MAX], &[]),
        ],
        stacks: vec![
            stack(&["serve/worker_exec"], 30),
            stack(&["serve/worker_exec", "store/decode"], 10),
        ],
    }
}

/// A report measured by a real table: `flows` flows, four seq-matched
/// samples each, RTTs spread over several octaves.
fn measured(port: u16, flows: u32) -> RttReport {
    let mut table = FlowRttTable::new(TableConfig::default());
    let mut now = 1_000;
    for round in 0..4u64 {
        for flow in 0..flows {
            let seq = round * 100 + u64::from(flow);
            let obs = |dir, kind| RttObs { flow, dir, kind };
            table.observe(&obs(Dir::ToServer, ObsKind::Data { expect_ack: seq }), now);
            let rtt = 50_000 * (u64::from(flow) + 1) + round * 7_001;
            table.observe(&obs(Dir::ToClient, ObsKind::Ack { ack: seq }), now + rtt);
            now += 10_000;
        }
    }
    RttReport::from_table(port, 1_000, now, &table)
}

fn one_flow() -> RttReport {
    let mut hist = RttHist::default();
    for v in [0, 1, 900, 250_000, 8_000_000_000] {
        hist.record(v);
    }
    let mut report = RttReport::empty(3);
    report.min_t = 10;
    report.max_t = 20;
    report.agg = hist.clone();
    report.flows.push(FlowRtt { flow: 77, hist });
    report.clipped = true;
    report
}

fn truncated() -> RttReport {
    let mut report = measured(5, 12);
    assert_eq!(report.truncate_flows(3), 9);
    report
}

/// Either report kind, so one loop checks both codecs.
#[derive(Debug, PartialEq)]
enum Report {
    Prof(ProfileReport),
    Rtt(Box<RttReport>),
}

impl Report {
    fn encode(&self) -> Vec<u8> {
        match self {
            Report::Prof(r) => r.encode(),
            Report::Rtt(r) => r.encode(),
        }
    }

    /// Decode `bytes` with the codec that wrote `self`.
    fn decode_like(&self, bytes: &[u8]) -> Report {
        match self {
            Report::Prof(_) => Report::Prof(ProfileReport::decode(bytes).expect("PQPF decodes")),
            Report::Rtt(_) => Report::Rtt(Box::new(
                RttReport::decode(bytes).expect("RttReport decodes"),
            )),
        }
    }
}

fn vectors() -> Vec<(&'static str, Report)> {
    vec![
        ("prof_empty", Report::Prof(ProfileReport::default())),
        ("prof_full", Report::Prof(profile())),
        ("rtt_empty", Report::Rtt(Box::new(RttReport::empty(9)))),
        ("rtt_one_flow", Report::Rtt(Box::new(one_flow()))),
        ("rtt_many_flows", Report::Rtt(Box::new(measured(2, 12)))),
        ("rtt_truncated", Report::Rtt(Box::new(truncated()))),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("corpus lines are hex"))
        .collect()
}

fn corpus() -> BTreeMap<&'static str, Vec<u8>> {
    CORPUS
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, bytes) = l.split_once(' ').expect("corpus lines are `name hex`");
            (name, unhex(bytes))
        })
        .collect()
}

#[test]
fn report_codecs_reproduce_the_golden_corpus() {
    let corpus = corpus();
    let vectors = vectors();
    for (name, report) in &vectors {
        let encoded = report.encode();
        let Some(golden) = corpus.get(name) else {
            panic!(
                "no corpus line for `{name}`; append:\n{name} {}",
                hex(&encoded)
            );
        };
        assert!(encoded == *golden, "`{name}` encodes differently");
        assert_eq!(
            report.decode_like(golden),
            *report,
            "`{name}` decodes differently"
        );
    }
    assert_eq!(corpus.len(), vectors.len(), "corpus lines without a vector");
}

/// Every vector with each byte flipped in turn, by each single bit and by
/// all eight: `Ok` or `Err` from the decoder that wrote it, never a panic.
/// Cuts are covered by each codec's unit tests; this pins the shared
/// cursor's hostile-input behaviour on both report formats.
#[test]
fn every_single_byte_flip_decodes_or_errs() {
    let corpus = corpus();
    for (name, report) in vectors() {
        let mut bytes = corpus[name].clone();
        let mut refused = 0;
        for i in 0..bytes.len() {
            for mask in (0..8).map(|bit| 1u8 << bit).chain([0xff]) {
                bytes[i] ^= mask;
                let decoded = catch_unwind(|| match report {
                    Report::Prof(_) => ProfileReport::decode(&bytes).is_ok(),
                    Report::Rtt(_) => RttReport::decode(&bytes).is_ok(),
                })
                .unwrap_or_else(|_| panic!("`{name}` byte {i} ^ {mask:#04x} panicked"));
                refused += usize::from(!decoded);
                bytes[i] ^= mask;
            }
        }
        // A flipped magic or version byte alone is refused.
        assert!(refused > 0, "`{name}`: no flip refused");
    }
}

/// A peer's bytes can carry any consistent histogram, so folding two
/// decoded reports saturates: with plain `+=`, `count = u64::MAX - 1`
/// twice panicked debug builds (`attempt to add with overflow`) and
/// wrapped release ones.
#[test]
fn decoded_reports_with_huge_counts_merge_saturating() {
    // The shared snapshot under both of its names: `RttHist` is it.
    let mut hist = RttHist {
        count: u64::MAX - 1,
        sum: u64::MAX,
        min: 16,
        max: 31,
        ..RttHist::default()
    };
    hist.buckets[5] = u64::MAX - 1;

    let mut rtt = RttReport::empty(1);
    rtt.agg = hist.clone();
    rtt.flows.push(FlowRtt {
        flow: 7,
        hist: hist.clone(),
    });
    let mut rtt = RttReport::decode(&rtt.encode()).unwrap();
    rtt.merge(&rtt.clone());
    assert_eq!(rtt.agg.count, u64::MAX);
    assert_eq!(rtt.flows[0].hist.buckets[5], u64::MAX);
    assert_eq!(RttReport::decode(&rtt.encode()).unwrap(), rtt);

    let mut profile = profile();
    profile.locks[0].wait = hist;
    let mut profile = ProfileReport::decode(&profile.encode()).unwrap();
    profile.merge(&profile.clone());
    assert_eq!(profile.locks[0].wait.count, u64::MAX);
    assert_eq!(ProfileReport::decode(&profile.encode()).unwrap(), profile);
}
