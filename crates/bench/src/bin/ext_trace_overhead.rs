//! Extension experiment: the serving cost of distributed tracing.
//!
//! Drives the pq-serve daemon with concurrent replay-query clients at
//! four tracing settings and compares achieved qps:
//!
//! * `disabled`     — the trace store is off (`is_enabled` false), so the
//!   request path pays only the enabled check. This is the repo's
//!   tracing-off baseline: span collection is runtime-gated, not a
//!   compile-time feature, so "off" is one atomic load per request.
//! * `sample_0`     — tracing on with head sampling at 0: every request
//!   builds its span tree in the per-request buffer, but nothing commits
//!   (no request is sampled and none crosses the slow bar).
//! * `sample_1pct`  — head sampling at 1% (the recommended production
//!   setting); ~1 in 100 requests commits to the bounded trace ring.
//! * `sample_100pct`— every request commits: the worst case.
//!
//! The overhead of each setting relative to `disabled` is stamped into
//! the `meta` block of `results/ext_trace_overhead.json`. The budget the
//! tracing design was sized against is <= 2% qps loss at 1% sampling.

use pq_bench::report::{write_json_with_meta, CommonArgs, Table};
use pq_bench::serving::{best_of_rounds, intervals, spill_polls, Fleet, Storm, MIN_PKT_TX_DELAY};
use pq_serve::{Request, ServeConfig};
use pq_store::SegmentPolicy;
use pq_telemetry::SAMPLE_ALWAYS_PPM;
use serde::{Serialize, Value};

const PORT: u16 = 0;

#[derive(Serialize)]
struct Row {
    scenario: String,
    sample_ppm: u64,
    clients: usize,
    requests: usize,
    ok: usize,
    busy: usize,
    committed: u64,
    wall_ms: f64,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Drive one tracing setting on a fresh daemon: `sample_ppm` of `None`
/// leaves the trace store disabled; `Some(ppm)` enables it at that
/// head-sampling rate with the slow threshold parked at infinity, so
/// commits are governed by sampling alone. Returns the storm and the
/// traces committed.
fn run_scenario(
    archive: &[u8],
    sample_ppm: Option<u32>,
    clients: usize,
    per_client: usize,
    mix: &[(u64, u64)],
) -> (Storm, u64) {
    let fleet = Fleet::archive(archive, &ServeConfig::default());
    let traces = fleet.plane(0).traces();
    if let Some(ppm) = sample_ppm {
        traces.set_enabled(true);
        traces.set_sample_ppm(ppm);
        traces.set_slow_ns(u64::MAX);
    }
    let replay = |i: usize| {
        let (from, to) = mix[i % mix.len()];
        Request::Replay {
            port: PORT,
            from,
            to,
            d: MIN_PKT_TX_DELAY,
        }
    };
    // Warm the shared decode cache before the clock starts: one pass over
    // the mix decodes every segment the measured load will touch, so the
    // comparison isolates tracing cost instead of first-touch decode cost.
    Storm::run(fleet.addr(0), 1, mix.len(), |_, i| replay(i));
    let storm = Storm::run(fleet.addr(0), clients, per_client, |c, r| replay(c + r));
    let committed = traces.committed();
    fleet.shutdown();
    (storm, committed)
}

fn main() {
    let args = CommonArgs::parse();
    let (n_checkpoints, clients, per_client) = if args.quick {
        (512u64, 4usize, 60usize)
    } else {
        (2_048, 8, 400)
    };
    let mix = intervals(n_checkpoints, 8);
    eprintln!(
        "[ext_trace_overhead] spilling {n_checkpoints} checkpoints, \
         {clients} clients x {per_client} queries per setting"
    );
    let (_, archive) = spill_polls(&[PORT], n_checkpoints, SegmentPolicy::default());

    // (scenario name, trace-store setting)
    let settings: [(&str, Option<u32>); 4] = [
        ("disabled", None),
        ("sample_0", Some(0)),
        ("sample_1pct", Some(SAMPLE_ALWAYS_PPM / 100)),
        ("sample_100pct", Some(SAMPLE_ALWAYS_PPM)),
    ];

    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "scenario",
        "sample",
        "ok",
        "busy",
        "committed",
        "qps",
        "p50 ms",
        "p99 ms",
        "overhead",
    ]);
    // Short serving runs are scheduler-noisy: take each setting's best
    // of `rounds` fresh-daemon runs, the settings interleaved in every
    // round so no setting is charged the drift of the ones before it.
    let rounds = if args.quick { 2 } else { 5 };
    let best = best_of_rounds(settings.len(), rounds, |slot| {
        run_scenario(&archive, settings[slot].1, clients, per_client, &mix)
    });
    let baseline_qps = best[0].0.qps();
    let mut overheads: Vec<(String, f64)> = Vec::new();
    for ((name, ppm), (out, committed)) in settings.into_iter().zip(best) {
        let qps = out.qps();
        let overhead = 1.0 - qps / baseline_qps;
        overheads.push((name.to_string(), overhead));
        let (p50, p99) = (out.percentile(0.50), out.percentile(0.99));
        table.row(vec![
            name.to_string(),
            ppm.map(|p| format!("{p} ppm")).unwrap_or("off".into()),
            format!("{}", out.ok),
            format!("{}", out.busy),
            format!("{committed}"),
            format!("{qps:.0}"),
            format!("{p50:.3}"),
            format!("{p99:.3}"),
            format!("{:+.1}%", overhead * 100.0),
        ]);
        rows.push(Row {
            scenario: name.to_string(),
            sample_ppm: u64::from(ppm.unwrap_or(0)),
            clients,
            requests: clients * per_client,
            ok: out.ok,
            busy: out.busy,
            committed,
            wall_ms: out.wall_ms,
            qps,
            p50_ms: p50,
            p99_ms: p99,
        });
    }

    table.print("Extension — tracing overhead: qps by sampling setting");
    let at_1pct = overheads
        .iter()
        .find(|(n, _)| n == "sample_1pct")
        .map(|(_, o)| *o)
        .unwrap_or(0.0);
    println!(
        "overhead at 1% sampling: {:+.2}% qps vs tracing disabled (budget <= 2%)",
        at_1pct * 100.0
    );
    let meta: Vec<(String, Value)> =
        std::iter::once(("overhead_budget_at_1pct".to_string(), Value::F64(0.02)))
            .chain(
                overheads
                    .into_iter()
                    .map(|(n, o)| (format!("overhead_{n}"), Value::F64(o))),
            )
            .collect();
    write_json_with_meta("ext_trace_overhead", &rows, false, meta);
}
