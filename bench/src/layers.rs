//! The traced run (`--trace 1`): where the time goes, layer by layer.
//!
//! Three ladders, each measured from outside the program:
//!
//! * the **ablation ladder** runs the same arrivals bare, with no-op
//!   hooks, with `PrintQueue`, and with the spill attached, one cycle
//!   after another, and differences the rungs — a clock read per packet
//!   would cost more than the ≈ 15 ns being attributed. Two more rounds
//!   per cycle carry stopwatches and spans around every `on_tick` and
//!   every store push; how well those stopwatches plus the replayed
//!   per-packet work rebuild the full rung is the ladder's residual;
//! * the **hop ladder** asks one interval of live state, of the archive
//!   uncached and cached, of a daemon, and of the router, under one
//!   request id;
//! * the workload's own **query phase** runs untraced and traced in
//!   alternation, which also yields the tracing overhead.

use crate::report::{metric, Metric};
use crate::run::{check_round, ns_to, Env, Gate, Planned, QueryPlan};
use crate::spans::{self, Recorder, Span};
use crate::stats::{median, percentile};
use crate::sut::{self, Captured, Conn, Fleet, Reader, Round, Rung};
use crate::workloads::{Mix, Workload, CLIENTS};
use std::io;
use std::time::{Duration, Instant};

/// What the traced run works on.
pub(crate) struct Inputs<'a> {
    pub workload: &'a Workload,
    pub env: &'a Env,
    /// The first ingest round of the process.
    pub cold: &'a Round,
    /// Wall time of the `StoreReader::open` that produced the reader.
    pub open_ns: u64,
    pub uniform: &'a [Planned],
    pub hot: &'a [Planned],
    pub plan: &'a QueryPlan<'a>,
    /// `--seconds`, shared out over the ladders.
    pub budget: Duration,
}

/// Shares of `--seconds`.
const LADDER_SHARE: f64 = 0.45;
const HOPS_SHARE: f64 = 0.25;
/// Four slices of this share each: untraced, traced, untraced, traced.
const QUERY_SLICE_SHARE: f64 = 0.05;

/// Pair-wise overhead of `traced` over `plain`, in percent: the median of
/// per-pair ratios, so machine-speed drift between pairs cancels.
fn paired_overhead_pct(traced: &[f64], plain: &[f64]) -> f64 {
    let ratios: Vec<f64> = traced.iter().zip(plain).map(|(t, p)| t / p).collect();
    (median(&ratios) - 1.0) * 100.0
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn count(values: &[f64]) -> u64 {
    values.len() as u64
}

/// ns per packet of each rung, one entry per cycle, and what the
/// stopwatches of the traced rounds collected.
#[derive(Default)]
struct Ladder {
    bare: Vec<f64>,
    noop: Vec<f64>,
    printqueue: Vec<f64>,
    full: Vec<f64>,
    traced_full: Vec<f64>,
    /// `on_tick` wall times with no spill attached, and those rounds' wall.
    tick_ns: Vec<u64>,
    no_spill_wall_ns: u64,
    /// Push wall times, and the spilling traced rounds' wall and bytes.
    push_ns: Vec<u64>,
    spill_wall_ns: u64,
    spilled_bytes: u64,
    finish_ns: Vec<u64>,
    drops: u64,
}

fn ablation_ladder(
    inputs: &Inputs,
    rec: &Recorder,
    gate: &mut Gate,
) -> io::Result<(Ladder, Vec<Span>)> {
    let env = inputs.env;
    let cfg = inputs.plan.cfg;
    let mut l = Ladder::default();
    let mut request = 0u64;
    let start = Instant::now();
    while start.elapsed() < inputs.budget.mul_f64(LADDER_SHARE) || l.bare.len() < 2 {
        for rung in [Rung::Bare, Rung::NoopHooks, Rung::PrintQueue, Rung::Full] {
            let round = sut::ingest_round(&env.trace, cfg, rung)?;
            check_round(gate, &round, &env.live, rung == Rung::Full);
            l.drops = round.drops;
            match rung {
                Rung::Bare => &mut l.bare,
                Rung::NoopHooks => &mut l.noop,
                Rung::PrintQueue => &mut l.printqueue,
                Rung::Full => &mut l.full,
            }
            .push(round.ns_per_packet());
        }
        // Odd request ids: stopwatches, no spill. Even: with spill.
        request += 1;
        let (round, times) = sut::ingest_round_traced(&env.trace, cfg, false, rec, request)?;
        check_round(gate, &round, &env.live, false);
        l.no_spill_wall_ns += round.wall_ns;
        l.tick_ns.extend(times.tick_ns);
        request += 1;
        let (round, times) = sut::ingest_round_traced(&env.trace, cfg, true, rec, request)?;
        check_round(gate, &round, &env.live, true);
        l.traced_full.push(round.ns_per_packet());
        l.spill_wall_ns += round.wall_ns;
        l.spilled_bytes += round.archive_bytes;
        l.push_ns.extend(times.push_ns);
        l.finish_ns.push(times.finish_ns);
    }
    Ok((l, rec.take()))
}

/// µs (ms for the uncached rung) per hop, one entry per sampled query,
/// rungs aligned by index.
#[derive(Default)]
struct Hops {
    live_us: Vec<f64>,
    queue_monitor_us: Vec<f64>,
    uncached_ms: Vec<f64>,
    cached_us: Vec<f64>,
    direct_us: Vec<f64>,
    routed_us: Vec<f64>,
    decode_ns: u64,
    decoded: u64,
    segments: u64,
}

fn hop_ladder(
    inputs: &Inputs,
    samples: &[&Planned],
    reader: &mut Reader,
    rec: &Recorder,
    gate: &mut Gate,
) -> io::Result<(Hops, Vec<Span>)> {
    let env = inputs.env;
    let cfg = inputs.plan.cfg;
    let mut h = Hops::default();
    let mut direct = Conn::connect(env.fleet.backend_addr, cfg)?;
    let mut routed = Conn::connect(env.fleet.router_addr, cfg)?;
    let start = Instant::now();
    for (taken, q) in samples.iter().cycle().enumerate() {
        // Every sample once, then more passes while the share lasts.
        let spent = start.elapsed() >= inputs.budget.mul_f64(HOPS_SHARE);
        if (taken >= samples.len() && spent) || taken >= 8 * samples.len() {
            break;
        }
        let id = q.victim.seqno;
        let _query = rec.enter("query", id);
        {
            let _s = rec.enter("core.query", id);
            let (digest, ns) = env.live.query(q.victim);
            gate.check(digest == q.expected.direct, || "live hop differs".into());
            h.live_us.push(us(ns));
        }
        h.queue_monitor_us
            .push(us(env.live.queue_monitor_ns(q.victim)));
        {
            let _s = rec.enter("store.reader.query", id);
            let (digest, stats) = reader.query_uncached(q.victim)?;
            gate.check(digest == q.expected.direct, || {
                "uncached hop differs".into()
            });
            h.uncached_ms.push(stats.wall_ns as f64 / 1e6);
            h.decode_ns += stats.decode_ns;
            h.decoded += stats.decoded;
            h.segments += stats.segments;
        }
        // From here on each rung is asked twice and the second ask is the
        // one timed: the first may decode (and the uncached query above
        // just swept a 34 MiB segment through the CPU caches), the second
        // is the cache-resident hop the ladder differences.
        {
            let _s = rec.enter("store.reader.query_cached", id);
            reader.query_cached(q.victim)?;
            let (digest, stats) = reader.query_cached(q.victim)?;
            gate.check(digest == q.expected.direct, || "cached hop differs".into());
            h.cached_us.push(us(stats.wall_ns));
        }
        for (name, conn, want, into) in [
            (
                "serve.direct",
                &mut direct,
                q.expected.direct,
                &mut h.direct_us,
            ),
            (
                "router.routed",
                &mut routed,
                q.expected.routed,
                &mut h.routed_us,
            ),
        ] {
            let _s = rec.enter(name, id);
            let _ = conn.replay(q.victim);
            let got = conn.replay(q.victim).map_err(|e| e.0);
            gate.check(got.as_ref().map(|g| g.0) == Ok(want), || {
                format!("{name} hop: {got:?}")
            });
            // A failed hop is already counted by the gate; its slot keeps
            // the rungs aligned for the paired differences.
            into.push(got.map_or(f64::NAN, |(_, ns)| us(ns)));
        }
    }
    Ok((h, rec.take()))
}

/// `(hits, misses, resident bytes)` of the decode caches, summed over both
/// daemons (`pq_serve_cache_*` via `MetricsGet`).
fn cache_counters(fleet: &Fleet, cfg: &sut::IngestConfig) -> io::Result<(u64, u64, u64)> {
    let mut sum = (0, 0, 0);
    for addr in &fleet.backend_addrs {
        let counters = Conn::connect(*addr, cfg)?.metrics()?;
        sum.0 += counters.cache_hits();
        sum.1 += counters.cache_misses();
        sum.2 += counters.cache_resident_bytes();
    }
    Ok(sum)
}

fn paired_difference(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(a, b)| a - b).collect()
}

/// Run the traced measurements and report every per-layer metric, plus
/// the spans recorded on the way.
pub(crate) fn measure(
    inputs: &Inputs,
    reader: &mut Reader,
    gate: &mut Gate,
    notes: &mut Vec<String>,
) -> io::Result<(Vec<Metric>, Vec<Span>)> {
    let env = inputs.env;
    let plan = inputs.plan;
    let cfg = plan.cfg;
    let epoch = Instant::now();
    let rec = Recorder::new(epoch, 0);

    let (l, mut all_spans) = ablation_ladder(inputs, &rec, gate)?;
    let (bare, noop, printqueue, full) = (
        median(&l.bare),
        median(&l.noop),
        median(&l.printqueue),
        median(&l.full),
    );
    let ingest_overhead_pct = paired_overhead_pct(&l.traced_full, &l.full);

    // Per-packet layers replayed from captured queue events.
    let captured = Captured::from_prefix(&env.trace, 200_000);
    let reps = 5;
    let hook_ns: Vec<f64> = (0..reps)
        .map(|_| captured.replay_printqueue_ns_per_pkt(cfg))
        .collect();
    let windows: Vec<(f64, f64)> = (0..reps)
        .map(|_| captured.replay_time_windows(cfg))
        .collect();
    let record_ns: Vec<f64> = windows.iter().map(|w| w.0).collect();
    let monitor_ns: Vec<f64> = (0..reps)
        .map(|_| captured.replay_queue_monitor_ns())
        .collect();

    // The ladder reconciles when the full rung can be rebuilt from
    // measurements that do not involve it: the event loop with hooks that
    // do nothing, the per-packet hook work replayed on its own, and the
    // stopwatch totals of the control plane (`on_tick` without spill, every
    // push, sealing the store). A layer the split mis-attributes — work the
    // stopwatches miss, or count twice — shows up as a residual. It is
    // reported, not gated: each piece is a median over a handful of rounds
    // on a shared host, and ten traced runs of an unchanged program read
    // 0.2–12 %.
    let packets = env.trace.packets() as f64;
    let per_round = |total_ns: u64| total_ns as f64 / l.traced_full.len() as f64;
    let control_ns = per_round(l.tick_ns.iter().sum())
        + per_round(l.push_ns.iter().sum())
        + per_round(l.finish_ns.iter().sum());
    let forwarded = (env.trace.packets() - l.drops) as f64;
    let rebuilt = noop + (median(&hook_ns) * forwarded + control_ns) / packets;
    let residual_pct = (rebuilt - full).abs() / full * 100.0;
    if residual_pct > ingest_overhead_pct.abs() + 10.0 {
        notes.push(format!(
            "ladder residual {residual_pct:.1} %: hooks + replayed per-packet work + \
             control-plane stopwatches rebuild {rebuilt:.1} ns/pkt, the untraced full round \
             is {full:.1}"
        ));
    }

    // Hot victims first (they are what the hot mix rotates over), then a
    // stride through the uniform sample.
    let stride = (inputs.uniform.len() / 64).max(1);
    let samples: Vec<&Planned> = inputs
        .hot
        .iter()
        .chain(inputs.uniform.iter().step_by(stride))
        .collect();
    let (h, hop_spans) = hop_ladder(inputs, &samples, reader, &rec, gate)?;
    spans::append(&mut all_spans, hop_spans);

    // Wire and merge, on captured answers.
    let mut encode_us = Vec::new();
    let mut decode_us = Vec::new();
    let mut wire_bytes = Vec::new();
    for q in &samples {
        let answer = reader.answer(q.victim)?;
        for _ in 0..5 {
            let cost = answer.wire_cost()?;
            encode_us.push(us(cost.encode_ns));
            decode_us.push(us(cost.decode_ns));
            wire_bytes.push(cost.bytes as f64);
        }
    }
    // A query that crosses an epoch boundary is what the router merges.
    let crossing = samples
        .iter()
        .find(|q| q.expected.slices > 1)
        .or(samples.first());
    let merge_us: Vec<f64> = match crossing {
        Some(q) => {
            let partials = reader.partials(q.victim, env.epoch_ns)?;
            (0..200).map(|_| us(partials.merge_ns())).collect()
        }
        None => Vec::new(),
    };

    // The workload's own query phase, untraced and traced alternately.
    let before = cache_counters(&env.fleet, cfg)?;
    let slice = inputs.budget.mul_f64(QUERY_SLICE_SHARE);
    let mut plain_p50 = Vec::new();
    let mut traced_p50 = Vec::new();
    for pair in 0..2u32 {
        let warm_up = pair == 0 && inputs.workload.mix == Mix::Hot;
        let plain = plan.run(warm_up, slice, gate, None)?;
        let lanes = Some((epoch, 1 + pair * CLIENTS as u32));
        let traced = plan.run(false, slice, gate, lanes)?;
        plain_p50.push(median(&ns_to(&plain.latency_ns, 1e3)));
        traced_p50.push(median(&ns_to(&traced.latency_ns, 1e3)));
        spans::append(&mut all_spans, traced.spans);
    }
    let after = cache_counters(&env.fleet, cfg)?;
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    let daemon = Conn::connect(env.fleet.backend_addr, cfg)?.metrics()?;
    let router = Conn::connect(env.fleet.router_addr, cfg)?.metrics()?;
    let (request_p50, request_p99) = daemon.request_ns();
    // The overhead that matters is the one on the phase this workload
    // spends its measured seconds in.
    let overhead_pct = if inputs.workload.ingest_share >= 0.5 {
        ingest_overhead_pct
    } else {
        paired_overhead_pct(&traced_p50, &plain_p50)
    };

    let ticks = ns_to(&l.tick_ns, 1e3);
    let pushes = ns_to(&l.push_ns, 1e3);
    let tick_total_ns: u64 = l.tick_ns.iter().sum();
    let push_total_ns: u64 = l.push_ns.iter().sum();
    let serve_hop_us = paired_difference(&h.direct_us, &h.cached_us);
    let router_hop_us = paired_difference(&h.routed_us, &h.direct_us);
    let queries = count(&h.uncached_ms);
    let metrics = vec![
        metric("ingest.cold_round_mpps", "Mpps", inputs.cold.mpps(), 1),
        metric("ingest.warm_round_mpps", "Mpps", 1e3 / full, count(&l.full)),
        metric("switch.run_ns_per_pkt", "ns", bare, count(&l.bare)),
        metric("switch.drops", "count", l.drops as f64, 1),
        metric(
            "switch.hooks_noop_ns_per_pkt",
            "ns",
            noop - bare,
            count(&l.noop),
        ),
        metric(
            "core.printqueue.ladder_ns_per_pkt",
            "ns",
            printqueue - noop,
            count(&l.printqueue),
        ),
        metric(
            "core.printqueue.hook_ns_per_pkt",
            "ns",
            median(&hook_ns),
            count(&hook_ns),
        ),
        metric(
            "core.time_windows.record_ns",
            "ns",
            median(&record_ns),
            count(&record_ns),
        ),
        metric("core.time_windows.pass_ratio", "ratio", windows[0].1, 1),
        metric(
            "core.queue_monitor.update_ns",
            "ns",
            median(&monitor_ns),
            count(&monitor_ns),
        ),
        metric(
            "core.control.on_tick_us_p50",
            "us",
            median(&ticks),
            count(&ticks),
        ),
        metric(
            "core.control.on_tick_us_p99",
            "us",
            percentile(&ticks, 0.99),
            count(&ticks),
        ),
        metric(
            "core.control.checkpoints",
            "count",
            env.live.checkpoints as f64,
            1,
        ),
        metric(
            "core.control.busy_share",
            "ratio",
            tick_total_ns as f64 / l.no_spill_wall_ns.max(1) as f64,
            count(&ticks),
        ),
        metric(
            "store.writer.push_us_p50",
            "us",
            median(&pushes),
            count(&pushes),
        ),
        metric(
            "store.writer.push_us_p99",
            "us",
            percentile(&pushes, 0.99),
            count(&pushes),
        ),
        metric(
            "store.writer.busy_share",
            "ratio",
            push_total_ns as f64 / l.spill_wall_ns.max(1) as f64,
            count(&pushes),
        ),
        metric(
            "store.writer.encode_mb_per_s",
            "MB/s",
            l.spilled_bytes as f64 * 1e3 / push_total_ns.max(1) as f64,
            count(&pushes),
        ),
        metric(
            "store.writer.finish_ms",
            "ms",
            median(&ns_to(&l.finish_ns, 1e6)),
            l.finish_ns.len() as u64,
        ),
        metric(
            "store.writer.ladder_ns_per_pkt",
            "ns",
            full - printqueue,
            count(&l.full),
        ),
        metric(
            "store.writer.spill_share",
            "ratio",
            (full - printqueue) / full,
            count(&l.full),
        ),
        metric("core.query.us_p50", "us", median(&h.live_us), queries),
        metric(
            "core.query.us_p99",
            "us",
            percentile(&h.live_us, 0.99),
            queries,
        ),
        metric(
            "core.query.queue_monitor_us_p50",
            "us",
            median(&h.queue_monitor_us),
            queries,
        ),
        metric("store.reader.open_ms", "ms", inputs.open_ns as f64 / 1e6, 1),
        metric(
            "store.reader.query_ms_p50",
            "ms",
            median(&h.uncached_ms),
            queries,
        ),
        metric(
            "store.reader.decode_ms_per_segment",
            "ms",
            h.decode_ns as f64 / 1e6 / h.decoded.max(1) as f64,
            h.decoded,
        ),
        metric(
            "store.reader.segments_per_query",
            "count",
            h.segments as f64 / queries.max(1) as f64,
            queries,
        ),
        metric(
            "store.reader.query_cached_us_p50",
            "us",
            median(&h.cached_us),
            queries,
        ),
        metric(
            "serve.cache.hit_ratio",
            "ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            hits + misses,
        ),
        metric(
            "serve.cache.resident_mb",
            "MiB",
            after.2 as f64 / (1u64 << 20) as f64,
            1,
        ),
        metric(
            "serve.wire.encode_us",
            "us",
            median(&encode_us),
            count(&encode_us),
        ),
        metric(
            "serve.wire.decode_us",
            "us",
            median(&decode_us),
            count(&decode_us),
        ),
        metric(
            "serve.wire.bytes_per_answer",
            "B",
            median(&wire_bytes),
            count(&wire_bytes),
        ),
        metric("serve.direct_us_p50", "us", median(&h.direct_us), queries),
        metric("serve.hop_us_p50", "us", median(&serve_hop_us), queries),
        metric("serve.request_us_p50", "us", us(request_p50), 1),
        metric("serve.request_us_p99", "us", us(request_p99), 1),
        metric("serve.shed_total", "count", daemon.shed_total() as f64, 1),
        metric("router.routed_us_p50", "us", median(&h.routed_us), queries),
        metric("router.hop_us_p50", "us", median(&router_hop_us), queries),
        metric("router.merge_us", "us", median(&merge_us), count(&merge_us)),
        metric(
            "router.fanout_mean",
            "count",
            router.router_fanout_mean(),
            1,
        ),
        metric(
            "router.failovers_total",
            "count",
            router.router_failovers() as f64,
            1,
        ),
        metric(
            "router.retries_total",
            "count",
            router.router_retries() as f64,
            1,
        ),
        metric(
            "bench.trace_overhead_pct",
            "%",
            overhead_pct,
            count(&l.traced_full),
        ),
        metric(
            "bench.ladder_residual_pct",
            "%",
            residual_pct,
            count(&l.traced_full),
        ),
    ];
    Ok((metrics, all_spans))
}
