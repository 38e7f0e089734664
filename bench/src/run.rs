//! One run of one workload: set-up, the measured phases, the correctness
//! gate, and the numbers that come out.
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded.
//! `--trace 1` is the separate traced run: the per-packet ablation
//! ladder, the control-plane stopwatches, the per-query hop ladder and a
//! short traced query phase, reported as the per-layer metrics.

use crate::layers;
use crate::report::{metric, Metric};
use crate::spans::{self, Recorder, Span};
use crate::stats::{highest, highest_supported_tail, lowest, median, percentile};
use crate::sut::{self, Conn, Expected, Fleet, Live, Reader, Round, Rung, Scratch, Trace, Victim};
use crate::workloads::{
    Mix, Route, Workload, CLIENTS, CYCLES, GRADED_VICTIMS, HOT_VICTIMS, SETUP_REPS, VICTIMS,
};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What the command line asked for.
pub struct RunArgs {
    pub workload: &'static Workload,
    /// Victim sampling and query order.
    pub seed: u64,
    /// The `pq-trace` generator's seed.
    pub traffic_seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// The benchmark's own `out/` directory (scratch space, trace files).
    pub out_dir: PathBuf,
}

/// Everything a run produced.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Why `correct` is false, when it is.
    pub problems: Vec<String>,
    /// Caveats that do not make the run incorrect.
    pub notes: Vec<String>,
    /// CRC-32 over every victim's answer digest, the checkpoint count
    /// and the drop count: equal on two commits iff they answer alike.
    pub answers_digest: u32,
    /// Sizes of this run's inputs, for the document's `params` block.
    pub params: Vec<(&'static str, f64)>,
    /// The per-round / per-cycle values the end-to-end metrics summarise,
    /// in time order, for the document's `series` block.
    pub series: Vec<(&'static str, Vec<f64>)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Problems listed in a report; one cause can fail thousands of operations.
const MAX_PROBLEMS: usize = 20;

/// Counts operations and the reasons some of them failed.
#[derive(Default)]
pub(crate) struct Gate {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Gate {
    /// Count one operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < MAX_PROBLEMS {
                self.problems.push(what());
            }
        }
    }

    /// Record a failed requirement that is not one counted operation.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    fn absorb(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.problems.truncate(MAX_PROBLEMS);
    }
}

/// The product of one set-up.
pub(crate) struct Env {
    pub trace: Trace,
    pub live: Live,
    pub fleet: Fleet,
    archive: PathBuf,
    victims: Vec<Victim>,
    /// Graded against ground truth; drawn with the traffic seed, so the
    /// accuracy metrics do not move with `--seed`.
    graded: Vec<Victim>,
    hot: Vec<Victim>,
    pub epoch_ns: u64,
}

/// Simulated time between hot victims' enqueue instants.
const HOT_SPACING_NS: u64 = 125_000;

/// Time sharding for the router: about an eighth of the archive's span,
/// nudged so that an epoch boundary falls in the middle of the hot
/// episode — the earlier hot victims straddle it (two partials, merged),
/// the later ones do not (single-partial passthrough).
fn choose_epoch_ns(span_ns: u64, hot: &[Victim]) -> u64 {
    let eighth = (span_ns / 8).max(1);
    let Some(pivot) = hot.get(hot.len() / 2) else {
        return eighth;
    };
    let k = ((pivot.from + eighth / 2) / eighth).max(1);
    (pivot.from / k).max(1)
}

/// Generate the trace, spill it to an archive while keeping live state
/// and ground truth, replicate the archive, bind the fleet. On the first
/// repetition the cold ingest round runs right after trace generation —
/// it is the first `Switch::run` of the process — and is not part of
/// set-up time.
fn set_up(
    args: &RunArgs,
    scratch: &Scratch,
    cold: Option<&mut Option<Round>>,
) -> io::Result<(Env, Duration)> {
    let w = args.workload;
    let start = Instant::now();
    let trace = Trace::generate(w.traffic, trace_ns(args), args.traffic_seed);
    let mut excluded = Duration::ZERO;
    if let Some(cold) = cold {
        let cold_start = Instant::now();
        *cold = Some(sut::ingest_round(&trace, &w.ingest, Rung::Full)?);
        excluded = cold_start.elapsed();
    }
    let archive = scratch.path("a.pqa");
    let replica = scratch.path("b.pqa");
    let live = Live::run(&trace, &w.ingest, &archive)?;
    sut::replicate(&archive, &replica)?;
    let victims = live.sample_victims(victim_count(args), args.seed);
    let graded = live.sample_victims(GRADED_VICTIMS, args.traffic_seed);
    let spans = Reader::open(&archive, &w.ingest)?.0.segment_spans();
    let hot = live.hot_victims(HOT_VICTIMS, HOT_SPACING_NS, &spans);
    let epoch_ns = choose_epoch_ns(live.span_ns, &hot);
    let fleet = Fleet::bind(&archive, &replica, epoch_ns)?;
    let took = start.elapsed().saturating_sub(excluded);
    Ok((
        Env {
            trace,
            live,
            fleet,
            archive,
            victims,
            graded,
            hot,
            epoch_ns,
        },
        took,
    ))
}

fn trace_ns(args: &RunArgs) -> u64 {
    let ms = if args.quick {
        args.workload.trace_ms / 4
    } else {
        args.workload.trace_ms
    };
    ms * 1_000_000
}

fn victim_count(args: &RunArgs) -> usize {
    if args.quick {
        VICTIMS / 10
    } else {
        VICTIMS
    }
}

fn setup_reps(args: &RunArgs) -> usize {
    if args.quick {
        1
    } else {
        SETUP_REPS
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

pub(crate) fn ns_to(values: &[u64], per: f64) -> Vec<f64> {
    values.iter().map(|&v| v as f64 / per).collect()
}

/// One victim with the digests its answers must have.
#[derive(Clone, Copy)]
pub(crate) struct Planned {
    pub victim: Victim,
    pub expected: Expected,
}

fn plan(reader: &mut Reader, victims: &[Victim], epoch_ns: u64) -> io::Result<Vec<Planned>> {
    victims
        .iter()
        .map(|&victim| {
            Ok(Planned {
                victim,
                expected: reader.expected(victim, epoch_ns)?,
            })
        })
        .collect()
}

/// What the closed-loop query phase measured.
#[derive(Default)]
pub(crate) struct QueryPhase {
    pub wall_ns: u64,
    /// One entry per correct answer.
    pub latency_ns: Vec<u64>,
    pub spans: Vec<Span>,
}

impl QueryPhase {
    fn qps(&self) -> f64 {
        self.latency_ns.len() as f64 * 1e9 / self.wall_ns.max(1) as f64
    }
}

/// What one client thread brings back.
struct ClientRun {
    gate: Gate,
    wall_ns: u64,
    latency_ns: Vec<u64>,
    spans: Vec<Span>,
}

/// Where a workload's measured queries go and what they ask.
pub(crate) struct QueryPlan<'a> {
    pub addr: SocketAddr,
    pub route: Route,
    pub cfg: &'a sut::IngestConfig,
    pub queries: &'a [Planned],
}

impl QueryPlan<'_> {
    /// Send one query and check its answer against the oracle digest.
    fn ask(&self, conn: &mut Conn, gate: &mut Gate, q: &Planned) -> Option<u64> {
        let want = match self.route {
            Route::Direct => q.expected.direct,
            Route::Routed => q.expected.routed,
        };
        let got = conn.replay(q.victim).map_err(|e| e.0);
        let ok = got.as_ref().map(|g| g.0) == Ok(want);
        gate.check(ok, || {
            format!(
                "{} answer for [{}, {}]: got {got:?}, oracle {want:#x}",
                self.route.label(),
                q.victim.from,
                q.victim.to
            )
        });
        got.ok().filter(|_| ok).map(|(_, ns)| ns)
    }

    fn client(
        &self,
        c: usize,
        warm_up: bool,
        budget: Duration,
        start_line: &Barrier,
        traced: Option<(Instant, u32)>,
    ) -> io::Result<ClientRun> {
        let mut conn = Conn::connect(self.addr, self.cfg)?;
        let mut gate = Gate::default();
        if warm_up {
            for q in self.queries {
                self.ask(&mut conn, &mut gate, q);
            }
        }
        let rec = traced.map(|(epoch, lane)| Recorder::new(epoch, lane + c as u32));
        let mut latency_ns = Vec::new();
        // Each client walks the shared list from its own offset.
        let mut next = c * self.queries.len() / CLIENTS;
        start_line.wait();
        let start = Instant::now();
        while start.elapsed() < budget {
            let q = &self.queries[next % self.queries.len()];
            next += 1;
            let _span = rec
                .as_ref()
                .map(|r| r.enter("client.query", q.victim.seqno));
            latency_ns.extend(self.ask(&mut conn, &mut gate, q));
        }
        Ok(ClientRun {
            gate,
            wall_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            latency_ns,
            spans: rec.map_or_else(Vec::new, |r| r.take()),
        })
    }

    /// `CLIENTS` threads, one connection each, every thread sending its
    /// next query only after the previous answer arrived, until `budget`
    /// is spent. With `warm_up` each client first asks every query once,
    /// untimed. Every answer is checked against its oracle digest; only
    /// correct answers contribute a latency.
    pub fn run(
        &self,
        warm_up: bool,
        budget: Duration,
        gate: &mut Gate,
        traced: Option<(Instant, u32)>,
    ) -> io::Result<QueryPhase> {
        let start_line = Barrier::new(CLIENTS);
        let clients = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let start_line = &start_line;
                    scope.spawn(move || self.client(c, warm_up, budget, start_line, traced))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(io::Error::other("client thread panicked")))
                })
                .collect::<io::Result<Vec<_>>>()
        })?;
        let mut phase = QueryPhase::default();
        for client in clients {
            phase.wall_ns = phase.wall_ns.max(client.wall_ns);
            phase.latency_ns.extend(client.latency_ns);
            spans::append(&mut phase.spans, client.spans);
            gate.absorb(client.gate);
        }
        Ok(phase)
    }
}

/// The workload's own query list: the uniform sample in a seeded random
/// order (so consecutive queries land on unrelated segments), or the hot
/// set.
fn query_list(w: &Workload, seed: u64, uniform: &[Planned], hot: &[Planned]) -> Vec<Planned> {
    match w.mix {
        Mix::Hot => hot.to_vec(),
        Mix::Uniform => {
            let mut list = uniform.to_vec();
            list.shuffle(&mut rand::rngs::SmallRng::seed_from_u64(
                seed ^ 0x6f72_6465_7221,
            ));
            list
        }
    }
}

/// Check one ingest round against the verified reference run of the same
/// trace: the same packets must drop, the same checkpoints must be taken
/// and the archive image must have the same size.
pub(crate) fn check_round(gate: &mut Gate, round: &Round, live: &Live, spilled: bool) {
    let ok = round.drops == live.drops
        && (round.checkpoints == 0 || round.checkpoints == live.checkpoints)
        && (!spilled || round.archive_bytes == live.archive_bytes);
    gate.check(ok, || {
        format!(
            "ingest round: drops {} checkpoints {} archive {} B, reference {} / {} / {} B",
            round.drops,
            round.checkpoints,
            round.archive_bytes,
            live.drops,
            live.checkpoints,
            live.archive_bytes
        )
    });
}

/// `query_time_windows` on live state for every sampled victim: each
/// answer must be bit-identical to the archive's; returns each call's µs.
fn live_pass(live: &Live, uniform: &[Planned], gate: &mut Gate) -> Vec<f64> {
    uniform
        .iter()
        .map(|q| {
            let (digest, ns) = live.query(q.victim);
            gate.check(digest == q.expected.direct, || {
                format!(
                    "live answer for [{}, {}] differs from the archive's",
                    q.victim.from, q.victim.to
                )
            });
            ns as f64 / 1e3
        })
        .collect()
}

/// What the measured seconds of an end-to-end run produced.
struct Measured {
    /// One entry per warm ingest round.
    round_mpps: Vec<f64>,
    /// Median live-query time of each pass over the victims.
    pass_live_us_p50: Vec<f64>,
    /// One entry per correct answer of the closed-loop query slices.
    latency_ms: Vec<f64>,
    /// Wall time of the query slices, summed.
    query_wall_ns: u64,
    /// Per-cycle values, for the document's `series` block.
    cycle_qps: Vec<f64>,
    cycle_ms_p50: Vec<f64>,
}

/// The measured seconds, tracing off, cut into cycles of [ingest rounds,
/// live queries, query slice] so every metric samples the same stretches
/// of machine time.
///
/// The shared host slows this VM down by 20–40 % for seconds to minutes
/// at a time and never speeds it up, so for the two single-threaded
/// phases the caller reports the fastest ingest round and the fastest
/// live-query pass: over the same runs those are two to five times
/// steadier than the medians over all rounds and passes (README
/// "Steadiness" has the paired numbers). No such estimator steadies the
/// request/response path, which needs both vCPUs and the kernel at once,
/// so the query metrics are plain statistics over every sample.
fn end_to_end(
    args: &RunArgs,
    env: &Env,
    plan: &QueryPlan,
    uniform: &[Planned],
    gate: &mut Gate,
) -> io::Result<Measured> {
    let w = args.workload;
    let cycles = if args.quick { 2 } else { CYCLES };
    let budget = Duration::from_secs_f64(args.seconds);
    let ingest_slice = budget.mul_f64(w.ingest_share / cycles as f64);
    let query_slice = budget.mul_f64((1.0 - w.ingest_share) / cycles as f64);
    let mut m = Measured {
        round_mpps: Vec::new(),
        pass_live_us_p50: Vec::new(),
        latency_ms: Vec::new(),
        query_wall_ns: 0,
        cycle_qps: Vec::new(),
        cycle_ms_p50: Vec::new(),
    };
    for cycle in 0..cycles {
        let slice = Instant::now();
        loop {
            let round = sut::ingest_round(&env.trace, &w.ingest, Rung::Full)?;
            check_round(gate, &round, &env.live, true);
            m.round_mpps.push(round.mpps());
            if slice.elapsed() >= ingest_slice {
                break;
            }
        }
        m.pass_live_us_p50
            .push(median(&live_pass(&env.live, uniform, gate)));
        let warm_up = cycle == 0 && w.mix == Mix::Hot;
        let phase = plan.run(warm_up, query_slice, gate, None)?;
        let latency_ms = ns_to(&phase.latency_ns, 1e6);
        m.cycle_qps.push(phase.qps());
        m.cycle_ms_p50.push(median(&latency_ms));
        m.latency_ms.extend(latency_ms);
        m.query_wall_ns += phase.wall_ns;
    }
    Ok(m)
}

/// Run one workload once.
pub fn run(args: &RunArgs) -> io::Result<Outcome> {
    let w = args.workload;
    let scratch = Scratch::create(&args.out_dir)?;
    let mut gate = Gate::default();

    // -- set-up, repeated; the cold round rides on the first repetition ----
    let mut cold: Option<Round> = None;
    let mut setup_s = Vec::new();
    let mut env: Option<Env> = None;
    for rep in 0..setup_reps(args) {
        if let Some(previous) = env.take() {
            previous.fleet.shutdown()?;
        }
        let (next, took) = set_up(args, &scratch, (rep == 0).then_some(&mut cold))?;
        setup_s.push(took.as_secs_f64());
        env = Some(next);
    }
    let env = env.expect("at least one set-up repetition");
    let cold = cold.expect("the first set-up ran the cold round");
    check_round(&mut gate, &cold, &env.live, true);
    gate.require(env.victims.len() >= 100 && env.hot.len() >= 2, || {
        format!(
            "too few victims: {} sampled, {} hot",
            env.victims.len(),
            env.hot.len()
        )
    });

    // -- oracle answers and accuracy (untimed) -----------------------------
    let (mut reader, open_ns) = Reader::open(&env.archive, &w.ingest)?;
    let uniform = plan(&mut reader, &env.victims, env.epoch_ns)?;
    let hot = plan(&mut reader, &env.hot, env.epoch_ns)?;
    let accuracy: Vec<sut::Accuracy> = env
        .graded
        .iter()
        .map(|&victim| env.live.accuracy(victim))
        .collect();
    let mean = |f: fn(&sut::Accuracy) -> f64| {
        accuracy.iter().map(f).sum::<f64>() / accuracy.len().max(1) as f64
    };
    let precision_mean = mean(|a| a.precision);
    let recall_mean = mean(|a| a.recall);
    let floor = w
        .floors
        .iter()
        .find(|f| f.traffic_seed == args.traffic_seed);
    if let Some(floor) = floor.filter(|_| !args.quick) {
        gate.require(
            precision_mean >= floor.precision && recall_mean >= floor.recall,
            || {
                format!(
                    "accuracy below floor: precision {precision_mean:.9} (floor {}), \
                     recall {recall_mean:.9} (floor {})",
                    floor.precision, floor.recall
                )
            },
        );
    }
    let mut digest_words: Vec<u64> = uniform.iter().map(|q| q.expected.direct).collect();
    digest_words.extend(hot.iter().map(|q| q.expected.routed));
    digest_words.extend([env.live.checkpoints, env.live.drops]);
    let answers_digest = sut::crc_of_words(&digest_words);

    let queries = query_list(w, args.seed, &uniform, &hot);
    let plan = QueryPlan {
        addr: match w.route {
            Route::Direct => env.fleet.backend_addr,
            Route::Routed => env.fleet.router_addr,
        },
        route: w.route,
        cfg: &w.ingest,
        queries: &queries,
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let mut metrics;
    let mut spans = Vec::new();
    let mut notes = Vec::new();
    let mut series = Vec::new();
    if args.trace {
        let inputs = layers::Inputs {
            workload: w,
            env: &env,
            cold: &cold,
            open_ns,
            uniform: &uniform,
            hot: &hot,
            plan: &plan,
            budget,
        };
        (metrics, spans) = layers::measure(&inputs, &mut reader, &mut gate, &mut notes)?;
    } else {
        let m = end_to_end(args, &env, &plan, &uniform, &mut gate)?;
        let graded = accuracy.len() as u64;
        let answered = m.latency_ms.len() as u64;
        metrics = vec![
            metric("setup_s", "s", median(&setup_s), setup_s.len() as u64),
            metric(
                "ingest_mpps",
                "Mpps",
                highest(&m.round_mpps),
                m.round_mpps.len() as u64,
            ),
            metric(
                "pqa_bytes_per_checkpoint",
                "B",
                env.live.archive_bytes as f64 / env.live.checkpoints.max(1) as f64,
                env.live.checkpoints,
            ),
            metric(
                "live_query_us_p50",
                "us",
                lowest(&m.pass_live_us_p50),
                (m.pass_live_us_p50.len() * uniform.len()) as u64,
            ),
            metric("precision_mean", "ratio", precision_mean, graded),
            metric("recall_mean", "ratio", recall_mean, graded),
            metric(
                "query_qps",
                "1/s",
                answered as f64 * 1e9 / m.query_wall_ns.max(1) as f64,
                answered,
            ),
            metric("query_ms_p50", "ms", median(&m.latency_ms), answered),
            metric(
                "query_ms_p90",
                "ms",
                percentile(&m.latency_ms, 0.9),
                answered,
            ),
        ];
        if highest_supported_tail(answered as usize).is_none() {
            notes.push(format!(
                "query_ms_p90 rests on {answered} samples; it needs 100 to leave 10 beyond it"
            ));
        }
        series = vec![
            ("setup_s", setup_s),
            ("round_mpps", m.round_mpps),
            ("cycle_live_query_us_p50", m.pass_live_us_p50),
            ("cycle_query_qps", m.cycle_qps),
            ("cycle_query_ms_p50", m.cycle_ms_p50),
        ];
    }

    // -- the standing invariant, on a sample: every route, same bits ------
    let mut direct = Conn::connect(env.fleet.backend_addr, &w.ingest)?;
    let mut routed = Conn::connect(env.fleet.router_addr, &w.ingest)?;
    let stride = (uniform.len() / 48).max(1);
    for q in uniform.iter().step_by(stride).chain(hot.iter()) {
        let (from, to) = (q.victim.from, q.victim.to);
        let got = reader.query_uncached(q.victim)?.0;
        gate.check(got == q.expected.direct, || {
            format!("StoreReader::query for [{from}, {to}] is not repeatable")
        });
        let got = direct.replay(q.victim).map(|(d, _)| d).map_err(|e| e.0);
        gate.check(got.as_ref() == Ok(&q.expected.direct), || {
            format!("direct answer for [{from}, {to}]: {got:?}")
        });
        let got = routed.replay(q.victim).map(|(d, _)| d).map_err(|e| e.0);
        gate.check(got.as_ref() == Ok(&q.expected.routed), || {
            format!("routed answer for [{from}, {to}]: {got:?}")
        });
    }
    drop((direct, routed));
    env.fleet.shutdown()?;

    if !args.trace {
        metrics.push(metric("peak_rss_mb", "MiB", peak_rss_mib(), 1));
    }
    let crossing = hot.iter().filter(|q| q.expected.slices > 1).count();
    Ok(Outcome {
        metrics,
        attempted: gate.attempted,
        failed: gate.failed,
        problems: gate.problems,
        notes,
        answers_digest,
        params: vec![
            ("trace_ms", trace_ns(args) as f64 / 1e6),
            ("packets", env.trace.packets() as f64),
            ("checkpoints", env.live.checkpoints as f64),
            ("drops", env.live.drops as f64),
            ("archive_bytes", env.live.archive_bytes as f64),
            ("archive_segments", reader.segments as f64),
            ("archive_span_ms", env.live.span_ns as f64 / 1e6),
            ("set_period_us", w.ingest.set_period_ns() as f64 / 1e3),
            ("router_epoch_ms", env.epoch_ns as f64 / 1e6),
            ("victims", uniform.len() as f64),
            ("hot_victims", hot.len() as f64),
            ("hot_victims_crossing_an_epoch", crossing as f64),
            ("ingest_share", w.ingest_share),
            ("clients", CLIENTS as f64),
            ("setup_reps", setup_reps(args) as f64),
        ],
        series,
        spans,
    })
}

/// Where the trace file of a traced run goes.
pub fn trace_path(out_dir: &Path, workload: &str) -> PathBuf {
    out_dir.join(format!("{workload}.trace.json"))
}
