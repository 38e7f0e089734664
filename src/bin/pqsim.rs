//! `pqsim` — command-line driver for the PrintQueue reproduction.
//!
//! Subcommands:
//!
//! * `gen   --kind uw|ws|dm --duration-ms N --seed S --out FILE`
//!   Generate a workload trace and save it as a `.pqtr` file.
//! * `info  FILE`
//!   Print a saved trace's summary statistics.
//! * `run   FILE [--alpha A --k K --t T --m0 M --d NS] [--victims N]
//!   [--telemetry PATH]`
//!   Replay a trace through the simulated switch with PrintQueue attached
//!   and diagnose the N most-delayed packets. With `--telemetry`, span
//!   tracing is enabled and two files are written: a Chrome trace-event
//!   JSON at PATH (loadable in Perfetto / `chrome://tracing`) and a
//!   Prometheus text exposition at PATH with a `.prom` extension.
//! * `telemetry FILE [tw flags] [--out PATH] [--require a,b<=N,c] [--prom F]`
//!   Replay a trace with the full observability plane attached and print
//!   a summary of every metric and span. `--require` names metrics (or
//!   span names) that must be present and nonzero — or, with a `<=N`
//!   suffix, that must not exceed an upper bound (absent observes 0) —
//!   the command exits nonzero otherwise, which makes it a one-line
//!   smoke test for CI. `--prom` merges the samples of a Prometheus
//!   text file (such as the exposition `serve --metrics-file` writes)
//!   into the check.
//! * `case-study [--duration-ms N --seed S]`
//!   Run the §7.2 queue-monitor case study and print the three culprit
//!   views.
//! * `export-pcap FILE.pqtr FILE.pcap` / `import-pcap FILE.pcap FILE.pqtr`
//!   Convert between the native trace format and standard pcap, for
//!   interop with tcpdump/wireshark/tcpreplay.
//! * `depth FILE.pqtr [--step-us N]`
//!   Replay a trace and print an ASCII queue-depth-over-time plot from the
//!   data-plane depth sampler.
//! * `validate [--alpha A --k K --t T --m0 M --rate-gbps G --min-pkt B]`
//!   Pre-flight a configuration against a deployment profile (§7.1's
//!   feasibility guidance) without running anything.
//! * `archive FILE.pqtr OUT.pqa [tw flags]`
//!   Run a trace and archive every active port's checkpoints as a `.pqa`
//!   store, streamed to disk as the control plane polls them (bounded
//!   RAM).
//! * `replay-query ARCHIVE.pqa --from NS --to NS [--port P] [--d NS] [--json]`
//!   Re-run a time-window query against an archived checkpoint store of
//!   any `.pqa` format version, decoding only the segments overlapping
//!   the interval. `--port` defaults to the first port in the file.
//! * `convert SRC.pqa DST.pqa`
//!   Rewrite a `.pqa` of any format version (1, 2 or 3) as a current one.
//! * `serve [FILE.pqtr] --listen ADDR [--archive FILE.pqa] [tw flags]
//!   [--workers N --queue-cap N --inflight N --max-conns N --cache-mb MB
//!   --addr-file PATH --metrics-file PATH] [trace flags]`
//!   Run the concurrent diagnosis-query daemon. A trace positional builds
//!   live register state (time-window and queue-monitor queries);
//!   `--archive` additionally serves replay queries from a `.pqa` file.
//!   `--addr-file` records the bound address (useful with `:0` ephemeral
//!   ports); `--metrics-file` writes the server's Prometheus exposition
//!   at shutdown; `--shard NAME` stamps the daemon's shard identity into
//!   its `HealthAck` and `ShardMapAck`. The trace flags — shared with
//!   `router` — turn on distributed request tracing: `--trace` samples
//!   every request, `--trace-sample P` head-samples a fraction,
//!   `--trace-slow-ms N` commits anything slower regardless (default
//!   100), `--trace-out FILE.jsonl` spills committed traces as JSON
//!   lines. Stop it with `pqsim serve-stop ADDR`.
//! * `router --backends name=addr[,name=addr...] [--listen ADDR]
//!   [--replication N] [--epoch-ns N] [--quarantine-after N] [--probe-ms N]
//!   [trace flags]`
//!   Run the scatter-gather router tier in front of N serve daemons.
//!   Speaks the same wire protocol, so `query --remote`, `watch`, and
//!   `serve-stop` all work against it unchanged. Each `(port, epoch)`
//!   shard is owned by `--replication` backends via rendezvous hashing;
//!   transient backend failures fail over to the replica and repeated
//!   ones quarantine the backend until a health probe readmits it.
//! * `replicate SRC.pqa DST.pqa`
//!   Seal-and-ship an archive to a replica path: every segment is
//!   CRC-verified before the copy, the publish is atomic, and the
//!   replica is audited segment-by-segment afterwards.
//! * `query FILE.pqtr|--remote ADDR --from NS --to NS [--port P]
//!   [--kind tw|monitor|replay] [--at NS] [--d NS] [--json] [--trace]`
//!   Run a diagnosis query — against live state built from a trace, or
//!   against a running `serve` daemon with `--remote`. Local and remote
//!   answers print byte-identically through the same formatter.
//!   `--trace` (remote only) plants a fresh always-sampled trace id on
//!   the request and prints it, ready to pull with `pqsim trace`.
//! * `watch ADDR [--interval-ms N] [--updates N] [--rules FILE] [--once]
//!   [--json]`
//!   Watch a running `serve` daemon or router live: poll its metrics
//!   snapshot every `--interval-ms` (`--updates N` polls, 0 = until the
//!   peer stops), count the series that changed between polls, and
//!   render a plaintext dashboard (qps, queue depth, cache hit rate,
//!   shed rate, alert states). `--rules FILE` loads declarative alert
//!   rules (threshold / rate / absence, with debounce and hysteresis)
//!   evaluated against every poll. `--once --json` takes two polls an
//!   interval apart (so rates are defined), prints one JSON document,
//!   and exits nonzero when any rule fires — a CI gate in one line.
//! * `stream ADDR --query Q [--cap N] [--windows N] [--once] [--json]`
//!   Register a standing continuous query (DESIGN.md §13's one-line
//!   grammar) against a running daemon or router and print each fired
//!   window as it closes. `--once` ends the stream when the bounded
//!   source seals; `--json` emits one document per window.
//! * `trace --from ADDR[,ADDR...]|--files F.jsonl[,...] [--top N]
//!   [--slow] [--out chrome.json] [--json]`
//!   Pull buffered request traces from running daemons (and/or read
//!   `--trace-out` spill files), stitch the records of each request
//!   across processes, and print per-request span timelines, slowest
//!   first. `--slow` keeps only slow-threshold traces (the slow-query
//!   log), `--json` prints one JSON document per trace, and `--out`
//!   writes a Chrome/Perfetto trace with one lane per process.
//! * `prof --from ADDR[,ADDR...] [--top N] [--folded out.txt] [--json]`
//!   Pull the continuous profiler's dump from running daemons/routers
//!   (start them with `--prof [--prof-sample-ms N]`) and print the
//!   top-N self-time scopes, per-lock wait/hold quantiles, and sampled
//!   stacks. A router address answers with the merged dump of its live
//!   backends. `--folded` writes collapsed stacks ready for
//!   `flamegraph.pl` / inferno; `--json` prints the full report.
//! * `prof FILE.pqtr [tw flags] [--sample-ms N] [...]`
//!   Same report from a local replay: run the trace with profiling and
//!   the stack sampler on, no fleet required.
//! * `serve-stop ADDR`
//!   Ask a running daemon to drain in-flight queries and exit.
//!
//! Every subcommand accepts `--quiet`, which suppresses progress chatter.
//! Progress goes to stderr; results go to stdout; errors exit nonzero.
//! Everything is deterministic given the seed.

use printqueue::core::culprits::GroundTruth;
use printqueue::core::metrics::{self, precision_recall};
use printqueue::prelude::*;
use printqueue::queryfmt;
use printqueue::store::{SegmentPolicy, SharedStoreWriter, StoreWriter};
use printqueue::telemetry::{self, MetricValue, Telemetry};
use printqueue::trace::workload::GeneratedTrace;
use printqueue::trace::{io as trace_io, scenario};
use printqueue::tracefile;
use std::path::PathBuf;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};

static QUIET: AtomicBool = AtomicBool::new(false);

/// Progress chatter: stderr, suppressed by `--quiet`. Results (the thing
/// a subcommand exists to compute) stay on stdout.
macro_rules! progress {
    ($($arg:tt)*) => {
        if !QUIET.load(Ordering::Relaxed) {
            eprintln!($($arg)*);
        }
    };
}

type CliResult = Result<(), String>;

fn usage() -> ! {
    eprintln!(
        "usage:\n  pqsim gen --kind uw|ws|dm [--duration-ms N] [--seed S] --out FILE\n  \
         pqsim info FILE\n  \
         pqsim run FILE [--alpha A] [--k K] [--t T] [--m0 M] [--d NS] [--victims N]\n  \
         \x20         [--fault-rate P] [--fault-seed S] [--read-latency-ns NS]\n  \
         \x20         [--telemetry PATH]\n  \
         pqsim telemetry FILE [tw flags] [--out PATH] [--require a,b<=N,c] [--prom F]\n  \
         pqsim case-study [--duration-ms N] [--seed S]\n  \
         pqsim export-pcap FILE.pqtr FILE.pcap\n  \
         pqsim import-pcap FILE.pcap FILE.pqtr [--port P]\n  \
         pqsim depth FILE.pqtr [--step-us N]\n  \
         pqsim validate [tw flags] [--rate-gbps G] [--min-pkt B]\n  \
         pqsim archive FILE.pqtr OUT.pqa [tw flags]\n  \
         pqsim replay-query ARCHIVE.pqa --from NS --to NS [--port P] [--d NS] [--json]\n  \
         pqsim convert SRC.pqa DST.pqa\n  \
         pqsim serve [FILE.pqtr] --listen ADDR [--archive FILE.pqa] [tw flags]\n  \
         \x20         [--workers N] [--queue-cap N] [--inflight N] [--max-conns N]\n  \
         \x20         [--cache-mb MB] [--work-delay-ms N] [--shard NAME]\n  \
         \x20         [--addr-file PATH] [--metrics-file PATH] [trace flags]\n  \
         \x20         [--prof] [--prof-sample-ms N]\n  \
         pqsim router --backends name=addr[,name=addr...] [--listen ADDR]\n  \
         \x20         [--replication N] [--epoch-ns N] [--quarantine-after N]\n  \
         \x20         [--probe-ms N] [--connect-ms N] [--io-ms N] [--max-conns N]\n  \
         \x20         [--addr-file PATH] [--metrics-file PATH] [trace flags]\n  \
         \x20         [--prof] [--prof-sample-ms N]\n  \
         \x20         (trace flags: --trace | --trace-sample P | --trace-slow-ms N\n  \
         \x20          | --trace-out FILE.jsonl)\n  \
         pqsim replicate SRC.pqa DST.pqa\n  \
         pqsim query FILE.pqtr|--remote ADDR --from NS --to NS [--port P]\n  \
         \x20         [--kind tw|monitor|replay] [--at NS] [--d NS] [--json] [--trace]\n  \
         pqsim rtt [--flows N] [--pkts N] [--ports N] [--seed S] [--loss P]\n  \
         \x20         [--reorder P] [--jitter F] [--spin F] [--slow-flow-ns NS]\n  \
         \x20         [--archive OUT.pqa] [--top N] [--json]\n  \
         pqsim rtt --remote ADDR [--port P] [--from NS] [--to NS]\n  \
         \x20         [--max-flows N] [--top N] [--json]\n  \
         pqsim trace --from ADDR[,ADDR...]|--files F.jsonl[,...] [--top N]\n  \
         \x20         [--slow] [--out chrome.json] [--json]\n  \
         pqsim prof --from ADDR[,ADDR...] [--top N] [--folded FILE] [--json]\n  \
         pqsim prof FILE.pqtr [tw flags] [--sample-ms N] [--top N]\n  \
         \x20         [--folded FILE] [--json]\n  \
         pqsim watch ADDR [--interval-ms N] [--updates N] [--rules FILE]\n  \
         \x20         [--once] [--json]\n  \
         pqsim stream ADDR --query Q [--cap N] [--windows N] [--once] [--json]\n  \
         pqsim serve-stop ADDR\n  \
         (any subcommand: --quiet suppresses progress output)"
    );
    exit(2)
}

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["quiet", "json", "once", "trace", "slow", "prof"];

/// Minimal flag parser: `--name value` pairs, boolean `--name` switches,
/// and positional arguments.
struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Args {
        let mut positional = Vec::new();
        let mut flags = std::collections::HashMap::new();
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if BOOL_FLAGS.contains(&name) {
                    flags.insert(name.to_string(), "true".to_string());
                } else {
                    let value = raw.next().unwrap_or_else(|| usage());
                    flags.insert(name.to_string(), value);
                }
            } else {
                positional.push(arg);
            }
        }
        Args { positional, flags }
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.flags.get(name) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for --{name}: {v}");
                exit(2)
            }),
            None => default,
        }
    }

    /// A MiB flag in bytes, `default_bytes` when absent. A count whose
    /// bytes overflow `u64` is refused like any other bad value.
    fn get_mib(&self, name: &str, default_bytes: u64) -> u64 {
        let mib: u64 = self.get(name, default_bytes >> 20);
        mib.checked_mul(1 << 20).unwrap_or_else(|| {
            eprintln!("bad value for --{name}: {mib} MiB overflows a byte count");
            exit(2)
        })
    }

    /// A millisecond flag as a `Duration`, `default` when absent.
    fn get_ms(&self, name: &str, default: std::time::Duration) -> std::time::Duration {
        std::time::Duration::from_millis(self.get(name, default.as_millis() as u64))
    }

    fn get_str(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else { usage() };
    let args = Args::parse(argv);
    QUIET.store(args.has("quiet"), Ordering::Relaxed);
    let result = match cmd.as_str() {
        "gen" => cmd_gen(&args),
        "info" => cmd_info(&args),
        "run" => cmd_run(&args),
        "telemetry" => cmd_telemetry(&args),
        "case-study" => cmd_case_study(&args),
        "export-pcap" => cmd_export_pcap(&args),
        "import-pcap" => cmd_import_pcap(&args),
        "depth" => cmd_depth(&args),
        "validate" => cmd_validate(&args),
        "archive" => cmd_archive(&args),
        "replay-query" => cmd_replay_query(&args),
        "convert" => cmd_convert(&args),
        "serve" => cmd_serve(&args),
        "router" => cmd_router(&args),
        "replicate" => cmd_replicate(&args),
        "query" => cmd_query(&args),
        "rtt" => cmd_rtt(&args),
        "trace" => cmd_trace(&args),
        "prof" => cmd_prof(&args),
        "watch" => cmd_watch(&args),
        "stream" => cmd_stream(&args),
        "serve-stop" => cmd_serve_stop(&args),
        _ => usage(),
    };
    if let Err(err) = result {
        eprintln!("pqsim {cmd}: {err}");
        exit(1);
    }
}

fn cmd_gen(args: &Args) -> CliResult {
    let kind = match args.get_str("kind") {
        Some("uw") => WorkloadKind::Uw,
        Some("ws") => WorkloadKind::Ws,
        Some("dm") => WorkloadKind::Dm,
        _ => usage(),
    };
    let duration_ms: u64 = args.get("duration-ms", 50);
    let seed: u64 = args.get("seed", 1);
    let Some(out) = args.get_str("out") else {
        usage()
    };
    let trace = Workload::paper_testbed(kind, duration_ms.millis(), seed).generate();
    progress!(
        "generated {} trace: {} packets, {} flows, offered {:.2} Gbps over {duration_ms} ms",
        kind.label(),
        trace.packets(),
        trace.flows.len(),
        trace.offered_gbps(duration_ms.millis())
    );
    trace_io::save(&trace, &PathBuf::from(out)).map_err(|err| format!("write {out}: {err}"))?;
    progress!("saved to {out}");
    Ok(())
}

fn load_trace(args: &Args) -> Result<GeneratedTrace, String> {
    let Some(path) = args.positional.first() else {
        usage()
    };
    trace_io::load(&PathBuf::from(path)).map_err(|err| format!("read {path}: {err}"))
}

fn cmd_info(args: &Args) -> CliResult {
    let trace = load_trace(args)?;
    println!("{}", printqueue::trace::stats::analyze(&trace));
    // Top 5 flows by packets.
    let mut per_flow = std::collections::HashMap::new();
    for a in &trace.arrivals {
        *per_flow.entry(a.pkt.flow).or_insert(0u64) += 1;
    }
    let mut ranked: Vec<_> = per_flow.into_iter().collect();
    ranked.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!("top flows:");
    for (flow, n) in ranked.into_iter().take(5) {
        let tuple = trace
            .flows
            .resolve(flow)
            .map(|k| k.to_string())
            .unwrap_or_default();
        println!("  {n:>8}  {tuple}");
    }
    Ok(())
}

/// PrintQueue and the switch it watches, built the one way every trace
/// replay (`run`, `telemetry`, `prof`, `archive`, `serve`, `query`) is:
/// PrintQueue on every egress port the trace touches (port 0 always), each
/// a 10 Gbps port of 32 768 cells.
struct Replay {
    pq: PrintQueue,
    sw: Switch,
}

impl Replay {
    fn new(trace: &GeneratedTrace, mut config: PrintQueueConfig) -> Replay {
        let mut ports: Vec<u16> = trace.arrivals.iter().map(|a| a.port).collect();
        ports.push(0);
        ports.sort_unstable();
        ports.dedup();
        let port = printqueue::switch::PortConfig {
            rate_gbps: 10.0,
            max_depth_cells: 32_768,
            ..Default::default()
        };
        let sw = Switch::new(SwitchConfig {
            ports: vec![port; usize::from(*ports.last().unwrap()) + 1],
            ..SwitchConfig::single_port(10.0, 32_768)
        });
        config.ports = ports;
        Replay {
            pq: PrintQueue::new(config),
            sw,
        }
    }

    /// Attach the full observability plane to PrintQueue, the switch and a
    /// discarding spill store, so all span sources (switch residence,
    /// freeze-and-read, window rotation, segment flush) are live.
    fn attach_telemetry(
        &mut self,
    ) -> Result<(Telemetry, SharedStoreWriter<std::io::Sink>), String> {
        let plane = Telemetry::new();
        plane.set_tracing(true);
        // `run`/`telemetry` own their process, so the plane exports the
        // profiler's series; scopes record so `--require` can gate on
        // `pq_prof_scope_self_ns_total{scope="switch/run"}` and the lock
        // facade's wait/hold histograms.
        printqueue::prof::set_enabled(true);
        plane.set_export_prof(true);
        self.pq.set_telemetry(&plane);
        self.sw.set_telemetry(&plane);
        // Stream checkpoints into a discarding store: `run` archives
        // nothing, but this makes segment-flush metrics and spans
        // observable.
        let tw = *self.pq.analysis().tw_config();
        let mut writer = StoreWriter::new(std::io::sink(), tw, SegmentPolicy::default())
            .map_err(|err| format!("telemetry store: {err}"))?;
        writer.set_telemetry(&plane);
        let handle = SharedStoreWriter::new(writer);
        self.pq.analysis_mut().set_spill(Box::new(handle.clone()));
        Ok((plane, handle))
    }

    /// Replay `trace`, polling every set period; `sink`, when given, sees
    /// every packet after PrintQueue does.
    fn run(&mut self, trace: &GeneratedTrace, sink: Option<&mut TelemetrySink>) {
        let set_period = self.pq.analysis().tw_config().set_period();
        let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut self.pq];
        hooks.extend(sink.map(|s| s as &mut dyn QueueHooks));
        self.sw
            .run(trace.arrivals.iter().copied(), &mut hooks, set_period);
    }
}

/// Write the Chrome trace-event JSON to `path` and the Prometheus text
/// exposition next to it (same stem, `.prom` extension).
fn export_telemetry(plane: &Telemetry, path: &std::path::Path) -> CliResult {
    let spans = plane.spans().snapshot();
    std::fs::write(path, telemetry::to_chrome_trace(&spans))
        .map_err(|err| format!("write {}: {err}", path.display()))?;
    let prom_path = path.with_extension("prom");
    std::fs::write(&prom_path, telemetry::to_prometheus(&plane.snapshot()))
        .map_err(|err| format!("write {}: {err}", prom_path.display()))?;
    progress!(
        "telemetry: {} spans -> {}, {} metrics -> {}",
        spans.len(),
        path.display(),
        plane.snapshot().len(),
        prom_path.display()
    );
    Ok(())
}

fn cmd_run(args: &Args) -> CliResult {
    let trace = load_trace(args)?;
    let tw = tw_from_args(args);
    let d: u64 = args.get("d", 110);
    let victims_n: usize = args.get("victims", 5);
    let fault_rate: f64 = args.get("fault-rate", 0.0);
    let fault_seed: u64 = args.get("fault-seed", 1);
    let read_latency_ns: u64 = args.get("read-latency-ns", 0);
    let telemetry_path = args.get_str("telemetry").map(PathBuf::from);
    if !(0.0..=1.0).contains(&fault_rate) {
        return Err(format!(
            "--fault-rate must be within [0, 1], got {fault_rate}"
        ));
    }

    progress!(
        "PrintQueue: m0={} α={} k={} T={}; set period {:.3} ms",
        tw.m0,
        tw.alpha,
        tw.k,
        tw.t,
        tw.set_period() as f64 / 1e6
    );
    let mut pq_config = PrintQueueConfig::single_port(tw, d);
    if fault_rate > 0.0 || read_latency_ns > 0 {
        let profile = FaultProfile {
            read_failure_prob: fault_rate,
            read_latency: if read_latency_ns > 0 {
                LatencyModel::Fixed(read_latency_ns)
            } else {
                LatencyModel::Zero
            },
            ..FaultProfile::none()
        };
        pq_config = pq_config.with_faults(FaultConfig::new(fault_seed).with_base(profile));
        progress!(
            "fault injection: read failure p={fault_rate}, read latency {read_latency_ns} ns, seed {fault_seed}"
        );
    }
    // Pre-flight the configuration against the trace's characteristics.
    {
        use printqueue::core::validation::{validate, DeploymentProfile};
        let stats = printqueue::trace::stats::analyze(&trace);
        let profile = DeploymentProfile {
            port_rate_gbps: 10.0,
            min_pkt_bytes: stats.pkt_size_p1.max(64),
            max_depth_cells: 32_768,
            max_query_interval: tw.set_period().min(2_000_000),
        };
        for f in validate(&pq_config, &profile) {
            println!("[{:?}] {}: {}", f.severity, f.code, f.message);
        }
    }
    let mut replay = Replay::new(&trace, pq_config);
    let mut sink = TelemetrySink::new();
    let mut observability = None;
    if telemetry_path.is_some() {
        observability = Some(replay.attach_telemetry()?);
    }
    replay.run(&trace, Some(&mut sink));
    let pq = replay.pq;
    let ports = pq.analysis().ports();
    for &port in &ports {
        let stats = replay.sw.port_stats(port);
        let label = if ports.len() > 1 {
            format!(" port {port}")
        } else {
            String::new()
        };
        println!(
            "switch{label}: {} transmitted, {} dropped, max depth {} cells, mean delay {:.1} µs",
            stats.dequeued,
            stats.dropped,
            stats.max_depth_cells,
            stats.mean_queue_delay() / 1e3
        );
    }
    let health = pq.analysis().health();
    println!(
        "control plane: {} polls ({} failed, {} retried, {} stalled), {} checkpoints \
         ({} dropped), {} coverage gaps ({:.3} ms lost), {} backoff ceiling hits",
        health.polls_attempted,
        health.polls_failed,
        health.polls_retried,
        health.polls_stalled,
        health.checkpoints_stored,
        health.checkpoints_dropped,
        health.coverage_gaps,
        health.gap_ns as f64 / 1e6,
        health.backoff_ceiling_hits,
    );
    if let (Some(path), Some((plane, handle))) = (&telemetry_path, &observability) {
        handle
            .finish()
            .map_err(|err| format!("telemetry store finish: {err}"))?;
        export_telemetry(plane, path)?;
    }

    // Each victim is diagnosed on its own egress port, against that port's
    // ground truth.
    let mut by_port = std::collections::BTreeMap::<u16, Vec<_>>::new();
    for r in &sink.records {
        by_port.entry(r.port).or_default().push(*r);
    }
    let oracles: std::collections::BTreeMap<u16, GroundTruth> = by_port
        .iter()
        .map(|(&port, records)| (port, GroundTruth::new(records, 80)))
        .collect();
    let mut by_delay: Vec<_> = sink.records.iter().collect();
    by_delay.sort_by_key(|r| std::cmp::Reverse(r.meta.deq_timedelta));
    println!("\ndiagnosing the {victims_n} most-delayed packets:");
    for victim in by_delay.into_iter().take(victims_n) {
        let port = victim.port;
        let interval = QueryInterval::new(victim.meta.enq_timestamp, victim.deq_timestamp());
        let est = pq.analysis().query_time_windows(port, interval);
        let truth = metrics::to_float_counts(&oracles[&port].direct_culprits(
            interval.from,
            interval.to,
            victim.seqno,
        ));
        let pr = precision_recall(&est.counts, &truth);
        let top = est
            .ranked()
            .first()
            .and_then(|(f, n)| trace.flows.resolve(*f).map(|key| (key.to_string(), *n)));
        println!(
            "  victim {} waited {:>8.1} µs | {} culprit flows, P {:.2} R {:.2} | top: {}{}",
            victim.flow,
            f64::from(victim.meta.deq_timedelta) / 1e3,
            est.counts.len(),
            pr.precision,
            pr.recall,
            top.map(|(key, n)| format!("{key} (~{n:.0} pkts)"))
                .unwrap_or_else(|| "-".into()),
            if est.degraded {
                " [degraded: coverage gap]"
            } else {
                ""
            },
        );
    }
    Ok(())
}

fn cmd_telemetry(args: &Args) -> CliResult {
    let trace = load_trace(args)?;
    let config = PrintQueueConfig::single_port(tw_from_args(args), args.get("d", 110));
    let mut replay = Replay::new(&trace, config);
    let (plane, handle) = replay.attach_telemetry()?;
    progress!(
        "replaying {} packets with the observability plane attached",
        trace.packets()
    );
    replay.run(&trace, Some(&mut TelemetrySink::new()));
    handle
        .finish()
        .map_err(|err| format!("telemetry store finish: {err}"))?;
    if let Some(out) = args.get_str("out") {
        export_telemetry(&plane, &PathBuf::from(out))?;
    }

    let snap = plane.snapshot();
    let spans = plane.spans().snapshot();
    println!("metrics ({}):", snap.len());
    for (key, value) in snap.iter() {
        let labels = if key.labels.is_empty() {
            String::new()
        } else {
            let inner: Vec<String> = key
                .labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{v}\""))
                .collect();
            format!("{{{}}}", inner.join(","))
        };
        match value {
            MetricValue::Counter(v) => println!("  counter   {}{labels} {v}", key.name),
            MetricValue::Gauge(v) => println!("  gauge     {}{labels} {v}", key.name),
            MetricValue::Histogram(h) => println!(
                "  histogram {}{labels} count={} p50={} p90={} p99={} max={}",
                key.name,
                h.count,
                h.p50(),
                h.p90(),
                h.p99(),
                h.max
            ),
        }
    }
    let mut per_span: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for s in &spans {
        *per_span.entry(s.name).or_default() += 1;
    }
    println!(
        "spans ({} recorded, {} dropped):",
        spans.len(),
        plane.spans().dropped()
    );
    for (name, n) in &per_span {
        println!("  {n:>8}  {name}");
    }

    // Extra metrics from a Prometheus text file (e.g. the exposition a
    // `pqsim serve --metrics-file` daemon wrote at shutdown) — merged
    // into the `--require` check so one CI line covers both planes.
    let prom_metrics = match args.get_str("prom") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|err| format!("read --prom {path}: {err}"))?;
            let parsed =
                telemetry::parse_prometheus(&text).map_err(|err| format!("parse {path}: {err}"))?;
            progress!("merged {} samples from {path}", parsed.len());
            parsed
        }
        None => Vec::new(),
    };

    if let Some(required) = args.get_str("require") {
        let mut failures = Vec::new();
        for spec in required.split(',').filter(|s| !s.is_empty()) {
            // Two spellings: a bare `name` must be present and nonzero in
            // some source; `name<=N` bounds the observed value from above
            // (an absent metric observes 0, so `pq_x_total<=0` asserts
            // "never happened" even before the counter exists).
            if let Some((name, bound)) = spec.split_once("<=") {
                let name = name.trim();
                let bound: f64 = bound
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad bound in --require entry `{spec}`"))?;
                let observed = metric_sources(name, &snap, &per_span, &prom_metrics)
                    .into_iter()
                    .fold(0.0_f64, f64::max);
                if observed > bound {
                    failures.push(format!("{name} = {observed} exceeds bound {bound}"));
                }
            } else {
                let nonzero = metric_sources(spec, &snap, &per_span, &prom_metrics)
                    .into_iter()
                    .any(|v| v > 0.0);
                if !nonzero {
                    failures.push(format!("{spec} absent or zero"));
                }
            }
        }
        if !failures.is_empty() {
            return Err(format!("required-metric check: {}", failures.join("; ")));
        }
        progress!("all required metrics present and within bounds");
    }
    Ok(())
}

/// The per-source observations of metric `name`: the registry sum over
/// its label sets (histograms observe their sample count), the recorded
/// span count, and the `--prom` exposition sum (`_count` covers
/// histogram samples there). One entry per source that knows the name at
/// all, so callers can distinguish "absent" from "present at zero".
fn metric_sources(
    name: &str,
    snap: &telemetry::RegistrySnapshot,
    per_span: &std::collections::BTreeMap<&str, usize>,
    prom: &[telemetry::ParsedMetric],
) -> Vec<f64> {
    let mut sources = Vec::new();
    let mut reg = None;
    for (_, value) in snap.iter().filter(|(k, _)| k.name == name) {
        let v = match value {
            MetricValue::Counter(c) | MetricValue::Gauge(c) => *c as f64,
            MetricValue::Histogram(h) => h.count as f64,
        };
        *reg.get_or_insert(0.0) += v;
    }
    sources.extend(reg);
    if let Some(n) = per_span.get(name) {
        sources.push(*n as f64);
    }
    let mut p = None;
    for m in prom
        .iter()
        .filter(|m| m.name == name || m.name == format!("{name}_count"))
    {
        *p.get_or_insert(0.0) += m.value;
    }
    sources.extend(p);
    sources
}

fn cmd_export_pcap(args: &Args) -> CliResult {
    let (Some(src), Some(dst)) = (args.positional.first(), args.positional.get(1)) else {
        usage()
    };
    let trace = trace_io::load(&PathBuf::from(src)).map_err(|err| format!("read {src}: {err}"))?;
    let file = std::fs::File::create(dst).map_err(|err| format!("create {dst}: {err}"))?;
    printqueue::trace::pcap::write_pcap(&trace, std::io::BufWriter::new(file))
        .map_err(|err| format!("pcap write: {err}"))?;
    progress!("wrote {} packets to {dst}", trace.packets());
    Ok(())
}

fn cmd_import_pcap(args: &Args) -> CliResult {
    let (Some(src), Some(dst)) = (args.positional.first(), args.positional.get(1)) else {
        usage()
    };
    let port: u16 = args.get("port", 0);
    let file = std::fs::File::open(src).map_err(|err| format!("open {src}: {err}"))?;
    let (trace, skipped) = printqueue::trace::pcap::read_pcap(std::io::BufReader::new(file), port)
        .map_err(|err| format!("pcap read: {err}"))?;
    if skipped > 0 {
        progress!("skipped {skipped} non-IPv4/TCP/UDP frames");
    }
    trace_io::save(&trace, &PathBuf::from(dst)).map_err(|err| format!("write {dst}: {err}"))?;
    progress!(
        "imported {} packets across {} flows into {dst}",
        trace.packets(),
        trace.flows.len()
    );
    Ok(())
}

fn cmd_depth(args: &Args) -> CliResult {
    use printqueue::switch::DepthSampler;
    let trace = load_trace(args)?;
    let step_us: u64 = args.get("step-us", 500);
    let mut sw = Switch::new(SwitchConfig::single_port(10.0, 32_768));
    let mut sampler = DepthSampler::new(0, 80, 1 << 20);
    {
        let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut sampler];
        sw.run(trace.arrivals.iter().copied(), &mut hooks, step_us * 1_000);
    }
    let peak = sampler.peak_cells.max(1);
    println!("queue depth over time (port 0, peak {peak} cells):");
    for s in &sampler.samples {
        let bars = (u64::from(s.depth_cells) * 50 / u64::from(peak)) as usize;
        println!(
            "{:>9.2} ms |{}{}",
            s.at as f64 / 1e6,
            "#".repeat(bars),
            if s.depth_cells > 0 && bars == 0 {
                "."
            } else {
                ""
            }
        );
    }
    if let Some((from, to)) = sampler.longest_busy_span(peak / 10) {
        println!(
            "longest span above 10% of peak: {:.2} ms",
            (to - from) as f64 / 1e6
        );
    }
    Ok(())
}

fn cmd_validate(args: &Args) -> CliResult {
    use printqueue::core::validation::{is_deployable, validate, DeploymentProfile};
    let rate: f64 = args.get("rate-gbps", 10.0);
    let min_pkt: u32 = args.get("min-pkt", 64);
    let tw = tw_from_args(args);
    let config = PrintQueueConfig::single_port(tw, 64);
    let profile = DeploymentProfile {
        port_rate_gbps: rate,
        min_pkt_bytes: min_pkt,
        max_depth_cells: 32_768,
        max_query_interval: 2_000_000,
    };
    progress!(
        "config m0={} α={} k={} T={}: set period {:.3} ms, poll {:.3} ms",
        tw.m0,
        tw.alpha,
        tw.k,
        tw.t,
        tw.set_period() as f64 / 1e6,
        config.control.poll_period as f64 / 1e6
    );
    let findings = validate(&config, &profile);
    if findings.is_empty() {
        println!("no findings — deployable ✓");
        return Ok(());
    }
    for f in &findings {
        println!("[{:?}] {}: {}", f.severity, f.code, f.message);
    }
    if !is_deployable(&findings) {
        return Err("configuration is not deployable".to_string());
    }
    Ok(())
}

fn cmd_archive(args: &Args) -> CliResult {
    let trace = load_trace(args)?;
    let Some(out_path) = args.positional.get(1) else {
        usage()
    };
    let out_path = PathBuf::from(out_path);
    let tw = tw_from_args(args);
    // Archive every port the trace touches, not just port 0, streaming
    // checkpoints to disk as the control plane polls them.
    let mut replay = Replay::new(
        &trace,
        PrintQueueConfig::single_port(tw, args.get("d", 110)),
    );
    let file = std::fs::File::create(&out_path)
        .map_err(|err| format!("create {}: {err}", out_path.display()))?;
    let writer = StoreWriter::new(std::io::BufWriter::new(file), tw, SegmentPolicy::default())
        .map_err(|err| format!("start store: {err}"))?;
    let handle = SharedStoreWriter::new(writer);
    replay.pq.analysis_mut().set_spill(Box::new(handle.clone()));
    let mut sink = TelemetrySink::new();
    replay.run(&trace, Some(&mut sink));

    let analysis = replay.pq.analysis();
    let ports = analysis.ports();
    let health = analysis.health();
    for &port in &ports {
        if handle.with(|w| w.set_health(port, health)).is_err() {
            break;
        }
    }
    handle
        .finish()
        .map_err(|err| format!("store finish: {err}"))?;
    progress!(
        "archived {} checkpoints across {} port(s) ({} transmitted packets) to {}",
        health.checkpoints_stored,
        ports.len(),
        sink.records.len(),
        out_path.display()
    );
    Ok(())
}

/// Print a time-window answer through the shared formatter — every query
/// path (live, replay, remote) funnels here so outputs stay identical.
fn emit_result(
    spec: &queryfmt::QuerySpec,
    checkpoints: u64,
    est: &printqueue::core::snapshot::FlowEstimates,
    gaps: &[CoverageGap],
    degraded: bool,
    json: bool,
) {
    if json {
        println!(
            "{}",
            queryfmt::result_json(spec, checkpoints, est, gaps, degraded)
        );
    } else {
        let header = queryfmt::interval_header(spec.from, spec.to, checkpoints);
        print!("{}", queryfmt::result_text(&header, est, gaps, degraded));
    }
}

/// Print a queue-monitor answer, local or remote, through the shared
/// formatter.
fn emit_monitor(
    spec: &queryfmt::QuerySpec,
    frozen_at: u64,
    staleness: u64,
    counts: &[(FlowId, u64)],
    gaps: &[CoverageGap],
    degraded: bool,
    json: bool,
) {
    if json {
        let doc = queryfmt::monitor_json(spec, frozen_at, staleness, counts, gaps, degraded);
        println!("{doc}");
    } else {
        let text = queryfmt::monitor_text(spec.from, frozen_at, staleness, counts, gaps, degraded);
        print!("{text}");
    }
}

/// Answer a time-window query from a `.pqa` archive — `--port`
/// defaulting to the first port in the file — refusing a port it does not
/// hold the way a daemon serving the same file does.
fn cmd_replay_query(args: &Args) -> CliResult {
    let Some(path) = args.positional.first() else {
        usage()
    };
    let file = std::fs::File::open(path).map_err(|err| format!("open {path}: {err}"))?;
    let mut reader = printqueue::store::StoreReader::open(std::io::BufReader::new(file))
        .map_err(|err| format!("store open: {err}"))?;
    let from: u64 = args.get("from", 0);
    let to: u64 = args.get("to", u64::MAX);
    let d: u64 = args.get("d", 110);
    let ports = reader.ports();
    let port: u16 = args.get("port", ports.first().copied().unwrap_or(0));
    if !ports.contains(&port) {
        return Err(format!("port {port} not present in archive"));
    }
    let coeffs = printqueue::core::coefficient::Coefficients::compute(reader.tw_config(), d);
    let result = reader
        .query(port, QueryInterval::new(from, to), &coeffs)
        .map_err(|err| format!("query: {err}"))?;
    let spec = queryfmt::QuerySpec {
        port,
        from,
        to,
        d,
        kind: queryfmt::QueryKind::Replay,
    };
    emit_result(
        &spec,
        reader.checkpoint_count(port),
        &result.estimates,
        &result.gaps,
        result.degraded,
        args.has("json"),
    );
    Ok(())
}

/// Replay `trace` and hand back the live analysis-program state, every
/// touched port activated (shared by `serve` and local `query`).
fn run_trace_live(
    trace: &GeneratedTrace,
    tw: TimeWindowConfig,
    d: u64,
) -> printqueue::prelude::AnalysisProgram {
    let mut replay = Replay::new(trace, PrintQueueConfig::single_port(tw, d));
    replay.run(trace, None);
    replay.pq.into_analysis()
}

fn tw_from_args(args: &Args) -> TimeWindowConfig {
    TimeWindowConfig::new(
        args.get("m0", 6),
        args.get("alpha", 2),
        args.get("k", 12),
        args.get("t", 4),
    )
}

/// Apply the shared `--trace*` daemon flags to a telemetry plane's trace
/// store. Tracing stays compiled in but disabled unless one of the flags
/// is present, so the default daemon pays only the `is_enabled` check.
///
/// `--trace` alone turns collection on with head sampling off — only
/// slow (or `Busy`-retried) requests are captured. `--trace-sample P`
/// adds probabilistic head sampling at rate `P` in [0, 1].
fn configure_tracing(args: &Args, plane: &Telemetry) -> CliResult {
    let requested = args.has("trace")
        || args.has("trace-sample")
        || args.has("trace-slow-ms")
        || args.has("trace-out");
    if !requested {
        return Ok(());
    }
    let traces = plane.traces();
    traces.set_enabled(true);
    let sample: f64 = args.get("trace-sample", 0.0);
    if !(0.0..=1.0).contains(&sample) {
        return Err(format!("--trace-sample {sample} out of range [0, 1]"));
    }
    traces.set_sample_ppm((sample * 1_000_000.0).round() as u32);
    let slow_ms: u64 = args.get("trace-slow-ms", 100);
    traces.set_slow_ns(slow_ms.saturating_mul(1_000_000));
    if let Some(path) = args.get_str("trace-out") {
        let sink = printqueue::telemetry::TraceSink::to_file(std::path::Path::new(path))
            .map_err(|err| format!("open --trace-out {path}: {err}"))?;
        traces.set_sink(sink);
    }
    progress!(
        "tracing on: sample {:.4}, slow >= {slow_ms}ms{}",
        sample,
        args.get_str("trace-out")
            .map(|p| format!(", spilling to {p}"))
            .unwrap_or_default()
    );
    Ok(())
}

/// Start-up and shutdown shared by `serve` and `router`: stamp the build
/// info, apply the `--trace*` and `--prof*` flags, `bind` to `--listen`
/// (which hands back the bound address and the daemon's run loop), print
/// the address as `"{verb} on ADDR"` (and write it to `--addr-file`), run
/// until stopped, then write the Prometheus exposition to
/// `--metrics-file`.
fn run_daemon<R: FnOnce() -> std::io::Result<()>>(
    args: &Args,
    plane: &Telemetry,
    (name, verb): (&str, &str),
    bind: impl FnOnce(&str) -> std::io::Result<(std::net::SocketAddr, R)>,
) -> CliResult {
    printqueue::telemetry::provenance::set_build_info(
        plane.registry(),
        env!("CARGO_PKG_VERSION"),
        &printqueue::telemetry::provenance::git_commit(),
    );
    configure_tracing(args, plane)?;
    // `--prof [--prof-sample-ms N]`: the profiler is process-global ("a
    // process has one profile"), so only the plane that owns the process
    // exports its `pq_prof_*` / `pq_lock_*` series. Dump requests are
    // answered either way, with an empty report when profiling never ran.
    let sample_ms: u64 = args.get("prof-sample-ms", 0);
    if args.has("prof") || sample_ms > 0 {
        printqueue::prof::set_enabled(true);
        plane.set_export_prof(true);
        if sample_ms > 0 {
            printqueue::prof::start_sampler(std::time::Duration::from_millis(sample_ms));
        }
    }
    let listen = args.get_str("listen").unwrap_or("127.0.0.1:0");
    let (addr, run) = bind(listen).map_err(|err| format!("bind {listen}: {err}"))?;
    println!("{verb} on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Some(path) = args.get_str("addr-file") {
        std::fs::write(path, addr.to_string()).map_err(|err| format!("write {path}: {err}"))?;
    }
    run().map_err(|err| format!("{name}: {err}"))?;
    progress!("{name} stopped");
    if let Some(path) = args.get_str("metrics-file") {
        std::fs::write(path, telemetry::to_prometheus(&plane.snapshot()))
            .map_err(|err| format!("write {path}: {err}"))?;
        progress!("{name} metrics written to {path}");
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> CliResult {
    use printqueue::serve::{ServeConfig, Server, Sources};
    use std::sync::Arc;
    let archive = args.get_str("archive").map(PathBuf::from);
    let tw = tw_from_args(args);
    let d: u64 = args.get("d", 110);
    let plane = Telemetry::new();

    let mut live = None;
    if let Some(path) = args.positional.first() {
        let trace =
            trace_io::load(&PathBuf::from(path)).map_err(|err| format!("read {path}: {err}"))?;
        progress!(
            "building live register state from {path} ({} packets)",
            trace.packets()
        );
        // The live program's control-plane series, query latency among
        // them, go out with the daemon's own.
        let mut program = run_trace_live(&trace, tw, d);
        program.set_telemetry(&plane);
        live = Some(Arc::new(program));
    }
    if live.is_none() && archive.is_none() {
        return Err(
            "nothing to serve: pass a trace for live queries and/or --archive FILE.pqa".into(),
        );
    }

    let defaults = ServeConfig::default();
    let config = ServeConfig {
        workers: args.get("workers", defaults.workers),
        queue_cap: args.get("queue-cap", defaults.queue_cap),
        inflight_per_conn: args.get("inflight", defaults.inflight_per_conn),
        max_conns: args.get("max-conns", defaults.max_conns),
        cache_bytes: args.get_mib("cache-mb", defaults.cache_bytes),
        retry_after_ms: args.get("retry-after-ms", defaults.retry_after_ms),
        drain_deadline: args.get_ms("drain-ms", defaults.drain_deadline),
        work_delay: args.get_ms("work-delay-ms", defaults.work_delay),
        shard: args.get("shard", defaults.shard),
    };
    let sources = Sources {
        live,
        archive,
        rtt: Vec::new(),
    };
    run_daemon(args, &plane, ("server", "serving"), |listen| {
        let server = Server::bind(listen, sources, config, &plane)?;
        Ok((server.local_addr()?, move || server.run()))
    })
}

fn cmd_router(args: &Args) -> CliResult {
    use printqueue::router::{BackendSpec, Router, RouterConfig};
    let Some(backends_raw) = args.get_str("backends") else {
        return Err("--backends name=addr[,name=addr...] is required".into());
    };
    let mut backends = Vec::new();
    for (i, entry) in backends_raw
        .split(',')
        .filter(|s| !s.is_empty())
        .enumerate()
    {
        let (name, addr) = match entry.split_once('=') {
            Some((name, addr)) => (name.to_string(), addr.to_string()),
            None => (format!("shard-{i}"), entry.to_string()),
        };
        backends.push(BackendSpec { name, addr });
    }
    let defaults = RouterConfig::default();
    let config = RouterConfig {
        replication: args.get("replication", defaults.replication),
        epoch_ns: args.get("epoch-ns", defaults.epoch_ns),
        connect_timeout: args.get_ms("connect-ms", defaults.connect_timeout),
        io_timeout: args.get_ms("io-ms", defaults.io_timeout),
        quarantine_after: args.get("quarantine-after", defaults.quarantine_after),
        probe_interval: args.get_ms("probe-ms", defaults.probe_interval),
        max_conns: args.get("max-conns", defaults.max_conns),
        retry_after_ms: args.get("retry-after-ms", defaults.retry_after_ms),
        pool_per_backend: args.get("pool", defaults.pool_per_backend),
        ..defaults
    };
    let plane = Telemetry::new();
    run_daemon(args, &plane, ("router", "routing"), |listen| {
        progress!(
            "routing across {} backend(s), replication {}",
            backends.len(),
            config.replication
        );
        let router = Router::bind(listen, backends, config, &plane)?;
        Ok((router.local_addr()?, move || router.run()))
    })
}

fn cmd_replicate(args: &Args) -> CliResult {
    let (Some(src), Some(dst)) = (args.positional.first(), args.positional.get(1)) else {
        usage()
    };
    let src = PathBuf::from(src);
    let dst = PathBuf::from(dst);
    let report = printqueue::store::ship_archive(&src, &dst)
        .map_err(|err| format!("ship {} -> {}: {err}", src.display(), dst.display()))?;
    progress!(
        "shipped {} segment(s) / {} checkpoint(s) across {} port(s), {} B",
        report.segments,
        report.checkpoints,
        report.ports,
        report.bytes
    );
    match printqueue::store::verify_replica(&src, &dst).map_err(|err| format!("verify: {err}"))? {
        None => {
            progress!("replica verified: segment-identical to source");
            Ok(())
        }
        Some(div) => Err(format!("replica diverges from source: {div}")),
    }
}

fn cmd_query(args: &Args) -> CliResult {
    use printqueue::serve::Client;
    let from: u64 = args.get("from", 0);
    let to: u64 = args.get("to", u64::MAX);
    let at: u64 = args.get("at", from);
    let d: u64 = args.get("d", 110);
    let port: u16 = args.get("port", 0);
    let json = args.has("json");
    let kind = match args.get_str("kind") {
        None | Some("tw") => queryfmt::QueryKind::TimeWindows,
        Some("monitor") => queryfmt::QueryKind::Monitor,
        Some("replay") => queryfmt::QueryKind::Replay,
        Some(other) => {
            return Err(format!(
                "unknown --kind {other} (expected tw|monitor|replay)"
            ))
        }
    };
    let spec = queryfmt::QuerySpec {
        port,
        from: if kind == queryfmt::QueryKind::Monitor {
            at
        } else {
            from
        },
        to,
        d,
        kind,
    };

    if let Some(remote) = args.get_str("remote") {
        let mut client =
            Client::connect(remote).map_err(|err| format!("connect {remote}: {err}"))?;
        if args.has("trace") {
            // Force-sample this one request end to end and tell the
            // operator the id to pull: the daemon keeps the full span
            // tree under it, retrievable with `pqsim trace --from`.
            let tid = telemetry::new_trace_id();
            client.set_trace_context(Some(telemetry::TraceContext::root(tid, true)));
            progress!("trace id {tid:032x} (pull with `pqsim trace --from {remote}`)");
        }
        return match kind {
            queryfmt::QueryKind::Monitor => {
                let m = client
                    .queue_monitor(port, spec.from)
                    .map_err(remote_error)?;
                emit_monitor(
                    &spec,
                    m.frozen_at,
                    m.staleness,
                    &m.counts,
                    &m.gaps,
                    m.degraded,
                    json,
                );
                Ok(())
            }
            _ => {
                let r = client.query(spec.to_request()).map_err(remote_error)?;
                emit_result(
                    &spec,
                    r.checkpoints,
                    &r.estimates,
                    &r.gaps,
                    r.degraded,
                    json,
                );
                Ok(())
            }
        };
    }

    // Local: build live state from the trace and run the same query
    // in-process.
    if kind == queryfmt::QueryKind::Replay {
        return Err("local replay queries use `pqsim replay-query ARCHIVE` \
                    (or `query --remote` against a daemon with --archive)"
            .into());
    }
    let trace = load_trace(args)?;
    let tw = tw_from_args(args);
    let ap = run_trace_live(&trace, tw, d);
    if !ap.is_active(port) {
        return Err(format!("port {port} not activated by this trace"));
    }
    match kind {
        queryfmt::QueryKind::Monitor => {
            let Some(ans) = ap.query_queue_monitor(port, spec.from) else {
                return Err("no queue-monitor checkpoint stored".into());
            };
            let mut counts: Vec<(FlowId, u64)> = ans.culprit_counts().into_iter().collect();
            counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            emit_monitor(
                &spec,
                ans.frozen_at,
                ans.staleness,
                &counts,
                &ans.gaps,
                ans.degraded,
                json,
            );
        }
        _ => {
            let result = ap.query_time_windows(port, QueryInterval::new(from, to));
            let checkpoints = ap.checkpoints(port).len() as u64;
            emit_result(
                &spec,
                checkpoints,
                &result.estimates,
                &result.gaps,
                result.degraded,
                json,
            );
        }
    }
    Ok(())
}

/// Render a remote failure the way local queries render theirs: the typed
/// code and message first, then the unanswered interval as gap lines.
fn remote_error(err: printqueue::serve::ClientError) -> String {
    use printqueue::serve::ClientError;
    match err {
        ClientError::Remote {
            code,
            message,
            gaps,
        } => {
            let mut s = format!("remote query failed: {code}");
            if !message.is_empty() {
                s.push_str(&format!(": {message}"));
            }
            if !gaps.is_empty() {
                s.push_str(&format!(
                    "\ndegraded: {} coverage gap(s) left unanswered:",
                    gaps.len()
                ));
                for g in &gaps {
                    s.push_str(&format!("\n  gap [{}, {}]", g.from, g.to));
                }
            }
            s
        }
        ClientError::Busy { retry_after_ms } => {
            format!("server busy, retry after {retry_after_ms} ms")
        }
        other => format!("remote query failed: {other}"),
    }
}

/// Passive RTT diagnosis. Local mode generates the QUIC-like workload
/// with known per-flow ground truth, measures it through the switch
/// pipeline with `RttHook`, and grades the estimates; `--archive` spills
/// the measured reports as raw kind-1 segments that `pqsim serve
/// --archive` later serves to `rtt --remote`, standing `where p99(rtt)`
/// queries, and watch alerts. `--remote` instead fetches the merged
/// report a daemon (or router, transparently) answers for the interval.
fn cmd_rtt(args: &Args) -> CliResult {
    use printqueue::rtt::{RttGrade, RttReport, RttWorkload, RTT_SEGMENT_KIND};
    let json = args.has("json");
    let top: usize = args.get("top", 8);

    if let Some(remote) = args.get_str("remote") {
        use printqueue::serve::Client;
        let port: u16 = args.get("port", 0);
        let from: u64 = args.get("from", 0);
        let to: u64 = args.get("to", u64::MAX);
        let max_flows: u32 = args.get("max-flows", 0);
        let mut client =
            Client::connect(remote).map_err(|err| format!("connect {remote}: {err}"))?;
        let r = client
            .rtt(port, from, to, max_flows)
            .map_err(remote_error)?;
        print_rtt_reports(std::slice::from_ref(&r.report), r.degraded, None, top, json);
        return Ok(());
    }

    let mut cfg = RttWorkload {
        flows: args.get("flows", 64),
        ports: args.get("ports", 1),
        pkts_per_flow: args.get("pkts", 96),
        jitter_frac: args.get("jitter", 0.05),
        loss: args.get("loss", 0.01),
        reorder: args.get("reorder", 0.01),
        spin_fraction: args.get("spin", 0.5),
        seed: args.get("seed", 7),
        ..RttWorkload::default()
    };
    if args.has("slow-flow-ns") {
        cfg.slow_rtt_ns = Some(args.get("slow-flow-ns", 8_000_000));
    }
    progress!("measuring {} flows across {} port(s)", cfg.flows, cfg.ports);
    let (reports, truth) = cfg.measure();
    if let Some(out) = args.get_str("archive") {
        let tw = TimeWindowConfig::UW;
        let file = std::fs::File::create(out).map_err(|err| format!("create {out}: {err}"))?;
        let mut w = StoreWriter::new(std::io::BufWriter::new(file), tw, SegmentPolicy::default())
            .map_err(|err| format!("start store: {err}"))?;
        for r in &reports {
            w.push_raw(
                r.port,
                RTT_SEGMENT_KIND,
                r.sample_count(),
                r.min_t,
                r.max_t,
                &r.encode(),
            )
            .map_err(|err| format!("spill port {}: {err}", r.port))?;
        }
        w.finish().map_err(|err| format!("store finish: {err}"))?;
        progress!("spilled {} rtt report(s) to {out}", reports.len());
    }
    let degraded = reports.iter().any(RttReport::degraded);
    let grade = RttGrade::new(&reports, &truth);
    print_rtt_reports(&reports, degraded, Some((&grade, &truth)), top, json);
    Ok(())
}

/// Shared presentation for local and remote RTT reports. Local mode adds
/// the grade against ground truth — per-flow error and the recall of
/// top-decile slow-flow detection, the headline numbers
/// `ext_rtt_precision` sweeps.
fn print_rtt_reports(
    reports: &[printqueue::rtt::RttReport],
    degraded: bool,
    grading: Option<(&printqueue::rtt::RttGrade, &[printqueue::rtt::FlowTruth])>,
    top: usize,
    json: bool,
) {
    use std::fmt::Write as _;
    let ms = |ns: u64| format!("{:.3}ms", ns as f64 / 1e6);
    // The per-flow point estimate: the exact mean in whole nanoseconds.
    fn mean_ns(h: &printqueue::rtt::RttHist) -> u64 {
        h.sum.checked_div(h.count).unwrap_or(0)
    }
    let (grade, truth) = grading.unzip();
    let graded = grade.map_or(0, |g| g.errs.len());
    let p50_err = grade.and_then(|g| g.p50_err());
    let recall = grade.and_then(|g| g.top_decile_recall);
    let truth_of = |flow: u32| truth.and_then(|t| t.get(flow as usize)).map(|t| t.rtt_ns);
    // Slowest flows first — the answer to "who is the slow peer".
    fn ranked(r: &printqueue::rtt::RttReport, top: usize) -> Vec<&printqueue::rtt::FlowRtt> {
        let mut flows: Vec<_> = r.flows.iter().collect();
        flows.sort_by_key(|f| (std::cmp::Reverse(mean_ns(&f.hist)), f.flow));
        flows.truncate(top);
        flows
    }
    if json {
        let mut out = String::from("{");
        let _ = write!(out, "\"degraded\":{degraded},\"ports\":[");
        for (i, r) in reports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let c = &r.counters;
            let _ = write!(
                out,
                "{{\"port\":{},\"samples\":{},\"flows\":{},\"min_t\":{},\"max_t\":{},\
                 \"p50_ns\":{},\"p99_ns\":{},\"seq_samples\":{},\"spin_edges\":{},\
                 \"collisions\":{},\"evictions\":{},\"sample_drops\":{},\"clipped\":{},\"top\":[",
                r.port,
                r.sample_count(),
                r.flows.len(),
                r.min_t,
                r.max_t,
                r.agg.p50(),
                r.agg.p99(),
                c.seq_samples,
                c.spin_edges,
                c.collisions,
                c.evictions,
                c.sample_drops,
                r.clipped,
            );
            for (j, f) in ranked(r, top).into_iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"flow\":{},\"count\":{},\"mean_ns\":{},\"p99_ns\":{},\"truth_ns\":{}}}",
                    f.flow,
                    f.hist.count,
                    mean_ns(&f.hist),
                    f.hist.p99(),
                    truth_of(f.flow)
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "null".into()),
                );
            }
            out.push_str("]}");
        }
        out.push(']');
        let _ = write!(out, ",\"graded_flows\":{graded}");
        let _ = write!(
            out,
            ",\"p50_err\":{}",
            p50_err.map(|e| format!("{e:.6}")).unwrap_or("null".into())
        );
        let _ = write!(
            out,
            ",\"top_decile_recall\":{}",
            recall.map(|r| format!("{r:.4}")).unwrap_or("null".into())
        );
        out.push('}');
        println!("{out}");
    } else {
        for r in reports {
            let c = &r.counters;
            println!(
                "rtt port {}: {} samples over [{}, {}], {} flows, p50 {} p99 {} \
                 (seq {}, spin {}, collisions {}, evictions {}, drops {}){}",
                r.port,
                r.sample_count(),
                r.min_t,
                r.max_t,
                r.flows.len(),
                ms(r.agg.p50()),
                ms(r.agg.p99()),
                c.seq_samples,
                c.spin_edges,
                c.collisions,
                c.evictions,
                c.sample_drops,
                if r.clipped { " [clipped]" } else { "" },
            );
            for f in ranked(r, top) {
                let truth_col = match truth_of(f.flow) {
                    Some(t) => {
                        let err = (mean_ns(&f.hist) as f64 - t as f64).abs() / t as f64;
                        format!("  truth {}  err {:.1}%", ms(t), 100.0 * err)
                    }
                    None => String::new(),
                };
                println!(
                    "  flow {:>6}  count {:>5}  mean {}  p99 {}{}",
                    f.flow,
                    f.hist.count,
                    ms(mean_ns(&f.hist)),
                    ms(f.hist.p99()),
                    truth_col,
                );
            }
        }
        if let (Some(err), Some(rec)) = (p50_err, recall) {
            println!(
                "accuracy: {graded} flows graded, p50 err {:.2}%, top-decile recall {rec:.2}",
                100.0 * err
            );
        }
        if degraded {
            println!("degraded: collisions, evictions, drops, or truncation affected this answer");
        }
    }
}

/// Pull committed traces out of running daemons (`--from`, the
/// `TraceDump` wire message) and/or spilled JSON-lines files (`--files`,
/// what `--trace-out` writes), print the slow-query log, and optionally
/// stitch every process's records into one cross-process Chrome
/// trace-event timeline (`--out`, loadable in Perfetto or
/// `chrome://tracing`). Records from different processes that share a
/// trace id — the router's and each backend's view of one request — are
/// grouped into a single entry.
fn cmd_trace(args: &Args) -> CliResult {
    use printqueue::serve::Client;
    let top: usize = args.get("top", 16);
    let slow_only = args.has("slow");
    let json = args.has("json");
    if args.get_str("from").is_none() && args.get_str("files").is_none() {
        return Err(
            "nothing to read: pass --from ADDR[,ADDR...] and/or --files F.jsonl[,...]".into(),
        );
    }

    let mut records: Vec<telemetry::Trace> = Vec::new();
    for addr in args
        .get_str("from")
        .unwrap_or_default()
        .split(',')
        .filter(|s| !s.is_empty())
    {
        let mut client = Client::connect(addr).map_err(|err| format!("connect {addr}: {err}"))?;
        let got = client
            .trace_dump(top as u32, slow_only)
            .map_err(|err| format!("trace dump from {addr}: {err}"))?;
        progress!("{addr}: {} trace record(s)", got.len());
        records.extend(got);
    }
    for path in args
        .get_str("files")
        .unwrap_or_default()
        .split(',')
        .filter(|s| !s.is_empty())
    {
        let got = std::fs::File::open(path)
            .map(std::io::BufReader::new)
            .and_then(tracefile::traces_from_reader)
            .map_err(|err| format!("read {path}: {err}"))?;
        progress!("{path}: {} trace record(s)", got.len());
        records.extend(got);
    }

    // Stitch: every per-process record of one request shares a trace id.
    // Order requests slowest-first (by their longest per-process root) and
    // keep the top N.
    let mut by_id: std::collections::BTreeMap<u128, Vec<telemetry::Trace>> = Default::default();
    for r in records {
        by_id.entry(r.trace_id).or_default().push(r);
    }
    let mut grouped: Vec<(u128, Vec<telemetry::Trace>)> = by_id.into_iter().collect();
    grouped.sort_by_key(|(_, parts)| {
        std::cmp::Reverse(parts.iter().map(|p| p.duration_ns).max().unwrap_or(0))
    });
    grouped.truncate(top.max(1));

    if let Some(out) = args.get_str("out") {
        let flat: Vec<telemetry::Trace> = grouped
            .iter()
            .flat_map(|(_, parts)| parts.iter().cloned())
            .collect();
        std::fs::write(out, telemetry::traces_to_chrome(&flat))
            .map_err(|err| format!("write {out}: {err}"))?;
        progress!(
            "chrome timeline ({} request(s), {} record(s)) written to {out}",
            grouped.len(),
            flat.len()
        );
    }

    if json {
        for (_, parts) in &grouped {
            for p in parts {
                println!("{}", telemetry::trace_to_json(p));
            }
        }
        return Ok(());
    }

    println!(
        "{} request(s){}:",
        grouped.len(),
        if slow_only { " (slow log)" } else { "" }
    );
    for (tid, parts) in &grouped {
        let worst = parts.iter().map(|p| p.duration_ns).max().unwrap_or(0);
        let slow = parts.iter().any(|p| p.slow);
        let procs: Vec<&str> = {
            let mut seen: Vec<&str> = parts
                .iter()
                .flat_map(|p| p.spans.iter().map(|s| s.process.as_str()))
                .collect();
            seen.sort_unstable();
            seen.dedup();
            seen
        };
        println!(
            "trace {tid:032x}  {:.3}ms{}  [{}]",
            worst as f64 / 1e6,
            if slow { "  SLOW" } else { "" },
            procs.join(", "),
        );
        // One flat line per span, offset from the request's earliest
        // start so cross-process skew reads directly.
        let t0 = parts
            .iter()
            .flat_map(|p| p.spans.iter().map(|s| s.start_ns))
            .min()
            .unwrap_or(0);
        let mut spans: Vec<&telemetry::TraceSpan> =
            parts.iter().flat_map(|p| p.spans.iter()).collect();
        spans.sort_by_key(|s| (s.start_ns, s.end_ns));
        for s in spans {
            println!(
                "  +{:>9.3}ms {:>9.3}ms  {}/{}{}",
                s.start_ns.saturating_sub(t0) as f64 / 1e6,
                s.duration_ns() as f64 / 1e6,
                s.process,
                s.name,
                if s.tag.is_empty() {
                    String::new()
                } else {
                    format!("  [{}]", s.tag)
                },
            );
        }
    }
    Ok(())
}

fn cmd_prof(args: &Args) -> CliResult {
    use printqueue::prof::ProfileReport;
    let top: usize = args.get("top", 10);
    let json = args.has("json");

    let report = if let Some(from) = args.get_str("from") {
        // Remote: fetch each peer's dump and fold. A router address
        // already answers with its backends' merged dump — merging here
        // too lets one invocation span several routers, or mix routers
        // with standalone daemons, because the fold is associative and
        // commutative no matter how the dumps were grouped upstream.
        use printqueue::serve::Client;
        let mut merged = ProfileReport::default();
        let mut fetched = 0usize;
        for addr in from.split(',').filter(|s| !s.is_empty()) {
            let mut client =
                Client::connect(addr).map_err(|err| format!("connect {addr}: {err}"))?;
            let dump = client
                .profile_dump()
                .map_err(|err| format!("profile {addr}: {err}"))?;
            progress!(
                "{addr}: {} scopes, {} locks, {} stacks, {} samples",
                dump.scopes.len(),
                dump.locks.len(),
                dump.stacks.len(),
                dump.samples_total,
            );
            merged.merge(&dump);
            fetched += 1;
        }
        if fetched == 0 {
            return Err("--from needs at least one address".into());
        }
        merged
    } else {
        // Local: replay a trace with the profiler attached — the
        // walkthrough path that ends in a flamegraph without needing a
        // running fleet.
        let trace = load_trace(args)?;
        let sample_ms: u64 = args.get("sample-ms", 1);
        let config = PrintQueueConfig::single_port(tw_from_args(args), args.get("d", 110));
        printqueue::prof::reset();
        printqueue::prof::set_enabled(true);
        if sample_ms > 0 {
            printqueue::prof::start_sampler(std::time::Duration::from_millis(sample_ms));
        }
        let mut replay = Replay::new(&trace, config);
        let (_plane, handle) = replay.attach_telemetry()?;
        progress!(
            "replaying {} packets with the profiler attached",
            trace.packets()
        );
        replay.run(&trace, None);
        handle
            .finish()
            .map_err(|err| format!("profiling store finish: {err}"))?;
        printqueue::prof::stop_sampler();
        ProfileReport::capture()
    };

    if let Some(path) = args.get_str("folded") {
        std::fs::write(path, report.folded()).map_err(|err| format!("write {path}: {err}"))?;
        progress!("collapsed stacks written to {path} (flamegraph.pl / inferno input)");
    }
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render(top));
    }
    Ok(())
}

fn cmd_watch(args: &Args) -> CliResult {
    use printqueue::serve::{Client, HealthInfo, MetricsUpdate};
    use printqueue::telemetry::{delta, names, AlertEngine, GaugeHistory};
    let Some(addr) = args.positional.first().cloned() else {
        usage()
    };
    let interval_ms: u32 = args.get("interval-ms", 1_000);
    let json = args.has("json");
    let once = args.has("once");
    // Two polls for `--once`, so rates are defined; 0 = until the peer stops.
    let polls: u32 = if once { 2 } else { args.get("updates", 0) };

    let mut rules = Vec::new();
    if let Some(path) = args.get_str("rules") {
        let text = std::fs::read_to_string(path).map_err(|err| format!("read {path}: {err}"))?;
        rules = telemetry::parse_rules(&text).map_err(|err| format!("{path}: {err}"))?;
    }
    if once {
        // A single evaluation pair must be able to fire: drop debounce
        // holds so `--once` is a usable CI gate.
        for r in &mut rules {
            r.for_ns = 0;
        }
    }
    let mut engine = AlertEngine::new(rules);

    // The watch client's own observability rides the same registry type
    // as everything else, so it prints and asserts uniformly.
    let plane = Telemetry::new();
    let reg = plane.registry();
    let updates_ctr = reg.counter(names::WATCH_UPDATES, &[]);
    let changed_ctr = reg.counter(names::WATCH_SERIES_CHANGED, &[]);
    let firing_gauge = reg.gauge(names::WATCH_ALERTS_FIRING, &[]);
    let events_ctr = reg.counter(names::WATCH_ALERT_EVENTS, &[]);

    let mut client =
        Client::connect(addr.as_str()).map_err(|err| format!("connect {addr}: {err}"))?;
    let mut qps_hist = GaugeHistory::new(60);
    let mut depth_hist = GaugeHistory::new(60);
    let mut health: Option<HealthInfo> = None;
    let mut prev: Option<MetricsUpdate> = None;
    let mut taken = 0u32;
    while polls == 0 || taken < polls {
        if prev.is_some() {
            std::thread::sleep(std::time::Duration::from_millis(u64::from(interval_ms)));
        }
        let poll = match client.metrics_snapshot() {
            Ok(poll) => poll,
            // A peer that stops ends the watch with its final report.
            Err(err) if prev.is_some() => {
                progress!("watch {addr}: peer stopped ({err})");
                break;
            }
            Err(err) => return Err(format!("metrics: {err}")),
        };
        taken += 1;
        let snap = &poll.changed;
        updates_ctr.inc();
        let changed = match &prev {
            Some(p) => delta::changed(&p.changed, snap).len(),
            None => snap.len(),
        };
        changed_ctr.add(changed as u64);
        let fresh_events = engine.evaluate(poll.t_ns, snap);
        events_ctr.add(fresh_events.len() as u64);
        firing_gauge.set(engine.firing().len() as u64);
        depth_hist.push(
            poll.t_ns,
            sum_counter(snap, names::SERVE_QUEUE_DEPTH) as f64,
        );
        if let Some(p) = &prev {
            let qps = telemetry::rate_per_sec(
                requests_total(&p.changed),
                requests_total(snap),
                poll.t_ns.saturating_sub(p.t_ns),
            );
            qps_hist.push(poll.t_ns, qps);
            if !once {
                let Ok(h) = client.health() else { break };
                render_watch_frame(
                    &addr,
                    &h,
                    interval_ms,
                    snap,
                    qps,
                    &qps_hist,
                    &depth_hist,
                    &engine,
                    &fresh_events,
                );
                health = Some(h);
            }
        }
        prev = Some(poll);
    }
    let server = prev.expect("the first poll answered").changed;

    // Final (or only, with --once) report. A peer that stopped reports
    // the last health it answered with, marked draining.
    let health = client.health().unwrap_or_else(|_| HealthInfo {
        draining: true,
        ..health.unwrap_or_default()
    });
    let firing = engine.firing();
    if json {
        println!(
            "{}",
            watch_json(
                &addr,
                &health,
                interval_ms,
                &server,
                &qps_hist,
                &plane.snapshot(),
                &engine
            )
        );
    } else {
        print!(
            "{}",
            watch_text(&addr, &health, interval_ms, &server, &qps_hist, &engine)
        );
    }
    if !firing.is_empty() {
        let reasons: Vec<String> = engine
            .statuses()
            .into_iter()
            .filter(|s| s.state == "firing")
            .map(|s| format!("{}: {}", s.rule, s.reason))
            .collect();
        return Err(format!(
            "{} alert rule(s) firing: {}",
            firing.len(),
            reasons.join("; ")
        ));
    }
    Ok(())
}

/// Register a standing continuous query and print window results as they
/// materialize. `--once` asks the server to end the stream once the
/// bounded source is sealed (one full pass over the live registers), so
/// the command terminates and is usable as a CI gate; `--json` prints
/// one object per closed window live, or a single summary document under
/// `--once`.
fn cmd_stream(args: &Args) -> CliResult {
    use printqueue::serve::Client;
    let Some(addr) = args.positional.first().cloned() else {
        usage()
    };
    let Some(query) = args.get_str("query") else {
        usage()
    };
    let cap: u32 = args.get("cap", 512);
    let windows: u32 = args.get("windows", 0);
    let json = args.has("json");
    let once = args.has("once");

    let mut client =
        Client::connect(addr.as_str()).map_err(|err| format!("connect {addr}: {err}"))?;
    let ack = client
        .standing(query, cap, windows, once)
        .map_err(|err| format!("standing query: {err}"))?;
    progress!(
        "stream {addr}: sub {} cap {} — {}",
        ack.sub,
        ack.cap,
        ack.query
    );

    let mut closed = 0u64;
    let mut fired = 0u64;
    let mut results = Vec::new();
    loop {
        let r = client
            .next_stream_result(ack.sub)
            .map_err(|err| format!("stream result: {err}"))?;
        let last = r.last;
        // Frames with `to == 0` carry only watermark progress.
        if r.to != 0 {
            closed += 1;
            if r.fired {
                fired += 1;
            }
            if json && once {
                results.push(r);
            } else if json {
                println!("{}", stream_result_json(&r));
            } else {
                println!("{}", stream_result_text(&r));
            }
        }
        if last {
            break;
        }
    }
    if json && once {
        let body: Vec<String> = results.iter().map(stream_result_json).collect();
        println!(
            "{{\"addr\":\"{}\",\"query\":\"{}\",\"closed\":{closed},\"fired\":{fired},\
             \"results\":[{}]}}",
            json_escape(&addr),
            json_escape(&ack.query),
            body.join(","),
        );
    } else {
        progress!("stream {addr}: {closed} window(s) closed, {fired} fired");
    }
    Ok(())
}

/// One closed window as a human-readable line.
fn stream_result_text(r: &printqueue::serve::StreamResult) -> String {
    use std::fmt::Write as _;
    let min = if r.min == u64::MAX { 0 } else { r.min };
    let avg = if r.count > 0 {
        r.sum as f64 / r.count as f64
    } else {
        0.0
    };
    let mut out = format!(
        "window port {} [{}ns, {}ns) {}: depth max {} min {min} avg {avg:.1} last {} \
         ({} checkpoints)",
        r.port,
        r.from,
        r.to,
        if r.fired { "FIRED" } else { "quiet" },
        r.max,
        r.last_depth,
        r.count,
    );
    for (flow, est) in &r.flows {
        let _ = write!(out, " {}={est:.0}", flow.0);
    }
    if r.evictions > 0 {
        let _ = write!(
            out,
            " [{} evicted, weight {:.0}]",
            r.evictions, r.evicted_weight
        );
    }
    if r.forced {
        out.push_str(" [forced]");
    }
    if r.degraded {
        out.push_str(" [degraded]");
    }
    out
}

/// One closed window as a JSON object (shared by the live `--json`
/// stream and the `--once` summary document).
fn stream_result_json(r: &printqueue::serve::StreamResult) -> String {
    use std::fmt::Write as _;
    let mut flows = String::from("[");
    for (i, (flow, est)) in r.flows.iter().enumerate() {
        if i > 0 {
            flows.push(',');
        }
        let _ = write!(flows, "{{\"flow\":{},\"est\":{est}}}", flow.0);
    }
    flows.push(']');
    let mut gaps = String::from("[");
    for (i, g) in r.gaps.iter().enumerate() {
        if i > 0 {
            gaps.push(',');
        }
        let _ = write!(gaps, "{{\"from\":{},\"to\":{}}}", g.from, g.to);
    }
    gaps.push(']');
    format!(
        "{{\"seq\":{},\"watermark_ns\":{},\"port\":{},\"from\":{},\"to\":{},\"fired\":{},\
         \"forced\":{},\"degraded\":{},\"max\":{},\"min\":{},\"sum\":{},\"count\":{},\
         \"last_t\":{},\"last_depth\":{},\"evictions\":{},\"evicted_weight\":{},\
         \"flows\":{flows},\"gaps\":{gaps}}}",
        r.seq,
        r.watermark_ns,
        r.port,
        r.from,
        r.to,
        r.fired,
        r.forced,
        r.degraded,
        r.max,
        if r.min == u64::MAX { 0 } else { r.min },
        r.sum,
        r.count,
        r.last_t,
        r.last_depth,
        r.evictions,
        r.evicted_weight,
    )
}

/// Requests a daemon (`pq_serve_requests_total`) or a router
/// (`pq_router_requests_total`) has answered: each exports only its own.
fn requests_total(snap: &telemetry::RegistrySnapshot) -> u64 {
    sum_counter(snap, telemetry::names::SERVE_REQUESTS)
        + sum_counter(snap, telemetry::names::ROUTER_REQUESTS)
}

/// Sum a counter's or gauge's value across all of its label sets.
fn sum_counter(snap: &telemetry::RegistrySnapshot, name: &str) -> u64 {
    snap.iter()
        .filter(|(k, _)| k.name == name)
        .map(|(_, v)| match v {
            MetricValue::Counter(n) | MetricValue::Gauge(n) => *n,
            MetricValue::Histogram(h) => h.count,
        })
        .sum()
}

/// `name` or `name{k="v",...}` — the Prometheus sample-key spelling, so
/// watch output and `.prom` expositions are directly comparable.
fn sample_key(key: &telemetry::MetricKey, suffix: &str) -> String {
    use std::fmt::Write as _;
    let mut out = format!("{}{}", key.name, suffix);
    if !key.labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in key.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{v}\"");
        }
        out.push('}');
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    printqueue::prof::escape_into(&mut out, s);
    out
}

/// Render a snapshot as a flat JSON object of sample keys to numbers
/// (histograms contribute `_count` / `_sum` / `_p99` entries).
fn snapshot_json(snap: &telemetry::RegistrySnapshot) -> String {
    let mut out = String::from("{");
    let mut first = true;
    let mut entry = |key: String, value: String, out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\"{}\":{}", json_escape(&key), value));
    };
    for (key, value) in snap.iter() {
        match value {
            MetricValue::Counter(n) | MetricValue::Gauge(n) => {
                entry(sample_key(key, ""), n.to_string(), &mut out);
            }
            MetricValue::Histogram(h) => {
                entry(sample_key(key, "_count"), h.count.to_string(), &mut out);
                entry(sample_key(key, "_sum"), h.sum.to_string(), &mut out);
                entry(
                    sample_key(key, "_p99"),
                    h.quantile(0.99).to_string(),
                    &mut out,
                );
            }
        }
    }
    out.push('}');
    out
}

fn health_json(health: &printqueue::serve::HealthInfo) -> String {
    format!(
        "{{\"uptime_ns\":{},\"workers\":{},\"busy_workers\":{},\"queue_depth\":{},\
         \"queue_cap\":{},\"active_conns\":{},\"max_conns\":{},\"draining\":{},\
         \"version\":\"{}\",\"commit\":\"{}\",\"shard\":\"{}\"}}",
        health.uptime_ns,
        health.workers,
        health.busy_workers,
        health.queue_depth,
        health.queue_cap,
        health.active_conns,
        health.max_conns,
        health.draining,
        json_escape(&health.version),
        json_escape(&health.commit),
        json_escape(&health.shard),
    )
}

fn alerts_json(engine: &printqueue::telemetry::AlertEngine) -> String {
    let mut out = String::from("[");
    for (i, s) in engine.statuses().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let value = match s.value {
            Some(v) if v.is_finite() => format!("{v}"),
            _ => "null".to_string(),
        };
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"state\":\"{}\",\"value\":{},\"threshold\":{},\"reason\":\"{}\"}}",
            json_escape(&s.rule),
            s.state,
            value,
            s.threshold,
            json_escape(&s.reason),
        ));
    }
    out.push(']');
    out
}

/// The worst (highest-valued) exemplar across every histogram in a
/// snapshot, with the sample key it came from. When an alert fires,
/// this is the trace id to pull first: the slowest traced request the
/// server has seen in the offending distribution.
fn worst_snapshot_exemplar(
    snap: &telemetry::RegistrySnapshot,
) -> Option<(String, telemetry::BucketExemplar)> {
    let mut best: Option<(String, telemetry::BucketExemplar)> = None;
    for (key, value) in snap.iter() {
        if let MetricValue::Histogram(h) = value {
            if let Some(ex) = h.worst_exemplar() {
                if best.as_ref().is_none_or(|(_, b)| ex.value > b.value) {
                    best = Some((sample_key(key, ""), ex));
                }
            }
        }
    }
    best
}

fn exemplar_json(snap: &telemetry::RegistrySnapshot) -> String {
    match worst_snapshot_exemplar(snap) {
        Some((metric, ex)) => format!(
            "{{\"metric\":\"{}\",\"trace_id\":\"{:032x}\",\"value\":{}}}",
            json_escape(&metric),
            ex.trace_id,
            ex.value,
        ),
        None => "null".to_string(),
    }
}

/// The `--json` document: health, the last polled server metrics, the
/// request rate between the last two polls, the watch client's own
/// metrics, and every rule's status.
fn watch_json(
    addr: &str,
    health: &printqueue::serve::HealthInfo,
    interval_ms: u32,
    server: &telemetry::RegistrySnapshot,
    qps_hist: &printqueue::telemetry::GaugeHistory,
    watch: &telemetry::RegistrySnapshot,
    engine: &printqueue::telemetry::AlertEngine,
) -> String {
    let firing = engine.firing();
    let firing_list: Vec<String> = firing
        .iter()
        .map(|name| format!("\"{}\"", json_escape(name)))
        .collect();
    // Shard identity rides at the top level (not only inside "health") so
    // CI scripts pointed at a fleet member can assert who answered with a
    // one-key lookup.
    format!(
        "{{\"addr\":\"{}\",\"shard\":\"{}\",\"interval_ms\":{},\"qps\":{},\"health\":{},\
         \"metrics\":{},\"watch\":{},\"alerts\":{},\"firing\":[{}],\"exemplar\":{}}}",
        json_escape(addr),
        json_escape(&health.shard),
        interval_ms,
        qps_hist.latest().map_or(0.0, |(_, qps)| qps),
        health_json(health),
        snapshot_json(server),
        snapshot_json(watch),
        alerts_json(engine),
        firing_list.join(","),
        // The histogram exemplar linking the numbers to a concrete
        // request: an alert consumer can jump straight from this
        // document to `pqsim trace` with the trace id.
        exemplar_json(server),
    )
}

/// The plaintext summary printed by `--once` (and when polling ends).
fn watch_text(
    addr: &str,
    health: &printqueue::serve::HealthInfo,
    interval_ms: u32,
    server: &telemetry::RegistrySnapshot,
    qps_hist: &printqueue::telemetry::GaugeHistory,
    engine: &printqueue::telemetry::AlertEngine,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    // The shard identity the backend advertises in its HealthAck, so a
    // watcher pointed at one member of a sharded fleet (or at the
    // router itself) sees who is answering.
    let shard = if health.shard.is_empty() {
        String::new()
    } else {
        format!(" [{}]", health.shard)
    };
    let _ = writeln!(
        out,
        "watch {addr}{shard}: every {interval_ms}ms, up {}s, version {} ({}), \
         {}/{} workers busy, queue {}/{}, conns {}/{}{}",
        health.uptime_ns / 1_000_000_000,
        health.version,
        &health.commit[..health.commit.len().min(12)],
        health.busy_workers,
        health.workers,
        health.queue_depth,
        health.queue_cap,
        health.active_conns,
        health.max_conns,
        if health.draining { ", DRAINING" } else { "" },
    );
    let requests = requests_total(server);
    let shed = sum_counter(server, telemetry::names::SERVE_SHED)
        + sum_counter(server, telemetry::names::ROUTER_SHED);
    let hits = sum_counter(server, telemetry::names::SERVE_CACHE_HIT);
    let misses = sum_counter(server, telemetry::names::SERVE_CACHE_MISS);
    let hit_rate = if hits + misses > 0 {
        format!("{:.1}%", 100.0 * hits as f64 / (hits + misses) as f64)
    } else {
        "n/a".to_string()
    };
    let qps = qps_hist.latest().map(|(_, v)| v).unwrap_or(0.0);
    let _ = writeln!(
        out,
        "  requests {requests} ({qps:.1}/s), shed {shed}, cache hit rate {hit_rate}"
    );
    if qps_hist.len() > 1 {
        let _ = writeln!(out, "  qps {}", qps_hist.sparkline(40));
    }
    // RTT row, present only when the daemon actually serves RTT data
    // (`pq_rtt_samples_total` is the same series the CI floor gates).
    let rtt_samples = sum_counter(server, telemetry::names::RTT_SAMPLES);
    if rtt_samples > 0 {
        let rtt_queries = sum_counter(server, telemetry::names::RTT_QUERIES);
        let (mut p50, mut p99) = (0u64, 0u64);
        for (key, value) in server.iter() {
            if key.name == telemetry::names::RTT_SAMPLE_NS {
                if let MetricValue::Histogram(h) = value {
                    p50 = p50.max(h.p50());
                    p99 = p99.max(h.p99());
                }
            }
        }
        let _ = writeln!(
            out,
            "  rtt {rtt_samples} samples, {rtt_queries} queries, worst-port p50 {:.3}ms p99 {:.3}ms",
            p50 as f64 / 1e6,
            p99 as f64 / 1e6,
        );
    }
    // Hotspot row, present only when the backend profiles itself
    // (`--prof` on serve/router): the top self-time scope and the worst
    // lock-wait p99s, straight off the exported `pq_prof_*` series.
    let mut top_scope: Option<(&str, u64)> = None;
    let mut lock_p99: Vec<(&str, u64)> = Vec::new();
    for (key, value) in server.iter() {
        match (key.name.as_str(), value) {
            (telemetry::names::PROF_SCOPE_SELF_NS, MetricValue::Counter(v)) => {
                let name = key.labels.first().map(|(_, v)| v.as_str()).unwrap_or("?");
                if top_scope.is_none_or(|(_, best)| *v > best) {
                    top_scope = Some((name, *v));
                }
            }
            (telemetry::names::LOCK_WAIT_NS, MetricValue::Histogram(h)) => {
                let name = key.labels.first().map(|(_, v)| v.as_str()).unwrap_or("?");
                lock_p99.push((name, h.p99()));
            }
            _ => {}
        }
    }
    if let Some((name, self_ns)) = top_scope {
        lock_p99.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let locks: Vec<String> = lock_p99
            .iter()
            .take(2)
            .map(|(l, p99)| format!("{l} wait p99 {}ns", p99))
            .collect();
        let _ = writeln!(
            out,
            "  hotspot {name} self {:.3}ms{}",
            self_ns as f64 / 1e6,
            if locks.is_empty() {
                String::new()
            } else {
                format!("; locks: {}", locks.join(", "))
            }
        );
    }
    let statuses = engine.statuses();
    if statuses.is_empty() {
        let _ = writeln!(out, "  alerts: no rules loaded");
    }
    for s in statuses {
        let _ = writeln!(out, "  alert {:8} {}: {}", s.state, s.rule, s.reason);
    }
    if let Some((metric, ex)) = worst_snapshot_exemplar(server) {
        let _ = writeln!(
            out,
            "  exemplar {metric}: trace {:032x} at {} (pull with `pqsim trace --from {addr}`)",
            ex.trace_id, ex.value,
        );
    }
    out
}

/// One live-dashboard frame. On a terminal the screen is redrawn in
/// place; when piped, frames are separated by blank lines so the stream
/// stays greppable.
#[allow(clippy::too_many_arguments)]
fn render_watch_frame(
    addr: &str,
    health: &printqueue::serve::HealthInfo,
    interval_ms: u32,
    server: &telemetry::RegistrySnapshot,
    qps: f64,
    qps_hist: &printqueue::telemetry::GaugeHistory,
    depth_hist: &printqueue::telemetry::GaugeHistory,
    engine: &printqueue::telemetry::AlertEngine,
    fresh_events: &[printqueue::telemetry::AlertEvent],
) {
    use std::io::IsTerminal as _;
    let mut out = String::new();
    if std::io::stdout().is_terminal() {
        out.push_str("\x1b[2J\x1b[H");
    }
    out.push_str(&watch_text(
        addr,
        health,
        interval_ms,
        server,
        qps_hist,
        engine,
    ));
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "  qps now {qps:.1}, queue depth {}",
        depth_hist.latest().map(|(_, v)| v as u64).unwrap_or(0)
    );
    if depth_hist.len() > 1 {
        let _ = writeln!(out, "  depth {}", depth_hist.sparkline(40));
    }
    for e in fresh_events {
        let _ = writeln!(out, "  event {:?} {}: {}", e.kind, e.rule, e.reason);
    }
    println!("{out}");
}

fn cmd_serve_stop(args: &Args) -> CliResult {
    use printqueue::serve::Client;
    let Some(addr) = args.positional.first() else {
        usage()
    };
    let mut client =
        Client::connect(addr.as_str()).map_err(|err| format!("connect {addr}: {err}"))?;
    client
        .shutdown_server()
        .map_err(|err| format!("shutdown: {err}"))?;
    progress!("server at {addr} acknowledged shutdown");
    Ok(())
}

fn cmd_convert(args: &Args) -> CliResult {
    let (Some(src), Some(dst)) = (args.positional.first(), args.positional.get(1)) else {
        usage()
    };
    let src = PathBuf::from(src);
    let dst = PathBuf::from(dst);
    let archives = printqueue::store::read_archives(&src)
        .map_err(|err| format!("read {}: {err}", src.display()))?;
    printqueue::store::write_archives(&dst, &archives, SegmentPolicy::default())
        .map_err(|err| format!("write {}: {err}", dst.display()))?;
    let checkpoints: usize = archives.iter().map(|a| a.checkpoints.len()).sum();
    let bytes = |p: &std::path::Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    progress!(
        "converted {} checkpoints across {} port(s): {} ({} B) -> {} ({} B)",
        checkpoints,
        archives.len(),
        src.display(),
        bytes(&src),
        dst.display(),
        bytes(&dst)
    );
    Ok(())
}

fn cmd_case_study(args: &Args) -> CliResult {
    let duration_ms: u64 = args.get("duration-ms", 100);
    let seed: u64 = args.get("seed", 1);
    let cs = scenario::case_study_fig16(duration_ms.millis(), seed);
    let tw = TimeWindowConfig::WS_DM;
    let mut config = PrintQueueConfig::single_port(tw, 200);
    config.control.poll_period = 2u64.millis();
    let mut pq = PrintQueue::new(config);
    let mut sink = TelemetrySink::new();
    let mut sw_config = SwitchConfig::single_port(10.0, 40_000);
    sw_config.ports[0].max_depth_cells = 40_000;
    let mut sw = Switch::new(sw_config);
    {
        let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut pq, &mut sink];
        sw.run(cs.trace.arrivals.iter().copied(), &mut hooks, 2u64.millis());
    }
    let oracle = GroundTruth::new(&sink.records, 80);
    let Some(victim) = oracle
        .records()
        .iter()
        .filter(|r| r.flow == cs.roles.new_tcp)
        .max_by_key(|r| r.meta.deq_timedelta)
        .copied()
    else {
        return Err(
            "case study produced no packets for the new TCP flow — try a longer \
             --duration-ms or a different --seed"
                .to_string(),
        );
    };
    println!(
        "victim (new TCP flow) waited {:.2} ms behind a queue the burst built",
        f64::from(victim.meta.deq_timedelta) / 1e6
    );
    let label = |flow: FlowId| -> &str {
        if flow == cs.roles.burst {
            "burst"
        } else if flow == cs.roles.background {
            "background"
        } else {
            "new TCP"
        }
    };
    let report = oracle.report(&victim);
    let show = |name: &str, counts: &std::collections::HashMap<FlowId, u64>| {
        let total: u64 = counts.values().sum();
        print!("{name:>9}:");
        let mut entries: Vec<_> = counts.iter().collect();
        entries.sort_by(|a, b| b.1.cmp(a.1));
        for (flow, n) in entries {
            print!(
                " {}={n} ({:.0}%)",
                label(*flow),
                *n as f64 / total as f64 * 100.0
            );
        }
        println!();
    };
    show("direct", &report.direct);
    show("indirect", &report.indirect);
    let Some(qm) = pq.analysis().query_queue_monitor(0, victim.deq_timestamp()) else {
        return Err(
            "no queue-monitor checkpoint near the victim's dequeue — the control \
             plane stored nothing (shorter poll period or longer run needed)"
                .to_string(),
        );
    };
    if qm.degraded {
        progress!(
            "warning: queue-monitor answer is degraded (snapshot {:.2} ms away from \
             the victim, or inside a coverage gap)",
            qm.staleness as f64 / 1e6
        );
    }
    show("original", &qm.culprit_counts());
    println!(
        "\nonly the original-culprit view (queue monitor) implicates the burst,\n\
         which left the network ~{} ms before the victim arrived",
        (victim.meta.enq_timestamp.saturating_sub(cs.burst_start)) / 1_000_000
    );
    Ok(())
}
