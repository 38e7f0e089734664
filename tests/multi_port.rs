//! Multi-port switching: ingress routing, independent per-port queues, and
//! PrintQueue activated on a subset of ports (the §6.1 port gate).

use printqueue::core::register_layout::PortGateTable;
use printqueue::packet::ipv4::Address;
use printqueue::packet::FlowTable;
use printqueue::prelude::*;
use printqueue::switch::router::{route_arrivals, Router};
use printqueue::switch::PortConfig;

/// Build a 4-port switch where two /24 destinations map to ports 0 and 1,
/// everything else ECMP-spreads over ports 2 and 3.
#[test]
fn router_spreads_traffic_across_ports() {
    let mut table = FlowTable::new();
    let mut router = Router::new();
    router.add_dst_net_route([10, 200, 0], 0);
    router.add_dst_net_route([10, 200, 1], 1);
    router.set_default_group(vec![2, 3]);

    let mut arrivals = Vec::new();
    for i in 0..4_000u64 {
        // Mix of destinations: half to the routed /24s, half elsewhere.
        let dst = match i % 4 {
            0 => Address::new(10, 200, 0, 5),
            1 => Address::new(10, 200, 1, 5),
            _ => Address::new(172, 16, (i % 250) as u8, 9),
        };
        let key = FlowKey::udp(
            Address::new(10, 0, (i % 100) as u8, 1),
            (9_000 + i % 500) as u16,
            dst,
            53,
        );
        let id = table.intern(key);
        arrivals.push(Arrival::new(SimPacket::new(id, 400, i * 500), 0));
    }
    let (routed, dropped) = route_arrivals(arrivals, &router, |id| table.resolve(id).copied());
    assert_eq!(dropped, 0);

    let config = SwitchConfig {
        ports: vec![PortConfig::default(); 4],
        cell_bytes: 80,
    };
    let mut sw = Switch::new(config);
    let mut sink = TelemetrySink::new();
    sw.run(routed, &mut [&mut sink], 0);

    // Every port transmitted; the routed /24s carried their quarter each
    // and ECMP split the rest.
    let per_port: Vec<u64> = (0..4).map(|p| sw.port_stats(p).dequeued).collect();
    assert_eq!(per_port.iter().sum::<u64>(), 4_000);
    assert_eq!(per_port[0], 1_000);
    assert_eq!(per_port[1], 1_000);
    assert!(
        per_port[2] > 200 && per_port[3] > 200,
        "ECMP skew: {per_port:?}"
    );
    // Flows stay on one path: per-flow port consistency.
    let mut flow_port = std::collections::HashMap::new();
    for r in &sink.records {
        let prev = flow_port.insert(r.flow, r.port);
        if let Some(prev) = prev {
            assert_eq!(prev, r.port, "flow {:?} moved ports", r.flow);
        }
    }
}

/// PrintQueue activated on two of three ports: queries work there, the
/// third port is ignored (the §6.1 gate), and the per-port structures are
/// independent.
#[test]
fn printqueue_activates_per_port() {
    let config = SwitchConfig {
        ports: vec![PortConfig::default(); 3],
        cell_bytes: 80,
    };
    let mut sw = Switch::new(config);
    let tw = TimeWindowConfig::new(6, 1, 10, 3);
    let mut pq_config = PrintQueueConfig::single_port(tw, 1200);
    pq_config.ports = vec![0, 2]; // port 1 not activated
    pq_config.control.poll_period = 400_000; // < the 458 µs set period
    let mut pq = PrintQueue::new(pq_config);
    let mut sink = TelemetrySink::new();

    // Identical congested streams to all three ports.
    let mut arrivals = Vec::new();
    for i in 0..3_000u64 {
        for port in 0..3u16 {
            arrivals.push(Arrival::new(
                SimPacket::new(FlowId(u32::from(port) * 10 + (i % 3) as u32), 1500, i * 700),
                port,
            ));
        }
    }
    arrivals.sort_by_key(|a| a.pkt.arrival);
    {
        let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut pq, &mut sink];
        sw.run(arrivals, &mut hooks, 500_000);
    }

    assert!(pq.analysis().is_active(0));
    assert!(!pq.analysis().is_active(1));
    assert!(pq.analysis().is_active(2));

    // Queries on the activated ports see their own flows only.
    let horizon = QueryInterval::new(0, 3_000 * 700);
    let p0 = pq.analysis().query_time_windows(0, horizon);
    let p2 = pq.analysis().query_time_windows(2, horizon);
    assert!(p0.total() > 100.0);
    assert!(p2.total() > 100.0);
    assert!(
        p0.counts.keys().all(|f| f.0 < 10),
        "port 0 saw foreign flows"
    );
    assert!(
        p2.counts.keys().all(|f| f.0 >= 20),
        "port 2 saw foreign flows"
    );
    // The §6.1 gate table maps activated ports to prefixes and rejects the
    // rest.
    let gate = PortGateTable::new(&[0, 2]);
    assert_eq!(gate.prefix_of(0), Some(0));
    assert_eq!(gate.prefix_of(2), Some(1));
    assert_eq!(gate.prefix_of(1), None);
}

/// `pqsim run` diagnoses each victim on its own egress port, against that
/// port's ground truth: the same packets sent out of port 3 instead of
/// port 0 get the same diagnosis, line for line.
#[test]
fn run_diagnoses_victims_on_their_own_port() {
    let on_port_0 = Workload::paper_testbed(WorkloadKind::Uw, 2.millis(), 1).generate();
    let mut on_port_3 = on_port_0.clone();
    for arrival in &mut on_port_3.arrivals {
        arrival.port = 3;
    }
    let run = |trace: &printqueue::trace::workload::GeneratedTrace, name: &str| {
        let path =
            std::env::temp_dir().join(format!("pq-run-port-{}-{name}.pqtr", std::process::id()));
        printqueue::trace::io::save(trace, &path).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_pqsim"))
            .arg("run")
            .arg(&path)
            .args([
                "--m0", "6", "--alpha", "1", "--k", "10", "--t", "3", "--quiet",
            ])
            .output()
            .unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let (zero, three) = (run(&on_port_0, "0"), run(&on_port_3, "3"));
    let diagnosis = |out: &str| out[out.find("diagnosing").expect(out)..].to_string();
    assert_eq!(diagnosis(&zero), diagnosis(&three));
    assert!(three.contains("switch port 3: "), "{three}");
    assert!(!diagnosis(&zero).contains("| 0 culprit flows"), "{zero}");
}
