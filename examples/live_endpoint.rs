//! The watch on a live process: a `ShardedEndpoint` echoing sixteen
//! connections over two `UdpNet` sockets on the host's loopback,
//! watched in wall-clock nanoseconds by the same [`Watch`] the
//! simulators step in virtual time.
//!
//! One thread pumps both sockets. The client endpoint keeps one echo in
//! flight per connection and records each round trip into the latency
//! plane; whenever the watch is due, the server's `metrics_snapshot` and
//! its ledgers go through `Watch::observe`. At the end it prints the
//! dashboard `ops_dashboard` prints and writes `<out>.prom` (the plane's
//! histograms, then the recorder's gauges) and `<out>.jsonl` (the last
//! snapshot, then every recorder point).
//!
//! Exits 1 if an echo failed or the run timed out, 2 on a watchdog
//! alert, 3 on a delivery / demux / ready-set ledger break, 4 if the
//! fleet's attribution does not reconcile with the endpoint scope, 5 on
//! an exposition that lacks either contributor — the CI live smoke gate.
//!
//! ```sh
//! cargo run --release --example live_endpoint -- 20000 /tmp/live
//! ```

use pa::buf::Msg;
use pa::core::{Connection, ConnectionParams, PaConfig, ShardDelivery, ShardedEndpoint};
use pa::obs::{
    positional, FlightRecorder, MaskDomain, MaskingLedger, MetricsSnapshot, ScopeConfig,
    ScopePlane, Watch, WatchInput, Watchdog, WatchdogConfig,
};
use pa::stack::StackSpec;
use pa::unet::{Netif, UdpNet};
use pa::wire::EndpointAddr;
use std::time::{Duration, Instant};

const CONNS: u64 = 16;
const SERVER: u64 = 100;
const MS: u64 = 1_000_000;

fn addr(host: u64) -> EndpointAddr {
    EndpointAddr::from_parts(host, 9)
}

/// One socket and the endpoint behind it.
struct Host {
    ep: ShardedEndpoint,
    net: UdpNet,
    frames: Vec<Msg>,
    got: Vec<ShardDelivery>,
}

impl Host {
    fn new(local: u64, shards: usize) -> Host {
        Host {
            ep: ShardedEndpoint::new(shards),
            net: UdpNet::bind(addr(local), "127.0.0.1:0").expect("bind a loopback UDP socket"),
            frames: Vec::new(),
            got: Vec::new(),
        }
    }

    /// A connection to `peer` over the paper stack, cycle meters on.
    fn connect(&mut self, local: u64, peer: u64) -> pa::core::ShardHandle {
        let params = ConnectionParams::new(addr(local), addr(peer), local * 131 + peer);
        let (stack, config) = (StackSpec::paper().build(), PaConfig::paper_default());
        let mut conn = Connection::new(stack, config, params).expect("valid stack");
        conn.enable_cycle_meter();
        self.ep.add_connection(conn)
    }

    /// Socket → endpoint → `self.got`.
    fn receive(&mut self, now: u64) {
        let mut arrivals = Vec::new();
        self.net.recv_burst(now, 64, &mut arrivals);
        self.frames.extend(arrivals.into_iter().map(|a| a.frame));
        self.ep.from_network_burst(&mut self.frames);
        self.ep.drain_deliveries(&mut self.got);
    }

    /// Post work, then every queued frame → socket.
    fn transmit(&mut self, local: u64, now: u64) {
        self.ep.process_all_pending();
        let mut out = Vec::new();
        self.ep.poll_transmit_burst(usize::MAX, &mut out);
        for (peer, frame) in out {
            self.net.send(addr(local), peer, frame, now);
        }
    }

    /// Every ledger this endpoint keeps; `snap` is its `metrics_snapshot`.
    fn ledgers_ok(&self, snap: &MetricsSnapshot) -> bool {
        let g = |name| snap.get("endpoint", name).unwrap_or(0);
        let delivered = g("fast_deliveries") + g("slow_deliveries");
        self.ep.demux_balanced()
            && self.ep.ready_balanced()
            && g("frames_in") == delivered + g("drops_unknown_cookie") + g("drops_malformed")
    }

    /// The masking ledger in measured nanoseconds (the engine's own
    /// per-op cost is not metered).
    fn masking(&self) -> MaskingLedger {
        let fleet = self.ep.fleet();
        let (rows, cycles) = (fleet.phase_rows(|_, _| 0), MaskDomain::Cycles);
        MaskingLedger::with_engine(
            "endpoint",
            &rows,
            cycles,
            &fleet.totals,
            (0, 0),
            &fleet.leaks,
        )
    }

    /// One watch step: this endpoint's snapshot and ledgers in, the
    /// snapshot (with the watch's rows) back out.
    fn observe(&self, watch: &mut Watch, now: u64, done: u64, outstanding: u64) -> MetricsSnapshot {
        let mut snap = self.ep.metrics_snapshot(now);
        let leak_permille = match watch.wants_leak_rate() {
            true => self.masking().leak_permille(),
            false => 0,
        };
        let input = WatchInput {
            at: now,
            progress: done,
            backlog: outstanding,
            ledger_ok: self.ledgers_ok(&snap),
            p99_ns: watch.p99(),
            leak_permille,
        };
        let gauges = [
            ("echoes_outstanding", outstanding as f64),
            ("conns_live", self.ep.connection_count() as f64),
        ];
        watch.observe(&mut snap, &gauges, input, &[]);
        snap
    }
}

fn fail(code: i32, why: &str) -> ! {
    eprintln!("FAIL: {why}");
    std::process::exit(code)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let echoes: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(20_000);
    let out = args.next().unwrap_or("live-endpoint".into());

    let (mut server, mut client) = (Host::new(SERVER, 4), Host::new(1, 1));
    let s_sock = server.net.local_socket_addr().expect("bound");
    let c_sock = client.net.local_socket_addr().expect("bound");
    client.net.add_peer(addr(SERVER), s_sock);
    let mut plane = ScopePlane::new(ScopeConfig::default());
    // Per connection: both handles, its series, the echo it awaits.
    let mut conns = Vec::new();
    for k in 1..=CONNS {
        server.net.add_peer(addr(k), c_sock);
        let (sh, ch) = (server.connect(SERVER, k), client.connect(k, SERVER));
        let shard = server.ep.shard_of_conn(sh).expect("just added");
        let key = plane.register(&format!("shard{shard}"), &format!("conn{k:02}"));
        conns.push((sh, ch, key, None::<u64>));
    }
    let mut watch = Watch {
        plane: Some(plane),
        recorder: Some(FlightRecorder::new(20 * MS, 512)),
        // A lost datagram waits out a 5 ms retransmission timer; a
        // second with echoes outstanding and none completing is a stall.
        watchdog: Some(Watchdog::new(WatchdogConfig {
            cadence: 20 * MS,
            stall_windows: 50,
            ..WatchdogConfig::default()
        })),
    };
    println!("server on {s_sock}, {CONNS} clients behind {c_sock}, {echoes} echoes ...\n");

    let start = Instant::now();
    let clock = || start.elapsed().as_nanos() as u64;
    let (mut sent, mut done, mut failed, mut last_tick) = (0u64, 0u64, 0u64, 0u64);
    while done + failed < echoes && start.elapsed() < Duration::from_secs(60) {
        // Client: one echo in flight per connection, stamped on the way out.
        let now = clock();
        for c in conns.iter_mut().filter(|c| c.3.is_none()) {
            if sent < echoes {
                sent += 1;
                let payload = [now.to_be_bytes(), sent.to_be_bytes()].concat();
                client.ep.try_send(c.1, &payload).expect("live handle");
                c.3 = Some(sent);
            }
        }
        client.transmit(1, now);
        // Server: every delivery goes straight back.
        server.receive(now);
        for d in server.got.drain(..) {
            let _ = server.ep.try_send(d.conn, d.msg.as_slice());
            server.ep.recycle_delivery(d);
        }
        server.transmit(SERVER, now);
        // Client: an echo is good if it is the one its connection
        // awaits; its round trip ends on the clock as it reads now.
        let now = clock();
        client.receive(now);
        for d in client.got.drain(..) {
            let c = conns.iter_mut().find(|c| c.1 == d.conn).expect("ours");
            let word = |i: usize| {
                d.msg
                    .get(8 * i, 8)
                    .map(|b| u64::from_be_bytes(b.try_into().unwrap()))
            };
            match (word(0), word(1)) {
                (Some(stamp), Some(seq)) if c.3 == Some(seq) => {
                    done += 1;
                    let twin = server.ep.try_conn(c.0).expect("live handle");
                    let journey = twin.last_recv_trace().map_or(0, |(j, _)| j);
                    let plane = watch.plane.as_mut().expect("attached");
                    plane.record(c.2, now - stamp, now, journey, twin.last_deliver_explain());
                }
                _ => failed += 1,
            }
            c.3 = None;
            client.ep.recycle_delivery(d);
        }
        if now - last_tick >= MS {
            last_tick = now;
            server.ep.tick(now);
            client.ep.tick(now);
        }
        if watch.due(now) {
            server.observe(&mut watch, now, done, sent - done - failed);
        }
    }
    let now = clock();
    let mut snap = server.observe(&mut watch, now, done, sent - done - failed);

    println!(
        "wall clock {:.1} ms   echoes {done}/{echoes}   failed {failed}",
        now as f64 / MS as f64
    );
    let fleet = server.ep.fleet();
    println!("{}", watch.render(now, &fleet, &server.masking(), 5));

    let prom = watch.to_prometheus("echo_rtt_ns", 24);
    let fr = watch.recorder.as_ref().expect("attached");
    fr.record_into(&mut snap, "recorder");
    let jsonl = snap.to_json_lines() + &fr.to_json_lines();
    for (path, text) in [
        (format!("{out}.prom"), &prom),
        (format!("{out}.jsonl"), &jsonl),
    ] {
        match std::fs::write(&path, text) {
            Ok(()) => println!("wrote {path} ({} lines)", text.lines().count()),
            Err(e) => fail(5, &format!("could not write {path}: {e}")),
        }
    }

    if failed != 0 || done != echoes {
        fail(
            1,
            &format!("{done} of {echoes} echoes completed, {failed} failed"),
        );
    }
    let wd = watch.watchdog.as_ref().expect("attached");
    if !wd.healthy() {
        fail(2, &format!("watchdog alerts: {:?}", wd.alerts()));
    }
    if !server.ledgers_ok(&snap) || !client.ledgers_ok(&client.ep.metrics_snapshot(now)) {
        fail(3, "a delivery, demux or ready-set ledger does not balance");
    }
    let scope = |name| snap.get("endpoint", name).unwrap_or(0);
    let report = fleet.report("endpoint", now, positional);
    let t = report.totals;
    let same = (t.slow_sends, t.queued_sends, t.slow_deliveries)
        == (
            scope("slow_sends"),
            scope("queued_sends"),
            scope("slow_deliveries"),
        );
    if !same || !report.reconciles() {
        fail(
            4,
            "the fleet's attribution does not reconcile with the endpoint scope",
        );
    }
    if !prom.contains("echo_rtt_ns") || !prom.contains("pa_frames") {
        fail(
            5,
            "the exposition lacks the plane's histograms or the recorder's gauges",
        );
    }
    println!("ok: {done} echoes, watchdog healthy, ledgers balanced, attribution reconciles");
}
