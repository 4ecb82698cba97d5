//! The phase meters against an independent count.
//!
//! A connection counts a traversal that runs every layer once — a
//! post-send, a post-deliver over the whole stack, a tick — once for the
//! whole stack while it runs outside a leak scope with the clocks off,
//! and every other call per layer. Here each layer is wrapped in a
//! counting layer that tallies its own invocations, and every layer's
//! meter must read exactly what its wrapper counted: over fast echoes on
//! the paper stack, fragmented sends (post-deliver over part of the
//! stack), a lossy storm (slow paths, retransmissions, ticks) and an
//! eager host (`lazy_post: false`, every post phase leaked). Each case
//! turns cycle metering on halfway, which moves the count from the
//! whole-stack counters to the per-layer record mid-run.

use std::sync::{Arc, Mutex};

use pa::buf::Msg;
use pa::core::{
    Connection, ConnectionParams, DeliverAction, Handles, Layer, LayerCtx, LayerShape, Nanos,
    PaConfig, SendAction,
};
use pa::obs::Phase;
use pa::stack::window::WindowConfig;
use pa::stack::StackSpec;
use pa::unet::{FaultConfig, LinkProfile, Netif, SimNet};
use pa::wire::{CompiledLayout, EndpointAddr};

const PHASES: [Phase; 5] = [
    Phase::PreSend,
    Phase::PostSend,
    Phase::PreDeliver,
    Phase::PostDeliver,
    Phase::Tick,
];

/// What a connection's wrappers counted, per layer, bottom first.
#[derive(Default)]
struct Tally {
    calls: Vec<[u64; 5]>,
    leaked: Vec<[u64; 5]>,
    /// On an eager host every post phase runs in the drain that ends an
    /// operation, and so does everything the drain sends after it: the
    /// calls charged as leaked. Set by a post phase, cleared by the
    /// harness when it starts an operation.
    after_post: bool,
    eager: bool,
    /// Set when the harness turns cycle metering on; from then on the
    /// calls of each phase are also summed over the layers here.
    clocked: bool,
    clocked_calls: [u64; 5],
}

/// A layer that counts its own phase calls and forwards everything.
struct Counting {
    inner: Box<dyn Layer>,
    index: usize,
    tally: Arc<Mutex<Tally>>,
}

impl Counting {
    fn count(&self, phase: Phase) {
        let mut t = self.tally.lock().unwrap();
        if matches!(phase, Phase::PostSend | Phase::PostDeliver) {
            t.after_post = true;
        }
        let leaked = t.eager && t.after_post;
        t.calls[self.index][phase as usize] += 1;
        t.leaked[self.index][phase as usize] += leaked as u64;
        if t.clocked {
            t.clocked_calls[phase as usize] += 1;
        }
    }
}

impl Layer for Counting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn shape(&self) -> LayerShape {
        self.inner.shape()
    }
    fn bind(&mut self, handles: Handles<'_>) {
        self.inner.bind(handles)
    }
    fn fill_ident(&self, layout: &CompiledLayout, local: &mut [u8], peer: &mut [u8]) {
        self.inner.fill_ident(layout, local, peer)
    }
    fn pre_send(&mut self, ctx: &mut LayerCtx<'_>, msg: &mut Msg) -> SendAction {
        self.count(Phase::PreSend);
        self.inner.pre_send(ctx, msg)
    }
    fn post_send(&mut self, ctx: &mut LayerCtx<'_>, msg: &Msg) {
        self.count(Phase::PostSend);
        self.inner.post_send(ctx, msg)
    }
    fn pre_deliver(&mut self, ctx: &mut LayerCtx<'_>, msg: &mut Msg) -> DeliverAction {
        self.count(Phase::PreDeliver);
        self.inner.pre_deliver(ctx, msg)
    }
    fn post_deliver(&mut self, ctx: &mut LayerCtx<'_>, msg: &Msg) {
        self.count(Phase::PostDeliver);
        self.inner.post_deliver(ctx, msg)
    }
    fn on_tick(&mut self, ctx: &mut LayerCtx<'_>, now: Nanos) {
        self.count(Phase::Tick);
        self.inner.on_tick(ctx, now)
    }
    fn keep_image(&mut self, image: Msg) -> Option<Msg> {
        self.inner.keep_image(image)
    }
    fn bufs_held(&self) -> usize {
        self.inner.bufs_held()
    }
}

/// One end: a connection over counted layers, and their tally.
struct Side {
    conn: Connection,
    tally: Arc<Mutex<Tally>>,
}

impl Side {
    fn new(spec: &StackSpec, config: PaConfig, local: u64, peer: u64, seed: u64) -> Side {
        let layers = spec.build();
        let tally = Arc::new(Mutex::new(Tally {
            calls: vec![[0; 5]; layers.len()],
            leaked: vec![[0; 5]; layers.len()],
            eager: !config.lazy_post,
            ..Tally::default()
        }));
        let layers = layers
            .into_iter()
            .enumerate()
            .map(|(index, inner)| {
                let tally = Arc::clone(&tally);
                Box::new(Counting {
                    inner,
                    index,
                    tally,
                }) as Box<dyn Layer>
            })
            .collect();
        let params = ConnectionParams::new(
            EndpointAddr::from_parts(local, 1),
            EndpointAddr::from_parts(peer, 1),
            seed,
        );
        let conn = Connection::new(layers, config, params).expect("valid stack");
        Side { conn, tally }
    }

    /// Runs one operation on the connection.
    fn op<R>(&mut self, f: impl FnOnce(&mut Connection) -> R) -> R {
        self.tally.lock().unwrap().after_post = false;
        f(&mut self.conn)
    }

    fn start_clocks(&mut self) {
        self.conn.enable_cycle_meter();
        self.tally.lock().unwrap().clocked = true;
    }

    /// Every layer's meter reads what its wrapper counted; a post phase
    /// run since the clocks started was timed; the leak ledger holds
    /// exactly the meters' leaked calls and time; the reject and
    /// delivery ledgers balance.
    fn check(&self, case: &str) {
        let t = self.tally.lock().unwrap();
        let names = self.conn.layer_names();
        let meters: Vec<_> = self.conn.phase_meters().collect();
        assert_eq!(meters.len(), t.calls.len());
        for (i, m) in meters.iter().enumerate() {
            assert_eq!(m.calls, t.calls[i], "{case}: {} calls", names[i]);
            assert_eq!(m.leaked_calls, t.leaked[i], "{case}: {} leaked", names[i]);
            for phase in PHASES {
                let (calls, ns) = self
                    .conn
                    .leaks()
                    .entries
                    .iter()
                    .filter(|e| e.layer == names[i] && e.phase == phase)
                    .fold((0, 0), |(c, n), e| (c + e.calls, n + e.cycle_ns));
                let p = phase as usize;
                assert_eq!(calls, m.leaked_calls[p], "{case}: {} ledger", names[i]);
                assert_eq!(ns, m.leaked_cycle_ns[p], "{case}: {} ledger ns", names[i]);
            }
        }
        for phase in [Phase::PostSend, Phase::PostDeliver] {
            let p = phase as usize;
            let ns: u64 = meters.iter().map(|m| m.cycle_ns[p]).sum();
            assert_eq!(ns > 0, t.clocked_calls[p] > 0, "{case}: {phase:?} timed");
        }
        let stats = self.conn.stats();
        assert!(stats.rejects_reconcile(), "{case}: {stats:?}");
        assert!(stats.delivery_balanced(), "{case}: {stats:?}");
    }

    fn total(&self, phase: Phase) -> u64 {
        let t = self.tally.lock().unwrap();
        t.calls.iter().map(|c| c[phase as usize]).sum()
    }
}

/// `rounds` milliseconds of traffic: `a` sends `payload` each round,
/// `b` echoes what it delivers when `echo` is set, frames cross `net`,
/// both tick. A lazy host drains its posts after each operation (no
/// arrival finds one pending); an eager one leaves that to the engine.
/// Cycle metering starts halfway.
fn drive(a: &mut Side, b: &mut Side, net: &mut SimNet, rounds: u64, payload: &[u8], echo: bool) {
    let (a_addr, b_addr) = (a.conn.local_addr(), b.conn.local_addr());
    for round in 0..rounds + 2_000 {
        let now = (round + 1) * 1_000_000;
        if round == rounds / 2 {
            a.start_clocks();
            b.start_clocks();
        }
        if round < rounds {
            a.op(|c| c.send(payload));
        }
        for (side, to) in [(&mut *a, b_addr), (&mut *b, a_addr)] {
            while let Some(frame) = side.op(|c| c.poll_transmit()) {
                net.send(side.conn.local_addr(), to, frame, now);
            }
        }
        while let Some(arr) = net.poll_arrival(now) {
            let side = if arr.to == b_addr { &mut *b } else { &mut *a };
            side.op(|c| c.deliver_frame(arr.frame));
            if side.conn.config().lazy_post {
                side.op(|c| c.process_pending());
            }
        }
        while let Some(m) = a.op(|c| c.poll_delivery()) {
            a.op(|c| c.recycle(m));
        }
        while let Some(m) = b.op(|c| c.poll_delivery()) {
            if echo {
                let body = m.as_slice().to_vec();
                b.op(|c| c.send(&body));
            }
            b.op(|c| c.recycle(m));
        }
        for side in [&mut *a, &mut *b] {
            if side.conn.config().lazy_post {
                side.op(|c| c.process_pending());
            }
            side.op(|c| c.tick(now));
        }
        let quiet = round >= rounds && !a.conn.has_transmit() && !b.conn.has_transmit();
        if quiet && net.in_flight() == 0 && !a.conn.has_pending() && !b.conn.has_pending() {
            break;
        }
    }
}

fn pair(spec: &StackSpec, config: PaConfig) -> (Side, Side) {
    (
        Side::new(spec, config, 1, 2, 71),
        Side::new(spec, config, 2, 1, 72),
    )
}

#[test]
fn fast_echoes_are_counted_once_a_stack_and_read_per_layer() {
    let spec = StackSpec::paper();
    let (mut a, mut b) = pair(&spec, PaConfig::paper_default());
    let mut net = SimNet::new(LinkProfile::atm_unet(), FaultConfig::none());
    drive(&mut a, &mut b, &mut net, 400, b"12345678", true);
    assert_eq!(a.conn.stats().fast_sends, 400);
    assert!(a.total(Phase::PostSend) >= 400 * 4);
    a.check("fast echoes");
    b.check("fast echoes");
}

#[test]
fn fragmented_sends_meter_partial_post_deliver_ranges() {
    // Fragmentation below a transparent layer: a fragment stops at
    // frag, a reassembled message enters above it, and every window ack
    // stops at the window — post-deliver ranges of part of the stack.
    let spec = StackSpec {
        frag_mtu: Some(128),
        null_fill: 1,
        window: WindowConfig {
            ack_every: 1,
            ..WindowConfig::default()
        },
        ..StackSpec::paper()
    };
    let (mut a, mut b) = pair(&spec, PaConfig::paper_default());
    let mut net = SimNet::new(LinkProfile::atm_unet(), FaultConfig::none());
    let blob: Vec<u8> = (0..1_000u32).map(|i| (i % 251) as u8).collect();
    drive(&mut a, &mut b, &mut net, 60, &blob, false);
    assert_eq!(b.conn.stats().msgs_delivered, 60);
    let t = b.tally.lock().unwrap();
    let post = |layer: usize| t.calls[layer][Phase::PostDeliver as usize];
    assert!(post(0) > post(4), "partial ranges: {:?}", t.calls);
    drop(t);
    a.check("fragmented sends");
    b.check("fragmented sends");
}

#[test]
fn a_lossy_storm_meters_slow_paths_and_ticks() {
    let spec = StackSpec {
        window: WindowConfig {
            rto: 2_000_000,
            ack_every: 2,
            ..WindowConfig::default()
        },
        ..StackSpec::paper()
    };
    let (mut a, mut b) = pair(&spec, PaConfig::paper_default());
    let mut net = SimNet::new(LinkProfile::atm_unet(), FaultConfig::harsh(17));
    drive(&mut a, &mut b, &mut net, 300, b"storm!", true);
    assert!(net.fault_stats().dropped > 0, "the network misbehaved");
    assert!(a.conn.stats().slow_deliveries > 0);
    assert!(a.total(Phase::PreSend) > 0 && a.total(Phase::Tick) > 0);
    a.check("lossy storm");
    b.check("lossy storm");
}

#[test]
fn an_eager_host_meters_its_posts_as_leaked() {
    let config = PaConfig {
        lazy_post: false,
        ..PaConfig::paper_default()
    };
    let (mut a, mut b) = pair(&StackSpec::paper(), config);
    let mut net = SimNet::new(LinkProfile::atm_unet(), FaultConfig::none());
    drive(&mut a, &mut b, &mut net, 400, b"12345678", true);
    assert!(a.conn.leaks().total_calls() >= 400 * 4);
    a.check("eager host");
    b.check("eager host");
}
