//! The adapter: every call the benchmark makes into a `pa-*` crate.
//!
//! Workloads and harness sit above this file and name no engine type.
//! An API-reshaping change to the engine is preceded by a fix to this
//! one file. Each wrapper brackets its call with the span named in its
//! doc comment; with [`crate::trace::Off`] the brackets compile away.
//!
//! The engine runs bare: `PaConfig::accelerated()`, `StackSpec::paper()`,
//! no probe and no telemetry domain. The burst- and handle-based entry
//! points are used throughout (a burst of one is the per-frame call).

use crate::trace::{Span, Tracer};
use pa_buf::{Msg, MsgPool};
use pa_core::router::{ConnKey, CookieLookup};
use pa_core::{Connection, ConnectionParams, PaConfig, Router, ShardDelivery, ShardedEndpoint};
use pa_filter::{DigestKind, FusedProgram, Op, Program, ProgramBuilder};
use pa_stack::StackSpec;
use pa_unet::{Arrival, FaultConfig, LinkProfile, Netif, SimNet, UdpNet};
use pa_wire::{ByteOrder, Class, Cookie, EndpointAddr, LayoutBuilder, LayoutMode, Preamble};
use std::hint::black_box;

macro_rules! span {
    ($t:expr, $span:expr, $call:expr) => {{
        $t.enter($span);
        let out = $call;
        $t.exit();
        out
    }};
}

const PORT: u32 = 7;

// ---------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------

macro_rules! counters {
    ($($variant:ident),* $(,)?) => {
        /// The engine's public counters the benchmark reads, by layer.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum C { $($variant),* }
        impl C { pub const COUNT: usize = [$(C::$variant),*].len(); }
    };
}

counters! {
    // pa-core connection (`ConnStats`)
    FastSends, SlowSends, QueuedSends, FramesOut, FramesIn, FastDeliveries, SlowDeliveries,
    MsgsDelivered, PredictMisses, FilterMisses, ControlMsgs, IdentFrames, Drops,
    // pa-stack (`phase_meters().calls`)
    PreCalls, PostCalls,
    // pa-buf (`PoolStats` of every pool the workload owns)
    PoolHits, PoolMisses,
    // pa-core shard front and routers (the last two are gauges)
    Admits, Migrations, FrontRejects, Tombstones, Cookies,
    // pa-unet (kernel crossings and frames are counted here, at the call)
    NetCalls, NetFrames, NetPolls, NetEmptyPolls, NetRejects, NetFaultDrops,
}

/// A snapshot of every counter, summed over the engine objects a
/// workload owns. All but the two gauges only grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters([u64; C::COUNT]);

impl Default for Counters {
    fn default() -> Self {
        Counters([0; C::COUNT])
    }
}

impl Counters {
    pub fn get(&self, c: C) -> u64 {
        self.0[c as usize]
    }

    fn add(&mut self, c: C, n: u64) {
        self.0[c as usize] += n;
    }

    /// Growth since `earlier`; gauges keep their current value.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let mut out = *self;
        for (i, v) in out.0.iter_mut().enumerate() {
            if i != C::Tombstones as usize && i != C::Cookies as usize {
                *v -= earlier.0[i];
            }
        }
        out
    }

    fn add_conn(&mut self, c: &Connection) {
        let s = c.stats();
        for (counter, value) in [
            (C::FastSends, s.fast_sends),
            (C::SlowSends, s.slow_sends),
            (C::QueuedSends, s.queued_sends),
            (C::FramesOut, s.frames_out),
            (C::FramesIn, s.frames_in),
            (C::FastDeliveries, s.fast_deliveries),
            (C::SlowDeliveries, s.slow_deliveries),
            (C::MsgsDelivered, s.msgs_delivered),
            (C::PredictMisses, s.predict_misses),
            (C::FilterMisses, s.recv_filter_misses),
            (C::ControlMsgs, s.control_msgs),
            (C::IdentFrames, s.ident_frames_out),
            (
                C::Drops,
                s.drops_unknown_cookie
                    + s.drops_by_layer
                    + s.drops_malformed
                    + s.drops_send_rejected,
            ),
        ] {
            self.add(counter, value);
        }
        for meter in c.phase_meters() {
            // Indexed by `pa_obs::Phase`: pre-send, post-send,
            // pre-deliver, post-deliver, tick.
            self.add(C::PreCalls, meter.calls[0] + meter.calls[2]);
            self.add(C::PostCalls, meter.calls[1] + meter.calls[3]);
        }
        let pool = c.pool_stats();
        self.add(C::PoolHits, pool.hits);
        self.add(C::PoolMisses, pool.misses);
    }
}

/// What the end-of-workload gate found wrong with one engine object.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Health {
    /// Objects whose `delivery_balanced()`, `rejects_reconcile()` or
    /// `demux_balanced()` is false.
    pub unbalanced: u64,
    /// Objects with a delivery, transmit, post job or backlog entry
    /// still pending once the loop is idle.
    pub not_quiescent: u64,
}

impl Health {
    pub fn ok(&self) -> bool {
        *self == Health::default()
    }

    pub fn merge(&mut self, other: Health) {
        self.unbalanced += other.unbalanced;
        self.not_quiescent += other.not_quiescent;
    }
}

fn conn_health(c: &mut Connection) -> Health {
    let s = c.stats();
    let balanced = s.delivery_balanced() && s.rejects_reconcile();
    let idle = !c.has_pending()
        && c.backlog_len() == 0
        && c.poll_transmit().is_none()
        && c.poll_delivery().is_none();
    Health {
        unbalanced: !balanced as u64,
        not_quiescent: !idle as u64,
    }
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// A batch of wire frames or of delivered messages, reused across
/// bursts so the steady state allocates nothing.
#[derive(Default)]
pub struct Batch(Vec<Msg>);

impl Batch {
    pub fn with_capacity(n: usize) -> Batch {
        Batch(Vec::with_capacity(n))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.0.iter().map(Msg::as_slice)
    }

    /// Total bytes in the batch (what the wire would carry).
    pub fn total_bytes(&self) -> u64 {
        self.0.iter().map(|m| m.len() as u64).sum()
    }
}

/// Frames and cookies seen on the wire during warm-up, replayed by the
/// unit probes.
#[derive(Default)]
pub struct Capture {
    frames: Vec<Vec<u8>>,
    cookies: Vec<u64>,
}

impl Capture {
    const MAX_FRAMES: usize = 256;
    const MAX_COOKIES: usize = 1 << 16;

    pub fn see(&mut self, batch: &Batch) {
        for frame in batch.iter() {
            if self.frames.len() < Self::MAX_FRAMES {
                self.frames.push(frame.to_vec());
            }
            if self.cookies.len() < Self::MAX_COOKIES {
                if let Ok(p) = Preamble::decode(frame) {
                    self.cookies.push(p.cookie.raw());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// pa-core: Connection
// ---------------------------------------------------------------------

fn addr(host: u64) -> EndpointAddr {
    EndpointAddr::from_parts(host, PORT)
}

/// A connection the workload owns.
pub struct Conn(Connection);

/// A connection the workload drives: its own, or one looked up in a
/// [`Sharded`] endpoint by handle.
pub struct ConnMut<'a>(&'a mut Connection);

impl Conn {
    /// `conn.new` — `Connection::new` over the paper's four-layer stack.
    pub fn new<T: Tracer>(t: &mut T, local: u64, peer: u64, seed: u64) -> Conn {
        let conn = span!(
            t,
            Span::ConnNew,
            Connection::new(
                StackSpec::paper().build(),
                PaConfig::accelerated(),
                ConnectionParams::new(addr(local), addr(peer), seed),
            )
        );
        Conn(conn.expect("the paper stack is a valid stack"))
    }

    pub fn io(&mut self) -> ConnMut<'_> {
        ConnMut(&mut self.0)
    }

    pub fn backlog_len(&self) -> usize {
        self.0.backlog_len()
    }

    pub fn count_into(&self, counters: &mut Counters) {
        counters.add_conn(&self.0);
    }

    pub fn health(&mut self) -> Health {
        conn_health(&mut self.0)
    }
}

impl ConnMut<'_> {
    /// `conn.send` — `send_burst`. Returns how many the engine refused.
    pub fn send<T: Tracer>(&mut self, t: &mut T, payloads: &[&[u8]]) -> u64 {
        span!(t, Span::ConnSend, self.0.send_burst(payloads)).rejected as u64
    }

    /// `conn.deliver` — `deliver_burst`; drains `frames`. Returns the
    /// application messages delivered.
    pub fn deliver<T: Tracer>(&mut self, t: &mut T, frames: &mut Batch) -> usize {
        span!(t, Span::ConnDeliver, self.0.deliver_burst(&mut frames.0)).msgs
    }

    /// `conn.post` — `process_pending`: the deferred post phases, then
    /// one backlog drain.
    pub fn post<T: Tracer>(&mut self, t: &mut T) {
        span!(t, Span::ConnPost, self.0.process_pending());
    }

    /// `conn.poll_tx` — `poll_transmit_burst`; appends to `out`.
    pub fn poll_tx<T: Tracer>(&mut self, t: &mut T, out: &mut Batch) -> usize {
        span!(
            t,
            Span::ConnPollTx,
            self.0.poll_transmit_burst(usize::MAX, &mut out.0)
        )
    }

    /// `conn.poll_rx` — `poll_delivery_burst`; appends to `out`.
    pub fn poll_rx<T: Tracer>(&mut self, t: &mut T, out: &mut Batch) -> usize {
        span!(
            t,
            Span::ConnPollRx,
            self.0.poll_delivery_burst(usize::MAX, &mut out.0)
        )
    }

    /// `conn.recycle` — `recycle_burst`; drains `msgs`.
    pub fn recycle<T: Tracer>(&mut self, t: &mut T, msgs: &mut Batch) {
        span!(t, Span::ConnRecycle, self.0.recycle_burst(msgs.0.drain(..)));
    }

    /// `conn.tick` — timers (retransmission).
    pub fn tick<T: Tracer>(&mut self, t: &mut T, now: u64) {
        span!(t, Span::ConnTick, self.0.tick(now));
    }

    /// True while post work or a backlog is waiting for `post`.
    pub fn wants_post(&self) -> bool {
        self.0.has_pending() || self.0.backlog_len() > 0
    }
}

// ---------------------------------------------------------------------
// pa-core: ShardedEndpoint
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handle(pa_core::ShardHandle);

/// Messages drained from a [`Sharded`] endpoint, each tagged with the
/// connection it arrived on.
#[derive(Default)]
pub struct Deliveries(Vec<ShardDelivery>);

impl Deliveries {
    pub fn with_capacity(n: usize) -> Deliveries {
        Deliveries(Vec::with_capacity(n))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn handle(&self, i: usize) -> Handle {
        Handle(self.0[i].conn)
    }

    pub fn bytes(&self, i: usize) -> &[u8] {
        self.0[i].msg.as_slice()
    }
}

pub struct Sharded {
    ep: ShardedEndpoint,
    admits: u64,
}

impl Sharded {
    pub fn new(shards: usize) -> Sharded {
        Sharded {
            ep: ShardedEndpoint::new(shards),
            admits: 0,
        }
    }

    /// `shard.admit` — `add_connection`.
    pub fn admit<T: Tracer>(&mut self, t: &mut T, conn: Conn) -> Handle {
        self.admits += 1;
        Handle(span!(t, Span::ShardAdmit, self.ep.add_connection(conn.0)))
    }

    /// `shard.remove` — `remove_connection`. `None` for a stale handle.
    pub fn remove<T: Tracer>(&mut self, t: &mut T, h: Handle) -> Option<Conn> {
        span!(t, Span::ShardRemove, self.ep.remove_connection(h.0))
            .ok()
            .map(Conn)
    }

    /// `shard.ingest` — `from_network_burst`; drains `frames`. Returns
    /// the frames that demuxed to a connection.
    pub fn ingest<T: Tracer>(&mut self, t: &mut T, frames: &mut Batch) -> u64 {
        span!(
            t,
            Span::ShardIngest,
            self.ep.from_network_burst(&mut frames.0)
        )
        .routed
    }

    /// `shard.drain` — `drain_deliveries`; appends to `out`.
    pub fn drain<T: Tracer>(&mut self, t: &mut T, out: &mut Deliveries) -> usize {
        span!(t, Span::ShardDrain, self.ep.drain_deliveries(&mut out.0))
    }

    /// `shard.send` — `try_send`. False for a stale handle or a refused
    /// message.
    pub fn send<T: Tracer>(&mut self, t: &mut T, h: Handle, payload: &[u8]) -> bool {
        let outcome = span!(t, Span::ShardSend, self.ep.try_send(h.0, payload));
        !matches!(outcome, Err(_) | Ok(pa_core::SendOutcome::Rejected(_)))
    }

    /// `shard.recycle` — `recycle_delivery`, once per message; drains
    /// `msgs`.
    pub fn recycle<T: Tracer>(&mut self, t: &mut T, msgs: &mut Deliveries) {
        for d in msgs.0.drain(..) {
            span!(t, Span::ShardRecycle, self.ep.recycle_delivery(d));
        }
    }

    /// `shard.lookup` — `try_conn_mut`. `None` for a stale handle.
    pub fn conn<T: Tracer>(&mut self, t: &mut T, h: Handle) -> Option<ConnMut<'_>> {
        t.enter(Span::ShardLookup);
        let found = self.ep.try_conn_mut(h.0).ok().map(ConnMut);
        t.exit();
        found
    }

    /// Adds the front's, the routers', the shard pools' and every
    /// connection in `handles`' counters.
    pub fn count_into(&self, handles: &[Handle], counters: &mut Counters) {
        for h in handles {
            if let Some(c) = self.ep.try_conn(h.0) {
                counters.add_conn(c);
            }
        }
        counters.add(C::Admits, self.admits);
        counters.add(C::Migrations, self.ep.front_stats().migrations);
        counters.add(C::FrontRejects, self.ep.front_rejects().total());
        for i in 0..self.ep.shard_count() {
            let router = self.ep.shard(i).router();
            counters.add(C::Tombstones, router.tombstone_count() as u64);
            counters.add(C::Cookies, router.cookie_count() as u64);
            let pool = self.ep.shard_pool_stats(i);
            counters.add(C::PoolHits, pool.hits);
            counters.add(C::PoolMisses, pool.misses);
        }
    }

    /// The endpoint's ledgers, a drain that must find nothing, and every
    /// connection in `handles`.
    pub fn health(&mut self, handles: &[Handle]) -> Health {
        let mut health = Health {
            unbalanced: !self.ep.demux_balanced() as u64,
            not_quiescent: 0,
        };
        // A delivery left in a shard that is not on the dirty list is
        // invisible to `drain_deliveries`; the per-connection poll
        // below still finds it.
        let mut stranded = Vec::new();
        health.not_quiescent += (self.ep.drain_deliveries(&mut stranded) > 0) as u64;
        for h in handles {
            match self.ep.try_conn_mut(h.0) {
                Ok(c) => health.merge(conn_health(c)),
                Err(_) => health.unbalanced += 1,
            }
        }
        health
    }
}

// ---------------------------------------------------------------------
// pa-unet
// ---------------------------------------------------------------------

#[derive(Default)]
struct NetCounts {
    calls: u64,
    frames: u64,
    polls: u64,
    empty_polls: u64,
}

impl NetCounts {
    fn sent(&mut self, frames: usize) {
        self.calls += 1;
        self.frames += frames as u64;
    }

    fn polled(&mut self, frames: usize) {
        self.calls += 1;
        self.polls += 1;
        self.frames += frames as u64;
        self.empty_polls += (frames == 0) as u64;
    }

    fn count_into(&self, counters: &mut Counters) {
        counters.add(C::NetCalls, self.calls);
        counters.add(C::NetFrames, self.frames);
        counters.add(C::NetPolls, self.polls);
        counters.add(C::NetEmptyPolls, self.empty_polls);
    }
}

/// One end of a UDP link on the host's loopback interface.
pub struct Udp {
    net: UdpNet,
    local: EndpointAddr,
    peer: EndpointAddr,
    arrivals: Vec<Arrival>,
    counts: NetCounts,
}

impl Udp {
    /// Binds two sockets on 127.0.0.1 and points each at the other.
    pub fn pair(host_a: u64, host_b: u64) -> std::io::Result<(Udp, Udp)> {
        let bind = |local: u64, peer: u64| -> std::io::Result<Udp> {
            Ok(Udp {
                net: UdpNet::bind(addr(local), "127.0.0.1:0")?,
                local: addr(local),
                peer: addr(peer),
                arrivals: Vec::with_capacity(64),
                counts: NetCounts::default(),
            })
        };
        let (mut a, mut b) = (bind(host_a, host_b)?, bind(host_b, host_a)?);
        a.net.add_peer(b.local, b.net.local_socket_addr()?);
        b.net.add_peer(a.local, a.net.local_socket_addr()?);
        Ok((a, b))
    }

    /// `net.send` — `send_burst` (one `sendmmsg`); drains `frames`.
    pub fn send<T: Tracer>(&mut self, t: &mut T, frames: &mut Batch) -> usize {
        let n = frames.len();
        let sent = span!(
            t,
            Span::NetSend,
            self.net.send_burst(self.local, self.peer, &mut frames.0, 0)
        );
        self.counts.sent(n);
        sent
    }

    /// `net.recv` — `recv_burst` (`recvmmsg`); appends to `out`.
    pub fn recv<T: Tracer>(&mut self, t: &mut T, max: usize, out: &mut Batch) -> usize {
        t.enter(Span::NetRecv);
        let n = self.net.recv_burst(0, max, &mut self.arrivals);
        out.0.extend(self.arrivals.drain(..).map(|a| a.frame));
        t.exit();
        self.counts.polled(n);
        n
    }

    /// `net.recycle` — `recycle_frame`, once per buffer; drains `msgs`.
    pub fn recycle<T: Tracer>(&mut self, t: &mut T, msgs: &mut Batch) {
        for m in msgs.0.drain(..) {
            span!(t, Span::NetRecycle, self.net.recycle_frame(m));
        }
    }

    pub fn count_into(&self, counters: &mut Counters) {
        self.counts.count_into(counters);
        counters.add(C::NetRejects, self.net.rejects().total());
        let pool = self.net.pool_stats();
        counters.add(C::PoolHits, pool.hits);
        counters.add(C::PoolMisses, pool.misses);
    }
}

/// A simulated link between hosts `a` and `b` that drops, corrupts,
/// duplicates and reorders frames from a seeded generator.
pub struct Lossy {
    net: SimNet,
    a: EndpointAddr,
    b: EndpointAddr,
    arrivals: Vec<Arrival>,
    counts: NetCounts,
}

impl Lossy {
    pub fn new(host_a: u64, host_b: u64, fault_seed: u64) -> Lossy {
        let faults = FaultConfig {
            drop: 0.02,
            corrupt: 0.005,
            duplicate: 0.005,
            reorder: 0.01,
            seed: fault_seed,
            ..FaultConfig::none()
        };
        Lossy {
            net: SimNet::new(LinkProfile::ideal(), faults),
            a: addr(host_a),
            b: addr(host_b),
            arrivals: Vec::with_capacity(64),
            counts: NetCounts::default(),
        }
    }

    /// `net.send` — `send_burst` from `a` to `b` (or back); drains
    /// `frames`.
    pub fn send<T: Tracer>(&mut self, t: &mut T, from_a: bool, frames: &mut Batch, now: u64) {
        let (from, to) = if from_a {
            (self.a, self.b)
        } else {
            (self.b, self.a)
        };
        let n = frames.len();
        span!(
            t,
            Span::NetSend,
            self.net.send_burst(from, to, &mut frames.0, now)
        );
        self.counts.sent(n);
    }

    /// `net.recv` — `recv_burst` of everything due at `now`, split by
    /// destination.
    pub fn recv<T: Tracer>(&mut self, t: &mut T, now: u64, to_a: &mut Batch, to_b: &mut Batch) {
        t.enter(Span::NetRecv);
        let n = self.net.recv_burst(now, usize::MAX, &mut self.arrivals);
        for arrival in self.arrivals.drain(..) {
            let dest = if arrival.to == self.a {
                &mut *to_a
            } else {
                &mut *to_b
            };
            dest.0.push(arrival.frame);
        }
        t.exit();
        self.counts.polled(n);
    }

    pub fn in_flight(&self) -> usize {
        self.net.in_flight()
    }

    pub fn count_into(&self, counters: &mut Counters) {
        self.counts.count_into(counters);
        counters.add(C::NetFaultDrops, self.net.fault_stats().dropped);
    }
}

// ---------------------------------------------------------------------
// Unit probes: layers with no call boundary in the loop, replayed on
// what the workload put on the wire. Each `run` is one iteration; the
// harness times a fixed number of them against the calibration kernel.
// ---------------------------------------------------------------------

pub struct Probes {
    frames: Vec<Vec<u8>>,
    next_frame: usize,
    router: Router,
    cookies: Vec<Cookie>,
    next_cookie: usize,
    filter_program: Program,
    filter_fused: FusedProgram,
    filter_msg: Msg,
    pack_msgs: Vec<Msg>,
    packed: Msg,
    pool: MsgPool,
    payload: Vec<u8>,
}

impl Probes {
    /// Messages per packed frame in the pack/unpack probes.
    pub fn pack_count(&self) -> usize {
        self.pack_msgs.len()
    }

    pub fn new(capture: &Capture, payload_len: usize, seed: u64) -> Probes {
        assert!(
            !capture.frames.is_empty(),
            "warm-up put no frame on the wire"
        );
        let mut rng = crate::gen::Rng::new(seed);

        // The router at the workload's population, probed in a shuffled
        // order (a sequential sweep would ride the prefetcher).
        let mut raw = capture.cookies.clone();
        raw.sort_unstable();
        raw.dedup();
        for i in (1..raw.len()).rev() {
            raw.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut router = Router::new();
        let cookies: Vec<Cookie> = raw.iter().map(|&c| Cookie::from_raw(c)).collect();
        for (i, &cookie) in cookies.iter().enumerate() {
            router.bind_cookie(cookie, ConnKey(i));
        }

        // The checksum layer's send fragment: write the length, then the
        // digest of the whole body (it never exits early).
        let mut lb = LayoutBuilder::new();
        lb.begin_layer("ck");
        let len_f = lb
            .add_field(Class::Message, "len", 16, None)
            .expect("field");
        let ck_f = lb.add_field(Class::Message, "ck", 16, None).expect("field");
        let filter_layout = lb.compile(LayoutMode::Packed).expect("layout");
        let mut pb = ProgramBuilder::new();
        pb.extend(vec![
            Op::PushSize,
            Op::PopField(len_f),
            Op::Digest(DigestKind::InternetChecksum),
            Op::PopField(ck_f),
            Op::Return(0),
        ]);
        let filter_program = pb.build().expect("program verifies");
        let filter_fused = FusedProgram::fuse(&filter_program, &filter_layout, ByteOrder::Big);
        // The filter sees one frame: at most the fragmentation MTU.
        let body = vec![0x5Au8; payload_len.min(4096)];
        let mut filter_msg = Msg::from_payload(&body);
        filter_msg.push_front_zeroed(filter_layout.class_len(Class::Message));

        let payload = vec![0xA7u8; payload_len];
        let pack_count = (4096 / payload_len).clamp(2, 64);
        let pack_msgs: Vec<Msg> = (0..pack_count)
            .map(|_| Msg::from_payload(&payload))
            .collect();
        let packed = pa_core::packing::pack(&pack_msgs);

        Probes {
            frames: capture.frames.clone(),
            next_frame: 0,
            router,
            cookies,
            next_cookie: 0,
            filter_program,
            filter_fused,
            filter_msg,
            pack_msgs,
            packed,
            pool: MsgPool::with_defaults(),
            payload,
        }
    }

    /// `Preamble::decode` on the next captured frame.
    pub fn preamble_decode(&mut self) {
        let frame = &self.frames[self.next_frame];
        self.next_frame = (self.next_frame + 1) % self.frames.len();
        black_box(Preamble::decode(black_box(frame)).expect("captured frames carry a preamble"));
    }

    /// `Router::demux_cookie_peek` on the next captured cookie.
    pub fn router_probe(&mut self) {
        let cookie = self.cookies[self.next_cookie];
        self.next_cookie = (self.next_cookie + 1) % self.cookies.len();
        let hit = self.router.demux_cookie_peek(black_box(cookie));
        debug_assert!(matches!(hit, CookieLookup::Hit(_)));
        black_box(hit);
    }

    /// `FusedProgram::run` of the length + checksum program.
    pub fn filter_run(&mut self) {
        black_box(
            self.filter_fused
                .run(self.filter_program.slots(), black_box(&mut self.filter_msg)),
        );
    }

    /// `packing::pack` of [`Probes::pack_count`] messages.
    pub fn pack(&mut self) {
        black_box(pa_core::packing::pack(black_box(&self.pack_msgs)));
    }

    /// `PackInfo::pop_from` + `packing::unpack` of the same frame.
    pub fn unpack(&mut self) {
        let mut body = self.packed.clone();
        let info = pa_core::PackInfo::pop_from(&mut body).expect("packed by pack()");
        black_box(pa_core::packing::unpack(&info, body).expect("well-formed"));
    }

    /// `MsgPool::take_with` + `put` of one payload.
    pub fn pool_cycle(&mut self) {
        let m = self.pool.take_with(black_box(&self.payload));
        self.pool.put(black_box(m));
    }
}
