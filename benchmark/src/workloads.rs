//! The seven workloads. All are closed loops on one thread: a new
//! request is issued only when an earlier one has completed (or, for
//! the streams, when the sender's backlog has room).
//!
//! Each workload builds its engine objects from the seed, warms them
//! up, and then runs on demand in chunks of ops; every payload is
//! checked on delivery for identity, order and content.

use crate::gen::{distinct, mix, Arena, Rng, TAG_LEN};
use crate::sut::{Batch, Capture, Conn, Counters, Deliveries, Handle, Health, Lossy, Sharded, Udp};
use crate::trace::{Off, Tracer};
use std::collections::VecDeque;
use std::time::Instant;

/// What a workload attempted and how it went, since it was built.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Ops issued.
    pub attempted: u64,
    /// Ops whose every delivery was verified.
    pub completed: u64,
    /// Deliveries that were corrupt, duplicated, out of order or on the
    /// wrong connection, plus sends the engine refused.
    pub bad: u64,
    /// Bytes handed to the wire, both directions, everything included.
    pub wire_bytes: u64,
}

impl Tally {
    /// Ops that did not complete correctly: missing ones plus bad events.
    pub fn failed(&self) -> u64 {
        (self.attempted - self.completed.min(self.attempted)) + self.bad
    }
}

pub trait World: Sized {
    const NAME: &'static str;
    /// Ops per timed slice (≈ 40 ms on the reference VM).
    const SLICE_OPS: u64;
    /// Application payload bytes per message.
    const PAYLOAD: usize;
    /// Whether the same seed makes the engine do exactly the same work,
    /// and exactly the same allocations, on every run. Kernel timing
    /// sets `udp_echo16`'s burst sizes; `churn` inserts into and removes
    /// from std hash maps, whose randomly keyed hashing decides when
    /// they rehash.
    const EXACT_COUNTERS: bool = true;
    const EXACT_ALLOCS: bool = true;

    /// Builds the engine objects, runs the handshakes and the warm-up.
    /// Frames that cross the wire on the way are shown to `capture`.
    fn build(seed: u64, capture: &mut Capture) -> Self;

    /// Runs until at least `ops` more ops have completed (or no progress
    /// is possible) and returns how many did. Pushes one latency sample
    /// per stamped op, in ns.
    fn run<T: Tracer>(&mut self, t: &mut T, ops: u64, lat: &mut Vec<u32>) -> u64;

    /// Drives the loop, issuing nothing new, until it is idle.
    fn settle(&mut self);

    fn tally(&self) -> Tally;
    fn counters(&self) -> Counters;
    fn health(&mut self) -> Health;
}

/// Records one latency sample: `sent` → `delivered`, the clock reading
/// taken when the batch holding the message came out of the engine.
fn push_latency(lat: &mut Vec<u32>, sent: Instant, delivered: Instant) {
    if lat.len() < lat.capacity() {
        let ns = delivered.saturating_duration_since(sent).as_nanos();
        lat.push(ns.min(u32::MAX as u128) as u32);
    }
}

/// Exactly-once, in-order, byte-equal, on the one connection (id 0) of
/// a pair workload: the next sequence number its receiver expects.
#[derive(Default)]
struct Expect(u32);

impl Expect {
    /// Checks one delivery; returns its sequence number if it is the
    /// next message of connection 0 and its bytes are right.
    fn accept(&mut self, arena: &Arena, got: &[u8]) -> Option<u32> {
        let next = self.0;
        (arena.check(got)? == (0, next)).then(|| {
            self.0 += 1;
            next
        })
    }
}

/// Send times of bursts still in flight on a stream: every message of a
/// burst shares the clock reading taken just before the burst was sent.
struct Stamps(VecDeque<(u32, Instant)>);

impl Stamps {
    fn new() -> Stamps {
        Stamps(VecDeque::with_capacity(1024))
    }

    /// Notes that messages from `first_seq` on were sent at `at`.
    fn sent(&mut self, first_seq: u32, at: Instant) {
        if self.0.len() < self.0.capacity() {
            self.0.push_back((first_seq, at));
        }
    }

    /// Send time of message `seq` (deliveries arrive in order).
    fn of(&mut self, seq: u32) -> Option<Instant> {
        while self.0.len() > 1 && self.0[1].0 <= seq {
            self.0.pop_front();
        }
        self.0
            .front()
            .filter(|(first, _)| *first <= seq)
            .map(|s| s.1)
    }
}

/// A burst of `N` payloads of `LEN` bytes, generated in place.
struct Burst<const LEN: usize, const N: usize>([[u8; LEN]; N]);

impl<const LEN: usize, const N: usize> Burst<LEN, N> {
    fn fill(&mut self, arena: &Arena, conn: u32, first_seq: u32, n: usize) {
        for (i, p) in self.0[..n].iter_mut().enumerate() {
            arena.fill(conn, first_seq.wrapping_add(i as u32), p);
        }
    }

    fn refs(&self) -> [&[u8]; N] {
        std::array::from_fn(|i| &self.0[i][..])
    }
}

/// A stream of bursts of up to `N` messages of `LEN` bytes on connection
/// 0: what its sender has issued and what its receiver has verified.
struct Stream<const LEN: usize, const N: usize> {
    arena: Arena,
    expect: Expect,
    stamps: Stamps,
    burst: Burst<LEN, N>,
    tally: Tally,
}

impl<const LEN: usize, const N: usize> Stream<LEN, N> {
    fn new(seed: u64) -> Self {
        Stream {
            arena: Arena::new(seed),
            expect: Expect::default(),
            stamps: Stamps::new(),
            burst: Burst([[0; LEN]; N]),
            tally: Tally::default(),
        }
    }

    /// Issues the next `n` messages on `conn` as one burst.
    fn feed<T: Tracer>(&mut self, t: &mut T, conn: &mut Conn, n: usize) {
        let first = self.tally.attempted as u32;
        self.burst.fill(&self.arena, 0, first, n);
        self.tally.attempted += n as u64;
        self.stamps.sent(first, Instant::now());
        self.tally.bad += conn.io().send(t, &self.burst.refs()[..n]);
    }

    /// Checks a batch the receiving end just delivered: counts the
    /// verified messages as completed ops, the rest as bad, and records
    /// each verified message's latency — its burst's send time to the
    /// one clock reading taken here for the whole batch.
    fn check(&mut self, msgs: &Batch, lat: &mut Vec<u32>) {
        if msgs.is_empty() {
            return;
        }
        let delivered = Instant::now();
        for m in msgs.iter() {
            match self.expect.accept(&self.arena, m) {
                Some(seq) => {
                    self.tally.completed += 1;
                    if let Some(sent) = self.stamps.of(seq) {
                        push_latency(lat, sent, delivered);
                    }
                }
                None => self.tally.bad += 1,
            }
        }
    }
}

// ---------------------------------------------------------------------
// Two connections wired back to back
// ---------------------------------------------------------------------

struct Pair {
    a: Conn,
    b: Conn,
    wire: Batch,
    msgs: Batch,
}

impl Pair {
    fn new(seed: u64) -> Pair {
        Pair {
            a: Conn::new(&mut Off, 1, 2, mix(seed ^ 1)),
            b: Conn::new(&mut Off, 2, 1, mix(seed ^ 2)),
            wire: Batch::with_capacity(64),
            msgs: Batch::with_capacity(128),
        }
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        self.a.count_into(&mut c);
        self.b.count_into(&mut c);
        c
    }

    fn health(&mut self) -> Health {
        let mut h = self.a.health();
        h.merge(self.b.health());
        h
    }
}

/// Moves every frame `from` has queued to `to`; returns the wire bytes.
fn shuttle<T: Tracer>(t: &mut T, from: &mut Conn, to: &mut Conn, wire: &mut Batch) -> u64 {
    from.io().poll_tx(t, wire);
    let bytes = wire.total_bytes();
    if !wire.is_empty() {
        to.io().deliver(t, wire);
    }
    bytes
}

// ---------------------------------------------------------------------
// 1. echo_1conn
// ---------------------------------------------------------------------

pub struct Echo1Conn {
    arena: Arena,
    pair: Pair,
    at_b: Expect,
    at_a: Expect,
    tally: Tally,
}

impl World for Echo1Conn {
    const NAME: &'static str = "echo_1conn";
    const SLICE_OPS: u64 = 32_768;
    const PAYLOAD: usize = 8;

    fn build(seed: u64, capture: &mut Capture) -> Self {
        let mut w = Echo1Conn {
            arena: Arena::new(seed),
            pair: Pair::new(seed),
            at_b: Expect::default(),
            at_a: Expect::default(),
            tally: Tally::default(),
        };
        let mut lat = Vec::new();
        w.round_trips(&mut Off, 64, &mut lat, Some(capture));
        w.round_trips(&mut Off, 4096, &mut lat, None);
        w
    }

    fn run<T: Tracer>(&mut self, t: &mut T, ops: u64, lat: &mut Vec<u32>) -> u64 {
        self.round_trips(t, ops, lat, None)
    }

    fn settle(&mut self) {
        let Pair { a, b, wire, .. } = &mut self.pair;
        for _ in 0..64 {
            a.io().post(&mut Off);
            b.io().post(&mut Off);
            let moved = shuttle(&mut Off, a, b, wire) + shuttle(&mut Off, b, a, wire);
            self.tally.wire_bytes += moved;
            if moved == 0 {
                break;
            }
        }
    }

    fn tally(&self) -> Tally {
        self.tally
    }
    fn counters(&self) -> Counters {
        self.pair.counters()
    }
    fn health(&mut self) -> Health {
        self.pair.health()
    }
}

impl Echo1Conn {
    fn round_trips<T: Tracer>(
        &mut self,
        t: &mut T,
        ops: u64,
        lat: &mut Vec<u32>,
        mut capture: Option<&mut Capture>,
    ) -> u64 {
        let Pair { a, b, wire, msgs } = &mut self.pair;
        let before = self.tally.completed;
        let mut payload = [0u8; Self::PAYLOAD];
        for _ in 0..ops {
            t.begin_op(self.tally.attempted);
            self.arena
                .fill(0, self.tally.attempted as u32, &mut payload);
            self.tally.attempted += 1;
            let sent_at = Instant::now();
            self.tally.bad += a.io().send(t, &[&payload]);

            // Request: a → b, echoed from the delivered bytes.
            a.io().poll_tx(t, wire);
            self.tally.wire_bytes += wire.total_bytes();
            if let Some(c) = capture.as_deref_mut() {
                c.see(wire);
            }
            b.io().deliver(t, wire);
            b.io().poll_rx(t, msgs);
            for m in msgs.iter() {
                match self.at_b.accept(&self.arena, m) {
                    Some(_) => self.tally.bad += b.io().send(t, &[m]),
                    None => self.tally.bad += 1,
                }
            }
            b.io().recycle(t, msgs);

            // Reply: b → a.
            b.io().poll_tx(t, wire);
            self.tally.wire_bytes += wire.total_bytes();
            a.io().deliver(t, wire);
            a.io().poll_rx(t, msgs);
            let delivered = Instant::now();
            for m in msgs.iter() {
                match self.at_a.accept(&self.arena, m) {
                    Some(_) => {
                        self.tally.completed += 1;
                        push_latency(lat, sent_at, delivered);
                    }
                    None => self.tally.bad += 1,
                }
            }
            a.io().recycle(t, msgs);

            // The masked work: post phases run after the reply is in.
            a.io().post(t);
            b.io().post(t);
        }
        self.tally.completed - before
    }
}

// ---------------------------------------------------------------------
// 2. stream_pack and 3. bulk_16k: one-way streams over a Pair
// ---------------------------------------------------------------------

/// Backlog the packing stream keeps topped up (= `max_pack`).
const PACK_DEPTH: usize = 64;

pub struct StreamPack {
    pair: Pair,
    stream: Stream<8, PACK_DEPTH>,
}

impl World for StreamPack {
    const NAME: &'static str = "stream_pack";
    const SLICE_OPS: u64 = 409_600;
    const PAYLOAD: usize = 8;

    fn build(seed: u64, capture: &mut Capture) -> Self {
        let mut w = StreamPack {
            pair: Pair::new(seed),
            stream: Stream::new(seed),
        };
        let mut lat = Vec::new();
        w.passes(&mut Off, 256, &mut lat, true, Some(capture));
        w.passes(&mut Off, 32_768, &mut lat, true, None);
        w
    }

    fn run<T: Tracer>(&mut self, t: &mut T, ops: u64, lat: &mut Vec<u32>) -> u64 {
        self.passes(t, ops, lat, true, None)
    }

    fn settle(&mut self) {
        let mut lat = Vec::new();
        for _ in 0..256 {
            if self.stream.tally.completed == self.stream.tally.attempted
                && !self.pair.a.io().wants_post()
            {
                break;
            }
            self.passes(&mut Off, 1, &mut lat, false, None);
        }
    }

    fn tally(&self) -> Tally {
        self.stream.tally
    }
    fn counters(&self) -> Counters {
        self.pair.counters()
    }
    fn health(&mut self) -> Health {
        self.pair.health()
    }
}

impl StreamPack {
    /// Runs passes until `ops` more messages are verified at b. A pass
    /// tops a's backlog up to [`PACK_DEPTH`] (when `feed`), runs a's post
    /// work — which drains one packed frame — and carries it across.
    fn passes<T: Tracer>(
        &mut self,
        t: &mut T,
        ops: u64,
        lat: &mut Vec<u32>,
        feed: bool,
        mut capture: Option<&mut Capture>,
    ) -> u64 {
        let Pair { a, b, wire, msgs } = &mut self.pair;
        let before = self.stream.tally.completed;
        let mut idle = 0;
        while self.stream.tally.completed - before < ops && idle < 64 {
            t.begin_op(self.stream.tally.attempted);
            let done = self.stream.tally.completed;
            if feed {
                let room = PACK_DEPTH - a.backlog_len().min(PACK_DEPTH);
                self.stream.feed(t, a, room);
            }
            a.io().post(t);

            a.io().poll_tx(t, wire);
            self.stream.tally.wire_bytes += wire.total_bytes();
            if let Some(c) = capture.as_deref_mut() {
                c.see(wire);
            }
            if !wire.is_empty() {
                b.io().deliver(t, wire);
            }
            b.io().poll_rx(t, msgs);
            self.stream.check(msgs, lat);
            b.io().recycle(t, msgs);
            b.io().post(t);
            // Acknowledgements back to the sender.
            self.stream.tally.wire_bytes += shuttle(t, b, a, wire);
            idle = if self.stream.tally.completed == done {
                idle + 1
            } else {
                0
            };
        }
        self.stream.tally.completed - before
    }
}

pub struct Bulk16k {
    arena: Arena,
    pair: Pair,
    at_b: Expect,
    payload: Vec<u8>,
    tally: Tally,
}

impl World for Bulk16k {
    const NAME: &'static str = "bulk_16k";
    const SLICE_OPS: u64 = 3_072;
    const PAYLOAD: usize = 16 * 1024;

    fn build(seed: u64, capture: &mut Capture) -> Self {
        let mut w = Bulk16k {
            arena: Arena::new(seed),
            pair: Pair::new(seed),
            at_b: Expect::default(),
            payload: vec![0; Self::PAYLOAD],
            tally: Tally::default(),
        };
        let mut lat = Vec::new();
        w.transfers(&mut Off, 16, &mut lat, Some(capture));
        w.transfers(&mut Off, 512, &mut lat, None);
        w
    }

    fn run<T: Tracer>(&mut self, t: &mut T, ops: u64, lat: &mut Vec<u32>) -> u64 {
        self.transfers(t, ops, lat, None)
    }

    fn settle(&mut self) {
        for _ in 0..64 {
            if self.carry(&mut Off, None) == 0 {
                break;
            }
        }
    }

    fn tally(&self) -> Tally {
        self.tally
    }
    fn counters(&self) -> Counters {
        self.pair.counters()
    }
    fn health(&mut self) -> Health {
        self.pair.health()
    }
}

impl Bulk16k {
    /// One exchange: a's frames to b, b's deliveries checked, b's
    /// acknowledgements back, both sides' post work. Returns the bytes
    /// that crossed the wire.
    fn carry<T: Tracer>(&mut self, t: &mut T, capture: Option<&mut Capture>) -> u64 {
        let Pair { a, b, wire, msgs } = &mut self.pair;
        a.io().poll_tx(t, wire);
        let mut bytes = wire.total_bytes();
        if let Some(c) = capture {
            c.see(wire);
        }
        if !wire.is_empty() {
            b.io().deliver(t, wire);
        }
        b.io().poll_rx(t, msgs);
        for m in msgs.iter() {
            match self.at_b.accept(&self.arena, m) {
                Some(_) => self.tally.completed += 1,
                None => self.tally.bad += 1,
            }
        }
        b.io().recycle(t, msgs);
        b.io().post(t);
        bytes += shuttle(t, b, a, wire);
        a.io().post(t);
        self.tally.wire_bytes += bytes;
        bytes
    }

    fn transfers<T: Tracer>(
        &mut self,
        t: &mut T,
        ops: u64,
        lat: &mut Vec<u32>,
        mut capture: Option<&mut Capture>,
    ) -> u64 {
        let before = self.tally.completed;
        for _ in 0..ops {
            t.begin_op(self.tally.attempted);
            self.arena
                .fill(0, self.tally.attempted as u32, &mut self.payload);
            self.tally.attempted += 1;
            let sent_at = Instant::now();
            let sent = self.pair.a.io().send(t, &[&self.payload]);
            self.tally.bad += sent;
            let want = self.tally.completed + 1;
            for _ in 0..64 {
                self.carry(t, capture.as_deref_mut());
                if self.tally.completed >= want {
                    push_latency(lat, sent_at, Instant::now());
                    break;
                }
            }
        }
        self.tally.completed - before
    }
}

// ---------------------------------------------------------------------
// 4. fanin_16k and 5. churn: clients against one sharded endpoint
// ---------------------------------------------------------------------

const SHARDS: usize = 8;
const SERVER_HOST: u64 = 1;
const FIRST_CLIENT_HOST: u64 = 100;

/// A client connection, its server-side twin's handle, and the next
/// sequence number each of the three parties expects. A client's
/// payloads carry its slot in `Fleet::clients` as their connection id.
struct Client {
    conn: Conn,
    handle: Handle,
    sent: u32,
    server_next: u32,
    client_next: u32,
}

/// The sharded server, its clients, and the scratch one echo round
/// needs. Shared by `fanin_16k` and `churn`.
struct Fleet {
    arena: Arena,
    seed: u64,
    server: Sharded,
    clients: Vec<Client>,
    /// Host id of the next client built; never reused, so every
    /// connection's identification is unique.
    next_host: u64,
    wire: Batch,
    back: Batch,
    msgs: Batch,
    drained: Deliveries,
    sent_at: Vec<Instant>,
    tally: Tally,
}

impl Fleet {
    fn new(seed: u64, clients: usize) -> Fleet {
        let mut fleet = Fleet {
            arena: Arena::new(seed),
            seed,
            server: Sharded::new(SHARDS),
            clients: Vec::with_capacity(clients + 1),
            next_host: FIRST_CLIENT_HOST,
            wire: Batch::with_capacity(64),
            back: Batch::with_capacity(8),
            msgs: Batch::with_capacity(8),
            drained: Deliveries::with_capacity(64),
            sent_at: Vec::with_capacity(64),
            tally: Tally::default(),
        };
        for _ in 0..clients {
            fleet.connect(&mut Off);
        }
        fleet
    }

    /// Builds the next client and its server twin, admits the twin, and
    /// appends the client to `clients`.
    fn connect<T: Tracer>(&mut self, t: &mut T) {
        let host = self.next_host;
        self.next_host += 1;
        let conn = Conn::new(t, host, SERVER_HOST, mix(self.seed ^ (2 * host)));
        let twin = Conn::new(t, SERVER_HOST, host, mix(self.seed ^ (2 * host + 1)));
        let handle = self.server.admit(t, twin);
        self.clients.push(Client {
            conn,
            handle,
            sent: 0,
            server_next: 0,
            client_next: 0,
        });
    }

    /// One echo round over the clients at `slots` (distinct): every
    /// request goes to the server in one burst, every delivery is
    /// echoed, every reply is carried back and checked.
    /// `first_delivery` gets a latency sample when the round's requests
    /// reach the server; `lat` one per verified reply.
    fn round<T: Tracer>(
        &mut self,
        t: &mut T,
        slots: &[u32],
        mut lat: Option<&mut Vec<u32>>,
        first_delivery: Option<(&mut Vec<u32>, Instant)>,
        capture: Option<&mut Capture>,
    ) {
        let mut payload = [0u8; TAG_LEN];
        self.sent_at.clear();
        for &slot in slots {
            let c = &mut self.clients[slot as usize];
            self.arena.fill(slot, c.sent, &mut payload);
            c.sent += 1;
            self.sent_at.push(Instant::now());
            self.tally.bad += c.conn.io().send(t, &[&payload]);
            c.conn.io().poll_tx(t, &mut self.wire);
        }
        self.tally.wire_bytes += self.wire.total_bytes();
        if let Some(c) = capture {
            c.see(&self.wire);
        }

        self.server.ingest(t, &mut self.wire);
        self.server.drain(t, &mut self.drained);
        if let Some((lat, since)) = first_delivery {
            if self.drained.len() > 0 {
                push_latency(lat, since, Instant::now());
            }
        }
        for i in 0..self.drained.len() {
            let (bytes, handle) = (self.drained.bytes(i), self.drained.handle(i));
            let expected = self.arena.check(bytes).and_then(|(slot, seq)| {
                let c = self.clients.get_mut(slot as usize)?;
                (c.handle == handle && c.server_next == seq).then(|| c.server_next += 1)
            });
            let ok = expected.is_some() && self.server.send(t, handle, bytes);
            self.tally.bad += !ok as u64;
        }
        self.server.recycle(t, &mut self.drained);

        for (i, &slot) in slots.iter().enumerate() {
            let c = &mut self.clients[slot as usize];
            if let Some(mut twin) = self.server.conn(t, c.handle) {
                twin.poll_tx(t, &mut self.back);
            }
            self.tally.wire_bytes += self.back.total_bytes();
            if !self.back.is_empty() {
                c.conn.io().deliver(t, &mut self.back);
            }
            c.conn.io().poll_rx(t, &mut self.msgs);
            let delivered = Instant::now();
            for m in self.msgs.iter() {
                if self.arena.check(m) == Some((slot, c.client_next)) {
                    c.client_next += 1;
                    self.tally.completed += 1;
                    if let Some(lat) = lat.as_deref_mut() {
                        push_latency(lat, self.sent_at[i], delivered);
                    }
                } else {
                    self.tally.bad += 1;
                }
            }
            c.conn.io().recycle(t, &mut self.msgs);
            c.conn.io().post(t);
            if let Some(mut twin) = self.server.conn(t, c.handle) {
                twin.post(t);
            }
        }
    }

    /// Carries whatever is still queued, issuing nothing new; anything
    /// the server delivers now is a message nobody sent.
    fn settle(&mut self) {
        for c in &mut self.clients {
            c.conn.io().poll_tx(&mut Off, &mut self.wire);
        }
        self.tally.wire_bytes += self.wire.total_bytes();
        if !self.wire.is_empty() {
            self.server.ingest(&mut Off, &mut self.wire);
        }
        self.server.drain(&mut Off, &mut self.drained);
        self.tally.bad += self.drained.len() as u64;
        self.server.recycle(&mut Off, &mut self.drained);
    }

    fn handles(&self) -> Vec<Handle> {
        self.clients.iter().map(|c| c.handle).collect()
    }

    fn counters(&self, retired: &Counters) -> Counters {
        let mut c = *retired;
        for client in &self.clients {
            client.conn.count_into(&mut c);
        }
        self.server.count_into(&self.handles(), &mut c);
        c
    }

    fn health(&mut self) -> Health {
        let handles = self.handles();
        let mut h = self.server.health(&handles);
        for client in &mut self.clients {
            h.merge(client.conn.health());
        }
        h
    }
}

/// Clients that send in one round.
const FANIN_BURST: usize = 32;

pub struct Fanin16k {
    fleet: Fleet,
    picks: Rng,
}

impl World for Fanin16k {
    const NAME: &'static str = "fanin_16k";
    const SLICE_OPS: u64 = 3_072;
    const PAYLOAD: usize = 8;

    fn build(seed: u64, capture: &mut Capture) -> Self {
        const CLIENTS: u32 = 16_384;
        let mut fleet = Fleet::new(seed, CLIENTS as usize);
        // Two sweeps: the first carries every connection's ident and
        // settles it in its cookie's home shard, the second is the
        // first steady-state echo.
        let slots: Vec<u32> = (0..CLIENTS).collect();
        for sweep in 0..2 {
            for chunk in slots.chunks(FANIN_BURST) {
                let capture = (sweep == 1).then_some(&mut *capture);
                fleet.tally.attempted += chunk.len() as u64;
                fleet.round(&mut Off, chunk, None, None, capture);
            }
        }
        Fanin16k {
            fleet,
            picks: Rng::new(seed ^ 0xFA41),
        }
    }

    fn run<T: Tracer>(&mut self, t: &mut T, ops: u64, lat: &mut Vec<u32>) -> u64 {
        let before = self.fleet.tally.completed;
        let mut slots = [0u32; FANIN_BURST];
        for _ in 0..ops.div_ceil(FANIN_BURST as u64) {
            t.begin_op(self.fleet.tally.attempted);
            distinct(&mut self.picks, self.fleet.clients.len() as u32, &mut slots);
            self.fleet.tally.attempted += FANIN_BURST as u64;
            self.fleet.round(t, &slots, Some(&mut *lat), None, None);
        }
        self.fleet.tally.completed - before
    }

    fn settle(&mut self) {
        self.fleet.settle();
    }
    fn tally(&self) -> Tally {
        self.fleet.tally
    }
    fn counters(&self) -> Counters {
        self.fleet.counters(&Counters::default())
    }
    fn health(&mut self) -> Health {
        self.fleet.health()
    }
}

/// Echoes in one connection's life.
const CHURN_ECHOES: u32 = 4;

pub struct Churn {
    fleet: Fleet,
    /// Counters of connections already removed.
    retired: Counters,
    /// Ledger and quiescence verdicts of connections already removed.
    retired_health: Health,
}

impl World for Churn {
    const NAME: &'static str = "churn";
    const SLICE_OPS: u64 = 2_048;
    const PAYLOAD: usize = 8;
    const EXACT_ALLOCS: bool = false;

    fn build(seed: u64, capture: &mut Capture) -> Self {
        const STANDING: u32 = 1_024;
        let mut fleet = Fleet::new(seed, STANDING as usize);
        let slots: Vec<u32> = (0..STANDING).collect();
        for chunk in slots.chunks(FANIN_BURST) {
            fleet.round(&mut Off, chunk, None, None, None);
        }
        // The standing population is scenery from here on.
        fleet.tally = Tally::default();
        let mut w = Churn {
            fleet,
            retired: Counters::default(),
            retired_health: Health::default(),
        };
        let mut lat = Vec::new();
        w.lifecycles(&mut Off, 64, &mut lat, Some(capture));
        // Long enough for every router's tombstone list to fill.
        w.lifecycles(&mut Off, 12_288, &mut lat, None);
        w
    }

    fn run<T: Tracer>(&mut self, t: &mut T, ops: u64, lat: &mut Vec<u32>) -> u64 {
        self.lifecycles(t, ops, lat, None)
    }

    fn settle(&mut self) {
        self.fleet.settle();
    }
    fn tally(&self) -> Tally {
        self.fleet.tally
    }
    fn counters(&self) -> Counters {
        self.fleet.counters(&self.retired)
    }
    fn health(&mut self) -> Health {
        let mut h = self.fleet.health();
        h.merge(self.retired_health);
        h
    }
}

impl Churn {
    /// One op is one life: build both ends, admit, four echoes (the
    /// first carries the ident and binds the cookie, possibly migrating
    /// the connection), remove. Latency is `Connection::new` → first
    /// delivery at the server.
    fn lifecycles<T: Tracer>(
        &mut self,
        t: &mut T,
        ops: u64,
        lat: &mut Vec<u32>,
        mut capture: Option<&mut Capture>,
    ) -> u64 {
        let before = self.fleet.tally.completed;
        for _ in 0..ops {
            t.begin_op(self.fleet.tally.attempted);
            self.fleet.tally.attempted += 1;
            let born = Instant::now();
            self.fleet.connect(t);
            let slot = [self.fleet.clients.len() as u32 - 1];
            let echoed = self.fleet.tally.completed;
            for echo in 0..CHURN_ECHOES {
                let first = (echo == 0).then_some((&mut *lat, born));
                self.fleet
                    .round(t, &slot, None, first, capture.as_deref_mut());
            }
            // Four verified echoes make one completed life.
            let ok = self.fleet.tally.completed - echoed == CHURN_ECHOES as u64;
            self.fleet.tally.completed = echoed + ok as u64;

            let mut client = self.fleet.clients.pop().expect("just connected");
            match self.fleet.server.remove(t, client.handle) {
                Some(mut twin) => {
                    twin.count_into(&mut self.retired);
                    self.retired_health.merge(twin.health());
                }
                None => self.fleet.tally.bad += 1,
            }
            client.conn.count_into(&mut self.retired);
            self.retired_health.merge(client.conn.health());
        }
        self.fleet.tally.completed - before
    }
}

// ---------------------------------------------------------------------
// 6. lossy_stream
// ---------------------------------------------------------------------

/// Virtual time per pass.
const PASS_NS: u64 = 20_000;

pub struct LossyStream {
    pair: Pair,
    net: Lossy,
    now: u64,
    to_a: Batch,
    to_b: Batch,
    stream: Stream<8, PACK_DEPTH>,
}

impl World for LossyStream {
    const NAME: &'static str = "lossy_stream";
    const SLICE_OPS: u64 = 163_840;
    const PAYLOAD: usize = 8;

    fn build(seed: u64, capture: &mut Capture) -> Self {
        let mut w = LossyStream {
            pair: Pair::new(seed),
            net: Lossy::new(1, 2, mix(seed ^ 0x1055)),
            now: 0,
            to_a: Batch::with_capacity(64),
            to_b: Batch::with_capacity(64),
            stream: Stream::new(seed),
        };
        let mut lat = Vec::new();
        w.handshake(&mut lat);
        w.passes(&mut Off, 1_024, &mut lat, true, Some(capture));
        w.passes(&mut Off, 65_536, &mut lat, true, None);
        w
    }

    fn run<T: Tracer>(&mut self, t: &mut T, ops: u64, lat: &mut Vec<u32>) -> u64 {
        self.passes(t, ops, lat, true, None)
    }

    fn settle(&mut self) {
        // Long enough for several back-to-back retransmission timeouts.
        let mut lat = Vec::new();
        for _ in 0..200_000 {
            let idle = self.stream.tally.completed == self.stream.tally.attempted
                && self.net.in_flight() == 0
                && !self.pair.a.io().wants_post()
                && !self.pair.b.io().wants_post();
            if idle {
                break;
            }
            self.passes(&mut Off, 0, &mut lat, false, None);
        }
    }

    fn tally(&self) -> Tally {
        self.stream.tally
    }
    fn counters(&self) -> Counters {
        let mut c = self.pair.counters();
        self.net.count_into(&mut c);
        c
    }
    fn health(&mut self) -> Health {
        self.pair.health()
    }
}

impl LossyStream {
    /// Exchanges the first frames over a clean wire. Each end identifies
    /// itself on its first frame only (`ident_on_first` = 1, as in the
    /// paper); a receiver that loses that one frame never learns its
    /// peer's cookie and refuses everything after it (§2.2's
    /// first-message loss), which is a stuck connection, not the steady
    /// lossy traffic this workload measures.
    fn handshake(&mut self, lat: &mut Vec<u32>) {
        let Pair { a, b, wire, msgs } = &mut self.pair;
        // b's first frame is its first acknowledgement, owed after four
        // deliveries; twice that leaves both cookies bound.
        for _ in 0..8 {
            self.stream.feed(&mut Off, a, 1);
            a.io().post(&mut Off);
            self.stream.tally.wire_bytes += shuttle(&mut Off, a, b, wire);
            b.io().poll_rx(&mut Off, msgs);
            self.stream.check(msgs, lat);
            b.io().recycle(&mut Off, msgs);
            b.io().post(&mut Off);
            self.stream.tally.wire_bytes += shuttle(&mut Off, b, a, wire);
        }
    }

    /// Runs passes until `ops` more messages are verified at b (at
    /// least one pass). Each pass advances the virtual clock, feeds the
    /// sender, moves what the link releases, and ticks both ends.
    fn passes<T: Tracer>(
        &mut self,
        t: &mut T,
        ops: u64,
        lat: &mut Vec<u32>,
        feed: bool,
        mut capture: Option<&mut Capture>,
    ) -> u64 {
        let Pair { a, b, wire, msgs } = &mut self.pair;
        let before = self.stream.tally.completed;
        // A lost frame stalls the stream for one retransmission
        // timeout (250 passes); far more than that is a dead link.
        let mut idle = 0;
        loop {
            t.begin_op(self.stream.tally.attempted);
            let done = self.stream.tally.completed;
            self.now += PASS_NS;
            // Timers first: whatever they queue leaves with this pass.
            a.io().tick(t, self.now);
            b.io().tick(t, self.now);
            if feed {
                let room = PACK_DEPTH - a.backlog_len().min(PACK_DEPTH);
                if room > 0 {
                    self.stream.feed(t, a, room);
                }
            }
            a.io().post(t);
            a.io().poll_tx(t, wire);
            self.stream.tally.wire_bytes += wire.total_bytes();
            if let Some(c) = capture.as_deref_mut() {
                c.see(wire);
            }
            if !wire.is_empty() {
                self.net.send(t, true, wire, self.now);
            }

            self.net.recv(t, self.now, &mut self.to_a, &mut self.to_b);
            if !self.to_b.is_empty() {
                b.io().deliver(t, &mut self.to_b);
            }
            b.io().poll_rx(t, msgs);
            self.stream.check(msgs, lat);
            b.io().recycle(t, msgs);
            b.io().post(t);
            b.io().poll_tx(t, wire);
            self.stream.tally.wire_bytes += wire.total_bytes();
            if !wire.is_empty() {
                self.net.send(t, false, wire, self.now);
            }
            if !self.to_a.is_empty() {
                a.io().deliver(t, &mut self.to_a);
            }

            idle = if self.stream.tally.completed == done {
                idle + 1
            } else {
                0
            };
            if self.stream.tally.completed - before >= ops || idle > 100_000 {
                break;
            }
        }
        self.stream.tally.completed - before
    }
}

// ---------------------------------------------------------------------
// 7. udp_echo16
// ---------------------------------------------------------------------

/// Echoes kept in flight.
const UDP_DEPTH: usize = 16;
/// Consecutive passes with nothing moving before the timers get a turn
/// (a datagram the kernel dropped is only recovered by retransmission).
const UDP_STALL_PASSES: u32 = 50_000;
/// How far the connections' clock jumps then: past any backed-off RTO.
const UDP_STALL_JUMP_NS: u64 = 1_000_000_000;

pub struct UdpEcho16 {
    pair: Pair,
    net_a: Udp,
    net_b: Udp,
    rx: Batch,
    /// What the server expects; the stream's own check is the client's,
    /// on the echoes.
    at_b: Expect,
    stream: Stream<32, UDP_DEPTH>,
    now: u64,
}

impl World for UdpEcho16 {
    const NAME: &'static str = "udp_echo16";
    const SLICE_OPS: u64 = 57_344;
    const PAYLOAD: usize = 32;
    const EXACT_COUNTERS: bool = false;
    const EXACT_ALLOCS: bool = false;

    fn build(seed: u64, capture: &mut Capture) -> Self {
        let (net_a, net_b) = Udp::pair(1, 2).expect("binding two loopback UDP sockets");
        let mut w = UdpEcho16 {
            pair: Pair::new(seed),
            net_a,
            net_b,
            rx: Batch::with_capacity(64),
            at_b: Expect::default(),
            stream: Stream::new(seed),
            now: 0,
        };
        let mut lat = Vec::new();
        w.passes(&mut Off, 256, &mut lat, true, Some(capture));
        w.passes(&mut Off, 8_192, &mut lat, true, None);
        w
    }

    fn run<T: Tracer>(&mut self, t: &mut T, ops: u64, lat: &mut Vec<u32>) -> u64 {
        self.passes(t, ops, lat, true, None)
    }

    fn settle(&mut self) {
        let mut lat = Vec::new();
        let mut quiet = 0;
        for _ in 0..1_000_000 {
            let before = self.stream.tally.wire_bytes;
            self.passes(&mut Off, 0, &mut lat, false, None);
            let busy = self.stream.tally.wire_bytes != before
                || self.pair.a.io().wants_post()
                || self.pair.b.io().wants_post();
            quiet = if busy { 0 } else { quiet + 1 };
            // Loopback delivery is synchronous with the send; a handful
            // of silent passes in a row means nothing is left in flight.
            if self.stream.tally.completed == self.stream.tally.attempted && quiet >= 8 {
                break;
            }
        }
    }

    fn tally(&self) -> Tally {
        self.stream.tally
    }
    fn counters(&self) -> Counters {
        let mut c = self.pair.counters();
        self.net_a.count_into(&mut c);
        self.net_b.count_into(&mut c);
        c
    }
    fn health(&mut self) -> Health {
        self.pair.health()
    }
}

impl UdpEcho16 {
    /// Runs passes until `ops` more echoes are verified at a (at least
    /// one pass). One thread pumps both sockets: client sends, server
    /// receives and echoes, client receives.
    fn passes<T: Tracer>(
        &mut self,
        t: &mut T,
        ops: u64,
        lat: &mut Vec<u32>,
        feed: bool,
        mut capture: Option<&mut Capture>,
    ) -> u64 {
        let Pair { a, b, wire, msgs } = &mut self.pair;
        let before = self.stream.tally.completed;
        let mut stalled = 0u32;
        let mut timeouts = 0u32;
        loop {
            t.begin_op(self.stream.tally.attempted);
            let mut moved = 0;

            // Client: keep UDP_DEPTH echoes in flight.
            let in_flight = (self.stream.tally.attempted - self.stream.tally.completed) as usize;
            if feed && in_flight < UDP_DEPTH {
                self.stream.feed(t, a, UDP_DEPTH - in_flight);
            }
            a.io().post(t);
            a.io().poll_tx(t, wire);
            self.stream.tally.wire_bytes += wire.total_bytes();
            if let Some(c) = capture.as_deref_mut() {
                c.see(wire);
            }
            if !wire.is_empty() {
                moved += self.net_a.send(t, wire);
            }

            // Server: receive, deliver, echo every message back.
            if self.net_b.recv(t, 64, &mut self.rx) > 0 {
                moved += b.io().deliver(t, &mut self.rx);
            }
            b.io().poll_rx(t, msgs);
            let mut echoes: [&[u8]; UDP_DEPTH] = [&[]; UDP_DEPTH];
            let mut n = 0;
            for m in msgs.iter() {
                if n < UDP_DEPTH && self.at_b.accept(&self.stream.arena, m).is_some() {
                    echoes[n] = m;
                    n += 1;
                } else {
                    self.stream.tally.bad += 1;
                }
            }
            if n > 0 {
                self.stream.tally.bad += b.io().send(t, &echoes[..n]);
            }
            self.net_b.recycle(t, msgs);
            b.io().post(t);
            b.io().poll_tx(t, wire);
            self.stream.tally.wire_bytes += wire.total_bytes();
            if !wire.is_empty() {
                moved += self.net_b.send(t, wire);
            }

            // Client: receive and check the replies.
            if self.net_a.recv(t, 64, &mut self.rx) > 0 {
                moved += a.io().deliver(t, &mut self.rx);
            }
            a.io().poll_rx(t, msgs);
            self.stream.check(msgs, lat);
            self.net_a.recycle(t, msgs);

            if moved > 0 {
                stalled = 0;
            } else {
                stalled += 1;
                if stalled >= UDP_STALL_PASSES {
                    stalled = 0;
                    timeouts += 1;
                    self.now += UDP_STALL_JUMP_NS;
                    a.io().tick(t, self.now);
                    b.io().tick(t, self.now);
                }
            }
            if self.stream.tally.completed - before >= ops || timeouts > 8 {
                break;
            }
        }
        self.stream.tally.completed - before
    }
}
