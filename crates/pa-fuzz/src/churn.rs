//! Connection-churn campaign: a seeded bind / traffic / re-key /
//! remove loop against a sharded demux, with optional hostile mutation
//! mixed in.
//!
//! The storm campaigns ([`crate::harness`]) hold the *population* fixed
//! and mutate the *bytes*; this campaign mutates the population. Every
//! cycle draws one lifecycle op — admit a connection, route traffic,
//! rotate a cookie (and immediately replay the retired one), remove a
//! connection (and poke its dead handle) — and the invariants are
//! checked at periodic checkpoints:
//!
//! - the router's ident map tracks the live population exactly and the
//!   live cookie map tracks the established population exactly — every
//!   removal pays its map entries back,
//! - retired-cookie state stays *bounded* (per-conn stale caps, FIFO
//!   tombstones) no matter how long the churn runs,
//! - shard buffer pools return to their retained-idle baseline once
//!   warmed — churn must not leak or strand buffers,
//! - the demux conservation law and the stale ledger identity hold on
//!   every shard at exact `==`.
//!
//! At the end the whole population is removed and the router must be
//! *empty* (live maps zero, only bounded tombstones left). Connections
//! are single-[`NullLayer`] on purpose: no window backpressure means a
//! clean frame must *always* route, so the campaign can assert exact
//! outcomes per op instead of merely surviving ([`crate::harness`]
//! covers full-stack resilience; this covers lifecycle bookkeeping).
//! A failure prints its seed and cycle for bit-exact reproduction.

use crate::mutate::{apply, draw_mutation};
use crate::note_injection;
use pa_buf::Msg;
use pa_core::conn::{Connection, ConnectionParams, DeliverOutcome, DropReason};
use pa_core::layer::NullLayer;
use pa_core::shard::{ShardDelivery, ShardHandle, ShardedEndpoint};
use pa_core::PaConfig;
use pa_obs::rng::{Rng, SplitMix64};
use pa_wire::{ByteOrder, Cookie, EndpointAddr, Preamble};
use std::collections::HashMap;
use std::fmt;

/// Parameters of a churn campaign.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Master seed (the reproduction handle).
    pub seed: u64,
    /// Lifecycle cycles to run.
    pub cycles: u64,
    /// Live-population cap.
    pub max_live: usize,
    /// Demux shards (power of two).
    pub shards: usize,
    /// Probability an established-connection traffic frame is mutated
    /// before injection (0.0 = the surgical, exactly-accounted mode).
    /// Ident-carrying and re-key frames are always injected clean —
    /// bindings only ever change through verified frames, which keeps
    /// the cookie-map population assertions exact even under hostility.
    pub mutate_ratio: f64,
}

impl ChurnConfig {
    /// Default shape: 4 shards, up to 48 live connections, surgical.
    pub fn new(seed: u64, cycles: u64) -> ChurnConfig {
        ChurnConfig {
            seed,
            cycles,
            max_live: 48,
            shards: 4,
            mutate_ratio: 0.0,
        }
    }
}

/// What a churn campaign did.
#[derive(Debug, Clone, Default)]
pub struct ChurnReport {
    /// The master seed.
    pub seed: u64,
    /// Cycles run.
    pub cycles: u64,
    /// Connections admitted over the whole run.
    pub admitted: u64,
    /// Connections removed (all of them, by the end).
    pub removed: u64,
    /// Cookie rotations performed.
    pub rekeys: u64,
    /// Clean traffic frames routed.
    pub routed: u64,
    /// Mutated frames injected.
    pub mutated: u64,
    /// Replays of retired cookies refused as stale.
    pub stale_replays: u64,
    /// Operations refused through dead handles.
    pub dead_handle_pokes: u64,
    /// Application messages delivered.
    pub delivered: u64,
    /// Deliveries whose payload tag did not match the connection
    /// (possible only after a payload-corrupting mutation).
    pub garbled: u64,
    /// Peak live population observed.
    pub peak_live: usize,
    /// Peak stale+tombstone entries observed across shards.
    pub peak_retired: usize,
}

impl fmt::Display for ChurnReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "churn campaign seed={:#x} cycles={} admitted={} removed={} rekeys={}",
            self.seed, self.cycles, self.admitted, self.removed, self.rekeys
        )?;
        writeln!(
            f,
            "  routed={} mutated={} delivered={} garbled={} stale_replays={} dead_pokes={}",
            self.routed,
            self.mutated,
            self.delivered,
            self.garbled,
            self.stale_replays,
            self.dead_handle_pokes
        )?;
        write!(
            f,
            "  peak_live={} peak_retired={}",
            self.peak_live, self.peak_retired
        )
    }
}

const SERVER_HOST: u64 = 10;
const TICK: u64 = 1_000_000;
/// `MsgPool::with_defaults` retains this many free buffers; the pool
/// baseline is taken once every shard's idle list has filled to it.
const POOL_RETAINED: usize = 64;

/// One live member of the churning population.
struct Member {
    conn: Connection,
    handle: ShardHandle,
    /// Unique per-admission tag, stamped into every payload.
    key: u64,
    established: bool,
}

struct Driver {
    cfg: ChurnConfig,
    server: ShardedEndpoint,
    members: Vec<Member>,
    /// handle → payload key, for the cross-connection delivery check.
    expect: HashMap<ShardHandle, u64>,
    rng: SplitMix64,
    next_key: u64,
    clock: u64,
    corrupting_seen: bool,
    report: ChurnReport,
    pool_baseline: Option<Vec<usize>>,
}

fn payload_for(key: u64, nonce: u64) -> Vec<u8> {
    let mut p = key.to_be_bytes().to_vec();
    p.extend_from_slice(&key.to_be_bytes());
    p.extend_from_slice(&nonce.to_be_bytes());
    p
}

fn payload_key(bytes: &[u8]) -> Option<u64> {
    if bytes.len() != 24 || bytes[..8] != bytes[8..16] {
        return None;
    }
    Some(u64::from_be_bytes(bytes[..8].try_into().expect("8 bytes")))
}

impl Driver {
    fn new(cfg: ChurnConfig) -> Driver {
        Driver {
            server: ShardedEndpoint::new(cfg.shards),
            members: Vec::new(),
            expect: HashMap::new(),
            rng: SplitMix64::new(cfg.seed),
            next_key: 1,
            clock: 0,
            corrupting_seen: false,
            report: ChurnReport {
                seed: cfg.seed,
                ..ChurnReport::default()
            },
            pool_baseline: None,
            cfg,
        }
    }

    fn admit(&mut self) {
        let key = self.next_key;
        self.next_key += 1;
        let host = key + 100; // distinct address per admission
        let mk = |local: u64, peer: u64, seed: u64| {
            Connection::new(
                vec![Box::new(NullLayer)],
                PaConfig::paper_default(),
                ConnectionParams::new(
                    EndpointAddr::from_parts(local, 1),
                    EndpointAddr::from_parts(peer, 1),
                    seed,
                ),
            )
            .expect("single-layer stack builds")
        };
        let client = mk(host, SERVER_HOST, key.wrapping_mul(2) + 1);
        let server_side = mk(SERVER_HOST, host, key.wrapping_mul(2) + 2);
        let handle = self.server.add_connection(server_side);
        self.expect.insert(handle, key);
        self.members.push(Member {
            conn: client,
            handle,
            key,
            established: false,
        });
        self.report.admitted += 1;
        self.report.peak_live = self.report.peak_live.max(self.members.len());
    }

    /// Sends one payload from member `i`. Established-connection frames
    /// may be mutated (hostile mode); ident-carrying first frames are
    /// always injected clean so establishment is never in doubt.
    fn traffic(&mut self, i: usize) {
        let m = &mut self.members[i];
        let nonce = self.rng.next_u64() >> 8;
        m.conn.send(&payload_for(m.key, nonce));
        let Some(frame) = m.conn.poll_transmit() else {
            m.conn.process_pending();
            return;
        };
        let may_mutate = m.established;
        m.established = true;
        let bytes = frame.to_wire();
        m.conn.process_pending();
        if may_mutate && self.cfg.mutate_ratio > 0.0 && self.rng.gen_bool(self.cfg.mutate_ratio) {
            let mutation = draw_mutation(&mut self.rng);
            if mutation.corrupts_payload() {
                self.corrupting_seen = true;
            }
            let mutated = apply(mutation, &mut self.rng, &bytes, None);
            note_injection(&mutated);
            self.server.from_network(Msg::from_wire(mutated));
            self.report.mutated += 1;
        } else {
            note_injection(&bytes);
            let out = self.server.from_network(Msg::from_wire(bytes));
            assert!(
                !matches!(out, DeliverOutcome::Dropped(_)),
                "clean frame dropped (seed={:#x}): {out:?}",
                self.cfg.seed
            );
            self.report.routed += 1;
        }
    }

    /// Rotates member `i`'s cookie, lands the rotation, then replays
    /// the retired cookie — which must be refused as stale by whichever
    /// shard it hashes to, immediately, every time.
    fn rekey(&mut self, i: usize) {
        let m = &mut self.members[i];
        if !m.established {
            return;
        }
        let old = m.conn.local_cookie().raw();
        m.conn.rotate_cookie(self.rng.next_u64());
        self.report.rekeys += 1;
        let nonce = self.rng.next_u64() >> 8;
        m.conn.send(&payload_for(m.key, nonce));
        if let Some(frame) = m.conn.poll_transmit() {
            let out = self.server.from_network(frame);
            assert!(
                !matches!(out, DeliverOutcome::Dropped(_)),
                "re-key frame dropped (seed={:#x}): {out:?}",
                self.cfg.seed
            );
            self.report.routed += 1;
        }
        m.conn.process_pending();

        let mut wire = Preamble::common(Cookie::from_raw(old), ByteOrder::Big)
            .encode()
            .to_vec();
        wire.extend_from_slice(b"churn replay");
        note_injection(&wire);
        let out = self.server.from_network(Msg::from_wire(wire));
        assert_eq!(
            out,
            DeliverOutcome::Dropped(DropReason::StaleCookie),
            "retired cookie not stale (seed={:#x})",
            self.cfg.seed
        );
        self.report.stale_replays += 1;
    }

    fn remove(&mut self, i: usize) {
        let m = self.members.swap_remove(i);
        self.expect.remove(&m.handle);
        self.server
            .remove_connection(m.handle)
            .expect("live member removes");
        self.report.removed += 1;
        // Poke the dead handle: refused, never misrouted.
        assert!(self.server.try_send(m.handle, b"late").is_err());
        self.report.dead_handle_pokes += 1;
    }

    fn drain(&mut self) {
        let mut out: Vec<ShardDelivery> = Vec::new();
        self.server.drain_deliveries(&mut out);
        for d in out {
            self.report.delivered += 1;
            match payload_key(d.msg.as_slice()) {
                Some(key) if Some(&key) == self.expect.get(&d.conn) => {}
                _ => {
                    assert!(
                        self.corrupting_seen,
                        "cross-connection or garbled delivery without corrupting \
                         mutation (seed={:#x})",
                        self.cfg.seed
                    );
                    self.report.garbled += 1;
                }
            }
            self.server.recycle_delivery(d);
        }
    }

    /// The invariant lattice, checked at every checkpoint.
    fn check(&mut self, cycle: u64) {
        let seed = self.cfg.seed;
        assert!(
            self.server.demux_balanced(),
            "demux imbalance (seed={seed:#x} cycle={cycle})"
        );
        let mut idents = 0;
        let mut cookies = 0;
        let mut retired = 0;
        for s in 0..self.cfg.shards {
            let r = self.server.shard(s).router();
            assert!(
                r.stale_ledger_reconciles(),
                "stale ledger broken on shard {s} (seed={seed:#x} cycle={cycle})"
            );
            idents += r.ident_count();
            cookies += r.cookie_count();
            retired += r.stale_count() + r.tombstone_count();
        }
        self.report.peak_retired = self.report.peak_retired.max(retired);
        assert_eq!(
            idents,
            self.members.len(),
            "router idents != live population (seed={seed:#x} cycle={cycle})"
        );
        // Bindings change only through verified (always-clean) frames,
        // so the live cookie map tracks establishment exactly even in
        // hostile mode.
        let established = self.members.iter().filter(|m| m.established).count();
        assert_eq!(
            cookies, established,
            "live cookies != established members (seed={seed:#x} cycle={cycle})"
        );
        // Pool accounting: the flux identity holds always; once every
        // shard's free list has filled to its retained cap, the idle
        // counts must sit at exactly that baseline at every subsequent
        // checkpoint (all deliveries drained) — churn must not leak or
        // strand buffers.
        let idle: Vec<usize> = (0..self.cfg.shards)
            .map(|s| self.server.shard_pool_idle(s))
            .collect();
        for (s, &n) in idle.iter().enumerate() {
            let st = self.server.shard_pool_stats(s);
            assert_eq!(
                n as u64,
                st.returns - st.hits - st.capped,
                "pool flux identity broken on shard {s} (seed={seed:#x} cycle={cycle})"
            );
        }
        match &self.pool_baseline {
            None => {
                if idle.iter().all(|&n| n >= POOL_RETAINED) {
                    self.pool_baseline = Some(idle);
                }
            }
            Some(base) => {
                assert_eq!(
                    &idle, base,
                    "pool idle diverged from baseline (seed={seed:#x} cycle={cycle})"
                );
            }
        }
    }

    fn run(mut self) -> ChurnReport {
        // Seed population.
        for _ in 0..self.cfg.max_live / 2 {
            self.admit();
        }
        for cycle in 0..self.cfg.cycles {
            match self.rng.gen_index(16) {
                0..=1 => {
                    if self.members.len() < self.cfg.max_live {
                        self.admit();
                    }
                }
                2 => {
                    if !self.members.is_empty() {
                        let i = self.rng.gen_index(self.members.len());
                        self.rekey(i);
                    }
                }
                3 => {
                    if self.members.len() > 1 {
                        let i = self.rng.gen_index(self.members.len());
                        self.remove(i);
                    }
                }
                _ => {
                    if !self.members.is_empty() {
                        let i = self.rng.gen_index(self.members.len());
                        self.traffic(i);
                    }
                }
            }
            if cycle % 64 == 0 {
                self.clock += TICK;
                self.server.tick(self.clock);
                self.drain();
            }
            if cycle % 1024 == 0 {
                self.drain();
                self.check(cycle);
            }
        }
        // Tear the whole population down: the router must pay every
        // map entry back.
        self.drain();
        while !self.members.is_empty() {
            let i = self.members.len() - 1;
            self.remove(i);
        }
        self.drain();
        self.check(self.cfg.cycles);
        let seed = self.cfg.seed;
        assert_eq!(self.server.connection_count(), 0);
        for s in 0..self.cfg.shards {
            let r = self.server.shard(s).router();
            assert_eq!(r.ident_count(), 0, "idents leaked (seed={seed:#x})");
            assert_eq!(r.cookie_count(), 0, "cookies leaked (seed={seed:#x})");
            // `stale_count` counts owned entries plus tombstones; with
            // every owner gone, only tombstones may remain.
            assert_eq!(
                r.stale_count(),
                r.tombstone_count(),
                "owned stale entries leaked (seed={seed:#x})"
            );
            // Tombstones of migrated-then-removed conns are the one
            // thing allowed to remain — and they are FIFO-bounded.
            assert!(
                r.tombstone_count() <= 1024,
                "tombstones unbounded (seed={seed:#x})"
            );
        }
        self.report.cycles = self.cfg.cycles;
        self.report
    }
}

/// Runs a churn campaign and returns its report. Panics (with seed and
/// cycle) on any invariant breach.
pub fn run_churn_campaign(cfg: &ChurnConfig) -> ChurnReport {
    Driver::new(*cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_surgical_churn_reconciles() {
        let report = run_churn_campaign(&ChurnConfig::new(0xC4E4_2026, 4_000));
        assert!(
            report.admitted > report.peak_live as u64,
            "population churned: {report}"
        );
        assert_eq!(report.removed, report.admitted, "everyone left: {report}");
        assert!(report.rekeys > 0 && report.stale_replays == report.rekeys);
        assert!(report.delivered > 0);
        assert_eq!(report.garbled, 0, "surgical mode never garbles");
    }

    #[test]
    fn short_hostile_churn_survives() {
        let mut cfg = ChurnConfig::new(0xBAD_C4E4, 4_000);
        cfg.mutate_ratio = 0.2;
        let report = run_churn_campaign(&cfg);
        assert!(report.mutated > 0, "{report}");
        assert_eq!(report.removed, report.admitted, "{report}");
    }
}
