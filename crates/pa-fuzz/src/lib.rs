//! Deterministic structure-aware wire fuzzer for the Protocol
//! Accelerator.
//!
//! The PA's premise is that the common-case deliver path is steered by
//! an 8-byte preamble plus a predicted header (§2.2, §3.2) — which
//! makes every one of those bytes attacker-controllable input. This
//! crate proves the ingest path total over that input:
//!
//! - [`mutate`] — structure-aware mutators (truncation, bit-flips,
//!   preamble/cookie forgery, byte-order flips, pack-header forgery,
//!   duplication, reordering, cross-connection splicing) driven by one
//!   [`SplitMix64`](pa_obs::rng::SplitMix64) seed,
//! - [`harness`] — a live two-connection world under a mutation storm,
//!   asserting after *every* injection that the demux and delivery
//!   ledgers reconcile exactly, no payload crosses connections, and
//!   the connections still pass traffic after the storm,
//! - [`churn`] — a seeded connection-lifecycle storm against the
//!   sharded demux: bind / traffic / re-key / remove cycles (optionally
//!   under mutation) asserting the router maps, stale ledgers, and
//!   buffer pools reconcile exactly and return to baseline,
//! - [`corpus`] — the committed regression corpus: every hostile input
//!   shape a fuzz campaign has flushed out, replayed as a test.
//!
//! Everything is deterministic: a failure prints its seed, iteration,
//! and a hexdump of the last frame injected ([`last_injection`]), and
//! re-running with the same seed reproduces it bit-for-bit. There is
//! no external dependency and no wall-clock randomness anywhere.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod corpus;
pub mod harness;
pub mod mutate;

/// The workspace PRNG, re-exported so fuzz tooling (and anything
/// replaying a committed corpus) names one generator: `pa_fuzz::rng`
/// *is* [`pa_obs::rng`] — same types, same streams. The committed
/// corpus entries are derived from these streams, so the stream
/// contract is pinned by `tests/rng_streams.rs`; a SplitMix64 change
/// that altered draw `k` of any seed would invalidate every committed
/// corpus and is a breaking change, not a refactor.
pub use pa_obs::rng;

pub use churn::{run_churn_campaign, ChurnConfig};
pub use corpus::{regression_corpus, replay_corpus};
pub use harness::{run_burst_campaign, run_campaign, run_udp_campaign, FuzzConfig};
pub use mutate::{apply, draw_mutation, hexdump, Mutation};

use std::cell::RefCell;

thread_local! {
    /// The last frame handed to a demux by this thread, kept so a panic
    /// hook can print the exact bytes that triggered a failure.
    static LAST_INJECTION: RefCell<Option<Vec<u8>>> = const { RefCell::new(None) };
}

/// Records `bytes` as the most recent injection on this thread (called
/// by the harness and corpus replay just before each demux call).
pub(crate) fn note_injection(bytes: &[u8]) {
    LAST_INJECTION.with(|c| *c.borrow_mut() = Some(bytes.to_vec()));
}

/// The most recent frame injected on this thread, if any — the panic
/// artifact for `fuzz_smoke`'s failure report.
pub fn last_injection() -> Option<Vec<u8>> {
    LAST_INJECTION.with(|c| c.borrow().clone())
}
