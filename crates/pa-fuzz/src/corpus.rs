//! The committed regression corpus.
//!
//! Every hostile input shape a fuzz campaign has flushed out lives
//! here as a named, deterministic byte string (either literal bytes or
//! a fixed-seed mutation of a canonically generated frame). The corpus
//! replays on every test run and in CI's `fuzz-smoke` step, so a decode
//! path that regresses to panicking or mis-accounting fails loudly with
//! the corpus entry's name.

use crate::mutate::{apply, Mutation};
use crate::note_injection;
use pa_buf::Msg;
use pa_core::config::PaConfig;
use pa_core::conn::{Connection, ConnectionParams};
use pa_core::packing::PackInfo;
use pa_core::ShardedEndpoint;
use pa_obs::rng::SplitMix64;
use pa_stack::StackSpec;
use pa_wire::{EndpointAddr, Preamble};

/// One committed hostile input.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Stable name (appears in failure messages).
    pub name: &'static str,
    /// The frame bytes, as they would arrive from the network.
    pub bytes: Vec<u8>,
}

/// Builds a canonical world (one paper-stack connection pair) and
/// captures the client's first wire frame — the donor that the
/// mutation-derived corpus entries are built from.
fn canonical_frame() -> Vec<u8> {
    let mk = |l: u64, p: u64, s: u64| {
        Connection::new(
            StackSpec::paper().build(),
            PaConfig::paper_default(),
            ConnectionParams::new(
                EndpointAddr::from_parts(l, 7),
                EndpointAddr::from_parts(p, 7),
                s,
            ),
        )
        .expect("paper stack builds")
    };
    let mut a = mk(1, 10, 0xC0C0_0001);
    a.send(b"canonical corpus frame payload");
    a.poll_transmit().expect("first frame").to_wire()
}

/// The regression corpus: literal shapes plus fixed-seed mutations of
/// the canonical frame (one per mutation class).
pub fn regression_corpus() -> Vec<CorpusEntry> {
    let mut out = vec![
        CorpusEntry {
            name: "empty",
            bytes: Vec::new(),
        },
        CorpusEntry {
            name: "truncated-preamble",
            bytes: vec![0xDE, 0xAD, 0xBE],
        },
        CorpusEntry {
            // The reserved all-zero cookie: unmintable by a legitimate
            // sender, must be refused at demux.
            name: "zero-cookie",
            bytes: {
                let mut b = 0u64.to_be_bytes().to_vec();
                b.extend_from_slice(&[0x55; 24]);
                b
            },
        },
        CorpusEntry {
            // Zero cookie *with* the conn-ident bit — the zero-cookie
            // check must win before any ident probing.
            name: "zero-cookie-with-ident-bit",
            bytes: {
                let mut b = (1u64 << 63).to_be_bytes().to_vec();
                b.extend_from_slice(&[0x55; 24]);
                b
            },
        },
        CorpusEntry {
            name: "unknown-cookie",
            bytes: {
                let mut b = 0x0000_1234_5678_9ABCu64.to_be_bytes().to_vec();
                b.extend_from_slice(&[0x77; 16]);
                b
            },
        },
        CorpusEntry {
            name: "unknown-cookie-little-endian-bit",
            bytes: {
                let mut b = ((1u64 << 62) | 0x1234_5678).to_be_bytes().to_vec();
                b.extend_from_slice(&[0x77; 16]);
                b
            },
        },
        CorpusEntry {
            // Claims an ident but has zero bytes after the preamble:
            // must be a truncated-ident reject, not an indexing panic.
            name: "ident-claimed-no-ident-bytes",
            bytes: ((1u64 << 63) | 0x0BAD_CAFE).to_be_bytes().to_vec(),
        },
        CorpusEntry {
            // §3.4 SameSize pack header with an amplified count and
            // zero size — the 65 535-empty-pieces forgery.
            name: "pack-forge-same-size-65535x0",
            bytes: vec![1, 0xFF, 0xFF, 0, 0, 0, 0, 0x41, 0x42],
        },
        CorpusEntry {
            // Horus-style kind-2 pack header claiming 65 535 pieces on a
            // 10-byte body: an unknown kind, refused at its first byte.
            name: "pack-forge-variable-65535",
            bytes: vec![2, 0xFF, 0xFF, 0, 0, 0, 1, 0, 0, 0],
        },
        CorpusEntry {
            // `greeting-*`: blobs of a retired out-of-band format.
            name: "greeting-truncated",
            bytes: b"PAg1\x00\x01".to_vec(),
        },
        CorpusEntry {
            // Its length prefix promises far more ident bytes than
            // follow.
            name: "greeting-forged-ident-len",
            bytes: {
                let mut b = b"PAg1".to_vec();
                b.extend_from_slice(&0x0102_0304_0506_0708u64.to_be_bytes());
                b.extend_from_slice(&0xFFFFu16.to_be_bytes());
                b.extend_from_slice(b"short");
                b
            },
        },
    ];
    // One fixed-seed mutation of the canonical frame per mutation
    // class: the structured half of the corpus.
    let donor_world = canonical_frame();
    for (k, m) in Mutation::ALL.into_iter().enumerate() {
        let mut rng = SplitMix64::new(0xC0_4955 + k as u64);
        out.push(CorpusEntry {
            name: m.name(),
            bytes: apply(m, &mut rng, &donor_world, Some(&donor_world)),
        });
    }
    out
}

/// Replays `entries` against every total decode surface and a live
/// endpoint (single-table, then sharded), asserting that nothing panics and the demux ledger still
/// reconciles after each entry. Returns the number of entries replayed.
pub fn replay_corpus(entries: &[CorpusEntry]) -> usize {
    for shards in [1, 8] {
        replay_against(entries, ShardedEndpoint::new(shards));
    }
    entries.len()
}

fn replay_against(entries: &[CorpusEntry], mut server: ShardedEndpoint) {
    // A victim endpoint with one real connection, so demux has live
    // state to defend.
    let h = server.add_connection(
        Connection::new(
            StackSpec::paper().build(),
            PaConfig::paper_default(),
            ConnectionParams::new(
                EndpointAddr::from_parts(10, 7),
                EndpointAddr::from_parts(1, 7),
                0xBEEF_0001,
            ),
        )
        .expect("paper stack builds"),
    );
    for e in entries {
        note_injection(&e.bytes);
        // Every stand-alone decoder must be total over the entry.
        let _ = Preamble::decode(&e.bytes);
        let _ = EndpointAddr::decode(&e.bytes);
        let _ = PackInfo::decode(&e.bytes);
        // And the live demux must stay balanced.
        let _ = server.from_network(Msg::from_wire(e.bytes.clone()));
        server.process_all_pending();
        server.drain_deliveries(&mut Vec::new());
        assert!(
            server.demux_balanced(),
            "demux imbalance after corpus entry `{}`",
            e.name
        );
        let s = server.try_conn(h).expect("never removed").stats();
        assert!(
            s.delivery_balanced(),
            "delivery imbalance after corpus entry `{}`: {s}",
            e.name
        );
        assert!(
            s.rejects_reconcile(),
            "reject ledger mismatch after corpus entry `{}`: {s}",
            e.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_obs::RejectReason;

    #[test]
    fn corpus_replays_clean() {
        let entries = regression_corpus();
        assert!(entries.len() >= 11 + Mutation::COUNT);
        assert_eq!(replay_corpus(&entries), entries.len());
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = regression_corpus();
        let b = regression_corpus();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.bytes, y.bytes, "{}", x.name);
        }
    }

    #[test]
    fn literal_entries_hit_their_intended_rejections() {
        use pa_core::conn::DeliverOutcome;
        let mut server = ShardedEndpoint::new(1);
        server.add_connection(
            Connection::new(
                StackSpec::paper().build(),
                PaConfig::paper_default(),
                ConnectionParams::new(
                    EndpointAddr::from_parts(10, 7),
                    EndpointAddr::from_parts(1, 7),
                    0xBEEF_0002,
                ),
            )
            .expect("paper stack builds"),
        );
        let by_name = |n: &str| {
            regression_corpus()
                .into_iter()
                .find(|e| e.name == n)
                .expect("entry exists")
                .bytes
        };
        let mut feed = |n: &str| server.from_network(Msg::from_wire(by_name(n)));
        assert_eq!(
            feed("empty"),
            DeliverOutcome::Dropped(RejectReason::TruncatedPreamble)
        );
        assert_eq!(
            feed("truncated-preamble"),
            DeliverOutcome::Dropped(RejectReason::TruncatedPreamble)
        );
        assert_eq!(
            feed("zero-cookie"),
            DeliverOutcome::Dropped(RejectReason::ZeroCookie)
        );
        assert_eq!(
            feed("zero-cookie-with-ident-bit"),
            DeliverOutcome::Dropped(RejectReason::ZeroCookie)
        );
        assert_eq!(
            feed("unknown-cookie"),
            DeliverOutcome::Dropped(RejectReason::UnknownCookie)
        );
        assert_eq!(
            feed("unknown-cookie-little-endian-bit"),
            DeliverOutcome::Dropped(RejectReason::UnknownCookie)
        );
        assert_eq!(
            feed("ident-claimed-no-ident-bytes"),
            DeliverOutcome::Dropped(RejectReason::TruncatedIdent)
        );
        assert!(server.demux_balanced());
    }

    #[test]
    fn forged_pack_headers_reject_without_allocating() {
        let by_name = |n: &str| {
            regression_corpus()
                .into_iter()
                .find(|e| e.name == n)
                .expect("entry exists")
                .bytes
        };
        assert!(PackInfo::decode(&by_name("pack-forge-same-size-65535x0")).is_err());
        assert!(PackInfo::decode(&by_name("pack-forge-variable-65535")).is_err());
    }
}
