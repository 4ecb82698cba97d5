//! Cross-endpoint causal journeys.
//!
//! A *journey* is the life of one wire frame across endpoints: the
//! sender stamps a journey id (and hop counter) into the frame's
//! Message-specific header via the PA's own `add_field`/packet-filter
//! machinery, and both sides emit [`TraceEvent::JourneySend`] /
//! [`TraceEvent::JourneyDeliver`] into their [`TraceRing`]s. This
//! module joins those per-endpoint rings back into causal timelines:
//! for every journey id, the send event and the deliver event form one
//! *hop leg* with a measurable one-way latency.
//!
//! Journey ids are `(origin_tag << 32) | seq`: the origin tag is
//! derived from the sending connection (its cookie), so ids minted by
//! different connections never collide and reconstruction can never
//! pair a send from one connection with a deliver belonging to
//! another (see the pairing proptest in `tests/trace_journeys.rs`).

use crate::event::{Nanos, TraceEvent};
use crate::ring::{merge_timeline, TraceRing};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Composes a journey id from an origin tag and a per-origin sequence.
pub fn journey_id(origin: u32, seq: u32) -> u64 {
    ((origin as u64) << 32) | seq as u64
}

/// The origin tag of a journey id (high 32 bits).
pub fn journey_origin(id: u64) -> u32 {
    (id >> 32) as u32
}

/// The per-origin sequence of a journey id (low 32 bits).
pub fn journey_seq(id: u64) -> u32 {
    (id & 0xFFFF_FFFF) as u32
}

/// Renders a journey id as `origin:seq`.
pub fn render_journey_id(id: u64) -> String {
    format!("{}:{}", journey_origin(id), journey_seq(id))
}

/// One hop of a journey: a send event, optionally joined with the
/// deliver event observed at the far endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopLeg {
    /// Hop counter as stamped on the wire (0 at the origin).
    pub hop: u8,
    /// When the frame left the sender.
    pub sent_at: Nanos,
    /// Ring label (host id) of the sending connection.
    pub sent_conn: u32,
    /// When the frame was accepted by the receiver (`None`: lost, or
    /// the receive event fell off the receiver's ring).
    pub recv_at: Option<Nanos>,
    /// Ring label of the receiving connection.
    pub recv_conn: Option<u32>,
}

impl HopLeg {
    /// One-way latency of this hop, if the hop completed.
    pub fn latency(&self) -> Option<Nanos> {
        self.recv_at.map(|r| r.saturating_sub(self.sent_at))
    }

    /// True if both ends of the hop were observed.
    pub(crate) fn is_complete(&self) -> bool {
        self.recv_at.is_some()
    }
}

/// One reconstructed journey: every observed hop of one wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Journey {
    /// The id stamped into the frame.
    pub id: u64,
    /// Hops in hop-counter order.
    pub hops: Vec<HopLeg>,
}

impl Journey {
    /// True if every hop has both a send and a deliver event.
    pub(crate) fn is_complete(&self) -> bool {
        !self.hops.is_empty() && self.hops.iter().all(|h| h.is_complete())
    }

    /// When the journey started (first hop's send).
    pub(crate) fn started_at(&self) -> Nanos {
        self.hops.first().map(|h| h.sent_at).unwrap_or(0)
    }

    /// End-to-end latency: last deliver − first send (complete only).
    pub fn total_latency(&self) -> Option<Nanos> {
        if !self.is_complete() {
            return None;
        }
        let first = self.hops.first()?.sent_at;
        let last = self.hops.iter().filter_map(|h| h.recv_at).max()?;
        Some(last.saturating_sub(first))
    }
}

/// All journeys reconstructed from a set of trace rings.
#[derive(Debug, Clone, Default)]
pub struct JourneySet {
    journeys: Vec<Journey>,
    /// Deliver events whose send was never observed (ring overflow,
    /// or a sender traced without a ring).
    pub orphan_delivers: u64,
}

impl JourneySet {
    /// Joins the journey events of `rings` into causal journeys.
    ///
    /// Events are taken from the deterministic merged timeline (ordered
    /// by `(at, conn, seq)`), so the result is independent of the order
    /// events were inserted into the rings, and of the order the rings
    /// are passed in.
    pub fn reconstruct(rings: &[&TraceRing]) -> JourneySet {
        let mut legs: BTreeMap<(u64, u8), HopLeg> = BTreeMap::new();
        let mut orphan_delivers = 0u64;
        for rec in merge_timeline(rings) {
            match rec.event {
                TraceEvent::JourneySend { journey, hop } => {
                    legs.entry((journey, hop)).or_insert(HopLeg {
                        hop,
                        sent_at: rec.at,
                        sent_conn: rec.conn,
                        recv_at: None,
                        recv_conn: None,
                    });
                }
                TraceEvent::JourneyDeliver { journey, hop } => {
                    match legs.get_mut(&(journey, hop)) {
                        // First deliver wins (wire duplicates arrive
                        // later in the merged order).
                        Some(leg) if leg.recv_at.is_none() => {
                            leg.recv_at = Some(rec.at);
                            leg.recv_conn = Some(rec.conn);
                        }
                        Some(_) => {}
                        None => orphan_delivers += 1,
                    }
                }
                _ => {}
            }
        }
        let mut by_id: BTreeMap<u64, Journey> = BTreeMap::new();
        for ((id, _), leg) in legs {
            by_id
                .entry(id)
                .or_insert_with(|| Journey {
                    id,
                    hops: Vec::new(),
                })
                .hops
                .push(leg);
        }
        let mut journeys: Vec<Journey> = by_id.into_values().collect();
        for j in &mut journeys {
            j.hops.sort_by_key(|h| h.hop);
        }
        journeys.sort_by_key(|j| (j.started_at(), j.id));
        JourneySet {
            journeys,
            orphan_delivers,
        }
    }

    /// The journeys, ordered by start time then id.
    pub fn journeys(&self) -> &[Journey] {
        &self.journeys
    }

    /// Looks a journey up by id.
    pub fn get(&self, id: u64) -> Option<&Journey> {
        self.journeys.iter().find(|j| j.id == id)
    }

    /// Number of journeys observed (complete or not).
    pub fn len(&self) -> usize {
        self.journeys.len()
    }

    /// True if no journeys were observed.
    pub fn is_empty(&self) -> bool {
        self.journeys.is_empty()
    }

    /// Number of journeys whose every hop completed.
    pub fn complete_count(&self) -> usize {
        self.journeys.iter().filter(|j| j.is_complete()).count()
    }

    /// Fraction of journeys that completed (1.0 when none observed).
    pub fn completeness(&self) -> f64 {
        if self.journeys.is_empty() {
            return 1.0;
        }
        self.complete_count() as f64 / self.journeys.len() as f64
    }

    /// Renders a per-hop latency waterfall: one line per hop, time
    /// offsets relative to the earliest send, with a proportional bar
    /// showing when within the run the hop was in flight.
    pub fn waterfall(&self) -> String {
        const WIDTH: usize = 40;
        let mut out = String::new();
        if self.journeys.is_empty() {
            out.push_str("(no journeys)\n");
            return out;
        }
        let t0 = self
            .journeys
            .iter()
            .map(|j| j.started_at())
            .min()
            .unwrap_or(0);
        let t1 = self
            .journeys
            .iter()
            .flat_map(|j| j.hops.iter())
            .map(|h| h.recv_at.unwrap_or(h.sent_at))
            .max()
            .unwrap_or(t0);
        let span = (t1 - t0).max(1);
        let _ = writeln!(
            out,
            "{:<12} {:>3} {:>5} {:>12} {:>12}  timeline ({} ns span)",
            "journey", "hop", "path", "sent@ns", "lat ns", span
        );
        for j in &self.journeys {
            for h in &j.hops {
                let path = match h.recv_conn {
                    Some(rc) => format!("{}→{}", h.sent_conn, rc),
                    None => format!("{}→?", h.sent_conn),
                };
                let lat = h
                    .latency()
                    .map(|l| l.to_string())
                    .unwrap_or_else(|| "lost".to_string());
                let s = ((h.sent_at - t0) as u128 * WIDTH as u128 / span as u128) as usize;
                let e = ((h.recv_at.unwrap_or(h.sent_at) - t0) as u128 * WIDTH as u128
                    / span as u128) as usize;
                let e = e.min(WIDTH.saturating_sub(1));
                let s = s.min(e);
                let mut bar = String::with_capacity(WIDTH + 2);
                bar.push('|');
                for i in 0..WIDTH {
                    bar.push(if i >= s && i <= e { '#' } else { '.' });
                }
                bar.push('|');
                let _ = writeln!(
                    out,
                    "{:<12} {:>3} {:>5} {:>12} {:>12}  {}",
                    render_journey_id(j.id),
                    h.hop,
                    path,
                    h.sent_at - t0,
                    lat,
                    bar
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_with(conn: u32, events: &[(Nanos, TraceEvent)]) -> TraceRing {
        let mut r = TraceRing::new(64);
        r.set_conn(conn);
        for &(at, e) in events {
            r.push(at, e);
        }
        r
    }

    #[test]
    fn id_packs_and_unpacks() {
        let id = journey_id(7, 99);
        assert_eq!(journey_origin(id), 7);
        assert_eq!(journey_seq(id), 99);
        assert_eq!(render_journey_id(id), "7:99");
    }

    #[test]
    fn send_and_deliver_join_into_a_complete_hop() {
        let id = journey_id(1, 1);
        let a = ring_with(
            1,
            &[(
                100,
                TraceEvent::JourneySend {
                    journey: id,
                    hop: 0,
                },
            )],
        );
        let b = ring_with(
            2,
            &[(
                187,
                TraceEvent::JourneyDeliver {
                    journey: id,
                    hop: 0,
                },
            )],
        );
        let set = JourneySet::reconstruct(&[&a, &b]);
        assert_eq!(set.len(), 1);
        assert_eq!(set.complete_count(), 1);
        let j = set.get(id).unwrap();
        assert!(j.is_complete());
        assert_eq!(j.hops[0].latency(), Some(87));
        assert_eq!(j.hops[0].sent_conn, 1);
        assert_eq!(j.hops[0].recv_conn, Some(2));
        assert_eq!(j.total_latency(), Some(87));
    }

    #[test]
    fn lost_frame_leaves_an_incomplete_journey() {
        let id = journey_id(1, 2);
        let a = ring_with(
            1,
            &[(
                100,
                TraceEvent::JourneySend {
                    journey: id,
                    hop: 0,
                },
            )],
        );
        let b = ring_with(2, &[]);
        let set = JourneySet::reconstruct(&[&a, &b]);
        assert_eq!(set.len(), 1);
        assert_eq!(set.complete_count(), 0);
        assert!(set.get(id).unwrap().total_latency().is_none());
        assert!(set.completeness() < 1.0);
    }

    #[test]
    fn duplicate_deliver_keeps_the_first() {
        let id = journey_id(3, 4);
        let a = ring_with(
            1,
            &[(
                10,
                TraceEvent::JourneySend {
                    journey: id,
                    hop: 0,
                },
            )],
        );
        let b = ring_with(
            2,
            &[
                (
                    50,
                    TraceEvent::JourneyDeliver {
                        journey: id,
                        hop: 0,
                    },
                ),
                (
                    60,
                    TraceEvent::JourneyDeliver {
                        journey: id,
                        hop: 0,
                    },
                ),
            ],
        );
        let set = JourneySet::reconstruct(&[&a, &b]);
        assert_eq!(set.get(id).unwrap().hops[0].recv_at, Some(50));
    }

    #[test]
    fn orphan_deliver_is_counted_not_paired() {
        let id = journey_id(9, 9);
        let b = ring_with(
            2,
            &[(
                50,
                TraceEvent::JourneyDeliver {
                    journey: id,
                    hop: 0,
                },
            )],
        );
        let set = JourneySet::reconstruct(&[&b]);
        assert_eq!(set.len(), 0);
        assert_eq!(set.orphan_delivers, 1);
    }

    #[test]
    fn reconstruction_is_ring_order_independent() {
        let id1 = journey_id(1, 1);
        let id2 = journey_id(2, 1);
        let a = ring_with(
            1,
            &[
                (
                    10,
                    TraceEvent::JourneySend {
                        journey: id1,
                        hop: 0,
                    },
                ),
                (
                    95,
                    TraceEvent::JourneyDeliver {
                        journey: id2,
                        hop: 0,
                    },
                ),
            ],
        );
        let b = ring_with(
            2,
            &[
                (
                    12,
                    TraceEvent::JourneySend {
                        journey: id2,
                        hop: 0,
                    },
                ),
                (
                    97,
                    TraceEvent::JourneyDeliver {
                        journey: id1,
                        hop: 0,
                    },
                ),
            ],
        );
        let s1 = JourneySet::reconstruct(&[&a, &b]);
        let s2 = JourneySet::reconstruct(&[&b, &a]);
        assert_eq!(s1.journeys(), s2.journeys());
        assert_eq!(s1.complete_count(), 2);
    }

    #[test]
    fn waterfall_renders_one_line_per_hop() {
        let id1 = journey_id(1, 1);
        let id2 = journey_id(1, 2);
        let a = ring_with(
            1,
            &[
                (
                    0,
                    TraceEvent::JourneySend {
                        journey: id1,
                        hop: 0,
                    },
                ),
                (
                    200,
                    TraceEvent::JourneySend {
                        journey: id2,
                        hop: 0,
                    },
                ),
            ],
        );
        let b = ring_with(
            2,
            &[
                (
                    87,
                    TraceEvent::JourneyDeliver {
                        journey: id1,
                        hop: 0,
                    },
                ),
                (
                    287,
                    TraceEvent::JourneyDeliver {
                        journey: id2,
                        hop: 0,
                    },
                ),
            ],
        );
        let set = JourneySet::reconstruct(&[&a, &b]);
        let w = set.waterfall();
        assert_eq!(w.lines().count(), 3, "{w}");
        assert!(w.contains("1:1"), "{w}");
        assert!(w.contains("1→2"), "{w}");
        assert!(w.contains('#'), "{w}");
    }
}
