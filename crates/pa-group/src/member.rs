//! A group member: one accelerated connection per peer, FIFO and
//! total-order multicast on top.

use crate::envelope::{Envelope, Kind};
use crate::view::View;
use pa_buf::Msg;
use pa_core::{Connection, ConnectionParams, Nanos, PaConfig, ShardHandle, ShardedEndpoint};
use pa_stack::StackSpec;
use pa_wire::EndpointAddr;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

/// Port every group connection uses (host ids distinguish members).
const GROUP_PORT: u32 = 0x6702;

/// Group construction parameters.
#[derive(Debug, Clone)]
pub struct GroupConfig {
    /// Stack under each member-to-member connection.
    pub stack: StackSpec,
    /// PA configuration for every connection.
    pub pa: PaConfig,
    /// Base seed (per-connection seeds derive from it).
    pub seed: u64,
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig {
            stack: StackSpec::paper(),
            pa: PaConfig::paper_default(),
            seed: 0x9709,
        }
    }
}

/// A message delivered to the group application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupDelivery {
    /// Originating member.
    pub from: u32,
    /// Global order stamp (`Some` for total-order traffic).
    pub order: Option<u64>,
    /// Application payload.
    pub payload: Vec<u8>,
}

/// One member of the group.
pub struct Member {
    id: u32,
    view: View,
    cfg: GroupConfig,
    endpoint: ShardedEndpoint,
    conns: HashMap<u32, ShardHandle>,
    /// Scratch for the endpoint's burst drains.
    rx: Vec<pa_core::ShardDelivery>,
    tx: Vec<(EndpointAddr, Msg)>,
    // --- total order state ---
    /// Next stamp the sequencer hands out (sequencer only).
    next_stamp: u64,
    /// Next global sequence this member expects to deliver.
    next_deliver: u64,
    /// Stamped messages waiting for their turn.
    hold_back: BTreeMap<u64, (u32, Vec<u8>)>,
    /// Application deliveries ready to be polled.
    deliveries: VecDeque<GroupDelivery>,
}

impl Member {
    /// Creates member `id` of `view`, building one connection per peer.
    pub fn new(id: u32, view: View, cfg: GroupConfig) -> Member {
        assert!(view.contains(id), "member must be in its own view");
        let mut m = Member {
            id,
            view: View::new(0, []),
            cfg,
            // A group is a handful of peers: one table.
            endpoint: ShardedEndpoint::new(1),
            conns: HashMap::new(),
            rx: Vec::new(),
            tx: Vec::new(),
            next_stamp: 0,
            next_deliver: 0,
            hold_back: BTreeMap::new(),
            deliveries: VecDeque::new(),
        };
        m.install_view(view);
        m
    }

    /// Our id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The current view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// True if we are the current view's sequencer.
    pub fn is_sequencer(&self) -> bool {
        self.view.sequencer() == Some(self.id)
    }

    /// Network address of member `id`.
    pub fn addr_of(id: u32) -> EndpointAddr {
        EndpointAddr::from_parts(id as u64, GROUP_PORT)
    }

    /// Installs a new view: connections to new peers are created, and
    /// gaps left by departed members are skipped over (messages they
    /// were stamped for but never flushed are abandoned with the view —
    /// the virtual-synchrony simplification of this kernel).
    pub(crate) fn install_view(&mut self, view: View) {
        for &peer in view.members() {
            if peer != self.id && !self.conns.contains_key(&peer) {
                let conn = Connection::new(
                    self.cfg.stack.build(),
                    self.cfg.pa,
                    ConnectionParams::new(
                        Member::addr_of(self.id),
                        Member::addr_of(peer),
                        self.cfg
                            .seed
                            .wrapping_mul(1 + self.id as u64)
                            .wrapping_add(peer as u64),
                    ),
                )
                .expect("valid group stack");
                let h = self.endpoint.add_connection(conn);
                self.conns.insert(peer, h);
            }
        }
        // If the sequencer changed, drop undeliverable hold-back
        // entries from the old regime and resynchronize the stamp
        // stream at the highest point seen.
        let sequencer_changed = view.sequencer() != self.view.sequencer();
        if sequencer_changed {
            let resume = self
                .hold_back
                .keys()
                .next_back()
                .map(|&g| g + 1)
                .unwrap_or(self.next_deliver)
                .max(self.next_deliver);
            self.hold_back.clear();
            self.next_deliver = resume;
            self.next_stamp = resume;
        }
        self.view = view;
    }

    fn send_to(&mut self, peer: u32, env: &Envelope) {
        if let Some(&h) = self.conns.get(&peer) {
            // Peers are never removed, so the handle is live; a refused
            // send is the connection's to count.
            let _ = self.endpoint.try_send(h, &env.encode());
        }
    }

    fn fan_out(&mut self, env: &Envelope) {
        let peers: Vec<u32> = self
            .view
            .members()
            .iter()
            .copied()
            .filter(|&m| m != self.id)
            .collect();
        for peer in peers {
            self.send_to(peer, env);
        }
    }

    /// FIFO multicast: fan out to every peer, deliver locally at once.
    pub fn mcast_fifo(&mut self, payload: &[u8]) {
        let env = Envelope {
            kind: Kind::Fifo,
            view: self.view.id,
            origin: self.id,
            gseq: 0,
            payload: payload.to_vec(),
        };
        self.fan_out(&env);
        self.deliveries.push_back(GroupDelivery {
            from: self.id,
            order: None,
            payload: payload.to_vec(),
        });
    }

    /// Total-order multicast: route via the sequencer; delivery (even
    /// our own) happens only in stamp order.
    pub fn mcast_total(&mut self, payload: &[u8]) {
        let env = Envelope {
            kind: Kind::TotalRequest,
            view: self.view.id,
            origin: self.id,
            gseq: 0,
            payload: payload.to_vec(),
        };
        if self.is_sequencer() {
            self.stamp_and_fan_out(env);
        } else if let Some(seq) = self.view.sequencer() {
            self.send_to(seq, &env);
        }
    }

    fn stamp_and_fan_out(&mut self, mut env: Envelope) {
        env.kind = Kind::TotalOrdered;
        env.gseq = self.next_stamp;
        self.next_stamp += 1;
        self.fan_out(&env);
        self.enqueue_ordered(env.origin, env.gseq, env.payload);
    }

    fn enqueue_ordered(&mut self, origin: u32, gseq: u64, payload: Vec<u8>) {
        if gseq < self.next_deliver {
            return; // duplicate of something delivered
        }
        self.hold_back.insert(gseq, (origin, payload));
        while let Some(entry) = self.hold_back.remove(&self.next_deliver) {
            let (from, payload) = entry;
            self.deliveries.push_back(GroupDelivery {
                from,
                order: Some(self.next_deliver),
                payload,
            });
            self.next_deliver += 1;
        }
    }

    /// Routes one frame from the network into the right connection and
    /// interprets any group envelopes it releases.
    pub fn from_network(&mut self, frame: Msg) {
        self.endpoint.from_network(frame);
        let mut rx = std::mem::take(&mut self.rx);
        self.endpoint.drain_deliveries(&mut rx);
        for d in rx.drain(..) {
            let Some(env) = Envelope::decode(d.msg.as_slice()) else {
                continue;
            };
            if !self.view.contains(env.origin) {
                continue; // departed member's residue
            }
            match env.kind {
                Kind::Fifo => {
                    self.deliveries.push_back(GroupDelivery {
                        from: env.origin,
                        order: None,
                        payload: env.payload,
                    });
                }
                Kind::TotalRequest => {
                    // Only the sequencer stamps; anyone else drops it.
                    if self.is_sequencer() {
                        self.stamp_and_fan_out(env);
                    }
                }
                Kind::TotalOrdered => {
                    self.enqueue_ordered(env.origin, env.gseq, env.payload);
                }
            }
        }
        self.rx = rx;
    }

    /// Next outgoing frame, with its destination.
    pub fn poll_transmit(&mut self) -> Option<(EndpointAddr, Msg)> {
        self.endpoint.poll_transmit_burst(1, &mut self.tx);
        self.tx.pop()
    }

    /// Next group delivery for the application.
    pub fn poll_delivery(&mut self) -> Option<GroupDelivery> {
        self.deliveries.pop_front()
    }

    /// Runs deferred PA post-processing on all connections.
    pub fn process_pending(&mut self) {
        self.endpoint.process_all_pending();
    }

    /// Advances retransmission timers on all connections.
    pub fn tick(&mut self, now: Nanos) {
        self.endpoint.tick(now);
    }
}

impl fmt::Debug for Member {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Member")
            .field("id", &self.id)
            .field("view", &self.view)
            .field("sequencer", &self.is_sequencer())
            .field("hold_back", &self.hold_back.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a fully connected group and a shuttle that moves frames
    /// until quiescent.
    fn group(ids: &[u32]) -> Vec<Member> {
        let view = View::new(1, ids.iter().copied());
        ids.iter()
            .map(|&id| Member::new(id, view.clone(), GroupConfig::default()))
            .collect()
    }

    fn converge(members: &mut [Member]) {
        for _ in 0..256 {
            let mut moved = false;
            for i in 0..members.len() {
                while let Some((to, frame)) = members[i].poll_transmit() {
                    let target = members.iter_mut().find(|m| Member::addr_of(m.id()) == to);
                    if let Some(t) = target {
                        t.from_network(frame);
                    }
                    moved = true;
                }
            }
            for m in members.iter_mut() {
                m.process_pending();
            }
            if !moved {
                break;
            }
        }
    }

    /// One delivered message: (sender id, total-order stamp, payload).
    type Delivery = (u32, Option<u64>, Vec<u8>);

    fn drain(m: &mut Member) -> Vec<Delivery> {
        let mut out = Vec::new();
        while let Some(d) = m.poll_delivery() {
            out.push((d.from, d.order, d.payload));
        }
        out
    }

    #[test]
    fn fifo_multicast_reaches_everyone() {
        let mut g = group(&[1, 2, 3]);
        g[0].mcast_fifo(b"to all");
        converge(&mut g);
        for m in g.iter_mut() {
            let got = drain(m);
            assert_eq!(
                got,
                vec![(1, None, b"to all".to_vec())],
                "member {}",
                m.id()
            );
        }
    }

    #[test]
    fn fifo_is_per_sender_ordered() {
        let mut g = group(&[1, 2]);
        for i in 0..10u8 {
            g[0].mcast_fifo(&[i]);
        }
        converge(&mut g);
        let got = drain(&mut g[1]);
        let payloads: Vec<u8> = got.iter().map(|(_, _, p)| p[0]).collect();
        assert_eq!(payloads, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn total_order_is_identical_everywhere() {
        let mut g = group(&[1, 2, 3]);
        // Concurrent multicasts from two different members.
        g[1].mcast_total(b"from-2");
        g[2].mcast_total(b"from-3");
        g[0].mcast_total(b"from-1");
        converge(&mut g);
        let orders: Vec<Vec<Delivery>> = g.iter_mut().map(drain).collect();
        assert_eq!(orders[0].len(), 3);
        assert_eq!(orders[0], orders[1], "members 1 and 2 agree");
        assert_eq!(orders[1], orders[2], "members 2 and 3 agree");
        // Stamps are dense from 0.
        let stamps: Vec<u64> = orders[0].iter().map(|(_, o, _)| o.unwrap()).collect();
        assert_eq!(stamps, vec![0, 1, 2]);
    }

    #[test]
    fn sequencer_is_lowest_member() {
        let g = group(&[4, 7, 9]);
        assert!(g[0].is_sequencer());
        assert!(!g[1].is_sequencer());
    }

    #[test]
    fn origin_delivers_its_own_total_msgs_in_stamp_order() {
        let mut g = group(&[1, 2]);
        // Non-sequencer sends: it must NOT deliver its own message
        // until the stamp comes back.
        g[1].mcast_total(b"mine");
        assert!(g[1].poll_delivery().is_none(), "no early self-delivery");
        converge(&mut g);
        let got = drain(&mut g[1]);
        assert_eq!(got, vec![(2, Some(0), b"mine".to_vec())]);
    }

    #[test]
    fn heavy_concurrent_total_traffic_agrees() {
        let mut g = group(&[1, 2, 3, 4]);
        for round in 0..10u8 {
            for (i, member) in g.iter_mut().enumerate() {
                member.mcast_total(&[round, i as u8]);
            }
        }
        converge(&mut g);
        let orders: Vec<Vec<Delivery>> = g.iter_mut().map(drain).collect();
        assert_eq!(orders[0].len(), 40);
        for o in &orders[1..] {
            assert_eq!(
                &orders[0], o,
                "total order must be identical at all members"
            );
        }
    }

    #[test]
    fn view_change_removes_member_and_reelects_sequencer() {
        let mut g = group(&[1, 2, 3]);
        g[0].mcast_total(b"before");
        converge(&mut g);
        for m in g.iter_mut() {
            drain(m);
        }
        // Member 1 (the sequencer) fails; 2 and 3 install the new view.
        let new_view = View::new(g[0].view().id + 1, [2, 3]);
        g[1].install_view(new_view.clone());
        g[2].install_view(new_view);
        assert!(g[1].is_sequencer(), "member 2 takes over");
        g[2].mcast_total(b"after");
        // Shuttle only between 2 and 3.
        let mut survivors: Vec<Member> = g.drain(1..).collect();
        converge(&mut survivors);
        let a = drain(&mut survivors[0]);
        let b = drain(&mut survivors[1]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].2, b"after".to_vec());
        assert_eq!(a[0].1, Some(1), "stamps continue past the old regime");
    }

    #[test]
    fn residue_from_departed_member_dropped() {
        let mut g = group(&[1, 2]);
        g[0].mcast_fifo(b"ghost");
        // Capture the frame, then remove member 1 from 2's view.
        let (to, frame) = g[0].poll_transmit().unwrap();
        assert_eq!(to, Member::addr_of(2));
        let v = View::new(g[1].view().id + 1, [2]);
        g[1].install_view(v);
        g[1].from_network(frame);
        assert!(g[1].poll_delivery().is_none());
    }

    #[test]
    fn two_member_ping_pong_rides_fast_paths() {
        let mut g = group(&[1, 2]);
        for i in 0..10u8 {
            g[0].mcast_fifo(&[i]);
            converge(&mut g);
            g[1].mcast_fifo(&[100 + i]);
            converge(&mut g);
        }
        // Each member delivered its own 10 plus the peer's 10.
        assert_eq!(drain(&mut g[0]).len(), 20);
        assert_eq!(drain(&mut g[1]).len(), 20);
    }
}
