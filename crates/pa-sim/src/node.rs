//! One simulated host: real PA connections plus virtual CPUs.
//!
//! The connections are genuine [`pa_core::Connection`]s — the engine
//! decides fast versus slow paths, packs backlogs, drains posts. The
//! node's job is to *price* what the engine did: it snapshots a
//! connection's counters around each operation and charges the cost
//! model for the difference, advancing the clock of the CPU that
//! connection runs on. Frames leave for the network at the moment that
//! CPU finishes the operation that produced them. A §5 node is one
//! connection on one CPU; the §6 server is a connection per client
//! divided among its processors — the same type.

use crate::cost::CostModel;
use crate::gc::GcModel;
use crate::Nanos;
use pa_buf::Msg;
use pa_core::{ConnStats, Connection, DeliverOutcome, SendOutcome};
use pa_obs::{Fleet, MaskDomain, MaskingLedger, QuantileSketch, SketchSummary, XrayReport};
use pa_unet::Netif;
use pa_wire::EndpointAddr;

/// When deferred post-processing gets scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostSchedule {
    /// Only after a delivery completes — §5: "post-processing and
    /// garbage collection are scheduled to occur after message
    /// deliveries" (because on U-Net they take longer than a round
    /// trip). Pure senders must combine this with explicit idle calls.
    AfterDelivery,
    /// After any operation that leaves work pending (right for
    /// streaming senders and slower networks — §5's Ethernet remark).
    WhenIdle,
    /// The §6 server's policy: after a delivery, but only once the
    /// application has replied ([`NodeSim::after_reply`]) — on a CPU
    /// shared between connections the reply has to claim it before this
    /// connection's post phases do, or a neighbour's request queues
    /// behind them — and every frame the host demuxed owes its GC
    /// trigger and wake-up, refused by the connection or not. With one
    /// connection per CPU the timing is [`PostSchedule::AfterDelivery`]'s.
    AfterReply,
}

/// Events a node reports for the Figure 4 timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeEvent {
    /// Application invoked send (time = completion of the send op).
    Send(SendOutcome),
    /// A frame was handed to the network.
    WireOut,
    /// Application messages were delivered.
    Deliver(usize),
    /// Deferred post-processing finished.
    PostDone,
    /// A garbage collection finished.
    GcDone,
}

/// A timestamped node event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Completion time of the event.
    pub at: Nanos,
    /// What happened.
    pub event: NodeEvent,
}

/// Per-path distributions of *priced operation costs*: how long the
/// virtual CPU was busy executing each send or deliver, keyed by the path
/// the engine actually took, one 1 %-accurate sketch each. These are the
/// Figure-4 distributions — fast sends should cluster tightly around the
/// paper's ~25 µs while slow sends spread out with layer depth.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathHistos {
    /// Cost of operations whose send took the fast path.
    pub fast_send: QuantileSketch,
    /// Cost of operations whose send went through pre-processing.
    pub slow_send: QuantileSketch,
    /// Cost of operations whose delivery took the fast path.
    pub fast_deliver: QuantileSketch,
    /// Cost of operations whose delivery went through pre-processing.
    pub slow_deliver: QuantileSketch,
}

impl PathHistos {
    /// Classifies one priced operation by the counter movement it caused
    /// and records its cost into the matching histogram(s). Operations
    /// that moved several counters at once (backlog drains) are skipped:
    /// their cost is not attributable to one path.
    fn observe(&mut self, before: &ConnStats, after: &ConnStats, cost: Nanos) {
        let d = |f: fn(&ConnStats) -> u64| f(after) - f(before);
        match (d(|s| s.fast_sends), d(|s| s.slow_sends)) {
            (1, 0) => self.fast_send.record(cost),
            (0, 1) => self.slow_send.record(cost),
            _ => {}
        }
        match (d(|s| s.fast_deliveries), d(|s| s.slow_deliveries)) {
            (1, 0) => self.fast_deliver.record(cost),
            (0, 1) => self.slow_deliver.record(cost),
            _ => {}
        }
    }

    /// Folds another node's sketches into this one.
    pub(crate) fn merge(&mut self, other: &PathHistos) {
        self.fast_send.merge(&other.fast_send);
        self.slow_send.merge(&other.slow_send);
        self.fast_deliver.merge(&other.fast_deliver);
        self.slow_deliver.merge(&other.slow_deliver);
    }

    /// `(label, summary)` for each non-empty sketch, in path order.
    pub(crate) fn summaries(&self) -> Vec<(&'static str, SketchSummary)> {
        [
            ("fast_send", &self.fast_send),
            ("slow_send", &self.slow_send),
            ("fast_deliver", &self.fast_deliver),
            ("slow_deliver", &self.slow_deliver),
        ]
        .into_iter()
        .filter(|(_, h)| !h.is_empty())
        .map(|(name, h)| (name, h.summary()))
        .collect()
    }
}

/// Prices the counter movement between two stats snapshots under a
/// cost model.
fn price_delta(cost: &CostModel, before: &ConnStats, after: &ConnStats) -> Nanos {
    let d = |f: fn(&ConnStats) -> u64| f(after) - f(before);
    let mut ns = 0;
    ns += d(|s| s.fast_sends) * cost.fast_send();
    ns += d(|s| s.slow_sends) * cost.slow_send();
    ns += d(|s| s.queued_sends) * cost.backlog_push;
    ns += d(|s| s.fast_deliveries) * cost.fast_deliver();
    ns += d(|s| s.slow_deliveries) * cost.slow_deliver();
    ns += d(|s| s.post_sends) * cost.post_send_frame();
    ns += d(|s| s.post_delivers) * cost.post_deliver_frame();
    ns += d(|s| s.packed_msgs) * cost.pack_per_msg;
    ns += d(|s| s.control_msgs) * cost.control_send();
    // Unpacking: per delivered message beyond one per frame.
    let frames = d(|s| s.fast_deliveries) + d(|s| s.slow_deliveries);
    let msgs = d(|s| s.msgs_delivered);
    ns += msgs.saturating_sub(frames) * cost.unpack_per_msg;
    ns
}

/// One simulated host: N connections over M virtual CPUs.
pub struct NodeSim {
    /// The real protocol engines, one per peer. Connection `i` runs on
    /// CPU `i mod M` — §6: "the protocol stacks for different
    /// connections may be divided among the processors".
    pub conns: Vec<Connection>,
    /// The cost model pricing their operations.
    pub cost: CostModel,
    /// The GC model (reception-triggered, one heap per host).
    pub gc: GcModel,
    /// Post-processing scheduling policy.
    pub schedule: PostSchedule,
    /// Time each virtual CPU becomes free.
    cpus: Vec<Nanos>,
    /// Scheduled post-processing wake-up per connection, if any.
    wakeups: Vec<Option<Nanos>>,
    /// Receptions per connection whose GC trigger hasn't been charged.
    gc_due: Vec<u32>,
    /// Event log (drained by the sim's timeline).
    pub log: Vec<Stamp>,
    /// Whether to record events (disable for long sweeps).
    pub record_log: bool,
    /// Total CPU time charged.
    pub cpu_busy: Nanos,
    /// Fast- vs slow-path cost distributions (always on: recording is
    /// one `leading_zeros` + adds, negligible next to the sim itself).
    pub histos: PathHistos,
}

impl NodeSim {
    /// Wraps a host's connections (all sharing one local address) and
    /// `n_cpus` processors with their models.
    pub(crate) fn new(
        conns: Vec<Connection>,
        n_cpus: usize,
        cost: CostModel,
        gc: GcModel,
        schedule: PostSchedule,
    ) -> NodeSim {
        NodeSim {
            cpus: vec![0; n_cpus.max(1)],
            wakeups: vec![None; conns.len()],
            gc_due: vec![0; conns.len()],
            conns,
            cost,
            gc,
            schedule,
            log: Vec::new(),
            record_log: true,
            cpu_busy: 0,
            histos: PathHistos::default(),
        }
    }

    /// Processors on this host.
    pub(crate) fn n_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Time the CPU serving connection `i` becomes free.
    pub(crate) fn cpu_free_at(&self, i: usize) -> Nanos {
        self.cpus[i % self.cpus.len()]
    }

    /// Connection `i`'s scheduled post-processing wake-up, if any.
    pub(crate) fn wakeup_at(&self, i: usize) -> Option<Nanos> {
        self.wakeups[i]
    }

    /// The earliest scheduled wake-up on this host.
    pub(crate) fn next_wakeup(&self) -> Option<Nanos> {
        self.wakeups.iter().flatten().min().copied()
    }

    /// The connection whose peer is `peer`.
    pub(crate) fn conn_to(&self, peer: EndpointAddr) -> Option<usize> {
        self.conns.iter().position(|c| c.peer_addr() == peer)
    }

    /// A *priced* xray report for connection `i`: its attribution,
    /// forensics, and phase-invocation counts, with every phase row
    /// priced by this host's cost model (so the table shows the paper's
    /// per-layer critical-path breakdown in virtual nanoseconds), plus
    /// a virtual-CPU note.
    pub(crate) fn xray_report(&self, i: usize) -> XrayReport {
        let mut r = self.conns[i].xray_report();
        self.cost.price_report(&mut r);
        r.at = self.cpu_free_at(i);
        r.notes.push(format!(
            "virtual cpu: busy {} ns, free at {} ns",
            self.cpu_busy, r.at
        ));
        r
    }

    /// What this host's connections did off the fast path.
    pub(crate) fn fleet(&self) -> Fleet {
        let mut fleet = Fleet::default();
        for conn in &self.conns {
            conn.fold_into(&mut fleet);
        }
        fleet
    }

    /// The host's masking ledger in the virtual-time domain: every
    /// phase call of its [`NodeSim::fleet`], priced by its cost model,
    /// attributed to exactly one of {on-path, masked, leaked} — so
    /// [`MaskingLedger::conserves`] against the priced phase table is
    /// exact — plus the engine rows: the fast-path cost of every send
    /// and delivery on-path, receive re-fuses as leaked calls.
    pub(crate) fn masking_ledger(&self, scope: &str) -> MaskingLedger {
        let fleet = self.fleet();
        let rows = fleet.phase_rows(|l, p| self.cost.phase_cost(l, p));
        let engine = (self.cost.fast_send(), self.cost.fast_deliver());
        let virt = MaskDomain::Virtual;
        MaskingLedger::with_engine(scope, &rows, virt, &fleet.totals, engine, &fleet.leaks)
    }

    /// Messages waiting in this host's send backlogs.
    pub(crate) fn backlog(&self) -> usize {
        self.conns.iter().map(Connection::backlog_len).sum()
    }

    fn stamp(&mut self, at: Nanos, event: NodeEvent) {
        if self.record_log {
            self.log.push(Stamp { at, event });
        }
    }

    /// Runs `op` on connection `i` no earlier than `t` and charges its
    /// CPU for the counter movement it caused.
    fn run_op<R>(
        &mut self,
        i: usize,
        t: Nanos,
        op: impl FnOnce(&mut Connection) -> R,
    ) -> (Nanos, R) {
        let cpu = i % self.cpus.len();
        let start = t.max(self.cpus[cpu]);
        let conn = &mut self.conns[i];
        conn.set_now(start);
        let before = *conn.stats();
        let r = op(conn);
        let after = *conn.stats();
        let cost = price_delta(&self.cost, &before, &after);
        self.histos.observe(&before, &after, cost);
        self.cpu_busy += cost;
        let done = start + cost;
        self.cpus[cpu] = done;
        (done, r)
    }

    fn flush_frames(&mut self, i: usize, net: &mut dyn Netif) {
        let conn = &mut self.conns[i];
        let (local, peer) = (conn.local_addr(), conn.peer_addr());
        let at = self.cpus[i % self.cpus.len()];
        let mut any = false;
        while let Some(frame) = conn.poll_transmit() {
            net.send(local, peer, frame, at);
            any = true;
        }
        if any {
            self.stamp(at, NodeEvent::WireOut);
        }
    }

    fn take_deliveries(&mut self, i: usize) -> Vec<Msg> {
        let mut delivered = Vec::new();
        while let Some(m) = self.conns[i].poll_delivery() {
            delivered.push(m);
        }
        delivered
    }

    /// Arms connection `i`'s post-processing wake-up for the moment its
    /// CPU goes idle, if the schedule allows one now and there is work
    /// for it.
    fn arm_wakeup(&mut self, i: usize, after_delivery: bool) {
        let due = match self.schedule {
            PostSchedule::AfterDelivery | PostSchedule::AfterReply => after_delivery,
            PostSchedule::WhenIdle => true,
        };
        let conn = &self.conns[i];
        // A backlog blocked behind a disabled predicted header cannot
        // be drained by a wake-up — only an acknowledgement can reopen
        // the window — so it must not keep a wake-up armed (that would
        // spin the simulator at one instant in virtual time).
        let drainable_backlog = conn.backlog_len() > 0 && conn.send_prediction().enabled();
        if due
            && (conn.has_pending() || drainable_backlog || self.gc_due[i] > 0)
            && self.wakeups[i].is_none()
        {
            self.wakeups[i] = Some(self.cpu_free_at(i));
        }
    }

    /// A reception or wake-up on connection `i` has run: unless the
    /// schedule waits for the reply, arm the next wake-up now.
    fn after_delivery(&mut self, i: usize) {
        if self.schedule != PostSchedule::AfterReply {
            self.arm_wakeup(i, true);
        }
    }

    /// The application has reacted to what connection `i` last handed
    /// up (the driver calls this after every [`Self::on_frame`] and
    /// [`Self::run_wakeup`]).
    pub(crate) fn after_reply(&mut self, i: usize) {
        if self.schedule == PostSchedule::AfterReply {
            self.arm_wakeup(i, true);
        }
    }

    /// Application send on connection `i` at time `t`. Returns
    /// completion time.
    pub(crate) fn app_send(
        &mut self,
        i: usize,
        t: Nanos,
        payload: &[u8],
        net: &mut dyn Netif,
    ) -> (Nanos, SendOutcome) {
        let (done, outcome) = self.run_op(i, t, |c| c.send(payload));
        self.stamp(done, NodeEvent::Send(outcome));
        self.flush_frames(i, net);
        self.arm_wakeup(i, false);
        (done, outcome)
    }

    /// A frame for connection `i` arrived at time `t`. Returns
    /// completion time and the payloads delivered to the application;
    /// a reception owes one GC trigger (§5).
    pub(crate) fn on_frame(
        &mut self,
        i: usize,
        t: Nanos,
        frame: Msg,
        net: &mut dyn Netif,
    ) -> (Nanos, Vec<Msg>) {
        let (done, outcome) = self.run_op(i, t, |c| c.deliver_frame(frame));
        let delivered = self.take_deliveries(i);
        let refused = matches!(outcome, DeliverOutcome::Dropped(_));
        if !refused || self.schedule == PostSchedule::AfterReply {
            self.gc_due[i] += 1;
        }
        if !refused {
            self.stamp(done, NodeEvent::Deliver(delivered.len()));
        }
        self.flush_frames(i, net);
        self.after_delivery(i);
        (done, delivered)
    }

    /// Runs connection `i`'s deferred post-processing (and any due GC)
    /// at `t`. Returns the completion time and any application messages
    /// the backlog drain released (a drain re-runs queued receive
    /// frames, so deliveries can surface here, not just in
    /// [`Self::on_frame`]).
    pub(crate) fn run_wakeup(
        &mut self,
        i: usize,
        t: Nanos,
        net: &mut dyn Netif,
    ) -> (Nanos, Vec<Msg>) {
        self.wakeups[i] = None;
        let (mut done, _report) = self.run_op(i, t, |c| c.process_pending());
        let delivered = self.take_deliveries(i);
        if !delivered.is_empty() {
            self.stamp(done, NodeEvent::Deliver(delivered.len()));
        }
        self.stamp(done, NodeEvent::PostDone);
        self.flush_frames(i, net);
        // GC triggers owed for receptions processed up to now (§5:
        // "triggered garbage collection after every message reception").
        for _ in 0..std::mem::take(&mut self.gc_due[i]) {
            if let Some(pause) = self.gc.on_reception() {
                let cpu = i % self.cpus.len();
                self.cpus[cpu] += pause;
                self.cpu_busy += pause;
                done = self.cpus[cpu];
                self.stamp(done, NodeEvent::GcDone);
            }
        }
        // More work may have appeared (backlog drains leave fresh
        // post-send items).
        self.after_delivery(i);
        (done, delivered)
    }

    /// Timer tick (retransmissions) on every connection.
    pub(crate) fn tick(&mut self, t: Nanos, net: &mut dyn Netif) {
        for i in 0..self.conns.len() {
            self.run_op(i, t, |c| c.tick(t));
            self.flush_frames(i, net);
            self.arm_wakeup(i, false);
        }
    }

    /// Our address.
    pub(crate) fn addr(&self) -> EndpointAddr {
        self.conns[0].local_addr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gc::GcPolicy;
    use pa_core::{ConnectionParams, PaConfig};
    use pa_stack::StackSpec;
    use pa_unet::{LoopbackNet, SimNet};

    fn node(addr: u64, peer: u64, schedule: PostSchedule) -> NodeSim {
        let spec = StackSpec::paper();
        let conn = Connection::new(
            spec.build(),
            PaConfig::paper_default(),
            ConnectionParams::new(
                EndpointAddr::from_parts(addr, 1),
                EndpointAddr::from_parts(peer, 1),
                addr,
            ),
        )
        .unwrap();
        let names: Vec<String> = spec.build().iter().map(|l| l.name().to_string()).collect();
        NodeSim::new(
            vec![conn],
            1,
            CostModel::paper_ml(names),
            GcModel::paper(GcPolicy::EveryReception, addr),
            schedule,
        )
    }

    #[test]
    fn fast_send_costs_25us() {
        let mut n = node(1, 2, PostSchedule::AfterDelivery);
        let mut net = LoopbackNet::new();
        let (done, outcome) = n.app_send(0, 1000, &[1u8; 8], &mut net);
        assert_eq!(outcome, SendOutcome::FastPath);
        assert_eq!(done, 1000 + 25_000, "the paper's ~25 µs to U-Net handoff");
        assert_eq!(net.in_flight(), 1);
        assert_eq!(n.wakeup_at(0), None, "post deferred until a delivery");
    }

    #[test]
    fn busy_cpu_delays_the_operation() {
        let mut n = node(1, 2, PostSchedule::AfterDelivery);
        let mut net = LoopbackNet::new();
        n.cpus[0] = 50_000;
        let (done, _) = n.app_send(0, 1000, &[1u8; 8], &mut net);
        assert_eq!(done, 50_000 + 25_000);
    }

    #[test]
    fn one_way_delivery_costs_25us_and_schedules_posts() {
        let mut a = node(1, 2, PostSchedule::AfterDelivery);
        let mut b = node(2, 1, PostSchedule::AfterDelivery);
        let mut net = SimNet::atm();
        a.app_send(0, 0, &[7u8; 8], &mut net);
        let arr = net.poll_arrival(u64::MAX).unwrap();
        let (done, delivered) = b.on_frame(0, arr.at, arr.frame, &mut net);
        assert_eq!(delivered.len(), 1);
        assert_eq!(done - arr.at, 25_000);
        assert_eq!(b.wakeup_at(0), Some(done), "posts scheduled after delivery");
        // Table 4's one-way: 25 (send) + 35+ (wire) + 25 (deliver).
        assert!(done >= 85_000, "one-way ≈ 85 µs, got {done}");
    }

    #[test]
    fn after_reply_schedule_waits_for_the_reply_and_charges_refused_frames() {
        let mut a = node(1, 2, PostSchedule::AfterDelivery);
        let mut b = node(2, 1, PostSchedule::AfterReply);
        let mut net = SimNet::atm();
        a.app_send(0, 0, &[7u8; 8], &mut net);
        let arr = net.poll_arrival(u64::MAX).unwrap();
        let (done, delivered) = b.on_frame(0, arr.at, arr.frame, &mut net);
        assert_eq!(b.wakeup_at(0), None, "not before the application replied");
        let (replied, _) = b.app_send(0, done, delivered[0].as_slice(), &mut net);
        assert_eq!(b.wakeup_at(0), None, "a send alone arms nothing");
        b.after_reply(0);
        assert_eq!(b.wakeup_at(0), Some(replied), "behind the reply");
        // Its wake-up charges exactly one GC pause: b's collector stands
        // where a twin with b's seed stands after one reception.
        let mut twin = GcModel::paper(GcPolicy::EveryReception, 2);
        let (idle, _) = b.run_wakeup(0, replied, &mut net);
        let pause = twin.on_reception().unwrap();
        assert_eq!(format!("{:?}", b.gc), format!("{twin:?}"));
        assert!(idle - replied >= pause, "{}", idle - replied);
        // A frame the connection refuses still owes its GC and wake-up.
        b.on_frame(0, idle, Msg::from_wire(vec![0u8; 4]), &mut net);
        b.after_reply(0);
        assert_eq!(b.wakeup_at(0), Some(idle));
        let (done, _) = b.run_wakeup(0, idle, &mut net);
        let pause = twin.on_reception().unwrap();
        assert_eq!(format!("{:?}", b.gc), format!("{twin:?}"));
        assert!(done - idle >= pause, "{}", done - idle);
        // Under AfterDelivery, with nothing else pending, it owes neither.
        let mut c = node(3, 4, PostSchedule::AfterDelivery);
        c.on_frame(0, idle, Msg::from_wire(vec![0u8; 4]), &mut net);
        assert_eq!(c.wakeup_at(0), None);
    }

    #[test]
    fn wakeup_charges_posts_and_gc() {
        let mut a = node(1, 2, PostSchedule::AfterDelivery);
        let mut b = node(2, 1, PostSchedule::AfterDelivery);
        let mut net = SimNet::atm();
        a.app_send(0, 0, &[7u8; 8], &mut net);
        let arr = net.poll_arrival(u64::MAX).unwrap();
        let (done, _) = b.on_frame(0, arr.at, arr.frame, &mut net);
        let wake = b.wakeup_at(0).unwrap();
        let (after, _) = b.run_wakeup(0, wake, &mut net);
        // post-deliver 50 µs + one GC pause 150–450 µs. (No post-send:
        // b hasn't sent.) Control-msg acks may add a little.
        let cost = after - done;
        assert!((200_000..=600_000).contains(&cost), "wakeup cost {cost}");
        // Exactly one collection: b's collector matches a twin with b's
        // seed stepped once, and the cost is that pause plus the posts.
        let mut twin = GcModel::paper(GcPolicy::EveryReception, 2);
        let pause = twin.on_reception().unwrap();
        assert_eq!(format!("{:?}", b.gc), format!("{twin:?}"));
        assert!(
            (50_000..150_000).contains(&(cost - pause)),
            "{cost} - {pause}"
        );
    }

    #[test]
    fn when_idle_schedule_wakes_after_send() {
        let mut n = node(1, 2, PostSchedule::WhenIdle);
        let mut net = LoopbackNet::new();
        n.app_send(0, 0, &[1u8; 8], &mut net);
        assert!(n.wakeup_at(0).is_some());
        let wake = n.wakeup_at(0).unwrap();
        let (done, _) = n.run_wakeup(0, wake, &mut net);
        // post-send of the 4-layer stack = 80 µs.
        assert_eq!(done - wake, 80_000);
    }

    #[test]
    fn path_histograms_price_fast_and_slow_ops() {
        let mut a = node(1, 2, PostSchedule::AfterDelivery);
        let mut b = node(2, 1, PostSchedule::AfterDelivery);
        let mut net = SimNet::atm();
        a.app_send(0, 0, &[7u8; 8], &mut net);
        let arr = net.poll_arrival(u64::MAX).unwrap();
        b.on_frame(0, arr.at, arr.frame, &mut net);
        assert_eq!(a.histos.fast_send.count(), 1);
        assert_eq!(a.histos.fast_send.max(), 25_000, "the ~25 µs fast send");
        // Predictions are primed at stack-initialization time, so even
        // the first delivery takes the fast path.
        assert_eq!(b.histos.fast_deliver.count(), 1);
        assert_eq!(b.histos.fast_deliver.max(), 25_000);
        assert!(b.histos.slow_deliver.is_empty());
        // Merge folds both nodes into one distribution set.
        let mut all = PathHistos::default();
        all.merge(&a.histos);
        all.merge(&b.histos);
        assert_eq!(all.fast_send.count(), 1);
        assert_eq!(all.fast_deliver.count(), 1);
        let labels: Vec<&str> = all.summaries().iter().map(|(n, _)| *n).collect();
        assert_eq!(labels, ["fast_send", "fast_deliver"], "empty paths omitted");
    }

    #[test]
    fn connections_share_a_cpu_or_get_their_own() {
        // §6: connection i runs on CPU i mod M.
        let host = |n_cpus| {
            let addr = |h| EndpointAddr::from_parts(h, 1);
            crate::sim::SimConfig::paper().host(
                addr(9),
                &[(addr(1), 0), (addr(2), 1)],
                n_cpus,
                GcModel::paper(GcPolicy::EveryReception, 9),
                PostSchedule::AfterDelivery,
            )
        };
        let mut net = LoopbackNet::new();
        let mut uni = host(1);
        assert_eq!(uni.app_send(0, 0, &[1u8; 8], &mut net).0, 25_000);
        assert_eq!(uni.app_send(1, 0, &[1u8; 8], &mut net).0, 50_000);
        let mut duo = host(2);
        assert_eq!(duo.app_send(0, 0, &[1u8; 8], &mut net).0, 25_000);
        assert_eq!(duo.app_send(1, 0, &[1u8; 8], &mut net).0, 25_000);
        assert_eq!(duo.conn_to(EndpointAddr::from_parts(2, 1)), Some(1));
        assert_eq!(duo.conn_to(EndpointAddr::from_parts(3, 1)), None);
    }

    #[test]
    fn cpu_busy_accumulates() {
        let mut n = node(1, 2, PostSchedule::WhenIdle);
        let mut net = LoopbackNet::new();
        n.app_send(0, 0, &[1u8; 8], &mut net);
        let w = n.wakeup_at(0).unwrap();
        n.run_wakeup(0, w, &mut net);
        assert_eq!(n.cpu_busy, 25_000 + 80_000);
    }
}
