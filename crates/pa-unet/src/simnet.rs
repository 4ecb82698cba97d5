//! The simulated U-Net: virtual-time delivery with a link profile and
//! fault injection.

use crate::faults::{FaultConfig, FaultInjector, FaultStats};
use crate::netif::{Arrival, Netif};
use crate::profile::LinkProfile;
use crate::Nanos;
use pa_buf::Msg;
use pa_wire::EndpointAddr;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct InFlightFrame {
    at: Nanos,
    seqno: u64, // FIFO tiebreak for equal arrival times
    from: EndpointAddr,
    to: EndpointAddr,
    frame: Msg,
}

impl PartialEq for InFlightFrame {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seqno) == (other.at, other.seqno)
    }
}
impl Eq for InFlightFrame {}
impl PartialOrd for InFlightFrame {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlightFrame {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seqno).cmp(&(other.at, other.seqno))
    }
}

/// A simulated network connecting any number of endpoints.
pub struct SimNet {
    profile: LinkProfile,
    faults: FaultInjector,
    queue: BinaryHeap<Reverse<InFlightFrame>>,
    /// Earliest time the (shared) line is free again.
    line_free_at: Nanos,
    seqno: u64,
    pcap: Option<crate::pcap::PcapWriter<Box<dyn std::io::Write>>>,
}

impl SimNet {
    /// A network with the given timing profile and fault behaviour.
    pub fn new(profile: LinkProfile, faults: FaultConfig) -> SimNet {
        SimNet {
            profile,
            faults: FaultInjector::new(faults),
            queue: BinaryHeap::new(),
            line_free_at: 0,
            seqno: 0,
            pcap: None,
        }
    }

    /// Attaches a pcap trace: every frame *offered* to the network
    /// (before fault injection) is recorded at its send time.
    pub fn attach_pcap(&mut self, sink: Box<dyn std::io::Write>) -> std::io::Result<()> {
        self.pcap = Some(crate::pcap::PcapWriter::new(sink)?);
        Ok(())
    }

    /// The paper's network, clean.
    pub fn atm() -> SimNet {
        SimNet::new(LinkProfile::atm_unet(), FaultConfig::none())
    }

    /// Fault counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }

    fn enqueue(&mut self, at: Nanos, from: EndpointAddr, to: EndpointAddr, frame: Msg) {
        let seqno = self.seqno;
        self.seqno += 1;
        self.queue.push(Reverse(InFlightFrame {
            at,
            seqno,
            from,
            to,
            frame,
        }));
    }
}

impl Netif for SimNet {
    fn send(&mut self, from: EndpointAddr, to: EndpointAddr, frame: Msg, now: Nanos) {
        if let Some(pcap) = &mut self.pcap {
            let _ = pcap.record(now, frame.as_slice());
        }

        // Serialization: the line carries one frame at a time.
        let start = now.max(self.line_free_at);
        let ser = self.profile.serialization(frame.len());
        self.line_free_at = start + ser;

        let decision = self.faults.decide();
        if !decision.deliver {
            return;
        }
        let mut frame = frame;
        if let Some(i) = decision.corrupt_at {
            if !frame.is_empty() {
                let idx = i % frame.len();
                frame.set_byte_at(idx, frame.byte_at(idx) ^ (1 << (i % 8)));
            }
        }
        let arrive = start + ser + self.profile.propagation(frame.len()) + decision.extra_delay;
        if decision.duplicate {
            self.enqueue(arrive + 1, from, to, frame.clone());
        }
        self.enqueue(arrive, from, to, frame);
    }

    fn poll_arrival(&mut self, now: Nanos) -> Option<Arrival> {
        if self.queue.peek().map(|Reverse(f)| f.at <= now) != Some(true) {
            return None;
        }
        let Reverse(f) = self.queue.pop().expect("peeked");
        Some(Arrival {
            from: f.from,
            to: f.to,
            frame: f.frame,
            at: f.at,
        })
    }

    fn next_arrival_at(&self) -> Option<Nanos> {
        self.queue.peek().map(|Reverse(f)| f.at)
    }

    fn in_flight(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(n: u64) -> EndpointAddr {
        EndpointAddr::from_parts(n, 1)
    }

    fn frame(len: usize) -> Msg {
        Msg::from_payload(&vec![0xEE; len])
    }

    #[test]
    fn small_frame_arrives_after_base_latency() {
        let mut net = SimNet::atm();
        net.send(ep(1), ep(2), frame(8), 1000);
        assert_eq!(net.poll_arrival(1000 + 35_000 - 1 + 500), None, "not yet");
        let a = net.poll_arrival(1_000_000).unwrap();
        // serialization of 8 bytes at 15 MB/s ≈ 533 ns, then 35 µs.
        assert_eq!(a.at, 1000 + net.profile.serialization(8) + 35_000);
        assert_eq!(a.to, ep(2));
    }

    #[test]
    fn fifo_for_equal_arrival_times() {
        let mut net = SimNet::new(LinkProfile::ideal(), FaultConfig::none());
        net.send(ep(1), ep(2), Msg::from_payload(b"first"), 5);
        net.send(ep(1), ep(2), Msg::from_payload(b"second"), 5);
        assert_eq!(net.poll_arrival(5).unwrap().frame.as_slice(), b"first");
        assert_eq!(net.poll_arrival(5).unwrap().frame.as_slice(), b"second");
    }

    #[test]
    fn line_rate_serializes_back_to_back_sends() {
        let mut net = SimNet::atm();
        // Two 1 KB frames sent at the same instant: the second waits for
        // the line.
        net.send(ep(1), ep(2), frame(1024), 0);
        net.send(ep(1), ep(2), frame(1024), 0);
        let a = net.poll_arrival(u64::MAX).unwrap();
        let b = net.poll_arrival(u64::MAX).unwrap();
        let ser = net.profile.serialization(1024);
        assert_eq!(
            b.at - a.at,
            ser,
            "second frame delayed by one serialization time"
        );
    }

    #[test]
    fn burst_send_serializes_like_back_to_back_sends() {
        // The frame-burst API on SimNet is deterministic: a burst is
        // exactly a back-to-back send sequence (same line serialization,
        // same FIFO order, same fault-injector decisions), and
        // recv_burst releases only frames whose arrival time has passed.
        let mk = || -> Vec<Msg> { (0u8..4).map(|i| Msg::from_payload(&[i; 64])).collect() };
        let mut a = SimNet::atm();
        let mut frames = mk();
        assert_eq!(a.send_burst(ep(1), ep(2), &mut frames, 0), 4);
        let mut b = SimNet::atm();
        for f in mk() {
            b.send(ep(1), ep(2), f, 0);
        }
        let mut burst_arrivals = Vec::new();
        a.recv_burst(u64::MAX, 16, &mut burst_arrivals);
        let mut loop_arrivals = Vec::new();
        while let Some(arr) = b.poll_arrival(u64::MAX) {
            loop_arrivals.push(arr);
        }
        assert_eq!(burst_arrivals, loop_arrivals, "burst == per-frame loop");
        assert_eq!(burst_arrivals.len(), 4);

        // Partial burst: at the first frame's arrival time, later
        // frames are still serializing on the line.
        let mut c = SimNet::atm();
        let mut frames = mk();
        c.send_burst(ep(1), ep(2), &mut frames, 0);
        let first_at = c.next_arrival_at().unwrap();
        let mut out = Vec::new();
        assert_eq!(c.recv_burst(first_at, 16, &mut out), 1);
        assert_eq!(c.in_flight(), 3);
    }

    #[test]
    fn next_arrival_supports_event_stepping() {
        let mut net = SimNet::atm();
        assert_eq!(net.next_arrival_at(), None);
        net.send(ep(1), ep(2), frame(8), 0);
        let t = net.next_arrival_at().unwrap();
        assert!(net.poll_arrival(t - 1).is_none());
        assert!(net.poll_arrival(t).is_some());
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn drops_reduce_deliveries() {
        let cfg = FaultConfig {
            drop: 1.0,
            ..FaultConfig::none()
        };
        let mut net = SimNet::new(LinkProfile::ideal(), cfg);
        for _ in 0..10 {
            net.send(ep(1), ep(2), frame(8), 0);
        }
        assert_eq!(net.poll_arrival(u64::MAX), None);
        assert_eq!(net.fault_stats().dropped, 10);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let cfg = FaultConfig {
            corrupt: 1.0,
            ..FaultConfig::none()
        };
        let mut net = SimNet::new(LinkProfile::ideal(), cfg);
        let original = frame(64);
        net.send(ep(1), ep(2), original.clone(), 0);
        let got = net.poll_arrival(u64::MAX).unwrap().frame;
        let diff: u32 = original
            .as_slice()
            .iter()
            .zip(got.as_slice())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one flipped bit");
    }

    #[test]
    fn duplicates_arrive_twice() {
        let cfg = FaultConfig {
            duplicate: 1.0,
            ..FaultConfig::none()
        };
        let mut net = SimNet::new(LinkProfile::ideal(), cfg);
        net.send(ep(1), ep(2), frame(8), 0);
        assert!(net.poll_arrival(u64::MAX).is_some());
        assert!(net.poll_arrival(u64::MAX).is_some());
        assert!(net.poll_arrival(u64::MAX).is_none());
    }

    #[test]
    fn reorder_delays_past_successor() {
        let cfg = FaultConfig {
            reorder: 0.5,
            seed: 3,
            ..FaultConfig::none()
        };
        let mut net = SimNet::new(LinkProfile::ideal(), cfg);
        for i in 0..20u8 {
            net.send(ep(1), ep(2), Msg::from_payload(&[i]), (i as u64) * 10);
        }
        let mut order = Vec::new();
        while let Some(a) = net.poll_arrival(u64::MAX) {
            order.push(a.frame.byte_at(0));
        }
        assert_eq!(order.len(), 20);
        let sorted: Vec<u8> = {
            let mut s = order.clone();
            s.sort();
            s
        };
        assert_ne!(order, sorted, "some frames must be out of order");
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut net = SimNet::new(LinkProfile::atm_unet(), FaultConfig::mild(99));
            let mut arrivals = Vec::new();
            for i in 0..50u8 {
                net.send(ep(1), ep(2), Msg::from_payload(&[i; 16]), i as u64 * 1000);
            }
            while let Some(a) = net.poll_arrival(u64::MAX) {
                arrivals.push((a.at, a.frame.to_wire()));
            }
            arrivals
        };
        assert_eq!(run(), run());
    }
}
