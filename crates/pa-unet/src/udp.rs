//! A real transport: UDP sockets.
//!
//! Maps [`EndpointAddr`]s to UDP socket addresses so the examples can
//! run the PA between actual OS processes. UDP is a faithful stand-in
//! for U-Net's service model: unreliable, unordered datagrams — the
//! sliding-window stack on top provides the reliability, exactly as in
//! the paper.

use crate::netif::{Arrival, Netif};
use crate::Nanos;
use pa_buf::{Msg, MsgPool, PoolStats};
use pa_obs::{RejectLedger, RejectReason};
use pa_wire::EndpointAddr;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
#[cfg(target_os = "linux")]
use std::os::fd::AsRawFd;

/// Default maximum frame accepted (frames are far smaller; a whole UDP
/// datagram always fits).
const MAX_DATAGRAM: usize = 65_536;

/// A UDP-backed network interface.
///
/// Frames larger than the configured maximum are refused on the send
/// side ([`RejectReason::OversizedDatagram`]) and *detected* — not
/// silently clipped — on the receive side: the receive buffer carries
/// one sentinel byte beyond the maximum, so a read that fills it proves
/// the kernel truncated the datagram, and the partial frame is dropped
/// and counted ([`RejectReason::TruncatedDatagram`]) instead of being
/// handed upstack as if it were what the peer sent.
#[derive(Debug)]
pub struct UdpNet {
    socket: UdpSocket,
    local: EndpointAddr,
    peers: HashMap<EndpointAddr, SocketAddr>,
    rev: HashMap<SocketAddr, EndpointAddr>,
    buf: Vec<u8>,
    max_frame: usize,
    rejects: RejectLedger,
    /// Pool feeding burst-receive [`Arrival`] frames (§6 explicit
    /// recycling at the netif layer): the steady state copies bytes into
    /// recycled buffers instead of allocating per datagram, and a miss
    /// allocates once, sized for its datagram.
    pool: MsgPool,
    /// Reusable `recvmmsg`/`sendmmsg` slot arrays.
    #[cfg(target_os = "linux")]
    mmsg: crate::mmsg::MmsgSlots,
}

impl UdpNet {
    /// Binds a socket and labels it with `local`.
    pub fn bind(local: EndpointAddr, addr: &str) -> io::Result<UdpNet> {
        Self::bind_with_max_frame(local, addr, MAX_DATAGRAM)
    }

    /// Like [`UdpNet::bind`], but with an explicit per-frame size cap.
    /// The receive buffer is `max_frame + 1` bytes: the extra byte is
    /// the truncation sentinel.
    pub(crate) fn bind_with_max_frame(
        local: EndpointAddr,
        addr: &str,
        max_frame: usize,
    ) -> io::Result<UdpNet> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_nonblocking(true)?;
        Ok(UdpNet {
            socket,
            local,
            peers: HashMap::new(),
            rev: HashMap::new(),
            buf: vec![0u8; max_frame + 1],
            max_frame,
            rejects: RejectLedger::default(),
            // Wire frames carry no headroom (they are parsed, not
            // grown); retain enough for a few max-size bursts.
            pool: MsgPool::new(0, 256),
            #[cfg(target_os = "linux")]
            mmsg: crate::mmsg::MmsgSlots::new(max_frame),
        })
    }

    /// The socket's actual bound address (useful with port 0).
    pub fn local_socket_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Registers where an endpoint address lives.
    pub fn add_peer(&mut self, ep: EndpointAddr, addr: SocketAddr) {
        self.peers.insert(ep, addr);
        self.rev.insert(addr, ep);
    }

    /// Frames this interface refused, by reason (netif bucket only:
    /// oversized sends, truncated reads).
    pub fn rejects(&self) -> &RejectLedger {
        &self.rejects
    }

    /// Hands a delivered burst frame back to the interface's pool so
    /// the next [`Netif::recv_burst`] reuses it (§6 explicit
    /// recycling). Only frames minted by this interface should come
    /// back here, but any `Msg` is accepted — it is reset on reuse.
    pub fn recycle_frame(&mut self, frame: Msg) {
        self.pool.put(frame);
    }

    /// Burst-frame pool counters (hits/misses/returns/capped).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }
}

impl Netif for UdpNet {
    fn send(&mut self, _from: EndpointAddr, to: EndpointAddr, frame: Msg, _now: Nanos) {
        if frame.len() > self.max_frame {
            // The peer's receive buffer would clip this; refusing it
            // here keeps "bytes on the wire" == "bytes the app sent".
            self.rejects.bump(RejectReason::OversizedDatagram);
            return;
        }
        if let Some(addr) = self.peers.get(&to) {
            // Best effort: UDP may drop; so may we. The stack recovers.
            let _ = self.socket.send_to(frame.as_slice(), addr);
        }
    }

    fn poll_arrival(&mut self, now: Nanos) -> Option<Arrival> {
        loop {
            match self.socket.recv_from(&mut self.buf) {
                Ok((n, src)) => {
                    if n > self.max_frame {
                        // The read reached the sentinel byte: the
                        // datagram was at least `max_frame + 1` bytes
                        // and the kernel may have discarded its tail.
                        // A partial frame must not masquerade as a
                        // complete one — drop, count, keep polling.
                        self.rejects.bump(RejectReason::TruncatedDatagram);
                        continue;
                    }
                    let from = self
                        .rev
                        .get(&src)
                        .copied()
                        .unwrap_or(EndpointAddr::from_parts(0, 0));
                    return Some(Arrival {
                        from,
                        to: self.local,
                        frame: Msg::from_wire(self.buf[..n].to_vec()),
                        at: now,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return None,
                Err(_) => return None,
            }
        }
    }

    fn next_arrival_at(&self) -> Option<Nanos> {
        // Real networks don't pre-announce arrivals.
        None
    }

    fn in_flight(&self) -> usize {
        0
    }

    /// One `sendmmsg` per burst on Linux (per-frame `send_to` loop
    /// elsewhere). Oversized frames are rejected slot-by-slot exactly
    /// like the per-frame path — a refused frame never blocks its
    /// neighbors from going out in the same kernel crossing.
    #[cfg(target_os = "linux")]
    fn send_burst(
        &mut self,
        _from: EndpointAddr,
        to: EndpointAddr,
        frames: &mut Vec<Msg>,
        _now: Nanos,
    ) -> usize {
        let Some(&addr) = self.peers.get(&to) else {
            // Unknown destination: silently dropped, like `send`.
            frames.clear();
            return 0;
        };
        let max_frame = self.max_frame;
        for _ in frames.iter().filter(|f| f.len() > max_frame) {
            self.rejects.bump(RejectReason::OversizedDatagram);
        }
        let fitting = frames
            .iter()
            .map(Msg::as_slice)
            .filter(|f| f.len() <= max_frame);
        let accepted = self.mmsg.send_batch(self.socket.as_raw_fd(), fitting, addr);
        // The kernel has copied what it took: the buffers are the next
        // receive burst's, not the allocator's.
        for frame in frames.drain(..) {
            self.pool.put(frame);
        }
        accepted
    }

    /// One `recvmmsg` per call on Linux (per-frame `recv_from` loop
    /// elsewhere); each datagram is copied into a buffer taken from the
    /// pool, as the per-frame path would take it. Each slot
    /// keeps its own truncation sentinel: a clipped datagram is
    /// dropped and counted without poisoning the rest of the burst.
    #[cfg(target_os = "linux")]
    fn recv_burst(&mut self, now: Nanos, max: usize, out: &mut Vec<Arrival>) -> usize {
        let mut appended = 0;
        while appended < max {
            let want = max - appended;
            let got = match self.mmsg.recv_batch(self.socket.as_raw_fd(), want) {
                Ok(0) | Err(_) => break,
                Ok(n) => n,
            };
            for i in 0..got {
                let (len, src) = self.mmsg.result(i);
                if len > self.max_frame {
                    // Slot reached its sentinel byte: the kernel
                    // truncated this datagram. Drop and count it; the
                    // neighboring slots are intact and still delivered.
                    self.rejects.bump(RejectReason::TruncatedDatagram);
                    continue;
                }
                let from = src
                    .and_then(|s| self.rev.get(&s).copied())
                    .unwrap_or(EndpointAddr::from_parts(0, 0));
                let frame = self.pool.take_with(&self.mmsg.buf(i)[..len]);
                out.push(Arrival {
                    from,
                    to: self.local,
                    frame,
                    at: now,
                });
                appended += 1;
            }
            if got < want {
                break;
            }
        }
        appended
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(n: u64) -> EndpointAddr {
        EndpointAddr::from_parts(n, 1)
    }

    #[test]
    fn two_sockets_exchange_frames() {
        let mut a = UdpNet::bind(ep(1), "127.0.0.1:0").unwrap();
        let mut b = UdpNet::bind(ep(2), "127.0.0.1:0").unwrap();
        let a_addr = a.local_socket_addr().unwrap();
        let b_addr = b.local_socket_addr().unwrap();
        a.add_peer(ep(2), b_addr);
        b.add_peer(ep(1), a_addr);

        a.send(ep(1), ep(2), Msg::from_payload(b"over the real wire"), 0);
        // Give the kernel a moment.
        let mut got = None;
        for _ in 0..100 {
            if let Some(arr) = b.poll_arrival(0) {
                got = Some(arr);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let arr = got.expect("datagram must arrive on loopback");
        assert_eq!(arr.frame.as_slice(), b"over the real wire");
        assert_eq!(arr.from, ep(1));
        assert_eq!(arr.to, ep(2));
    }

    #[test]
    fn unknown_destination_is_silently_dropped() {
        let mut a = UdpNet::bind(ep(1), "127.0.0.1:0").unwrap();
        // No peer registered: no panic, nothing sent.
        a.send(ep(1), ep(9), Msg::from_payload(b"void"), 0);
        assert!(a.poll_arrival(0).is_none());
    }

    /// Polls `net` until a frame arrives or ~100 ms pass.
    fn poll_for(net: &mut UdpNet) -> Option<Arrival> {
        for _ in 0..100 {
            if let Some(arr) = net.poll_arrival(0) {
                return Some(arr);
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        None
    }

    #[test]
    fn truncated_datagram_detected_and_dropped_not_clipped() {
        // Regression: `poll_arrival` used to hand a kernel-truncated
        // read upstack as if it were the full frame. With a small
        // max-frame the sentinel byte detects the clip; the partial
        // frame is dropped and counted, and traffic that fits still
        // flows afterwards.
        let mut rx = UdpNet::bind_with_max_frame(ep(2), "127.0.0.1:0", 32).unwrap();
        let mut tx = UdpNet::bind(ep(1), "127.0.0.1:0").unwrap();
        let rx_addr = rx.local_socket_addr().unwrap();
        tx.add_peer(ep(2), rx_addr);
        rx.add_peer(ep(1), tx.local_socket_addr().unwrap());

        // 100 bytes into a 32-byte-max receiver: the kernel clips the
        // read at 33 bytes (our sentinel), which must NOT surface as a
        // 33-byte frame.
        tx.send(ep(1), ep(2), Msg::from_payload(&[0xEE; 100]), 0);
        // Follow with a frame that fits, to prove the storm didn't
        // wedge the interface.
        tx.send(ep(1), ep(2), Msg::from_payload(b"fits fine"), 0);

        let arr = poll_for(&mut rx).expect("the fitting frame must arrive");
        assert_eq!(arr.frame.as_slice(), b"fits fine");
        // Drain until the clipped datagram has been seen and counted
        // (loopback normally orders it first, but don't rely on that).
        for _ in 0..100 {
            if rx.rejects().total() == 1 {
                break;
            }
            let _ = rx.poll_arrival(0);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(rx.rejects().get(RejectReason::TruncatedDatagram), 1);
        assert_eq!(rx.rejects().total(), 1, "exactly one reject counted");
    }

    #[test]
    fn oversized_send_refused_and_counted() {
        let mut tx = UdpNet::bind_with_max_frame(ep(1), "127.0.0.1:0", 16).unwrap();
        let mut rx = UdpNet::bind(ep(2), "127.0.0.1:0").unwrap();
        tx.add_peer(ep(2), rx.local_socket_addr().unwrap());

        tx.send(ep(1), ep(2), Msg::from_payload(&[1u8; 17]), 0);
        assert_eq!(tx.rejects().get(RejectReason::OversizedDatagram), 1);
        // Nothing was put on the wire.
        assert!(poll_for(&mut rx).is_none());

        // A frame at exactly the cap goes through.
        tx.send(ep(1), ep(2), Msg::from_payload(&[2u8; 16]), 0);
        let arr = poll_for(&mut rx).expect("frame at the cap arrives");
        assert_eq!(arr.frame.len(), 16);
        assert_eq!(tx.rejects().total(), 1);
    }

    /// Polls `net` with `recv_burst` until `want` frames have arrived
    /// or ~200 ms pass.
    fn poll_burst_for(net: &mut UdpNet, want: usize) -> Vec<Arrival> {
        let mut got = Vec::new();
        for _ in 0..200 {
            net.recv_burst(0, want - got.len(), &mut got);
            if got.len() >= want {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        got
    }

    #[test]
    fn burst_round_trip_over_real_sockets() {
        // send_burst → recv_burst over loopback UDP: all frames arrive
        // with payloads and addresses intact, and the receive pool
        // serves the burst (misses at first, then hits).
        let mut a = UdpNet::bind(ep(1), "127.0.0.1:0").unwrap();
        let mut b = UdpNet::bind(ep(2), "127.0.0.1:0").unwrap();
        a.add_peer(ep(2), b.local_socket_addr().unwrap());
        b.add_peer(ep(1), a.local_socket_addr().unwrap());

        let mut frames: Vec<Msg> = (0u8..8).map(|i| Msg::from_payload(&[i, i, i, i])).collect();
        let accepted = a.send_burst(ep(1), ep(2), &mut frames, 0);
        assert_eq!(accepted, 8);
        assert!(frames.is_empty(), "send_burst drains the burst");

        let got = poll_burst_for(&mut b, 8);
        assert_eq!(got.len(), 8, "every frame of the burst arrives");
        // UDP on loopback preserves order in practice, but only assert
        // the multiset: unordered delivery is part of the service model.
        let mut seen: Vec<u8> = got.iter().map(|a| a.frame.as_slice()[0]).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0u8..8).collect::<Vec<_>>());
        for arr in &got {
            assert_eq!(arr.from, ep(1));
            assert_eq!(arr.to, ep(2));
            assert_eq!(arr.frame.len(), 4);
        }

        // Recycle the burst and run another: the pool now serves hits.
        for arr in got {
            b.recycle_frame(arr.frame);
        }
        let mut frames: Vec<Msg> = (8u8..16).map(|i| Msg::from_payload(&[i])).collect();
        a.send_burst(ep(1), ep(2), &mut frames, 0);
        let got = poll_burst_for(&mut b, 8);
        assert_eq!(got.len(), 8);
        let s = b.pool_stats();
        assert_eq!(
            (s.hits, s.misses),
            (8, 8),
            "second burst is served from recycled buffers"
        );
        assert_eq!(b.pool.idle() as u64, s.returns - s.hits - s.capped);
    }

    #[test]
    fn bad_datagram_does_not_poison_burst_neighbors() {
        // One oversized frame inside a send burst and one truncated
        // datagram inside a receive burst: each is rejected in its own
        // slot while every neighbor still flows.
        let mut rx = UdpNet::bind_with_max_frame(ep(2), "127.0.0.1:0", 32).unwrap();
        let mut tx = UdpNet::bind(ep(1), "127.0.0.1:0").unwrap();
        rx.add_peer(ep(1), tx.local_socket_addr().unwrap());
        tx.add_peer(ep(2), rx.local_socket_addr().unwrap());

        // Sender side: a frame over the *sender's* cap is refused in
        // the middle of the burst, neighbors still go out.
        let mut small = UdpNet::bind_with_max_frame(ep(3), "127.0.0.1:0", 8).unwrap();
        small.add_peer(ep(2), rx.local_socket_addr().unwrap());
        rx.add_peer(ep(3), small.local_socket_addr().unwrap());
        let mut burst = vec![
            Msg::from_payload(b"one"),
            Msg::from_payload(&[0xAA; 9]), // over small's 8-byte cap
            Msg::from_payload(b"three"),
        ];
        let accepted = small.send_burst(ep(3), ep(2), &mut burst, 0);
        assert_eq!(accepted, 2, "oversized slot refused, neighbors sent");
        assert_eq!(small.rejects().get(RejectReason::OversizedDatagram), 1);
        let got = poll_burst_for(&mut rx, 2);
        let mut bodies: Vec<&[u8]> = got.iter().map(|a| a.frame.as_slice()).collect();
        bodies.sort_unstable();
        assert_eq!(bodies, vec![b"one".as_slice(), b"three".as_slice()]);

        // Receiver side: a datagram over rx's 32-byte cap lands between
        // two fitting ones; the burst delivers the neighbors and counts
        // exactly one truncation.
        let mut burst = vec![
            Msg::from_payload(b"before"),
            Msg::from_payload(&[0xEE; 100]), // clipped by rx's kernel buf
            Msg::from_payload(b"after"),
        ];
        let accepted = tx.send_burst(ep(1), ep(2), &mut burst, 0);
        assert_eq!(accepted, 3, "tx's own cap admits all three");
        let got = poll_burst_for(&mut rx, 2);
        let mut bodies: Vec<&[u8]> = got.iter().map(|a| a.frame.as_slice()).collect();
        bodies.sort_unstable();
        assert_eq!(
            bodies,
            vec![b"after".as_slice(), b"before".as_slice()],
            "both fitting neighbors of the clipped datagram arrive"
        );
        // Drain until the truncation has been counted.
        for _ in 0..200 {
            if rx.rejects().get(RejectReason::TruncatedDatagram) == 1 {
                break;
            }
            let mut sink = Vec::new();
            rx.recv_burst(0, 4, &mut sink);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(rx.rejects().get(RejectReason::TruncatedDatagram), 1);
    }

    #[test]
    fn recv_burst_respects_max_and_reports_partial() {
        let mut a = UdpNet::bind(ep(1), "127.0.0.1:0").unwrap();
        let mut b = UdpNet::bind(ep(2), "127.0.0.1:0").unwrap();
        a.add_peer(ep(2), b.local_socket_addr().unwrap());
        b.add_peer(ep(1), a.local_socket_addr().unwrap());

        let mut frames: Vec<Msg> = (0u8..5).map(|i| Msg::from_payload(&[i])).collect();
        a.send_burst(ep(1), ep(2), &mut frames, 0);
        // Wait until all five are queued at the receiver's socket.
        let mut first = poll_burst_for(&mut b, 3);
        assert!(first.len() <= 3, "recv_burst never exceeds max");
        // Collect the remainder: partial bursts are normal, not errors.
        let mut total = first.len();
        for _ in 0..200 {
            let mut more = Vec::new();
            b.recv_burst(0, 3, &mut more);
            total += more.len();
            first.extend(more);
            if total == 5 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(total, 5);
    }
}
