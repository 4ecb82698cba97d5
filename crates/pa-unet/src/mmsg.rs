//! Batched datagram syscalls: `recvmmsg` / `sendmmsg` (Linux only).
//!
//! The per-packet engine pays one syscall per frame; at saturation the
//! syscall dominates the frame's entire protocol cost. Linux has had
//! batched variants since 2.6.33 (`recvmmsg`) / 3.0 (`sendmmsg`) that
//! move a whole vector of datagrams per kernel crossing. This module is
//! the one unsafe island in the crate: hand-declared FFI prototypes and
//! the kernel's `mmsghdr` ABI, kept exactly as small as the two calls
//! need. The workspace links no external crates, and `std` already
//! links libc — declaring the two symbols ourselves costs nothing.
//!
//! Layout notes (64-bit Linux, matches the kernel's `user_msghdr`):
//! `msg_namelen` is a 32-bit `socklen_t` followed by implicit padding,
//! `msg_iovlen`/`msg_controllen` are `size_t`. `mmsghdr` appends a
//! 32-bit `msg_len` (bytes received per slot) plus tail padding.
//!
//! Every slot keeps its own receive buffer of `max_frame + 1` bytes —
//! the same truncation sentinel the per-frame path uses, but *per
//! slot*, so one clipped datagram in a burst is detected and rejected
//! without disturbing its neighbors.
#![allow(unsafe_code)]

use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, SocketAddrV4, SocketAddrV6};
use std::os::raw::{c_int, c_uint, c_void};

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const MSG_DONTWAIT: c_int = 0x40;
/// Size of the kernel's `sockaddr_storage`.
const SS_SIZE: usize = 128;

#[repr(C)]
struct IoVec {
    base: *mut c_void,
    len: usize,
}

#[repr(C)]
struct MsgHdr {
    name: *mut c_void,
    namelen: u32,
    iov: *mut IoVec,
    iovlen: usize,
    control: *mut c_void,
    controllen: usize,
    flags: c_int,
}

#[repr(C)]
struct MMsgHdr {
    hdr: MsgHdr,
    len: c_uint,
}

extern "C" {
    fn recvmmsg(
        sockfd: c_int,
        msgvec: *mut MMsgHdr,
        vlen: c_uint,
        flags: c_int,
        timeout: *mut c_void,
    ) -> c_int;
    fn sendmmsg(sockfd: c_int, msgvec: *mut MMsgHdr, vlen: c_uint, flags: c_int) -> c_int;
}

/// Aligned backing store for one `sockaddr_storage`.
#[repr(C, align(8))]
#[derive(Clone)]
struct SockAddrBuf([u8; SS_SIZE]);

/// Reusable slot arrays for batched receive/send. All vectors grow to
/// the high-water burst size once and are then reused — the steady
/// state performs zero heap allocations per burst.
pub struct MmsgSlots {
    frame_cap: usize,
    bufs: Vec<Vec<u8>>,
    addrs: Vec<SockAddrBuf>,
    iovs: Vec<IoVec>,
    hdrs: Vec<MMsgHdr>,
    /// Per-slot results of the last receive: (bytes, decoded source).
    results: Vec<(usize, Option<SocketAddr>)>,
}

impl std::fmt::Debug for MmsgSlots {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmsgSlots")
            .field("frame_cap", &self.frame_cap)
            .field("slots", &self.bufs.len())
            .finish()
    }
}

impl MmsgSlots {
    /// Slots whose per-datagram buffers hold `max_frame` bytes plus the
    /// one-byte truncation sentinel.
    pub fn new(max_frame: usize) -> Self {
        MmsgSlots {
            frame_cap: max_frame + 1,
            bufs: Vec::new(),
            addrs: Vec::new(),
            iovs: Vec::new(),
            hdrs: Vec::new(),
            results: Vec::new(),
        }
    }

    /// Grows the per-slot storage to `n` slots and empties `hdrs`, which
    /// holds raw pointers into it and is rebuilt on every call.
    fn ensure(&mut self, n: usize) {
        while self.bufs.len() < n {
            self.bufs.push(vec![0u8; self.frame_cap]);
            self.addrs.push(SockAddrBuf([0u8; SS_SIZE]));
        }
        self.hdrs.clear();
        self.hdrs.reserve(n);
    }

    /// Bytes of slot `i` from the last receive.
    pub fn buf(&self, i: usize) -> &[u8] {
        let (len, _) = self.results[i];
        &self.bufs[i][..len]
    }

    /// (length, decoded source address) of slot `i` from the last
    /// receive. A length of `frame_cap` means the sentinel byte was
    /// reached: the kernel truncated the datagram.
    pub fn result(&self, i: usize) -> (usize, Option<SocketAddr>) {
        self.results[i]
    }

    /// Receives up to `max` datagrams in one `recvmmsg` call. Returns
    /// the number of slots filled (0 when nothing is queued). Each
    /// slot's bytes and source are then available via [`MmsgSlots::buf`]
    /// / [`MmsgSlots::result`].
    pub fn recv_batch(&mut self, fd: c_int, max: usize) -> io::Result<usize> {
        if max == 0 {
            return Ok(0);
        }
        self.ensure(max);
        self.results.clear();
        self.iovs.clear();
        for i in 0..max {
            self.iovs.push(IoVec {
                base: self.bufs[i].as_mut_ptr().cast(),
                len: self.frame_cap,
            });
        }
        for i in 0..max {
            self.hdrs.push(MMsgHdr {
                hdr: MsgHdr {
                    name: self.addrs[i].0.as_mut_ptr().cast(),
                    namelen: SS_SIZE as u32,
                    iov: &mut self.iovs[i],
                    iovlen: 1,
                    control: std::ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            });
        }
        // SAFETY: every pointer in `hdrs` targets a live, uniquely
        // owned buffer in `self` that outlives the call; vlen == max ==
        // hdrs.len(); the null timeout is permitted (no wait).
        let got = unsafe {
            recvmmsg(
                fd,
                self.hdrs.as_mut_ptr(),
                max as c_uint,
                MSG_DONTWAIT,
                std::ptr::null_mut(),
            )
        };
        if got < 0 {
            let err = io::Error::last_os_error();
            return if err.kind() == io::ErrorKind::WouldBlock {
                Ok(0)
            } else {
                Err(err)
            };
        }
        let got = got as usize;
        for i in 0..got {
            let len = self.hdrs[i].len as usize;
            let src = decode_sockaddr(&self.addrs[i].0, self.hdrs[i].hdr.namelen as usize);
            self.results.push((len, src));
        }
        Ok(got)
    }

    /// Sends `frames` (all to `dest`) in as few `sendmmsg` calls as
    /// possible. Best-effort like the per-frame path: a would-block or
    /// transient error abandons the remainder — UDP may drop, so may
    /// we. Returns how many frames the kernel accepted.
    pub fn send_batch<'a>(
        &mut self,
        fd: c_int,
        frames: impl Iterator<Item = &'a [u8]>,
        dest: SocketAddr,
    ) -> usize {
        // The iovecs first: their count is the burst's slot count, and
        // `hdrs` may point into `iovs` only once it has stopped growing.
        self.iovs.clear();
        self.iovs.extend(frames.map(|f| IoVec {
            base: f.as_ptr() as *mut c_void,
            len: f.len(),
        }));
        let n = self.iovs.len();
        if n == 0 {
            return 0;
        }
        self.ensure(n);
        let (addr_len, _) = encode_sockaddr(dest, &mut self.addrs[0].0);
        // Every slot shares the same destination encoding.
        for i in 1..n {
            self.addrs[i] = self.addrs[0].clone();
        }
        for i in 0..n {
            self.hdrs.push(MMsgHdr {
                hdr: MsgHdr {
                    name: self.addrs[i].0.as_mut_ptr().cast(),
                    namelen: addr_len as u32,
                    iov: &mut self.iovs[i],
                    iovlen: 1,
                    control: std::ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            });
        }
        let mut sent = 0usize;
        while sent < n {
            // SAFETY: pointers in `hdrs[sent..]` target live buffers
            // (frame slices borrowed for this call, addr storage in
            // `self`); vlen matches the remaining slot count.
            let rc = unsafe {
                sendmmsg(
                    fd,
                    self.hdrs.as_mut_ptr().add(sent),
                    (n - sent) as c_uint,
                    MSG_DONTWAIT,
                )
            };
            if rc <= 0 {
                break;
            }
            sent += rc as usize;
        }
        sent
    }
}

fn decode_sockaddr(raw: &[u8; SS_SIZE], len: usize) -> Option<SocketAddr> {
    if len < 2 {
        return None;
    }
    let family = u16::from_ne_bytes([raw[0], raw[1]]);
    match family {
        AF_INET if len >= 16 => {
            let port = u16::from_be_bytes([raw[2], raw[3]]);
            let ip = Ipv4Addr::new(raw[4], raw[5], raw[6], raw[7]);
            Some(SocketAddr::V4(SocketAddrV4::new(ip, port)))
        }
        AF_INET6 if len >= 28 => {
            let port = u16::from_be_bytes([raw[2], raw[3]]);
            let flowinfo = u32::from_be_bytes([raw[4], raw[5], raw[6], raw[7]]);
            let mut ip = [0u8; 16];
            ip.copy_from_slice(&raw[8..24]);
            let scope = u32::from_ne_bytes([raw[24], raw[25], raw[26], raw[27]]);
            Some(SocketAddr::V6(SocketAddrV6::new(
                Ipv6Addr::from(ip),
                port,
                flowinfo,
                scope,
            )))
        }
        _ => None,
    }
}

fn encode_sockaddr(addr: SocketAddr, out: &mut [u8; SS_SIZE]) -> (usize, u16) {
    out.fill(0);
    match addr {
        SocketAddr::V4(v4) => {
            out[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
            out[2..4].copy_from_slice(&v4.port().to_be_bytes());
            out[4..8].copy_from_slice(&v4.ip().octets());
            (16, AF_INET)
        }
        SocketAddr::V6(v6) => {
            out[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
            out[2..4].copy_from_slice(&v6.port().to_be_bytes());
            out[4..8].copy_from_slice(&v6.flowinfo().to_be_bytes());
            out[8..24].copy_from_slice(&v6.ip().octets());
            out[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
            (28, AF_INET6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sockaddr_v4_round_trips() {
        let mut buf = [0u8; SS_SIZE];
        let addr: SocketAddr = "127.0.0.1:4567".parse().unwrap();
        let (len, fam) = encode_sockaddr(addr, &mut buf);
        assert_eq!((len, fam), (16, AF_INET));
        assert_eq!(decode_sockaddr(&buf, len), Some(addr));
    }

    #[test]
    fn sockaddr_v6_round_trips() {
        let mut buf = [0u8; SS_SIZE];
        let addr: SocketAddr = "[::1]:9999".parse().unwrap();
        let (len, fam) = encode_sockaddr(addr, &mut buf);
        assert_eq!((len, fam), (28, AF_INET6));
        assert_eq!(decode_sockaddr(&buf, len), Some(addr));
    }

    #[test]
    fn short_or_unknown_sockaddr_is_none() {
        let buf = [0u8; SS_SIZE];
        assert_eq!(decode_sockaddr(&buf, 1), None);
        let mut buf = [0u8; SS_SIZE];
        buf[0..2].copy_from_slice(&77u16.to_ne_bytes());
        assert_eq!(decode_sockaddr(&buf, 16), None);
    }

    #[test]
    fn abi_struct_sizes_match_the_kernel() {
        // 64-bit Linux: iovec 16, user_msghdr 56, mmsghdr 64 (4-byte
        // msg_len + tail padding). A drift here corrupts the syscall.
        assert_eq!(std::mem::size_of::<IoVec>(), 16);
        assert_eq!(std::mem::size_of::<MsgHdr>(), 56);
        assert_eq!(std::mem::size_of::<MMsgHdr>(), 64);
    }
}
