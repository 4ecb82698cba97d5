//! User-level network interfaces.
//!
//! The paper runs over **U-Net** (Basu et al., SOSP '95): a user-level
//! interface to a Fore 140 Mbit/s ATM network with ~35 µs raw one-way
//! latency for frames of 40 bytes or less, and "at least twice as long"
//! for larger frames. We cannot requisition 1995 SBA-200 boards, so
//! this crate substitutes:
//!
//! - [`SimNet`] — a virtual-time network with a configurable
//!   [`LinkProfile`] (base latency, per-byte cost, line rate) and
//!   smoltcp-style deterministic **fault injection** (drop, corrupt,
//!   duplicate, reorder) for robustness tests and experiments,
//! - [`LoopbackNet`] — zero-latency in-order delivery for unit tests,
//! - [`UdpNet`] — real UDP sockets, so the examples can run between
//!   actual processes.
//!
//! All three implement [`Netif`]; hosts drive them with explicit time,
//! which is what makes every experiment in `pa-sim` reproducible.

// `deny` rather than `forbid`: the batched-syscall module (`mmsg`) is
// the crate's single sanctioned unsafe island — hand-declared
// `recvmmsg`/`sendmmsg` FFI, since the workspace links no external
// crates. Everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod loopback;
#[cfg(target_os = "linux")]
mod mmsg;
pub mod netif;
pub mod pcap;
pub mod profile;
pub mod simnet;
pub mod udp;

pub use faults::FaultConfig;
pub use loopback::LoopbackNet;
pub use netif::{Arrival, Netif};
pub use pcap::PcapWriter;
pub use profile::LinkProfile;
pub use simnet::SimNet;
pub use udp::UdpNet;

/// Time in nanoseconds (virtual for [`SimNet`], wall-clock for
/// [`UdpNet`]).
pub type Nanos = u64;
