//! Link timing profiles.

use crate::Nanos;

/// Timing model of a link: `arrival = departure + base + per-byte·size`
/// plus a serialization constraint (frames occupy the line back to
/// back at the line rate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkProfile {
    /// Fixed one-way latency for a small frame.
    pub base_latency: Nanos,
    /// Frames up to this size pay only the base latency (U-Net's
    /// single-cell 40-byte budget).
    pub small_frame: usize,
    /// Per-byte cost beyond `small_frame`.
    pub per_byte: Nanos,
    /// Line rate in bytes/second (0 = infinite): consecutive frames
    /// serialize at this rate.
    pub line_rate: u64,
}

impl LinkProfile {
    /// The paper's network: U-Net over 140 Mbit/s ATM. 35 µs one-way
    /// for ≤ 40-byte frames; larger frames pay per-byte time at the
    /// ~15 MB/s achievable rate (the paper: "at least twice as long"
    /// for larger messages — a 1 KB frame costs 35 + ~65 µs here).
    pub fn atm_unet() -> LinkProfile {
        LinkProfile {
            base_latency: 35_000,
            small_frame: 40,
            per_byte: 66, // ≈ 1 / 15 MB/s
            line_rate: 15_000_000,
        }
    }

    /// A 10 Mbit/s Ethernet-class link (the FOX comparison's medium):
    /// ~500 µs one-way for small frames.
    pub fn ethernet_10m() -> LinkProfile {
        LinkProfile {
            base_latency: 500_000,
            small_frame: 64,
            per_byte: 800, // 1.25 MB/s
            line_rate: 1_250_000,
        }
    }

    /// An ideal wire: everything arrives instantly.
    pub fn ideal() -> LinkProfile {
        LinkProfile {
            base_latency: 0,
            small_frame: usize::MAX,
            per_byte: 0,
            line_rate: 0,
        }
    }

    /// One-way propagation time of a frame of `len` bytes (excluding
    /// line-rate queueing, which depends on other traffic).
    pub(crate) fn propagation(&self, len: usize) -> Nanos {
        let extra = len.saturating_sub(self.small_frame) as u64;
        self.base_latency + extra * self.per_byte
    }

    /// Time the line is occupied transmitting `len` bytes.
    pub(crate) fn serialization(&self, len: usize) -> Nanos {
        (len as u64)
            .saturating_mul(1_000_000_000)
            .checked_div(self.line_rate)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atm_small_frame_is_35us() {
        let p = LinkProfile::atm_unet();
        assert_eq!(p.propagation(8), 35_000);
        assert_eq!(p.propagation(40), 35_000);
    }

    #[test]
    fn atm_large_frames_cost_more() {
        let p = LinkProfile::atm_unet();
        // Paper: "for larger messages, the latency is at least twice as
        // long" — a 1 KB frame should be ≥ 70 µs.
        assert!(p.propagation(1024) >= 70_000, "{}", p.propagation(1024));
        assert!(p.propagation(41) > p.propagation(40));
    }

    #[test]
    fn serialization_matches_line_rate() {
        let p = LinkProfile::atm_unet();
        // 15 MB at 15 MB/s = 1 s.
        assert_eq!(p.serialization(15_000_000), 1_000_000_000);
        // Ideal line never queues.
        assert_eq!(LinkProfile::ideal().serialization(1 << 20), 0);
    }

    #[test]
    fn ideal_is_instant() {
        let p = LinkProfile::ideal();
        assert_eq!(p.propagation(1_000_000), 0);
    }
}
