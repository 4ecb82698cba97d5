//! PA configuration: every masking mechanism is a knob.
//!
//! The paper's evaluation compares the PA against plain layered
//! processing; the discussion section (§6) and our ablation experiment
//! (A1 in DESIGN.md) vary individual mechanisms. Each mechanism is
//! therefore independently switchable, and the no-PA baseline is just a
//! configuration, not a second code base.

use pa_wire::LayoutMode;

/// Configuration of one Protocol Accelerator instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaConfig {
    /// Header prediction (§3.2). Off: every message takes the full
    /// pre-send / pre-deliver traversal.
    pub predict: bool,
    /// Connection cookies (§2.2). Off: the connection identification is
    /// included on *every* message, as traditional stacks do.
    pub cookies: bool,
    /// Lazy post-processing (§3.1). Off: post phases run inline on the
    /// critical path, immediately after each send/delivery.
    pub lazy_post: bool,
    /// Message packing of backlogged sends (§3.4). Off: the backlog
    /// drains one message at a time.
    pub packing: bool,
    /// Maximum number of messages packed into one frame.
    pub max_pack: usize,
    /// Allow packing runs of *different-size* messages (the "more
    /// sophisticated header, such as used in the original Horus system"
    /// extension of §3.4). Off: only same-size runs pack, as in the
    /// paper's current PA.
    pub variable_packing: bool,
    /// Header layout (§2.1): PA cross-layer packing or the traditional
    /// per-layer padded scheme.
    pub layout_mode: LayoutMode,
    /// How many initial messages carry the connection identification
    /// (the paper sends it on the first message; raising this is the
    /// "agree on a cookie before starting to use it" mitigation for
    /// first-message loss).
    pub ident_on_first: u32,
    /// In-band trace context (journeys). On: the engine declares a
    /// `trace_journey`/`trace_hop` pair in the Message Specific class
    /// via the same `add_field` path every layer uses, the *send
    /// filter* fills them from patchable slots (§3.3 — tracing rides
    /// the PA's own header machinery), and both sides emit
    /// `JourneySend`/`JourneyDeliver` probe events. Off (the default):
    /// the fields are never declared, so the compiled layout, the
    /// stack fingerprint, and every wire byte are identical to an
    /// untraced build. Both peers must agree on this flag — a mismatch
    /// is a stack mismatch and is caught by the fingerprint in the
    /// connection identification.
    pub trace_ctx: bool,
}

impl PaConfig {
    /// The PA exactly as evaluated in the paper's §5.
    pub fn paper_default() -> PaConfig {
        PaConfig {
            predict: true,
            cookies: true,
            lazy_post: true,
            packing: true,
            max_pack: 64,
            variable_packing: false,
            layout_mode: LayoutMode::Packed,
            ident_on_first: 1,
            trace_ctx: false,
        }
    }

    /// The layered no-PA baseline: everything the PA masks is back on
    /// the critical path and on the wire.
    pub fn no_pa_baseline() -> PaConfig {
        PaConfig {
            predict: false,
            cookies: false,
            lazy_post: false,
            packing: false,
            max_pack: 1,
            variable_packing: false,
            layout_mode: LayoutMode::Traditional,
            ident_on_first: u32::MAX,
            trace_ctx: false,
        }
    }

    /// [`PaConfig::paper_default`], under the name it had while the
    /// fused packet filter (the paper's stated future-work
    /// optimization, §3.3) was an opt-in backend. It is the only engine
    /// now, so the two are equal.
    pub fn accelerated() -> PaConfig {
        PaConfig::paper_default()
    }
}

impl Default for PaConfig {
    fn default() -> Self {
        PaConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_enables_all_mechanisms() {
        let c = PaConfig::paper_default();
        assert!(c.predict && c.cookies && c.lazy_post && c.packing);
        assert_eq!(c.layout_mode, LayoutMode::Packed);
        assert_eq!(c.ident_on_first, 1);
        // Tracing is opt-in: the paper's evaluated PA carries no trace
        // context, so the default wire format matches §5 exactly.
        assert!(!c.trace_ctx);
    }

    #[test]
    fn baseline_disables_all_mechanisms() {
        let c = PaConfig::no_pa_baseline();
        assert!(!c.predict && !c.cookies && !c.lazy_post && !c.packing);
        assert_eq!(c.layout_mode, LayoutMode::Traditional);
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(PaConfig::default(), PaConfig::paper_default());
    }

    #[test]
    fn accelerated_is_paper_default() {
        assert_eq!(PaConfig::accelerated(), PaConfig::paper_default());
    }
}
