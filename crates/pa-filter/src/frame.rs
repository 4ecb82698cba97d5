//! The frame a packet filter operates on.
//!
//! At filter-run time the message has the shape (Figure 1, minus the
//! preamble and optional conn-ident, which the fast paths handle):
//!
//! ```text
//! ┌──────────┬──────────┬────────┬─────────────────────────────┐
//! │ protocol │ message  │ gossip │ body = packing hdr + data   │
//! └──────────┴──────────┴────────┴─────────────────────────────┘
//! ```
//!
//! All three class headers have sizes fixed by the compiled layout, so
//! every field resolves to a constant offset — this is what makes the
//! fused filter program possible. The same frame shape is seen by
//! the send filter (just before the preamble is pushed) and the delivery
//! filter (just after the preamble is popped), so one program text works
//! in either direction.

use pa_buf::{ByteOrder, Msg};
use pa_wire::{Class, CompiledLayout, Field};

/// A mutable view of a message frame plus the layout needed to resolve
/// field handles.
pub struct Frame<'a> {
    msg: &'a mut Msg,
    layout: &'a CompiledLayout,
    order: ByteOrder,
    class_base: [usize; 4],
    body_off: usize,
}

impl<'a> Frame<'a> {
    /// Builds a frame view. The message must start at the protocol
    /// header (preamble and conn-ident already stripped or not yet
    /// added).
    pub fn new(msg: &'a mut Msg, layout: &'a CompiledLayout, order: ByteOrder) -> Frame<'a> {
        let proto = layout.class_len(Class::Protocol);
        let message = layout.class_len(Class::Message);
        let gossip = layout.class_len(Class::Gossip);
        // ConnId is not part of the frame; give it a base that any
        // accidental use would read garbage from deterministically (the
        // verifier rejects ConnId fields before a program can run).
        let class_base = [usize::MAX, 0, proto, proto + message];
        Frame {
            msg,
            layout,
            order,
            class_base,
            body_off: proto + message + gossip,
        }
    }

    /// True if the underlying message is too short for the class headers.
    /// The interpreter refuses to execute over a short frame
    /// ([`crate::SHORT_FRAME`]), so truncated wire bytes cannot panic
    /// it.
    pub(crate) fn is_short(&self) -> bool {
        self.msg.len() < self.body_off
    }

    /// Total frame size (headers + body) — the `PUSH_SIZE` value.
    pub(crate) fn size(&self) -> usize {
        self.msg.len()
    }

    /// Size of the body region — the `PUSH_BODY_SIZE` value.
    pub fn body_size(&self) -> usize {
        self.msg.len() - self.body_off
    }

    /// The body region (packing header + application data), the region
    /// plain digests cover.
    pub fn body(&self) -> &[u8] {
        &self.msg.as_slice()[self.body_off..]
    }

    /// The protocol-specific header bytes.
    pub fn proto_hdr(&self) -> &[u8] {
        let base = self.class_base[Class::Protocol.index()];
        &self.msg.as_slice()[base..base + self.layout.class_len(Class::Protocol)]
    }

    /// The gossip header bytes.
    pub fn gossip_hdr(&self) -> &[u8] {
        let base = self.class_base[Class::Gossip.index()];
        &self.msg.as_slice()[base..base + self.layout.class_len(Class::Gossip)]
    }

    /// Reads scalar field `f`.
    pub fn read(&self, f: Field) -> u64 {
        debug_assert_ne!(
            f.class,
            Class::ConnId,
            "conn-id fields are not in the frame"
        );
        let base = self.class_base[f.class.index()];
        let len = self.layout.class_len(f.class);
        self.layout
            .read_field(f, &self.msg.as_slice()[base..base + len], self.order)
    }

    /// Writes scalar field `f`.
    pub fn write(&mut self, f: Field, v: u64) {
        debug_assert_ne!(
            f.class,
            Class::ConnId,
            "conn-id fields are not in the frame"
        );
        let base = self.class_base[f.class.index()];
        let len = self.layout.class_len(f.class);
        let order = self.order;
        self.layout
            .write_field(f, &mut self.msg.as_mut_slice()[base..base + len], order, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_wire::{LayoutBuilder, LayoutMode};

    fn small_layout() -> (CompiledLayout, Field, Field, Field) {
        let mut b = LayoutBuilder::new();
        b.begin_layer("l");
        let seq = b.add_field(Class::Protocol, "seq", 32, None).unwrap();
        let ck = b.add_field(Class::Message, "cksum", 16, None).unwrap();
        let ack = b.add_field(Class::Gossip, "ack", 32, None).unwrap();
        (b.compile(LayoutMode::Packed).unwrap(), seq, ck, ack)
    }

    fn frame_msg(layout: &CompiledLayout, payload: &[u8]) -> Msg {
        let hdr_len = layout.class_len(Class::Protocol)
            + layout.class_len(Class::Message)
            + layout.class_len(Class::Gossip);
        let mut m = Msg::from_payload(payload);
        m.push_front_zeroed(hdr_len);
        m
    }

    #[test]
    fn offsets_partition_the_frame() {
        let (layout, ..) = small_layout();
        let mut m = frame_msg(&layout, b"PAYLOAD");
        let f = Frame::new(&mut m, &layout, ByteOrder::Big);
        assert_eq!(f.proto_hdr().len(), 4);
        assert_eq!(f.gossip_hdr().len(), 4);
        assert_eq!(f.body(), b"PAYLOAD");
        assert_eq!(f.body_size(), 7);
        assert_eq!(f.size(), 4 + 2 + 4 + 7);
    }

    #[test]
    fn read_write_fields_in_place() {
        let (layout, seq, ck, ack) = small_layout();
        let mut m = frame_msg(&layout, b"x");
        let mut f = Frame::new(&mut m, &layout, ByteOrder::Big);
        f.write(seq, 0xAABBCCDD);
        f.write(ck, 0x1234);
        f.write(ack, 77);
        assert_eq!(f.read(seq), 0xAABBCCDD);
        assert_eq!(f.read(ck), 0x1234);
        assert_eq!(f.read(ack), 77);
        // Payload untouched.
        assert_eq!(f.body(), b"x");
    }

    #[test]
    fn is_short_flags_short_messages() {
        let (layout, ..) = small_layout();
        let mut ok = frame_msg(&layout, b"");
        assert!(!Frame::new(&mut ok, &layout, ByteOrder::Big).is_short());
        let mut short = Msg::from_payload(&[0u8; 5]); // needs 10 header bytes
        assert!(Frame::new(&mut short, &layout, ByteOrder::Big).is_short());
    }

    #[test]
    fn same_bytes_both_directions() {
        // A frame written by the "sender" reads identically after a
        // wire round trip — the property that lets one filter program
        // serve both paths.
        let (layout, seq, ck, ack) = small_layout();
        let mut m = frame_msg(&layout, b"data");
        {
            let mut f = Frame::new(&mut m, &layout, ByteOrder::Little);
            f.write(seq, 5);
            f.write(ck, 9);
            f.write(ack, 2);
        }
        let mut rx = Msg::from_wire(m.to_wire());
        let f = Frame::new(&mut rx, &layout, ByteOrder::Little);
        assert_eq!(f.read(seq), 5);
        assert_eq!(f.read(ck), 9);
        assert_eq!(f.read(ack), 2);
    }
}
