//! The bottom layer: connection identification and version checking.
//!
//! The engine contributes the endpoint addresses and the stack
//! fingerprint to the Connection Identification; this layer adds the
//! pieces a Horus bottom layer would: an *epoch* (incarnation number, so
//! a restarted peer is not confused with its former self), a protocol
//! version, and the architecture word size — together pushing the
//! identification into the ~76-byte range the paper reports, which is
//! exactly the weight the cookie mechanism removes from the common case.

use pa_buf::Msg;
use pa_core::{Declare, DeliverAction, Handles, Layer, LayerCtx, LayerShape, SendAction};
use pa_wire::{Class, CompiledLayout, Field, LayoutError};

/// Protocol version this implementation speaks.
pub(crate) const PROTOCOL_VERSION: u16 = 1;

/// The bottom layer of the stack.
#[derive(Debug)]
pub struct BottomLayer {
    epoch: u64,
    peer_epoch: u64,
    /// The epoch, version, word-size and blob fields, once bound.
    fields: Option<[Field; 4]>,
    /// Extra identification padding blob, emulating the transport
    /// endpoints, group addresses etc. a real Horus bottom layer carries
    /// (sized so the total conn-ident lands near the paper's 76 bytes).
    blob: [u8; 16],
}

impl BottomLayer {
    /// Creates the bottom layer. `epoch` is our incarnation number;
    /// `peer_epoch` the peer incarnation we expect (both sides of a
    /// session agree on these out of band, e.g. 0 for fresh pairs).
    pub(crate) fn new(epoch: u64, peer_epoch: u64) -> BottomLayer {
        BottomLayer {
            epoch,
            peer_epoch,
            fields: None,
            blob: *b"horus-transport\0",
        }
    }

    fn declare(d: &mut Declare<'_>, _: &[i64]) -> Result<(), LayoutError> {
        d.add_field(Class::ConnId, "epoch", 64, None)?;
        d.add_field(Class::ConnId, "version", 16, None)?;
        d.add_field(Class::ConnId, "arch_word_bits", 8, None)?;
        d.add_field(Class::ConnId, "transport_blob", 128, None)?;
        Ok(())
    }
}

impl Default for BottomLayer {
    fn default() -> Self {
        BottomLayer::new(0, 0)
    }
}

impl Layer for BottomLayer {
    fn name(&self) -> &'static str {
        "bottom"
    }

    fn shape(&self) -> LayerShape {
        LayerShape::new(BottomLayer::declare, [])
    }

    fn bind(&mut self, handles: Handles<'_>) {
        self.fields = Some(handles.fields());
    }

    fn fill_ident(&self, layout: &CompiledLayout, local: &mut [u8], peer: &mut [u8]) {
        use pa_buf::ByteOrder::Big;
        let [e, v, a, b] = self.fields.expect("bound");
        layout.write_field(e, local, Big, self.epoch);
        layout.write_field(v, local, Big, PROTOCOL_VERSION as u64);
        layout.write_field(a, local, Big, 64);
        layout.write_field_bytes(b, local, &self.blob);
        layout.write_field(e, peer, Big, self.peer_epoch);
        layout.write_field(v, peer, Big, PROTOCOL_VERSION as u64);
        layout.write_field(a, peer, Big, 64);
        layout.write_field_bytes(b, peer, &self.blob);
    }

    fn pre_send(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &mut Msg) -> SendAction {
        SendAction::Continue
    }

    fn post_send(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &Msg) {}

    fn pre_deliver(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &mut Msg) -> DeliverAction {
        DeliverAction::Continue
    }

    fn post_deliver(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &Msg) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_core::{Connection, ConnectionParams, PaConfig};
    use pa_wire::EndpointAddr;

    fn conn(epoch: u64, peer_epoch: u64, a: u64, b: u64) -> Connection {
        Connection::new(
            vec![Box::new(BottomLayer::new(epoch, peer_epoch))],
            PaConfig::paper_default(),
            ConnectionParams::new(
                EndpointAddr::from_parts(a, 1),
                EndpointAddr::from_parts(b, 1),
                a,
            ),
        )
        .unwrap()
    }

    #[test]
    fn conn_ident_is_realistically_large() {
        let c = conn(0, 0, 1, 2);
        // Engine: 2×20-byte endpoints + 8-byte fingerprint = 48.
        // Bottom: 8 epoch + 2 version + 1 arch + 16 blob = 27. Total 75,
        // right at the paper's "about 76 bytes".
        let len = c.layout().class_len(pa_wire::Class::ConnId);
        assert!((70..=80).contains(&len), "conn-ident is {len} bytes");
    }

    #[test]
    fn matching_epochs_interoperate() {
        let mut a = conn(7, 3, 1, 2);
        let mut b = conn(3, 7, 2, 1);
        a.send(b"hello");
        let frame = a.poll_transmit().unwrap();
        let out = b.deliver_frame(frame);
        assert!(
            matches!(out, pa_core::DeliverOutcome::Fast { msgs: 1 }),
            "{out:?}"
        );
    }

    #[test]
    fn stale_epoch_rejected() {
        // Peer restarted with epoch 8; we still expect epoch 3 → the
        // identification no longer matches and the frame is dropped.
        let mut restarted = conn(8, 3, 1, 2);
        let mut b = conn(3, 7, 2, 1);
        restarted.send(b"ghost of a previous incarnation");
        let frame = restarted.poll_transmit().unwrap();
        let out = b.deliver_frame(frame);
        assert!(
            matches!(out, pa_core::DeliverOutcome::Dropped(_)),
            "{out:?}"
        );
    }

    #[test]
    fn layer_is_transparent_to_payloads() {
        let mut a = conn(0, 0, 1, 2);
        let mut b = conn(0, 0, 2, 1);
        a.send(&[0xAB; 100]);
        let frame = a.poll_transmit().unwrap();
        b.deliver_frame(frame);
        assert_eq!(b.poll_delivery().unwrap().as_slice(), &[0xAB; 100]);
    }
}
