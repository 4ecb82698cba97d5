//! A wire-frame dissector: renders any PA frame as human-readable text.
//!
//! Given the compiled layout (which keeps the names its fields were
//! declared under), [`dissect`] decodes the preamble, the optional
//! connection identification, each class header field by field, the
//! packing header, and the payload — the tool you want open in a second
//! terminal when a protocol test fails. The output is stable and
//! line-oriented, so tests can assert on it.

use crate::packing::PackInfo;
use pa_buf::Msg;
use pa_wire::{Class, CompiledLayout, Preamble};
use std::fmt::Write as _;

/// Dissects a full wire frame (starting at the preamble).
pub fn dissect(frame: &Msg, layout: &CompiledLayout) -> String {
    let mut out = String::new();
    let mut m = frame.clone();
    let _ = writeln!(out, "frame: {} bytes", m.len());

    let preamble = match Preamble::pop_from(&mut m) {
        Ok(p) => p,
        Err(e) => {
            let _ = writeln!(out, "  !! {e}");
            return out;
        }
    };
    let _ = writeln!(
        out,
        "  preamble: cookie={} order={} ident={}",
        preamble.cookie,
        preamble.byte_order,
        if preamble.conn_ident_present {
            "present"
        } else {
            "elided"
        }
    );

    if preamble.conn_ident_present {
        let len = layout.class_len(Class::ConnId);
        match m.pop_front(len) {
            Some(ident) => {
                let _ = writeln!(out, "  conn-ident: {} bytes", len);
                dissect_class(&mut out, layout, Class::ConnId, &ident, preamble, true);
            }
            None => {
                let _ = writeln!(out, "  !! truncated conn-ident");
                return out;
            }
        }
    }

    for class in [Class::Protocol, Class::Message, Class::Gossip] {
        let len = layout.class_len(class);
        match m.pop_front(len) {
            Some(hdr) => {
                if len > 0 {
                    let _ = writeln!(out, "  {class}: {len} bytes");
                    dissect_class(&mut out, layout, class, &hdr, preamble, false);
                }
            }
            None => {
                let _ = writeln!(out, "  !! truncated {class} header");
                return out;
            }
        }
    }

    match PackInfo::pop_from(&mut m) {
        Ok(info) => {
            let _ = writeln!(out, "  packing: {info:?}");
        }
        Err(e) => {
            let _ = writeln!(out, "  !! {e}");
            return out;
        }
    }

    let payload = m.as_slice();
    let show = payload.len().min(32);
    let hex: String = payload[..show].iter().map(|b| format!("{b:02x}")).collect();
    let _ = writeln!(
        out,
        "  payload: {} bytes{}{}",
        payload.len(),
        if show > 0 {
            format!(" [{hex}")
        } else {
            String::new()
        },
        if payload.len() > show {
            "…]"
        } else if show > 0 {
            "]"
        } else {
            ""
        },
    );
    out
}

fn dissect_class(
    out: &mut String,
    layout: &CompiledLayout,
    class: Class,
    hdr: &[u8],
    preamble: Preamble,
    conn_id: bool,
) {
    let count = layout.class(class).field_count();
    for i in 0..count {
        let f = pa_wire::Field::new(class, i);
        let bits = layout.field_bits(f);
        let label = layout.field_name(class, i).unwrap_or("?");
        if bits <= 64 {
            // Conn-ident scalar fields are canonical big-endian.
            let order = if conn_id {
                pa_buf::ByteOrder::Big
            } else {
                preamble.byte_order
            };
            let v = layout.read_field(f, hdr, order);
            let _ = writeln!(out, "    {label:<20} ({bits:>2} bits) = {v}");
        } else {
            let bytes = layout.read_field_bytes(f, hdr);
            let show = bytes.len().min(12);
            let hex: String = bytes[..show].iter().map(|b| format!("{b:02x}")).collect();
            let _ = writeln!(
                out,
                "    {label:<20} ({:>3} B)   = {hex}{}",
                bytes.len(),
                if bytes.len() > show { "…" } else { "" }
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaConfig;
    use crate::conn::{Connection, ConnectionParams};
    use crate::layer::NullLayer;
    use pa_wire::EndpointAddr;

    fn conn() -> Connection {
        Connection::new(
            vec![Box::new(NullLayer)],
            PaConfig::paper_default(),
            ConnectionParams::new(
                EndpointAddr::from_parts(1, 1),
                EndpointAddr::from_parts(2, 1),
                9,
            ),
        )
        .unwrap()
    }

    #[test]
    fn dissects_identified_frame() {
        let mut c = conn();
        c.send(b"payload!");
        let frame = c.poll_transmit().unwrap();
        let text = dissect(&frame, c.layout());
        assert!(text.contains("preamble"), "{text}");
        assert!(text.contains("ident=present"), "{text}");
        assert!(text.contains("conn-ident"), "{text}");
        assert!(text.contains("src_endpoint"), "{text}");
        assert!(text.contains("packing: Single"), "{text}");
        assert!(text.contains("payload: 8 bytes"), "{text}");
    }

    #[test]
    fn dissects_cookie_frame() {
        let mut c = conn();
        c.send(b"first");
        let _ = c.poll_transmit();
        c.process_pending();
        c.send(b"second!!");
        let frame = c.poll_transmit().unwrap();
        let text = dissect(&frame, c.layout());
        assert!(text.contains("ident=elided"), "{text}");
        assert!(!text.contains("conn-ident:"), "{text}");
    }

    #[test]
    fn truncated_frames_reported_not_panicked() {
        let c = conn();
        for n in 0..16 {
            let m = Msg::from_payload(&vec![0u8; n]);
            let text = dissect(&m, c.layout());
            assert!(text.contains("frame:"), "{text}");
        }
    }
}
