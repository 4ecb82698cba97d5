//! A libpcap-format trace writer.
//!
//! smoltcp's examples all take a `--pcap` option, and for good reason:
//! when a protocol test fails, the first question is "what was actually
//! on the wire?". [`PcapWriter`] records frames in the classic libpcap
//! format (DLT_USER0, since PA frames are their own link type), so
//! Wireshark — or our own [`pa_core::dissect`] fed from a replay —
//! can answer it. Timestamps come from the virtual clock, which makes
//! simulated traces exactly reproducible.

use crate::Nanos;
use pa_obs::{PathTag, XrayTag};
use std::io::{self, Write};

/// Link type: DLT_USER0 (private use; PA frames are not Ethernet).
const LINKTYPE_USER0: u32 = 147;

/// Link type: DLT_USER1 — the *annotated* capture mode. Every record
/// starts with a thirteen-byte pseudo-header — one byte carrying the
/// [`PathTag`] (the path the frame took through the PA), the journey id
/// as a little-endian `u64` (0 when the frame carries no trace
/// context), then the four-byte [`XrayTag`] naming *why* a slow/queued
/// frame left the fast path (all-zero for fast frames) — then the raw
/// frame. The journey id is the same value `pa_obs::JourneySet` keys
/// on, so a capture record can be cross-referenced with a merged trace
/// timeline (see `examples/trace_dump.rs`), and the xray tag decodes
/// back into an attributed (layer, cause) with
/// [`XrayTag::from_bytes`].
const LINKTYPE_USER1: u32 = 148;

/// Bytes of pseudo-header preceding each annotated frame:
/// 1 (path tag) + 8 (journey id) + 4 (xray cause).
const ANNOTATION_LEN: u32 = 13;

/// Classic libpcap magic (microsecond timestamps).
const MAGIC: u32 = 0xA1B2_C3D4;

/// Encodes a [`PathTag`] as the annotated capture's pseudo-header byte.
pub(crate) fn tag_to_byte(tag: PathTag) -> u8 {
    match tag {
        PathTag::Unknown => 0,
        PathTag::Fast => 1,
        PathTag::Slow => 2,
        PathTag::Queued => 3,
        PathTag::Control => 4,
        PathTag::Dropped => 5,
        PathTag::Faulted => 6,
    }
}

/// Inverse of [`tag_to_byte`]; unrecognized bytes decode as `Unknown`.
pub(crate) fn byte_to_tag(b: u8) -> PathTag {
    match b {
        1 => PathTag::Fast,
        2 => PathTag::Slow,
        3 => PathTag::Queued,
        4 => PathTag::Control,
        5 => PathTag::Dropped,
        6 => PathTag::Faulted,
        _ => PathTag::Unknown,
    }
}

/// Writes frames to any `Write` sink in libpcap format.
#[derive(Debug)]
pub struct PcapWriter<W: Write> {
    sink: W,
    snaplen: u32,
    annotated: bool,
}

impl<W: Write> PcapWriter<W> {
    /// Creates a writer and emits the global header.
    pub(crate) fn new(sink: W) -> io::Result<PcapWriter<W>> {
        Self::with_linktype(sink, LINKTYPE_USER0, false)
    }

    /// Creates an *annotated* writer (DLT_USER1): use
    /// [`PcapWriter::record_journey`] or [`PcapWriter::record_explained`]
    /// so each frame carries the path it took through the PA, its
    /// journey id and its xray cause as a pseudo-header.
    pub fn annotated(sink: W) -> io::Result<PcapWriter<W>> {
        Self::with_linktype(sink, LINKTYPE_USER1, true)
    }

    fn with_linktype(mut sink: W, linktype: u32, annotated: bool) -> io::Result<PcapWriter<W>> {
        let snaplen: u32 = 65_535;
        sink.write_all(&MAGIC.to_le_bytes())?;
        sink.write_all(&2u16.to_le_bytes())?; // version major
        sink.write_all(&4u16.to_le_bytes())?; // version minor
        sink.write_all(&0i32.to_le_bytes())?; // thiszone
        sink.write_all(&0u32.to_le_bytes())?; // sigfigs
        sink.write_all(&snaplen.to_le_bytes())?;
        sink.write_all(&linktype.to_le_bytes())?;
        Ok(PcapWriter {
            sink,
            snaplen,
            annotated,
        })
    }

    /// Records one frame with its path annotation *and* the journey id
    /// stamped into its trace context (0 for untraced frames). The xray
    /// cause is recorded as none; use [`PcapWriter::record_explained`]
    /// for slow/queued frames whose attribution is known.
    pub fn record_journey(
        &mut self,
        at: Nanos,
        tag: PathTag,
        journey: u64,
        frame: &[u8],
    ) -> io::Result<()> {
        self.record_explained(at, tag, journey, XrayTag::none(), frame)
    }

    /// Records one frame with its path annotation, journey id, *and*
    /// the attributed [`XrayTag`] explaining why it left the fast path
    /// ([`XrayTag::none`] for fast frames) — the full pseudo-header.
    pub fn record_explained(
        &mut self,
        at: Nanos,
        tag: PathTag,
        journey: u64,
        why: XrayTag,
        frame: &[u8],
    ) -> io::Result<()> {
        assert!(
            self.annotated,
            "record_explained requires PcapWriter::annotated"
        );
        let secs = (at / 1_000_000_000) as u32;
        let usecs = ((at % 1_000_000_000) / 1_000) as u32;
        let total = frame.len() as u32 + ANNOTATION_LEN;
        let cap = total.min(self.snaplen);
        self.sink.write_all(&secs.to_le_bytes())?;
        self.sink.write_all(&usecs.to_le_bytes())?;
        self.sink.write_all(&cap.to_le_bytes())?;
        self.sink.write_all(&total.to_le_bytes())?;
        self.sink.write_all(&[tag_to_byte(tag)])?;
        self.sink.write_all(&journey.to_le_bytes())?;
        self.sink.write_all(&why.to_bytes())?;
        self.sink
            .write_all(&frame[..(cap - ANNOTATION_LEN) as usize])?;
        Ok(())
    }

    /// Records one frame observed at virtual time `at`.
    pub(crate) fn record(&mut self, at: Nanos, frame: &[u8]) -> io::Result<()> {
        let secs = (at / 1_000_000_000) as u32;
        let usecs = ((at % 1_000_000_000) / 1_000) as u32;
        let cap = (frame.len() as u32).min(self.snaplen);
        self.sink.write_all(&secs.to_le_bytes())?;
        self.sink.write_all(&usecs.to_le_bytes())?;
        self.sink.write_all(&cap.to_le_bytes())?;
        self.sink.write_all(&(frame.len() as u32).to_le_bytes())?;
        self.sink.write_all(&frame[..cap as usize])?;
        Ok(())
    }

    /// Flushes and returns the sink.
    pub fn finish(mut self) -> io::Result<W> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// One fully parsed record of an annotated capture:
/// `(timestamp_ns, path_tag, journey_id, xray_cause, frame)`.
pub type ExplainedRecord = (Nanos, PathTag, u64, XrayTag, Vec<u8>);

/// Parses an *annotated* capture (DLT_USER1) back into
/// `(timestamp_ns, path_tag, journey_id, xray_cause, frame)` records —
/// the full pseudo-header, including *why* each slow/queued frame left
/// the fast path. Returns `None` for malformed input or a capture that
/// is not in annotated mode.
pub fn parse_explained(bytes: &[u8]) -> Option<Vec<ExplainedRecord>> {
    if bytes.len() < 24 {
        return None;
    }
    let magic = u32::from_le_bytes(bytes[..4].try_into().expect("4"));
    if magic != MAGIC {
        return None;
    }
    let linktype = u32::from_le_bytes(bytes[20..24].try_into().expect("4"));
    if linktype != LINKTYPE_USER1 {
        return None; // plain captures have no pseudo-header to strip
    }
    let mut out = Vec::new();
    let mut off = 24;
    while off + 16 <= bytes.len() {
        let secs = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4")) as u64;
        let usecs = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4")) as u64;
        let cap = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().expect("4")) as usize;
        off += 16;
        if cap < ANNOTATION_LEN as usize || off + cap > bytes.len() {
            return None; // every annotated record carries the pseudo-header
        }
        let tag = byte_to_tag(bytes[off]);
        let journey = u64::from_le_bytes(bytes[off + 1..off + 9].try_into().expect("8"));
        let why = XrayTag::from_bytes([
            bytes[off + 9],
            bytes[off + 10],
            bytes[off + 11],
            bytes[off + 12],
        ]);
        out.push((
            secs * 1_000_000_000 + usecs * 1_000,
            tag,
            journey,
            why,
            bytes[off + ANNOTATION_LEN as usize..off + cap].to_vec(),
        ));
        off += cap;
    }
    Some(out)
}

/// Parses a pcap byte buffer back into `(timestamp_ns, frame)` records
/// (testing and replay; classic format, either byte order).
pub fn parse(bytes: &[u8]) -> Option<Vec<(Nanos, Vec<u8>)>> {
    if bytes.len() < 24 {
        return None;
    }
    let magic = u32::from_le_bytes(bytes[..4].try_into().expect("4"));
    if magic != MAGIC {
        return None; // we only write (and read back) LE classic pcap
    }
    let mut out = Vec::new();
    let mut off = 24;
    while off + 16 <= bytes.len() {
        let secs = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4")) as u64;
        let usecs = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4")) as u64;
        let cap = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().expect("4")) as usize;
        off += 16;
        if off + cap > bytes.len() {
            return None;
        }
        out.push((
            secs * 1_000_000_000 + usecs * 1_000,
            bytes[off..off + cap].to_vec(),
        ));
        off += cap;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_header_is_wireshark_compatible() {
        let w = PcapWriter::new(Vec::new()).unwrap();
        let buf = w.finish().unwrap();
        assert_eq!(buf.len(), 24);
        assert_eq!(&buf[..4], &MAGIC.to_le_bytes());
        assert_eq!(u16::from_le_bytes([buf[4], buf[5]]), 2);
        assert_eq!(u16::from_le_bytes([buf[6], buf[7]]), 4);
        assert_eq!(
            u32::from_le_bytes([buf[20], buf[21], buf[22], buf[23]]),
            LINKTYPE_USER0
        );
    }

    #[test]
    fn frames_roundtrip_through_parse() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.record(1_500_000, b"first frame").unwrap();
        w.record(2_000_500_000, b"second, later frame").unwrap();
        let buf = w.finish().unwrap();
        let records = parse(&buf).expect("valid pcap");
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], (1_500_000, b"first frame".to_vec()));
        // Timestamps quantize to microseconds in classic pcap.
        assert_eq!(records[1], (2_000_500_000, b"second, later frame".to_vec()));
    }

    #[test]
    fn parse_rejects_garbage_and_truncation() {
        assert!(parse(b"short").is_none());
        assert!(parse(&[0u8; 24]).is_none(), "bad magic");
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.record(0, &[1, 2, 3, 4]).unwrap();
        let mut buf = w.finish().unwrap();
        buf.truncate(buf.len() - 2);
        assert!(parse(&buf).is_none(), "truncated record");
    }

    #[test]
    fn annotated_capture_roundtrips_tags_and_journey_ids() {
        let mut w = PcapWriter::annotated(Vec::new()).unwrap();
        let id = (0x000A_11CE_u64 << 32) | 7;
        w.record_journey(1_000, PathTag::Fast, id, b"traced")
            .unwrap();
        w.record_journey(2_000, PathTag::Dropped, 0, b"untraced")
            .unwrap();
        let buf = w.finish().unwrap();
        assert_eq!(
            u32::from_le_bytes([buf[20], buf[21], buf[22], buf[23]]),
            LINKTYPE_USER1
        );
        let records = parse_explained(&buf).expect("valid annotated pcap");
        let rows: Vec<_> = records
            .into_iter()
            .map(|(at, tag, journey, _, frame)| (at, tag, journey, frame))
            .collect();
        assert_eq!(
            rows,
            [
                (1_000, PathTag::Fast, id, b"traced".to_vec()),
                (2_000, PathTag::Dropped, 0, b"untraced".to_vec()),
            ]
        );
    }

    #[test]
    fn explained_capture_roundtrips_causes() {
        use pa_obs::{AttrCause, DisableReason};

        let mut w = PcapWriter::annotated(Vec::new()).unwrap();
        let why = XrayTag::from_cause(2, AttrCause::Disabled(DisableReason::FullWindow));
        w.record_explained(1_000, PathTag::Queued, 42, why, b"held")
            .unwrap();
        w.record_journey(2_000, PathTag::Fast, 43, b"fast").unwrap();
        let buf = w.finish().unwrap();

        let records = parse_explained(&buf).expect("valid annotated pcap");
        assert_eq!(records.len(), 2);
        let (at, tag, journey, cause, frame) = &records[0];
        assert_eq!((*at, *tag, *journey), (1_000, PathTag::Queued, 42));
        assert_eq!(frame, b"held");
        assert_eq!(
            cause.cause(),
            Some(AttrCause::Disabled(DisableReason::FullWindow)),
            "the attributed cause survives the pseudo-header roundtrip"
        );
        assert_eq!(
            records[1].3.cause(),
            None,
            "record_journey writes XrayTag::none()"
        );
    }

    #[test]
    fn parse_explained_rejects_plain_captures() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.record(0, b"plain").unwrap();
        let buf = w.finish().unwrap();
        assert!(parse_explained(&buf).is_none(), "wrong link type");
    }

    #[test]
    fn tag_bytes_roundtrip() {
        for tag in [
            PathTag::Unknown,
            PathTag::Fast,
            PathTag::Slow,
            PathTag::Queued,
            PathTag::Control,
            PathTag::Dropped,
            PathTag::Faulted,
        ] {
            assert_eq!(byte_to_tag(tag_to_byte(tag)), tag);
        }
        assert_eq!(byte_to_tag(250), PathTag::Unknown);
    }

    #[test]
    fn empty_capture_parses_empty() {
        let w = PcapWriter::new(Vec::new()).unwrap();
        let buf = w.finish().unwrap();
        assert_eq!(parse(&buf).unwrap(), vec![]);
    }
}
