//! The header layout compiler (§2.1).
//!
//! Layers declare fields; after every layer's initialization has run,
//! [`LayoutBuilder::compile`] produces one compact header per class,
//! placing fields "as efficiently as possible, observing size, and if so
//! requested, offset, but not layering. Therefore, fields requested by
//! different layers may be mixed arbitrarily, minimizing padding while
//! optimizing alignment."
//!
//! Two layout modes exist so the padding cost of the classical scheme can
//! be *measured*:
//!
//! - [`LayoutMode::Packed`] — the PA scheme: fields of all layers pooled
//!   per class, placed by first-fit-decreasing over a word bitmap,
//!   with natural alignment for power-of-two byte-sized fields.
//! - [`LayoutMode::Traditional`] — one sub-header per layer, fields in
//!   declaration order at their natural byte alignment, each layer's
//!   header padded to a 4-byte boundary (the x-kernel/Horus convention
//!   the paper criticizes; 8-byte padding is available via
//!   [`LayoutMode::Traditional8`]).
//!
//! Compilation is deterministic, so two peers that stack the same layers
//! compute identical layouts; [`CompiledLayout::fingerprint`] hashes the
//! declaration sequence so a mismatch can be detected at connection
//! setup instead of as silent corruption.

use crate::bits;
use crate::class::{Class, Field, FieldSpec, LayerId, Span};
use pa_buf::ByteOrder;
use std::fmt;

/// Maximum declarable field width in bits (wide blob fields hold large
/// addresses; 2048 bits = 256 bytes is far beyond any real identifier).
pub(crate) const MAX_FIELD_BITS: u32 = 2048;

/// How far a fixed offset may reach into its class header, in bits: a
/// header that a 16-bit byte count cannot measure (over 65 535 bytes) is
/// not a layout.
pub(crate) const MAX_HEADER_BITS: u32 = 8 * u16::MAX as u32;

/// How headers are laid out on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutMode {
    /// PA cross-layer bit packing (§2.1).
    Packed,
    /// One padded sub-header per layer, 4-byte aligned.
    Traditional,
    /// One padded sub-header per layer, 8-byte aligned.
    Traditional8,
}

/// Errors from field declaration or layout compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// Field width must be 1..=64 bits, or a whole number of bytes up to
    /// [`MAX_FIELD_BITS`].
    BadWidth {
        /// Offending field name.
        name: String,
        /// Requested width.
        bits: u32,
    },
    /// A fixed offset puts the field's end past [`MAX_HEADER_BITS`].
    OffsetOutOfRange {
        /// Offending field name.
        name: String,
        /// The requested bit offset.
        offset: u32,
        /// The field's width.
        bits: u32,
    },
    /// Two fixed-offset fields overlap.
    OffsetConflict {
        /// Name of the field that could not be placed.
        name: String,
        /// The requested bit offset.
        offset: u32,
    },
    /// `add_field` was called before `begin_layer`.
    NoLayer,
    /// A field name was empty.
    EmptyName,
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::BadWidth { name, bits } => write!(
                f,
                "field `{name}`: width {bits} is neither 1..=64 bits nor whole bytes up to {MAX_FIELD_BITS} bits"
            ),
            LayoutError::OffsetOutOfRange { name, offset, bits } => write!(
                f,
                "field `{name}`: fixed offset {offset} + width {bits} ends past the {MAX_HEADER_BITS}-bit header bound"
            ),
            LayoutError::OffsetConflict { name, offset } => write!(
                f,
                "field `{name}`: fixed offset {offset} overlaps a previously placed field"
            ),
            LayoutError::NoLayer => write!(f, "add_field called before begin_layer"),
            LayoutError::EmptyName => write!(f, "field name must not be empty"),
        }
    }
}

impl std::error::Error for LayoutError {}

/// What the layers declared: every field and layer name once, in one
/// arena, and one `Copy` record per field. The builder fills it in; the
/// compiled layout keeps it, and is where every report reads names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Declarations {
    names: String,
    /// Every field: in declaration order while the builder collects
    /// them, stably sorted by class once compiled.
    specs: Vec<FieldSpec>,
    /// Fields declared per class.
    counts: [usize; 4],
    layers: Vec<Span>,
}

impl Declarations {
    fn intern(&mut self, name: &str) -> Span {
        let start = self.names.len() as u32;
        self.names.push_str(name);
        (start, self.names.len() as u32)
    }

    fn name(&self, (start, end): Span) -> &str {
        &self.names[start as usize..end as usize]
    }

    /// The fields of `class`, in declaration order (sorted lists only).
    fn class_specs(&self, class: Class) -> &[FieldSpec] {
        let start: usize = self.counts[..class.index()].iter().sum();
        &self.specs[start..start + self.counts[class.index()]]
    }

    /// FNV-1a over the declaration sequence; stable across builds, and
    /// wire-visible (it rides in the connection identification).
    fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_01b3);
            }
        };
        for &layer in &self.layers {
            eat(self.name(layer).as_bytes());
            eat(&[0xFF]);
        }
        for c in Class::ALL {
            eat(&[c.index() as u8]);
            for s in self.class_specs(c) {
                eat(self.name(s.name).as_bytes());
                eat(&[0]);
                eat(&s.bits.to_le_bytes());
                eat(&s.offset.map_or(0, |o| o + 1).to_le_bytes());
                eat(&s.layer.0.to_le_bytes());
            }
        }
        h
    }
}

/// Collects `add_field` declarations from every layer in the stack.
#[derive(Debug, Default, Clone)]
pub struct LayoutBuilder {
    decls: Declarations,
    current: Option<LayerId>,
}

impl LayoutBuilder {
    /// An empty builder with room for a stack of a dozen-odd fields.
    pub fn new() -> Self {
        LayoutBuilder {
            decls: Declarations {
                names: String::with_capacity(192),
                specs: Vec::with_capacity(16),
                counts: [0; 4],
                layers: Vec::with_capacity(8),
            },
            current: None,
        }
    }

    /// Starts declarations for the next layer (bottom first). Returns the
    /// layer's id.
    pub fn begin_layer(&mut self, name: &str) -> LayerId {
        let id = LayerId(self.decls.layers.len() as u16);
        let span = self.decls.intern(name);
        self.decls.layers.push(span);
        self.current = Some(id);
        id
    }

    /// The paper's `add_field(class, name, size, offset)`.
    ///
    /// `offset` is a *bit* offset within the class header, or `None` for
    /// "don't care" (the paper passes −1); a fixed field must end within
    /// [`MAX_HEADER_BITS`]. Returns the handle used for all later access.
    ///
    /// Widths up to 64 bits are scalar fields accessed with
    /// [`CompiledLayout::read_field`]/[`CompiledLayout::write_field`].
    /// Wider fields (up to [`MAX_FIELD_BITS`], for large addresses) must
    /// be byte-multiples and are accessed as byte blobs with
    /// [`CompiledLayout::read_field_bytes`]/
    /// [`CompiledLayout::write_field_bytes`].
    pub fn add_field(
        &mut self,
        class: Class,
        name: &str,
        bits: u32,
        offset: Option<u32>,
    ) -> Result<Field, LayoutError> {
        let layer = self.current.ok_or(LayoutError::NoLayer)?;
        if name.is_empty() {
            return Err(LayoutError::EmptyName);
        }
        if bits == 0 || bits > MAX_FIELD_BITS || (bits > 64 && !bits.is_multiple_of(8)) {
            return Err(LayoutError::BadWidth {
                name: name.to_string(),
                bits,
            });
        }
        if let Some(offset) = offset.filter(|&o| o > MAX_HEADER_BITS - bits) {
            return Err(LayoutError::OffsetOutOfRange {
                name: name.to_string(),
                offset,
                bits,
            });
        }
        let name = self.decls.intern(name);
        self.decls.specs.push(FieldSpec {
            name,
            bits,
            offset,
            layer,
            class,
        });
        let idx = self.field_count(class) as u16;
        self.decls.counts[class.index()] += 1;
        Ok(Field { class, idx })
    }

    /// Number of fields declared in `class`.
    pub(crate) fn field_count(&self, class: Class) -> usize {
        self.decls.counts[class.index()]
    }

    /// Compiles a copy of the declarations into a wire layout; the
    /// builder stays usable, to compile again in another mode.
    pub fn compile(&self, mode: LayoutMode) -> Result<CompiledLayout, LayoutError> {
        self.clone().into_layout(mode)
    }

    /// Compiles the declarations into a wire layout that takes them (and
    /// their names) with it: one pass per class, nothing copied.
    pub fn into_layout(self, mode: LayoutMode) -> Result<CompiledLayout, LayoutError> {
        let mut decls = self.decls;
        // Stable, so each class becomes one slice in declaration order.
        decls.specs.sort_by_key(|s| s.class);
        let mut classes: [ClassLayout; 4] = Default::default();
        // The packer's scratch, shared by the four classes: the occupancy
        // bitmap (bits past its end are free) and the placement order.
        let (mut words, mut order) = (Vec::new(), Vec::new());
        for (class, out) in Class::ALL.into_iter().zip(&mut classes) {
            let specs = decls.class_specs(class);
            *out = match mode {
                LayoutMode::Packed => pack_class(specs, &mut words, &mut order).map_err(|i| {
                    LayoutError::OffsetConflict {
                        name: decls.name(specs[i].name).to_string(),
                        offset: specs[i].offset.unwrap_or(0),
                    }
                })?,
                LayoutMode::Traditional => layer_by_layer(specs, 4),
                LayoutMode::Traditional8 => layer_by_layer(specs, 8),
            };
        }
        Ok(CompiledLayout {
            classes,
            mode,
            fingerprint: decls.fingerprint(),
            decls,
        })
    }
}

/// A field's final position in its class header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedField {
    /// Bit offset within the class header.
    pub bit_offset: u32,
    /// Width in bits.
    pub bits: u32,
}

/// The compiled wire image of one class header.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassLayout {
    placed: Vec<PlacedField>,
    byte_len: usize,
    used_bits: u32,
}

impl ClassLayout {
    /// A header just long enough for its last placed bit.
    fn new(placed: Vec<PlacedField>) -> ClassLayout {
        let end = placed.iter().map(|p| p.bit_offset + p.bits).max();
        ClassLayout {
            byte_len: end.unwrap_or(0).div_ceil(8) as usize,
            used_bits: placed.iter().map(|p| p.bits).sum(),
            placed,
        }
    }

    /// Length of this class header on the wire, in bytes.
    pub fn byte_len(&self) -> usize {
        self.byte_len
    }

    /// Sum of declared field widths, in bits.
    pub fn used_bits(&self) -> u32 {
        self.used_bits
    }

    /// Placement of field `idx` (declaration order).
    pub fn placement(&self, idx: usize) -> PlacedField {
        self.placed[idx]
    }

    /// Number of fields placed in this class.
    pub fn field_count(&self) -> usize {
        self.placed.len()
    }
}

/// The output of the layout compiler: four class headers plus metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledLayout {
    classes: [ClassLayout; 4],
    mode: LayoutMode,
    fingerprint: u64,
    /// The name table: what was declared, by whom, under which name.
    decls: Declarations,
}

impl CompiledLayout {
    /// Hash of the declaration sequence; equal on both peers iff they
    /// stacked identical layers with identical field declarations.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Declared name of field `idx` of `class` (declaration order), or
    /// `None` if no such field was declared.
    pub fn field_name(&self, class: Class, idx: usize) -> Option<&str> {
        let spec = self.decls.class_specs(class).get(idx)?;
        Some(self.decls.name(spec.name))
    }

    /// The layer that declared field `idx` of `class` — the ownership
    /// map the xray forensics use to charge a prediction miss to the
    /// layer whose field broke it.
    pub fn field_layer(&self, class: Class, idx: usize) -> Option<LayerId> {
        Some(self.decls.class_specs(class).get(idx)?.layer)
    }

    /// Name `layer` was begun under, bottom first.
    pub fn layer_name(&self, layer: LayerId) -> Option<&str> {
        let span = self.decls.layers.get(layer.0 as usize)?;
        Some(self.decls.name(*span))
    }

    /// Wire length of `class`'s header in bytes.
    pub fn class_len(&self, class: Class) -> usize {
        self.classes[class.index()].byte_len()
    }

    /// The per-class layout.
    pub fn class(&self, class: Class) -> &ClassLayout {
        &self.classes[class.index()]
    }

    /// Total bytes of the always-present headers (protocol + message +
    /// gossip) — what rides on every message in addition to the 8-byte
    /// preamble and the packing header.
    pub fn per_message_header_bytes(&self) -> usize {
        self.class_len(Class::Protocol)
            + self.class_len(Class::Message)
            + self.class_len(Class::Gossip)
    }

    /// Reads scalar field `f` (≤ 64 bits) from `hdr` in `order`.
    ///
    /// # Panics
    /// If `f` is a wide blob field — use
    /// [`CompiledLayout::read_field_bytes`] for those.
    pub fn read_field(&self, f: Field, hdr: &[u8], order: ByteOrder) -> u64 {
        let p = self.classes[f.class.index()].placed[f.idx as usize];
        assert!(
            p.bits <= 64,
            "field wider than 64 bits: use read_field_bytes"
        );
        bits::read_field(hdr, p.bit_offset, p.bits, order)
    }

    /// Writes scalar field `f` (≤ 64 bits, low `bits` of `v`) into `hdr`.
    ///
    /// # Panics
    /// If `f` is a wide blob field — use
    /// [`CompiledLayout::write_field_bytes`] for those.
    pub fn write_field(&self, f: Field, hdr: &mut [u8], order: ByteOrder, v: u64) {
        let p = self.classes[f.class.index()].placed[f.idx as usize];
        assert!(
            p.bits <= 64,
            "field wider than 64 bits: use write_field_bytes"
        );
        bits::write_field(hdr, p.bit_offset, p.bits, bits::mask(v, p.bits), order);
    }

    /// Reads wide blob field `f` as raw bytes (byte-aligned by
    /// construction: the packer byte-aligns every field wider than a
    /// byte, and >64-bit widths are byte multiples).
    pub fn read_field_bytes<'h>(&self, f: Field, hdr: &'h [u8]) -> &'h [u8] {
        let p = self.classes[f.class.index()].placed[f.idx as usize];
        debug_assert_eq!(p.bit_offset % 8, 0);
        debug_assert_eq!(p.bits % 8, 0);
        let start = (p.bit_offset / 8) as usize;
        &hdr[start..start + (p.bits / 8) as usize]
    }

    /// Writes wide blob field `f` from raw bytes.
    ///
    /// # Panics
    /// If `src` does not match the field's width exactly.
    pub fn write_field_bytes(&self, f: Field, hdr: &mut [u8], src: &[u8]) {
        let p = self.classes[f.class.index()].placed[f.idx as usize];
        debug_assert_eq!(p.bit_offset % 8, 0);
        assert_eq!(src.len() as u32 * 8, p.bits, "blob width mismatch");
        let start = (p.bit_offset / 8) as usize;
        hdr[start..start + src.len()].copy_from_slice(src);
    }

    /// Width of field `f` in bits.
    pub fn field_bits(&self, f: Field) -> u32 {
        self.classes[f.class.index()].placed[f.idx as usize].bits
    }

    /// Byte range `f` touches within its class header (for fast filter
    /// specialisation when fields happen to be conveniently aligned).
    pub fn field_byte_span(&self, f: Field) -> (usize, usize) {
        let p = self.classes[f.class.index()].placed[f.idx as usize];
        let start = (p.bit_offset / 8) as usize;
        let end = (p.bit_offset + p.bits).div_ceil(8) as usize;
        (start, end)
    }
}

/// Alignment a field of `bits` width prefers, in bits.
fn preferred_align(bits: u32) -> u32 {
    match bits {
        65.. => 8, // wide blobs: byte alignment
        64 => 64,
        33..=63 => 8, // odd wide fields: byte alignment
        32 => 32,
        17..=31 => 8,
        16 => 16,
        9..=15 => 8,
        8 => 8,
        _ => 1, // sub-byte fields pack bit-tight
    }
}

/// The bits of word `w` inside `[start, end)`, which must overlap it.
fn span_mask(w: usize, start: usize, end: usize) -> u64 {
    let lo = (w * 64).max(start);
    let hi = ((w + 1) * 64).min(end);
    (!0u64 >> (64 - (hi - lo))) << (lo % 64)
}

/// The highest occupied bit in `[off, off + width)`, if any.
fn highest_set(words: &[u64], off: u32, width: u32) -> Option<u32> {
    let (start, end) = (off as usize, (off + width) as usize);
    (start / 64..end.div_ceil(64).min(words.len()))
        .rev()
        .find_map(|w| {
            let hit = words[w] & span_mask(w, start, end);
            (hit != 0).then(|| w as u32 * 64 + 63 - hit.leading_zeros())
        })
}

/// The lowest free bit at or after `off`.
fn next_clear(words: &[u64], mut off: u32) -> u32 {
    while let Some(&word) = words.get(off as usize / 64) {
        let room = 64 - off % 64;
        let run = (word >> (off % 64)).trailing_ones();
        off += run;
        if run < room {
            break;
        }
    }
    off
}

fn claim(words: &mut Vec<u64>, off: u32, width: u32) {
    let (start, end) = (off as usize, (off + width) as usize);
    let (first, last) = (start / 64, end.div_ceil(64));
    if words.len() < last {
        words.resize(last, 0);
    }
    for (i, word) in words[first..last].iter_mut().enumerate() {
        *word |= span_mask(first + i, start, end);
    }
}

/// First-fit-decreasing bit packing with natural alignment: fixed
/// offsets first, in declaration order; then the floating fields widest
/// first (ties in declaration order, so compilation is deterministic),
/// each at the lowest free offset of its preferred alignment. `Err(i)`
/// names the fixed field that overlaps an earlier one.
///
/// The search never probes bit by bit: it starts at the lowest free bit
/// and, on a conflict, jumps past the blocking bit's occupied run —
/// where first-fit from zero would have stopped (DESIGN.md, "Connection
/// setup", has the argument; the tests below, the per-bit reference).
fn pack_class(
    specs: &[FieldSpec],
    words: &mut Vec<u64>,
    order: &mut Vec<u32>,
) -> Result<ClassLayout, usize> {
    words.clear();
    order.clear();
    // Room for the fields laid end to end; alignment padding may grow it.
    words.reserve(specs.iter().map(|s| s.bits as usize).sum::<usize>() / 64 + 1);
    order.reserve(specs.len());
    let mut placed: Vec<PlacedField> = specs
        .iter()
        .map(|s| PlacedField {
            bit_offset: s.offset.unwrap_or(0),
            bits: s.bits,
        })
        .collect();
    for (i, s) in specs.iter().enumerate() {
        match s.offset {
            Some(off) if highest_set(words, off, s.bits).is_some() => return Err(i),
            Some(off) => claim(words, off, s.bits),
            None => order.push(i as u32),
        }
    }
    order.sort_by_key(|&i| std::cmp::Reverse(specs[i as usize].bits));
    let mut low = next_clear(words, 0);
    for &i in order.iter() {
        let p = &mut placed[i as usize];
        let align = preferred_align(p.bits);
        p.bit_offset = low.next_multiple_of(align);
        while let Some(h) = highest_set(words, p.bit_offset, p.bits) {
            p.bit_offset = next_clear(words, h + 1).next_multiple_of(align);
        }
        claim(words, p.bit_offset, p.bits);
        low = next_clear(words, low);
    }
    Ok(ClassLayout::new(placed))
}

/// The traditional scheme: sub-headers per layer, each padded to
/// `pad_bytes` alignment; fields at natural byte alignment inside. Layer
/// ids only count up, so a change of owner ends a sub-header.
fn layer_by_layer(specs: &[FieldSpec], pad_bytes: u32) -> ClassLayout {
    let mut cursor_bits = 0u32;
    let mut placed = Vec::with_capacity(specs.len());
    for (i, s) in specs.iter().enumerate() {
        if i > 0 && specs[i - 1].layer != s.layer {
            cursor_bits = cursor_bits.next_multiple_of(pad_bytes * 8);
        }
        // Natural alignment: round width up to bytes, align to the
        // smaller of that and 8 bytes.
        let width_bytes = s.bits.div_ceil(8);
        let align_bytes = width_bytes.next_power_of_two().min(8);
        cursor_bits = cursor_bits.next_multiple_of(align_bytes * 8);
        placed.push(PlacedField {
            bit_offset: cursor_bits,
            bits: s.bits,
        });
        cursor_bits += width_bytes * 8;
    }
    // Pad the last layer's header to the 4/8-byte boundary too.
    let mut layout = ClassLayout::new(placed);
    layout.byte_len = layout.byte_len.next_multiple_of(pad_bytes as usize);
    layout
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_obs::rng::{Rng, SplitMix64};

    fn builder_4layer() -> LayoutBuilder {
        // A caricature of the paper's 4-layer sliding-window stack.
        let mut b = LayoutBuilder::new();
        b.begin_layer("bottom");
        b.add_field(Class::ConnId, "src_addr", 128, None).unwrap();
        b.add_field(Class::ConnId, "dst_addr", 128, None).unwrap();
        b.add_field(Class::ConnId, "src_port", 32, None).unwrap();
        b.add_field(Class::ConnId, "dst_port", 32, None).unwrap();
        b.begin_layer("frag");
        b.add_field(Class::Protocol, "frag_flag", 1, None).unwrap();
        b.add_field(Class::Protocol, "frag_index", 7, None).unwrap();
        b.begin_layer("checksum");
        b.add_field(Class::Message, "cksum", 16, None).unwrap();
        b.add_field(Class::Message, "length", 16, None).unwrap();
        b.begin_layer("window");
        b.add_field(Class::Protocol, "seq", 32, None).unwrap();
        b.add_field(Class::Protocol, "mtype", 2, None).unwrap();
        b.add_field(Class::Gossip, "ack", 32, None).unwrap();
        b
    }

    #[test]
    fn add_field_requires_layer() {
        let mut b = LayoutBuilder::new();
        assert_eq!(
            b.add_field(Class::Protocol, "x", 8, None),
            Err(LayoutError::NoLayer)
        );
    }

    #[test]
    fn width_validation() {
        let mut b = LayoutBuilder::new();
        b.begin_layer("l");
        assert!(matches!(
            b.add_field(Class::Protocol, "z", 0, None),
            Err(LayoutError::BadWidth { .. })
        ));
        assert!(matches!(
            b.add_field(Class::Protocol, "w", 65, None),
            Err(LayoutError::BadWidth { .. })
        ));
        assert!(b.add_field(Class::Protocol, "ok", 64, None).is_ok());
        assert_eq!(
            b.add_field(Class::Protocol, "", 8, None),
            Err(LayoutError::EmptyName)
        );
    }

    #[test]
    fn packed_protocol_header_is_tight() {
        let b = builder_4layer();
        let l = b.compile(LayoutMode::Packed).unwrap();
        // Protocol fields: 1+7+32+2 = 42 bits → 6 bytes packed.
        assert_eq!(l.class_len(Class::Protocol), 6);
    }

    #[test]
    fn traditional_protocol_header_pays_padding() {
        let b = builder_4layer();
        let packed = b.compile(LayoutMode::Packed).unwrap();
        let trad = b.compile(LayoutMode::Traditional).unwrap();
        // frag layer: 1-bit + 7-bit → 2 bytes → padded to 4.
        // window layer: 4-byte seq + 1-byte type → 5 → padded to 8.
        assert_eq!(trad.class_len(Class::Protocol), 12);
        assert!(trad.class_len(Class::Protocol) > packed.class_len(Class::Protocol));
        let t8 = b.compile(LayoutMode::Traditional8).unwrap();
        assert!(t8.class_len(Class::Protocol) >= trad.class_len(Class::Protocol));
    }

    #[test]
    fn conn_id_is_realistically_large() {
        let b = builder_4layer();
        let l = b.compile(LayoutMode::Packed).unwrap();
        // 2×128-bit addresses + 2×32-bit ports = 40 bytes minimum.
        assert_eq!(l.class_len(Class::ConnId), 40);
    }

    #[test]
    fn fields_do_not_overlap_packed() {
        let b = builder_4layer();
        let l = b.compile(LayoutMode::Packed).unwrap();
        for c in Class::ALL {
            let cl = l.class(c);
            let n = b.field_count(c);
            let mut spans: Vec<(u32, u32)> = (0..n)
                .map(|i| (cl.placement(i).bit_offset, cl.placement(i).bits))
                .collect();
            spans.sort();
            for w in spans.windows(2) {
                assert!(w[0].0 + w[0].1 <= w[1].0, "overlap in class {c}: {spans:?}");
            }
        }
    }

    #[test]
    fn fixed_offsets_honoured_and_conflicts_detected() {
        let mut b = LayoutBuilder::new();
        b.begin_layer("l");
        let a = b.add_field(Class::Message, "at16", 8, Some(16)).unwrap();
        b.add_field(Class::Message, "float", 16, None).unwrap();
        let l = b.compile(LayoutMode::Packed).unwrap();
        assert_eq!(
            l.class(Class::Message)
                .placement(a.index_in_class())
                .bit_offset,
            16
        );

        let mut b2 = LayoutBuilder::new();
        b2.begin_layer("l");
        b2.add_field(Class::Message, "a", 8, Some(0)).unwrap();
        b2.add_field(Class::Message, "b", 8, Some(4)).unwrap();
        assert!(matches!(
            b2.compile(LayoutMode::Packed),
            Err(LayoutError::OffsetConflict { .. })
        ));
    }

    #[test]
    fn fixed_offset_is_bounded_at_declaration() {
        let mut b = LayoutBuilder::new();
        b.begin_layer("l");
        // The last bit a fixed field may occupy is MAX_HEADER_BITS - 1.
        assert!(b
            .add_field(Class::Protocol, "edge", 8, Some(MAX_HEADER_BITS - 8))
            .is_ok());
        for offset in [MAX_HEADER_BITS - 7, 1_000_000_000, u32::MAX - 5, u32::MAX] {
            assert_eq!(
                b.add_field(Class::Protocol, "f", 8, Some(offset)),
                Err(LayoutError::OffsetOutOfRange {
                    name: "f".into(),
                    offset,
                    bits: 8
                }),
            );
        }
        assert_eq!(
            b.add_field(Class::ConnId, "blob", 2048, Some(MAX_HEADER_BITS - 2047)),
            Err(LayoutError::OffsetOutOfRange {
                name: "blob".into(),
                offset: MAX_HEADER_BITS - 2047,
                bits: 2048
            }),
        );
        // A refused declaration leaves no trace: one field, at the edge.
        assert_eq!(b.field_count(Class::Protocol), 1);
        let l = b.compile(LayoutMode::Packed).unwrap();
        assert_eq!(l.class_len(Class::Protocol), u16::MAX as usize);
        assert_eq!(l.field_name(Class::Protocol, 0), Some("edge"));
        assert_eq!(l.field_name(Class::Protocol, 1), None);
    }

    #[test]
    fn error_messages_say_what_is_enforced() {
        let mut b = LayoutBuilder::new();
        b.begin_layer("l");
        let width = b.add_field(Class::Protocol, "w", 65, None).unwrap_err();
        assert!(width.to_string().contains("1..=64 bits"), "{width}");
        assert!(width.to_string().contains("2048"), "{width}");
        let far = b.add_field(Class::Protocol, "o", 8, Some(u32::MAX));
        let far = far.unwrap_err().to_string();
        assert!(
            far.contains("4294967295") && far.contains("524280"),
            "{far}"
        );
    }

    #[test]
    fn the_layout_keeps_the_name_table() {
        let l = builder_4layer().compile(LayoutMode::Traditional).unwrap();
        assert_eq!(l.field_name(Class::Protocol, 2), Some("seq"));
        assert_eq!(l.field_layer(Class::Protocol, 2), Some(LayerId(3)));
        assert_eq!(l.layer_name(LayerId(3)), Some("window"));
        assert_eq!(l.layer_name(LayerId(0)), Some("bottom"));
        assert_eq!(l.layer_name(LayerId(4)), None);
        assert_eq!(l.field_layer(Class::Gossip, 1), None);
    }

    #[test]
    fn read_write_roundtrip_all_fields() {
        let mut b = LayoutBuilder::new();
        b.begin_layer("l");
        let f1 = b.add_field(Class::Protocol, "bit", 1, None).unwrap();
        let f2 = b.add_field(Class::Protocol, "nib", 4, None).unwrap();
        let f3 = b.add_field(Class::Protocol, "word", 32, None).unwrap();
        let f4 = b.add_field(Class::Protocol, "wide", 64, None).unwrap();
        let l = b.compile(LayoutMode::Packed).unwrap();
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let mut hdr = vec![0u8; l.class_len(Class::Protocol)];
            l.write_field(f1, &mut hdr, order, 1);
            l.write_field(f2, &mut hdr, order, 0xA);
            l.write_field(f3, &mut hdr, order, 0xDEAD_BEEF);
            l.write_field(f4, &mut hdr, order, u64::MAX);
            assert_eq!(l.read_field(f1, &hdr, order), 1);
            assert_eq!(l.read_field(f2, &hdr, order), 0xA);
            assert_eq!(l.read_field(f3, &hdr, order), 0xDEAD_BEEF);
            assert_eq!(l.read_field(f4, &hdr, order), u64::MAX);
        }
    }

    #[test]
    fn write_masks_overwide_values() {
        let mut b = LayoutBuilder::new();
        b.begin_layer("l");
        let f = b.add_field(Class::Protocol, "small", 4, None).unwrap();
        let g = b.add_field(Class::Protocol, "next", 4, None).unwrap();
        let l = b.compile(LayoutMode::Packed).unwrap();
        let mut hdr = vec![0u8; l.class_len(Class::Protocol)];
        l.write_field(g, &mut hdr, ByteOrder::Big, 0x5);
        l.write_field(f, &mut hdr, ByteOrder::Big, 0xFFF); // over-wide
        assert_eq!(l.read_field(f, &hdr, ByteOrder::Big), 0xF);
        assert_eq!(
            l.read_field(g, &hdr, ByteOrder::Big),
            0x5,
            "neighbour untouched"
        );
    }

    #[test]
    fn deterministic_compilation() {
        let a = builder_4layer().compile(LayoutMode::Packed).unwrap();
        let b = builder_4layer().compile(LayoutMode::Packed).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_detects_stack_changes() {
        let base = builder_4layer().compile(LayoutMode::Packed).unwrap();
        let mut changed = builder_4layer();
        changed.begin_layer("extra");
        changed.add_field(Class::Gossip, "more", 8, None).unwrap();
        let changed = changed.compile(LayoutMode::Packed).unwrap();
        assert_ne!(base.fingerprint(), changed.fingerprint());
    }

    #[test]
    fn empty_class_has_zero_length() {
        let mut b = LayoutBuilder::new();
        b.begin_layer("l");
        b.add_field(Class::Protocol, "only", 8, None).unwrap();
        let l = b.compile(LayoutMode::Packed).unwrap();
        assert_eq!(l.class_len(Class::Gossip), 0);
        assert_eq!(l.class_len(Class::Message), 0);
        assert_eq!(l.per_message_header_bytes(), 1);
    }

    #[test]
    fn packed_never_larger_than_traditional() {
        let b = builder_4layer();
        let p = b.compile(LayoutMode::Packed).unwrap();
        let t = b.compile(LayoutMode::Traditional).unwrap();
        assert!(p.per_message_header_bytes() <= t.per_message_header_bytes());
    }

    #[test]
    fn byte_span_covers_field() {
        let mut b = LayoutBuilder::new();
        b.begin_layer("l");
        let f = b.add_field(Class::Message, "x", 16, Some(8)).unwrap();
        let l = b.compile(LayoutMode::Packed).unwrap();
        assert_eq!(l.field_byte_span(f), (1, 3));
        assert_eq!(l.field_bits(f), 16);
    }

    #[test]
    fn wide_blob_fields_roundtrip() {
        let mut b = LayoutBuilder::new();
        b.begin_layer("bottom");
        let flag = b.add_field(Class::ConnId, "flag", 1, None).unwrap();
        let addr = b.add_field(Class::ConnId, "addr", 128, None).unwrap();
        let l = b.compile(LayoutMode::Packed).unwrap();
        let mut hdr = vec![0u8; l.class_len(Class::ConnId)];
        let blob: Vec<u8> = (0..16).collect();
        l.write_field_bytes(addr, &mut hdr, &blob);
        l.write_field(flag, &mut hdr, ByteOrder::Big, 1);
        assert_eq!(l.read_field_bytes(addr, &hdr), &blob[..]);
        assert_eq!(l.read_field(flag, &hdr, ByteOrder::Big), 1);
    }

    #[test]
    fn wide_field_must_be_byte_multiple() {
        let mut b = LayoutBuilder::new();
        b.begin_layer("l");
        assert!(matches!(
            b.add_field(Class::ConnId, "odd", 127, None),
            Err(LayoutError::BadWidth { .. })
        ));
        assert!(b.add_field(Class::ConnId, "even", 2048, None).is_ok());
        assert!(matches!(
            b.add_field(Class::ConnId, "huge", 2056, None),
            Err(LayoutError::BadWidth { .. })
        ));
    }

    #[test]
    fn many_small_fields_pack_into_few_bytes() {
        let mut b = LayoutBuilder::new();
        b.begin_layer("l");
        for i in 0..16 {
            b.add_field(Class::Protocol, &format!("flag{i}"), 1, None)
                .unwrap();
        }
        let l = b.compile(LayoutMode::Packed).unwrap();
        assert_eq!(
            l.class_len(Class::Protocol),
            2,
            "16 one-bit flags = 2 bytes"
        );
        let t = b.compile(LayoutMode::Traditional).unwrap();
        assert_eq!(t.class_len(Class::Protocol), 16, "traditional: a byte each");
    }

    // -----------------------------------------------------------------
    // The reference packer: the per-bit first-fit this module shipped
    // with before the word bitmap, kept verbatim (over its own spec
    // record, names as `String`s) as the oracle the compiler is pinned
    // to. Placement is wire-visible; "the same algorithm, faster" is a
    // claim about every input, so it is checked on a few thousand.
    // -----------------------------------------------------------------

    #[derive(Debug, Clone)]
    struct RefSpec {
        name: String,
        bits: u32,
        offset: Option<u32>,
        layer: LayerId,
    }

    type RefClass = (Vec<PlacedField>, usize, u32);

    fn ref_pack_class(specs: &[RefSpec]) -> Result<RefClass, LayoutError> {
        let mut placed = vec![
            PlacedField {
                bit_offset: 0,
                bits: 0
            };
            specs.len()
        ];
        let mut occupancy: Vec<bool> = Vec::new();
        let claim = |occ: &mut Vec<bool>, off: u32, width: u32| {
            let end = (off + width) as usize;
            if occ.len() < end {
                occ.resize(end, false);
            }
            for b in &mut occ[off as usize..end] {
                *b = true;
            }
        };
        let free = |occ: &[bool], off: u32, width: u32| -> bool {
            let end = (off + width) as usize;
            occ.iter()
                .skip(off as usize)
                .take(end - off as usize)
                .all(|&b| !b)
                || occ.len() <= off as usize
        };
        for (i, s) in specs.iter().enumerate() {
            if let Some(off) = s.offset {
                if !free(&occupancy, off, s.bits) {
                    return Err(LayoutError::OffsetConflict {
                        name: s.name.clone(),
                        offset: off,
                    });
                }
                claim(&mut occupancy, off, s.bits);
                placed[i] = PlacedField {
                    bit_offset: off,
                    bits: s.bits,
                };
            }
        }
        let mut floating: Vec<usize> = (0..specs.len())
            .filter(|&i| specs[i].offset.is_none())
            .collect();
        floating.sort_by_key(|&i| std::cmp::Reverse(specs[i].bits));
        for i in floating {
            let s = &specs[i];
            let align = preferred_align(s.bits);
            let mut off = 0u32;
            loop {
                if free(&occupancy, off, s.bits) {
                    claim(&mut occupancy, off, s.bits);
                    placed[i] = PlacedField {
                        bit_offset: off,
                        bits: s.bits,
                    };
                    break;
                }
                off += align;
            }
        }
        let used_bits: u32 = specs.iter().map(|s| s.bits).sum();
        let highest = placed
            .iter()
            .map(|p| p.bit_offset + p.bits)
            .max()
            .unwrap_or(0);
        Ok((placed, highest.div_ceil(8) as usize, used_bits))
    }

    fn ref_layer_by_layer(specs: &[RefSpec], pad_bytes: u32) -> RefClass {
        let mut placed = vec![
            PlacedField {
                bit_offset: 0,
                bits: 0
            };
            specs.len()
        ];
        let mut layers: Vec<LayerId> = specs.iter().map(|s| s.layer).collect();
        layers.dedup();
        layers.sort();
        layers.dedup();
        let mut cursor_bits = 0u32;
        for layer in layers {
            for (i, s) in specs.iter().enumerate() {
                if s.layer != layer {
                    continue;
                }
                let width_bytes = s.bits.div_ceil(8);
                let align_bytes = width_bytes.next_power_of_two().min(8);
                let align_bits = align_bytes * 8;
                cursor_bits = cursor_bits.div_ceil(align_bits) * align_bits;
                placed[i] = PlacedField {
                    bit_offset: cursor_bits,
                    bits: s.bits,
                };
                cursor_bits += width_bytes * 8;
            }
            let pad_bits = pad_bytes * 8;
            cursor_bits = cursor_bits.div_ceil(pad_bits) * pad_bits;
        }
        let used_bits: u32 = specs.iter().map(|s| s.bits).sum();
        (placed, (cursor_bits / 8) as usize, used_bits)
    }

    fn ref_fingerprint(layers: &[String], specs: &[Vec<RefSpec>; 4]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        };
        for name in layers {
            for b in name.bytes() {
                eat(b);
            }
            eat(0xFF);
        }
        for c in Class::ALL {
            eat(c.index() as u8);
            for s in &specs[c.index()] {
                for b in s.name.bytes() {
                    eat(b);
                }
                eat(0);
                for b in s.bits.to_le_bytes() {
                    eat(b);
                }
                for b in s.offset.map(|o| o + 1).unwrap_or(0).to_le_bytes() {
                    eat(b);
                }
                for b in s.layer.0.to_le_bytes() {
                    eat(b);
                }
            }
        }
        h
    }

    /// One seeded declaration set: 1–6 layers sharing out 1–40 fields
    /// per class, in both the builder under test and the reference's
    /// own lists.
    fn random_declarations(
        rng: &mut SplitMix64,
    ) -> (LayoutBuilder, Vec<String>, [Vec<RefSpec>; 4]) {
        const SCALAR: [u32; 8] = [8, 16, 32, 64, 3, 13, 33, 63];
        let mut b = LayoutBuilder::new();
        let mut layers = Vec::new();
        let mut specs: [Vec<RefSpec>; 4] = Default::default();
        // How densely fixed offsets are thrown at the header: 0 = none,
        // otherwise one field in `fixed_every`, inside `reach` bits, so
        // sets range from "all fit" to "some pair surely overlaps".
        let fixed_every = [0, 2, 5, 12][rng.gen_index(4)];
        let reach = [64u32, 512, 4096, 20_000][rng.gen_index(4)];
        let mut budget: [usize; 4] = std::array::from_fn(|_| 1 + rng.gen_index(40));
        let layer_count = 1 + rng.gen_index(6);
        for l in 0..layer_count {
            let lname = format!("layer{l}");
            let id = b.begin_layer(&lname);
            layers.push(lname);
            for c in Class::ALL {
                let left = &mut budget[c.index()];
                let take = if l + 1 == layer_count {
                    *left
                } else {
                    rng.gen_index(*left + 1)
                };
                *left -= take;
                for _ in 0..take {
                    let bits = match rng.gen_index(10) {
                        0..=3 => 1 + rng.gen_index(7) as u32,
                        4..=7 => SCALAR[rng.gen_index(SCALAR.len())],
                        8 => 1 + rng.gen_index(64) as u32,
                        _ => 8 * (9 + rng.gen_index(248) as u32),
                    };
                    let offset = (fixed_every != 0 && rng.gen_index(fixed_every) == 0).then(|| {
                        let at = rng.gen_index(reach as usize) as u32;
                        // Half the time on a byte boundary, as a real
                        // layer would ask.
                        if rng.gen_index(2) == 0 {
                            at & !7
                        } else {
                            at
                        }
                    });
                    let name = format!("f{}_{}", c.index(), specs[c.index()].len());
                    b.add_field(c, &name, bits, offset).unwrap();
                    specs[c.index()].push(RefSpec {
                        name,
                        bits,
                        offset,
                        layer: id,
                    });
                }
            }
        }
        (b, layers, specs)
    }

    #[test]
    fn word_bitmap_packer_matches_the_per_bit_reference() {
        let mut rng = SplitMix64::new(0x7061_636b_5f72_6566);
        let (mut conflicts, mut with_fixed, mut blobs) = (0, 0, 0);
        for case in 0..2400 {
            let (b, layers, specs) = random_declarations(&mut rng);
            let fingerprint = ref_fingerprint(&layers, &specs);
            with_fixed += specs.iter().flatten().any(|s| s.offset.is_some()) as u32;
            blobs += specs.iter().flatten().any(|s| s.bits == MAX_FIELD_BITS) as u32;
            for mode in [
                LayoutMode::Packed,
                LayoutMode::Traditional,
                LayoutMode::Traditional8,
            ] {
                // The compiler stops at the first class that conflicts,
                // classes in wire order; so does this.
                let want: Result<Vec<RefClass>, LayoutError> = specs
                    .iter()
                    .map(|s| match mode {
                        LayoutMode::Packed => ref_pack_class(s),
                        LayoutMode::Traditional => Ok(ref_layer_by_layer(s, 4)),
                        LayoutMode::Traditional8 => Ok(ref_layer_by_layer(s, 8)),
                    })
                    .collect();
                let got = b.compile(mode);
                let (want, got) = match (want, got) {
                    (Err(want), got) => {
                        conflicts += 1;
                        assert_eq!(got.unwrap_err(), want, "case {case} {mode:?}");
                        continue;
                    }
                    (Ok(want), got) => (want, got.expect("the reference placed every field")),
                };
                assert_eq!(got.fingerprint(), fingerprint, "case {case} {mode:?}");
                for (c, (placed, byte_len, used_bits)) in Class::ALL.into_iter().zip(want) {
                    let cl = got.class(c);
                    assert_eq!(cl.placed, placed, "case {case} {mode:?} {c}");
                    assert_eq!(cl.byte_len(), byte_len, "case {case} {mode:?} {c}");
                    assert_eq!(cl.used_bits(), used_bits, "case {case} {mode:?} {c}");
                }
            }
        }
        // The generator reaches each regime it is there for.
        assert!(conflicts > 200, "conflicting fixed offsets: {conflicts}");
        assert!(with_fixed - conflicts > 200, "fixed offsets that fit");
        assert!(blobs > 20, "blobs at MAX_FIELD_BITS: {blobs}");
    }
}
