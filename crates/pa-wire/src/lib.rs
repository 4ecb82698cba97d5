//! Wire formats for the Protocol Accelerator.
//!
//! §2 of the paper attacks header overhead with two mechanisms, both of
//! which live in this crate:
//!
//! 1. **Cross-layer header packing** (§2.1). Each layer declares the
//!    header fields it needs with
//!    `add_field(class, name, size, offset)`; after all layers have
//!    initialized, the PA "collects all the fields, and compiles them
//!    into four compact headers, one for each class … observing size,
//!    and if so requested, offset, but *not layering*". The
//!    [`layout::LayoutBuilder`] is that compiler; it also implements the
//!    *traditional* per-layer padded layout as a baseline so the padding
//!    the paper complains about (≥12 bytes for a small stack) can be
//!    measured rather than asserted.
//!
//! 2. **Connection cookies** (§2.2). The immutable Connection
//!    Identification (~76 bytes in Horus) is replaced in the common case
//!    by an 8-byte [`preamble::Preamble`]: a connection-identification-
//!    present bit, a byte-order bit, and a 62-bit random
//!    [`cookie::Cookie`].
//!
//! Field accessors are byte-order aware (§2.1: "layers do not have to
//! worry about communicating between heterogeneous machines") — see
//! [`layout::CompiledLayout::read_field`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod bits;
pub mod class;
pub mod cookie;
pub mod layout;
pub mod preamble;

pub use addr::EndpointAddr;
pub use class::{Class, Field, LayerId};
pub use cookie::Cookie;
pub use layout::{CompiledLayout, LayoutBuilder, LayoutError, LayoutMode};
pub use preamble::{Preamble, PREAMBLE_LEN};

pub use pa_buf::ByteOrder;
