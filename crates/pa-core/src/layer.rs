//! The protocol-layer interface, in canonical pre/post form (§3.1).
//!
//! "The send and delivery processing of a protocol layer can be done in
//! two phases: a pre-processing phase [that] builds (sending) or checks
//! (delivery) the message header but leaves the protocol state
//! untouched, and a post-processing phase [that] updates the protocol
//! state." Every layer in this framework is written that way from the
//! start; the engine exploits it by running pre phases on the critical
//! path (when the fast path cannot be used at all) and deferring post
//! phases until the host is idle.
//!
//! Layer stacking: index 0 is the **bottom** (closest to the network),
//! index `n-1` the **top** (closest to the application). Pre-send runs
//! top → bottom, pre-deliver bottom → top; post phases run in the same
//! direction as their pre phase.
//!
//! Layers never call each other. They communicate through the engine via
//! [`LayerCtx`]: emitting messages downward (acknowledgements,
//! retransmissions, drained window buffers), emitting upward
//! (reassembled or reordered messages), and toggling the predicted
//! headers' disable counters. The buffers a layer keeps or emits come
//! from the connection's pool, lent through the same context
//! ([`LayerCtx::buf_with`], [`LayerCtx::put_buf`]).
//!
//! What a layer declares — header fields (§2.1's `add_field`), filter
//! fragments and patchable slots (§3.3) — is not something it does but
//! something it *is*: a [`LayerShape`], a plain value whose declare
//! function writes the declarations from the shape's own words. A stack
//! of equal shapes declares equal things, so the engine declares once
//! per stack shape and hands each connection's layers their handles
//! ([`Layer::bind`]).

use crate::predict::Prediction;
use crate::Nanos;
use pa_buf::{ByteOrder, Msg, MsgPool};
use pa_filter::{Frame, Op, ProgramBuilder, SlotId};
use pa_obs::DisableReason;
use pa_wire::{Class, CompiledLayout, Field, LayoutBuilder, LayoutError};
use std::fmt;

/// Verdict of a layer's pre-send phase.
#[derive(Debug)]
pub enum SendAction {
    /// Header fields written; continue to the layer below.
    Continue,
    /// The layer consumed the message (e.g. window full; it took the
    /// contents with `std::mem::take` and will re-emit later).
    Buffered,
    /// The message was replaced by these (fragmentation). Each continues
    /// from the layer below.
    Split(Vec<Msg>),
    /// Refuse to send (protocol error); the message is discarded.
    Reject(&'static str),
}

/// Verdict of a layer's pre-deliver phase.
#[derive(Debug)]
pub enum DeliverAction {
    /// Checks passed; continue to the layer above.
    Continue,
    /// The layer owns this message (control message, out-of-order
    /// stash, partial reassembly). Post-deliver will run for it; the
    /// application sees nothing now.
    Consume,
    /// Discard (duplicate, corrupt). Post-deliver still runs so the
    /// layer can, e.g., re-acknowledge a duplicate.
    Drop(&'static str),
}

/// The declare function of a [`LayerShape`]: writes one layer's
/// declarations, reading nothing but the shape's words and
/// [`Declare::layer_name`].
pub type DeclareFn = fn(&mut Declare<'_>, &[i64]) -> Result<(), LayoutError>;

/// What a layer declares, as a value: a declare function and up to
/// [`LayerShape::WORDS`] words it reads — everything the declarations
/// depend on (the checksum's digest, frag's MTU, a slot's first value).
///
/// Two layers of equal shape and equal [`Layer::name`] declare equal
/// things *by construction*: the declarations are whatever the one
/// function writes from the same words and the same name, and it is
/// handed nothing else — not the layer. So the engine keys a stack's
/// plan on `(layout mode, trace context, [(name, shape)])` and declares
/// only on a miss. Shapes compare by the function's address: two copies
/// of one function at different addresses cost one extra compile, never
/// a wrong hit, and two functions merged into one are the same code, so
/// they declare the same things.
#[derive(Debug, Clone, Copy)]
pub struct LayerShape {
    declare: DeclareFn,
    words: [i64; LayerShape::WORDS],
    len: u8,
}

impl LayerShape {
    /// Most words a shape carries.
    pub(crate) const WORDS: usize = 4;

    /// A layer that declares nothing.
    pub const NONE: LayerShape = LayerShape::new(declare_nothing, []);

    /// The shape whose declarations `declare` writes from `words`.
    pub const fn new<const N: usize>(declare: DeclareFn, words: [i64; N]) -> LayerShape {
        assert!(N <= LayerShape::WORDS, "a shape carries at most four words");
        let mut padded = [0; LayerShape::WORDS];
        let mut i = 0;
        while i < N {
            padded[i] = words[i];
            i += 1;
        }
        LayerShape {
            declare,
            words: padded,
            len: N as u8,
        }
    }

    /// The words the declare function reads.
    fn words(&self) -> &[i64] {
        &self.words[..self.len as usize]
    }

    /// Runs the declarations of a layer named `name` of this shape into
    /// hand-held builders, after `begin_layer(name)` — what a plan's
    /// build does for each layer, for code that compiles a layout by
    /// hand.
    pub fn declare_into(
        &self,
        name: &'static str,
        layout: &mut LayoutBuilder,
        send: &mut ProgramBuilder,
        recv: &mut ProgramBuilder,
    ) -> Result<(), LayoutError> {
        self.declare(name, layout, send, recv, &mut HandleLog::default())
    }

    /// [`LayerShape::declare_into`], logging the handles returned.
    pub(crate) fn declare(
        &self,
        name: &'static str,
        layout: &mut LayoutBuilder,
        send: &mut ProgramBuilder,
        recv: &mut ProgramBuilder,
        handles: &mut HandleLog,
    ) -> Result<(), LayoutError> {
        layout.begin_layer(name);
        let mut d = Declare {
            name,
            layout,
            send,
            recv,
            handles: &mut *handles,
        };
        (self.declare)(&mut d, self.words())?;
        handles.close();
        Ok(())
    }
}

fn declare_nothing(_: &mut Declare<'_>, _: &[i64]) -> Result<(), LayoutError> {
    Ok(())
}

impl PartialEq for LayerShape {
    fn eq(&self, other: &LayerShape) -> bool {
        std::ptr::fn_addr_eq(self.declare, other.declare) && self.words() == other.words()
    }
}

impl Eq for LayerShape {}

/// What a [`LayerShape`]'s declare function writes into: the stack's
/// field declarations and both filters, as the layer named
/// [`Declare::layer_name`]. Every handle handed out here is logged, in
/// order, and handed back to each layer of the shape by
/// [`Layer::bind`].
pub struct Declare<'a> {
    name: &'static str,
    layout: &'a mut LayoutBuilder,
    send: &'a mut ProgramBuilder,
    recv: &'a mut ProgramBuilder,
    handles: &'a mut HandleLog,
}

impl Declare<'_> {
    /// The declaring layer's [`Layer::name`] (part of the plan's key).
    pub fn layer_name(&self) -> &'static str {
        self.name
    }

    /// The paper's `add_field(class, name, size, offset)` (see
    /// [`LayoutBuilder::add_field`]).
    pub fn add_field(
        &mut self,
        class: Class,
        name: &str,
        bits: u32,
        offset: Option<u32>,
    ) -> Result<Field, LayoutError> {
        let field = self.layout.add_field(class, name, bits, offset)?;
        self.handles.fields.push(field);
        Ok(field)
    }

    /// Allocates a patchable send-filter slot holding `value` at first.
    pub fn send_slot(&mut self, value: i64) -> SlotId {
        let slot = self.send.alloc_slot(value);
        self.handles.send_slots.push(slot);
        slot
    }

    /// Allocates a patchable delivery-filter slot holding `value` at
    /// first.
    pub fn recv_slot(&mut self, value: i64) -> SlotId {
        let slot = self.recv.alloc_slot(value);
        self.handles.recv_slots.push(slot);
        slot
    }

    /// Appends a fragment to the send filter.
    pub fn send_filter(&mut self, ops: impl IntoIterator<Item = Op>) {
        self.send.extend(ops);
    }

    /// Appends a fragment to the delivery filter.
    pub fn recv_filter(&mut self, ops: impl IntoIterator<Item = Op>) {
        self.recv.extend(ops);
    }
}

/// Every handle a stack's declarations returned, in order, and where
/// each declaring layer's run of them ends.
#[derive(Debug, Default)]
pub(crate) struct HandleLog {
    fields: Vec<Field>,
    send_slots: Vec<SlotId>,
    recv_slots: Vec<SlotId>,
    ends: Vec<[usize; 3]>,
}

impl HandleLog {
    /// Room for the paper stack's handles plus the engine's and the
    /// trace context's.
    pub(crate) fn new() -> HandleLog {
        HandleLog {
            fields: Vec::with_capacity(16),
            ends: Vec::with_capacity(8),
            ..HandleLog::default()
        }
    }

    /// Ends the current layer's run.
    fn close(&mut self) {
        let end = [
            self.fields.len(),
            self.send_slots.len(),
            self.recv_slots.len(),
        ];
        self.ends.push(end);
    }

    /// The handles of the `i`-th declaring layer.
    pub(crate) fn of(&self, i: usize) -> Handles<'_> {
        let start = i.checked_sub(1).map_or([0; 3], |p| self.ends[p]);
        let end = self.ends[i];
        Handles {
            fields: &self.fields[start[0]..end[0]],
            send_slots: &self.send_slots[start[1]..end[1]],
            recv_slots: &self.recv_slots[start[2]..end[2]],
        }
    }
}

/// One layer's handles, in the order its declare function took them.
#[derive(Debug, Clone, Copy)]
pub struct Handles<'a> {
    fields: &'a [Field],
    send_slots: &'a [SlotId],
    recv_slots: &'a [SlotId],
}

impl Handles<'_> {
    /// The fields, as an array of exactly as many as were declared.
    pub fn fields<const N: usize>(&self) -> [Field; N] {
        exactly(self.fields, "fields")
    }

    /// The send-filter slots.
    pub fn send_slots<const N: usize>(&self) -> [SlotId; N] {
        exactly(self.send_slots, "send slots")
    }

    /// The delivery-filter slots.
    pub fn recv_slots<const N: usize>(&self) -> [SlotId; N] {
        exactly(self.recv_slots, "delivery slots")
    }
}

fn exactly<T: Copy + fmt::Debug, const N: usize>(handles: &[T], what: &str) -> [T; N] {
    handles
        .try_into()
        .unwrap_or_else(|_| panic!("bound {N} {what}, declared {handles:?}"))
}

/// Side effects a layer may request during pre/post phases and ticks.
///
/// The engine drains these after each callback; `down` messages re-enter
/// the send path *below* the emitting layer, `up` messages re-enter the
/// delivery path *above* it. One list, in emission order: a phase that
/// asks for nothing leaves it empty, and the engine applies what one
/// asked for by kind ([`Effects::drain_in_order`]).
#[derive(Debug, Default)]
pub struct Effects {
    list: Vec<Effect>,
}

/// One request of a layer, through the [`LayerCtx`] method of the same
/// name; the variants are in apply order.
#[derive(Debug)]
pub(crate) enum Effect {
    DisableSend(DisableReason),
    EnableSend(DisableReason),
    DisableRecv(DisableReason),
    EnableRecv(DisableReason),
    PatchSend(SlotId, i64),
    PatchRecv(SlotId, i64),
    /// `true` marks the message *unusual*.
    Down(Msg, bool),
    Up(Msg),
}

impl Effect {
    /// The kind's place in the apply order.
    fn kind(&self) -> u8 {
        match self {
            Effect::DisableSend(_) => 0,
            Effect::EnableSend(_) => 1,
            Effect::DisableRecv(_) => 2,
            Effect::EnableRecv(_) => 3,
            Effect::PatchSend(..) => 4,
            Effect::PatchRecv(..) => 5,
            Effect::Down(..) => 6,
            Effect::Up(_) => 7,
        }
    }
}

impl Effects {
    /// True if nothing was requested.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Everything requested, in apply order — send disables, send
    /// enables, delivery disables, delivery enables, send patches,
    /// delivery patches, down, up; each kind in emission order — leaving
    /// the list empty with its capacity kept. Ordered in place by a
    /// stable insertion sort, which allocates nothing and is one pass
    /// over a list already in order: most hold one kind.
    pub(crate) fn drain_in_order(&mut self) -> std::vec::Drain<'_, Effect> {
        let list = &mut self.list;
        for i in 1..list.len() {
            let mut j = i;
            while j > 0 && list[j - 1].kind() > list[j].kind() {
                list.swap(j - 1, j);
                j -= 1;
            }
        }
        list.drain(..)
    }
}

/// Context handed to every pre/post phase and tick.
pub struct LayerCtx<'a> {
    /// The compiled header layout.
    pub layout: &'a CompiledLayout,
    /// Byte order of the message frame currently being processed (ours
    /// on the send side, the peer's on the delivery side).
    pub order: ByteOrder,
    /// Host-supplied current time.
    pub now: Nanos,
    /// Predicted headers for the next send (layers update their fields
    /// here during post phases).
    pub send_predict: &'a mut Prediction,
    /// Predicted protocol header expected on the next delivery.
    pub recv_predict: &'a mut Prediction,
    /// Side-effect accumulator.
    pub effects: &'a mut Effects,
    /// The connection's §6 recycling pool, lent for the phase.
    pub pool: &'a mut MsgPool,
    /// Pre-deliver only: the delivery filter ran over this very frame
    /// and passed it. A `Return` can only end a verified program, so a
    /// pass means every layer's fragment ran to its end: a layer whose
    /// pre-deliver check repeats its filter fragment need not run it a
    /// second time. False for a frame the filter refused and for a
    /// message a layer emitted upward, which the filter never saw.
    pub filter_passed: bool,
    /// Post-send only: set by [`LayerCtx::keep_image`].
    pub image_wanted: bool,
}

impl<'a> LayerCtx<'a> {
    /// A field view over `msg`'s frame (headers start at byte 0).
    pub fn frame<'m>(&self, msg: &'m mut Msg) -> Frame<'m>
    where
        'a: 'm,
    {
        Frame::new(msg, self.layout, self.order)
    }

    /// Reads `f` out of `msg`'s frame without taking a mutable view —
    /// the post-phase read path, where layers inspect a frame image
    /// they do not own. Replaces the old idiom of cloning the message
    /// just to build a [`Frame`] over the copy.
    pub fn read_field(&self, msg: &Msg, f: pa_wire::Field) -> u64 {
        use pa_wire::Class;
        let proto = self.layout.class_len(Class::Protocol);
        let base = match f.class {
            Class::Protocol => 0,
            Class::Message => proto,
            Class::Gossip => proto + self.layout.class_len(Class::Message),
            Class::ConnId => panic!("conn-id fields are not frame-resident"),
        };
        let len = self.layout.class_len(f.class);
        self.layout
            .read_field(f, &msg.as_slice()[base..base + len], self.order)
    }

    /// A buffer holding a copy of `bytes`, with headroom for every
    /// header the stack and the engine prepend, out of the connection's
    /// pool (the steady state allocates nothing). What a layer keeps — a
    /// retransmission copy, a reorder stash, a message under reassembly
    /// — or emits is built from one of these; one it is done with goes
    /// back through [`LayerCtx::put_buf`].
    pub fn buf_with(&mut self, bytes: &[u8]) -> Msg {
        self.buf_with_room(bytes, 0)
    }

    /// [`LayerCtx::buf_with`] for a copy the layer will append up to
    /// `room` more bytes to (reassembly): the pool hands out a buffer
    /// that already holds that much if it has one, and allocates
    /// nothing for `room` if it has not.
    pub fn buf_with_room(&mut self, bytes: &[u8], room: usize) -> Msg {
        self.pool.take_with_room(bytes, room)
    }

    /// Returns a buffer the layer no longer needs to the pool.
    pub fn put_buf(&mut self, msg: Msg) {
        self.pool.put(msg);
    }

    /// Post-send only: asks for the frame image this phase was shown.
    /// The image is a pooled buffer the engine is done with once the
    /// frame's last post-send phase has run; a layer that would copy it
    /// (a retransmission copy) asks for the buffer instead and receives
    /// it through [`Layer::keep_image`] — after its own `post_send`
    /// returns and before any phase of another frame runs. Every layer
    /// below still sees the whole image in its `post_send`. If several
    /// layers of a stack ask, one is handed the image and the others a
    /// pooled copy each.
    pub fn keep_image(&mut self) {
        self.image_wanted = true;
    }

    /// Builds a fresh frame for a layer-generated message (ack, nak,
    /// heartbeat): zeroed class headers around a single-message body.
    /// The layer writes its fields through [`LayerCtx::frame`]; layers
    /// *below* fill theirs when the frame passes their pre-send.
    pub fn control_frame(&mut self, payload: &[u8]) -> Msg {
        use pa_wire::Class;
        let mut m = self.buf_with(payload);
        crate::packing::PackInfo::Single.push_onto(&mut m);
        let hdr = self.layout.class_len(Class::Protocol)
            + self.layout.class_len(Class::Message)
            + self.layout.class_len(Class::Gossip);
        m.push_front_zeroed(hdr);
        m
    }

    /// Queues `msg` to be sent, entering the stack below the calling
    /// layer. Used for acknowledgements and drained window buffers.
    pub fn emit_down(&mut self, msg: Msg) {
        self.effects.list.push(Effect::Down(msg, false));
    }

    /// Like [`LayerCtx::emit_down`] but marks the message *unusual* so
    /// the connection identification rides along (retransmissions).
    pub fn emit_down_unusual(&mut self, msg: Msg) {
        self.effects.list.push(Effect::Down(msg, true));
    }

    /// Hands `msg` upward, entering the stack above the calling layer
    /// (released reorder-buffer entries, completed reassemblies).
    pub fn emit_up(&mut self, msg: Msg) {
        self.effects.list.push(Effect::Up(msg));
    }

    /// Disables the predicted send header, naming why (e.g.
    /// [`DisableReason::FullWindow`]). The engine attributes the hold
    /// to the calling layer.
    pub fn disable_send(&mut self, reason: DisableReason) {
        self.effects.list.push(Effect::DisableSend(reason));
    }

    /// Re-enables the predicted send header, releasing the hold charged
    /// under `reason` by this layer.
    pub fn enable_send(&mut self, reason: DisableReason) {
        self.effects.list.push(Effect::EnableSend(reason));
    }

    /// Disables the predicted delivery header, naming why.
    pub fn disable_recv(&mut self, reason: DisableReason) {
        self.effects.list.push(Effect::DisableRecv(reason));
    }

    /// Re-enables the predicted delivery header.
    pub fn enable_recv(&mut self, reason: DisableReason) {
        self.effects.list.push(Effect::EnableRecv(reason));
    }

    /// Rewrites a patchable constant in the send filter (applied by the
    /// engine after this callback returns).
    pub fn patch_send_slot(&mut self, slot: pa_filter::SlotId, value: i64) {
        self.effects.list.push(Effect::PatchSend(slot, value));
    }

    /// Rewrites a patchable constant in the delivery filter.
    pub fn patch_recv_slot(&mut self, slot: pa_filter::SlotId, value: i64) {
        self.effects.list.push(Effect::PatchRecv(slot, value));
    }
}

/// A protocol layer in canonical form.
///
/// All methods take the layer by `&mut self`, but the canonical-form
/// contract is semantic: **pre phases must not change protocol state
/// that later pre phases could observe** — they may only read state and
/// write message headers. State changes belong in post phases (and in
/// emissions, which are post-style by construction). The engine's
/// correctness tests include a checker layer that asserts this.
///
/// Layers are `Send`: a `Connection` (and therefore its whole stack)
/// can be handed to another OS thread — the post-drain worker ships
/// connections over an SPSC ring to run post phases off-core (§3.1's
/// deferral taken to a second core). A layer is still never *shared*:
/// exactly one thread drives it at a time, so `Sync` is not required
/// and interior state needs no atomics.
///
/// A connection is built in two steps per layer. [`Layer::shape`] says
/// what the layer declares, as a value; the engine runs those
/// declarations only when no live connection has a stack of the same
/// shapes, names and configuration. Then [`Layer::bind`] hands the
/// layer the `Field` and `SlotId` handles its declarations returned —
/// on every build, whether the plan was found or compiled. A layer that
/// wraps another forwards both, like every other method.
pub trait Layer: Send {
    /// Short name for reports and layouts; part of the plan's key.
    fn name(&self) -> &'static str;

    /// What this layer declares (§2.1's fields, §3.3's filter fragments
    /// and slots), as a value: equal shapes under equal names declare
    /// equal things. A layer that declares nothing returns
    /// [`LayerShape::NONE`].
    fn shape(&self) -> LayerShape;

    /// Receives the handles this layer's shape declared, in declaration
    /// order. Called once per connection, before any phase.
    fn bind(&mut self, handles: Handles<'_>);

    /// Fills this layer's conn-ident fields. `local` is the
    /// identification we send; `peer` the one we expect to receive.
    /// Conn-ident is always encoded big-endian (it is compared as opaque
    /// bytes). Default: nothing to contribute.
    fn fill_ident(&self, _layout: &CompiledLayout, _local: &mut [u8], _peer: &mut [u8]) {}

    /// Pre-send: write header fields for `msg`; do not touch state.
    fn pre_send(&mut self, ctx: &mut LayerCtx<'_>, msg: &mut Msg) -> SendAction;

    /// Post-send: update state for a message that reached the wire;
    /// update the send prediction for the next message.
    fn post_send(&mut self, ctx: &mut LayerCtx<'_>, msg: &Msg);

    /// Pre-deliver: check header fields of `msg`; do not touch state.
    fn pre_deliver(&mut self, ctx: &mut LayerCtx<'_>, msg: &mut Msg) -> DeliverAction;

    /// Post-deliver: update state for a received message (including
    /// consumed and dropped ones); update the delivery prediction.
    fn post_deliver(&mut self, ctx: &mut LayerCtx<'_>, msg: &Msg);

    /// Periodic timer (retransmission, keepalive). Default: nothing.
    fn on_tick(&mut self, _ctx: &mut LayerCtx<'_>, _now: Nanos) {}

    /// Takes over the frame image (or a copy of it) that this layer's
    /// `post_send` asked for with [`LayerCtx::keep_image`]; from here on
    /// the buffer is the layer's, counted in [`Layer::bufs_held`] until
    /// it is put back or emitted. Returns what it does not keep, which
    /// the engine puts back in the pool. Default: keeps nothing. A
    /// layer that wraps another forwards this like every other method.
    fn keep_image(&mut self, image: Msg) -> Option<Msg> {
        Some(image)
    }

    /// Buffers this layer holds right now — taken with
    /// [`LayerCtx::buf_with`] or handed over by the engine
    /// ([`Layer::keep_image`]), and not yet put back or emitted. The
    /// term that closes the pool's ledger while a layer keeps
    /// retransmission copies, a reorder stash or a message under
    /// reassembly. Default: none.
    fn bufs_held(&self) -> usize {
        0
    }

    /// Names the heap lines this layer's post phases are about to
    /// touch, one `line` call each, for the engine to hint before a post
    /// drain (DESIGN.md "A cold verb asks for its lines at once"). A
    /// hint reads only the layer's own fields: it writes nothing,
    /// allocates nothing, and nothing is read through the addresses it
    /// names. Default: none. A layer that wraps another forwards this.
    fn heap_lines(&self, _line: &mut dyn FnMut(*const u8)) {}
}

/// A transparent layer that does nothing — useful as a stack filler in
/// tests and in the layer-scaling experiment (E4 adds copies of a layer
/// to measure per-layer cost).
#[derive(Debug, Default)]
pub struct NullLayer;

impl Layer for NullLayer {
    fn name(&self) -> &'static str {
        "null"
    }

    fn shape(&self) -> LayerShape {
        LayerShape::NONE
    }

    fn bind(&mut self, _: Handles<'_>) {}

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
    use pa_wire::LayoutMode;

    fn protocol_field(d: &mut Declare<'_>, words: &[i64]) -> Result<(), LayoutError> {
        d.add_field(Class::Protocol, "f", words[0] as u32, None)?;
        Ok(())
    }

    fn message_field(d: &mut Declare<'_>, words: &[i64]) -> Result<(), LayoutError> {
        d.add_field(Class::Message, "f", words[0] as u32, None)?;
        Ok(())
    }

    #[test]
    fn a_shape_is_its_function_and_its_words() {
        let shape = LayerShape::new(protocol_field, [8]);
        assert_eq!(shape, LayerShape::new(protocol_field, [8]));
        assert_ne!(shape, LayerShape::new(protocol_field, [9]));
        assert_ne!(shape, LayerShape::new(protocol_field, [8, 0]));
        assert_ne!(shape, LayerShape::new(message_field, [8]));
    }

    #[test]
    #[should_panic(expected = "bound 2 fields")]
    fn a_bind_that_disagrees_with_its_declarations_panics() {
        let mut log = HandleLog::new();
        let (mut send, mut recv) = (ProgramBuilder::new(), ProgramBuilder::new());
        LayerShape::new(protocol_field, [8])
            .declare(
                "t",
                &mut LayoutBuilder::new(),
                &mut send,
                &mut recv,
                &mut log,
            )
            .unwrap();
        let _: [Field; 2] = log.of(0).fields();
    }

    #[test]
    fn effects_emptiness() {
        let mut e = Effects::default();
        assert!(e.is_empty());
        e.list.push(Effect::DisableSend(DisableReason::FullWindow));
        assert!(!e.is_empty());
    }

    #[test]
    fn ctx_accumulates_effects() {
        let mut b = LayoutBuilder::new();
        b.begin_layer("t");
        b.add_field(pa_wire::Class::Protocol, "x", 8, None).unwrap();
        let layout = b.compile(LayoutMode::Packed).unwrap();
        let mut sp = Prediction::new(&layout, ByteOrder::Big);
        let mut rp = Prediction::new(&layout, ByteOrder::Big);
        let mut effects = Effects::default();
        let mut pool = MsgPool::with_defaults();
        let mut ctx = LayerCtx {
            layout: &layout,
            order: ByteOrder::Big,
            now: 0,
            send_predict: &mut sp,
            recv_predict: &mut rp,
            effects: &mut effects,
            pool: &mut pool,
            filter_passed: false,
            image_wanted: false,
        };
        ctx.emit_down(Msg::from_payload(b"ack"));
        ctx.emit_down_unusual(Msg::from_payload(b"rexmit"));
        ctx.emit_up(Msg::from_payload(b"reassembled"));
        ctx.disable_send(DisableReason::FullWindow);
        ctx.disable_send(DisableReason::Resync);
        ctx.enable_send(DisableReason::FullWindow);
        // Applied by kind, each kind in emission order.
        let applied: Vec<String> = effects
            .drain_in_order()
            .map(|e| match e {
                Effect::Down(m, unusual) => format!("down {:?} {unusual}", m.as_slice()),
                Effect::Up(m) => format!("up {:?}", m.as_slice()),
                other => format!("{other:?}"),
            })
            .collect();
        assert_eq!(
            applied,
            [
                "DisableSend(FullWindow)",
                "DisableSend(Resync)",
                "EnableSend(FullWindow)",
                "down [97, 99, 107] false",
                "down [114, 101, 120, 109, 105, 116] true",
                "up [114, 101, 97, 115, 115, 101, 109, 98, 108, 101, 100]",
            ]
        );
        assert!(effects.is_empty());
    }

    #[test]
    fn null_layer_is_transparent() {
        let mut b = LayoutBuilder::new();
        b.begin_layer("null");
        let layout = b.compile(LayoutMode::Packed).unwrap();
        let mut sp = Prediction::new(&layout, ByteOrder::Big);
        let mut rp = Prediction::new(&layout, ByteOrder::Big);
        let mut effects = Effects::default();
        let mut pool = MsgPool::with_defaults();
        let mut ctx = LayerCtx {
            layout: &layout,
            order: ByteOrder::Big,
            now: 0,
            send_predict: &mut sp,
            recv_predict: &mut rp,
            effects: &mut effects,
            pool: &mut pool,
            filter_passed: false,
            image_wanted: false,
        };
        let mut l = NullLayer;
        let mut m = Msg::from_payload(b"data");
        assert!(matches!(l.pre_send(&mut ctx, &mut m), SendAction::Continue));
        assert!(matches!(
            l.pre_deliver(&mut ctx, &mut m),
            DeliverAction::Continue
        ));
        assert_eq!(m.as_slice(), b"data");
        assert!(effects.is_empty());
    }
}
