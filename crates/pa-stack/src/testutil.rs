#![cfg(test)]
//! Test support shared by the layers' unit tests.

use pa_buf::Msg;
use pa_core::{DeliverAction, Handles, Layer, LayerCtx, LayerShape, Nanos, SendAction};
use pa_wire::CompiledLayout;
use std::sync::{Arc, Mutex};

/// A layer the test can still read after a connection has taken
/// ownership of the stack it sits in.
pub(crate) struct Shared<L>(pub(crate) Arc<Mutex<L>>);

impl<L> Shared<L> {
    /// Wraps `layer`; returns the stack's half and the test's.
    pub(crate) fn new(layer: L) -> (Shared<L>, Arc<Mutex<L>>) {
        let layer = Arc::new(Mutex::new(layer));
        (Shared(layer.clone()), layer)
    }
}

impl<L: Layer> Layer for Shared<L> {
    fn name(&self) -> &'static str {
        self.0.lock().unwrap().name()
    }
    fn shape(&self) -> LayerShape {
        self.0.lock().unwrap().shape()
    }
    fn bind(&mut self, handles: Handles<'_>) {
        self.0.lock().unwrap().bind(handles)
    }
    fn fill_ident(&self, layout: &CompiledLayout, local: &mut [u8], peer: &mut [u8]) {
        self.0.lock().unwrap().fill_ident(layout, local, peer)
    }
    fn pre_send(&mut self, ctx: &mut LayerCtx<'_>, msg: &mut Msg) -> SendAction {
        self.0.lock().unwrap().pre_send(ctx, msg)
    }
    fn post_send(&mut self, ctx: &mut LayerCtx<'_>, msg: &Msg) {
        self.0.lock().unwrap().post_send(ctx, msg)
    }
    fn pre_deliver(&mut self, ctx: &mut LayerCtx<'_>, msg: &mut Msg) -> DeliverAction {
        self.0.lock().unwrap().pre_deliver(ctx, msg)
    }
    fn post_deliver(&mut self, ctx: &mut LayerCtx<'_>, msg: &Msg) {
        self.0.lock().unwrap().post_deliver(ctx, msg)
    }
    fn on_tick(&mut self, ctx: &mut LayerCtx<'_>, now: Nanos) {
        self.0.lock().unwrap().on_tick(ctx, now)
    }
    fn keep_image(&mut self, image: Msg) -> Option<Msg> {
        self.0.lock().unwrap().keep_image(image)
    }
    fn bufs_held(&self) -> usize {
        self.0.lock().unwrap().bufs_held()
    }
    fn heap_lines(&self, line: &mut dyn FnMut(*const u8)) {
        self.0.lock().unwrap().heap_lines(line)
    }
}
