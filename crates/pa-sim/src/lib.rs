//! Virtual-time simulation of the paper's evaluation environment.
//!
//! The paper measures the PA on two SPARCstation-20s under SunOS 4.1.3
//! over U-Net/ATM, with the protocol stack in O'Caml. None of that
//! hardware exists on this side of three decades, so the evaluation is
//! reproduced under a **calibrated cost model** in virtual time:
//!
//! - [`cost::CostModel`] — CPU costs of every PA/stack operation,
//!   calibrated to §5's measurements (25 µs fast send/deliver, 80 µs
//!   post-send, 50 µs post-deliver for the four-layer stack, +15 µs per
//!   extra window layer),
//! - [`gc::GcModel`] — the O'Caml stop-and-collect pauses (150–450 µs,
//!   ~300 µs mean) under selectable policies (§5 triggers a collection
//!   after every message reception; §6 discusses occasional collection
//!   and explicit pools),
//! - [`node::NodeSim`] — the one host type: real
//!   [`pa_core::Connection`]s (the actual engine decides fast/slow
//!   paths; nothing about behaviour is simulated), one per peer, over
//!   one or more virtual CPUs that charge model costs (connection `i`
//!   on CPU `i mod M`, the §6 partition),
//! - [`world::World`] — hosts over a [`pa_unet::SimNet`] under one
//!   virtual clock: the one next-event loop, the application behaviours
//!   (echo, sink, closed loop), the closed-loop latency ledger, and the
//!   [`pa_obs::Watch`] (plane, recorder, watchdog) stepped after every
//!   event. [`sim::TwoNodeSim`] is a world of two one-connection hosts
//!   plus journeys and the critical-path plane; [`multi::ClusterSim`]
//!   is a world of N closed-loop clients and one echoing N-connection
//!   server; [`churn::ChurnSim`] is a script of cluster waves folded
//!   into one fleet and one watch,
//! - [`pipeline::BurstPipeline`] — the one real-thread driver: an echo
//!   pair, burst at a time, posts on the [`drain::PostDrainWorker`]
//!   thread; [`pipeline::per_packet_reference`] is the per-packet image
//!   it is compared against,
//! - [`experiments`] — one driver per table/figure; see EXPERIMENTS.md.
//!
//! The point of this design: the *protocol* is real (every frame runs
//! through the same engine the unit tests exercise), only *time* is
//! modeled. Who takes which path is decided by the actual code paths;
//! the cost model only prices them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod cost;
pub mod drain;
pub mod experiments;
pub mod flash;
pub mod gc;
pub mod metrics;
pub mod multi;
pub mod node;
pub mod pipeline;
pub mod sim;
pub mod world;

pub use churn::{ChurnConfig, ChurnSim};
pub use cost::CostModel;
pub use drain::PostDrainWorker;
pub use flash::{FlashConfig, FlashCrowd};
pub use gc::GcPolicy;
pub use metrics::{Series, Summary};
pub use multi::ClusterSim;
pub use node::NodeSim;
pub use node::PostSchedule;
pub use pipeline::{per_packet_reference, BurstPipeline, PipelineConfig, PipelineReport};
pub use sim::{AppBehavior, SimConfig, TwoNodeSim, World};

/// Virtual time in nanoseconds.
pub type Nanos = u64;
