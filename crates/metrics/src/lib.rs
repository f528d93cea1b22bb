//! Hermetic service-grade metrics for the QBF workspace.
//!
//! Four pieces, no external dependencies:
//!
//! * [`clock`] — the [`Clock`] abstraction separating production wall
//!   time ([`WallClock`]) from byte-deterministic test time
//!   ([`ManualClock`]).
//! * [`hist`] — [`LogHistogram`], a fixed-shape log-bucketed histogram
//!   with exact-rank percentile reads.
//! * [`registry`] — [`Registry`], an insertion-ordered store of named
//!   counters/gauges/histograms rendering to Prometheus text exposition
//!   and one-line JSON snapshots.
//! * [`sink`] — the engine's [`Phase`] and [`EngineGauge`] vocabulary
//!   and [`EngineMetrics`], the live recorder that `qbf-core` attaches
//!   to a search as one more `SearchObserver`.
//!
//! The crate-wide invariant: **every render is a pure function of the
//! recorded values**, and under [`ManualClock`] the recorded values are
//! a pure function of the event sequence — so a deterministic engine
//! plus a deterministic clock yields byte-identical metrics artifacts,
//! which CI pins with `cmp`.

pub mod clock;
pub mod hist;
pub mod registry;
pub mod sink;

pub use clock::{Clock, ManualClock, WallClock};
pub use hist::LogHistogram;
pub use registry::{CounterId, GaugeId, HistId, Registry};
pub use sink::{EngineGauge, EngineMetrics, Phase};
