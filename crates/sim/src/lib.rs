//! # jitsu-sim — deterministic simulation substrate
//!
//! This crate provides the discrete-event simulation substrate used by the
//! Jitsu reproduction: a virtual clock, an event engine, a deterministic
//! random number generator with a small library of latency distributions,
//! metric collection (histograms, CDFs, summary statistics) and report
//! rendering (ASCII tables and CSV) used by the benchmark harness to
//! regenerate the paper's figures and tables.
//!
//! The paper's evaluation runs on physical Cubieboard2/Cubietruck ARM boards
//! and an x86 server. This repository replaces that hardware with calibrated
//! cost models executed on top of this engine, so that every experiment is
//! deterministic, laptop-scale and reproducible while preserving the
//! *relative* behaviour the paper reports (who wins, by what factor, where
//! crossovers fall).
//!
//! ## Quick tour
//!
//! ```
//! use jitsu_sim::{Sim, SimDuration};
//!
//! // A world with a counter; events bump it at different times.
//! let mut sim = Sim::new(0u32);
//! sim.schedule_in(SimDuration::from_millis(5), |sim| {
//!     *sim.world_mut() += 1;
//! });
//! sim.schedule_in(SimDuration::from_millis(1), |sim| {
//!     *sim.world_mut() += 10;
//!     let t = sim.now() + SimDuration::from_millis(2);
//!     sim.schedule_at(t, |sim| *sim.world_mut() += 100);
//! });
//! sim.run();
//! assert_eq!(*sim.world(), 111);
//! assert_eq!(sim.now().as_millis(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod engine;
pub mod metrics;
pub mod report;
pub mod rng;
pub mod series;
pub mod shard;
pub mod time;
pub mod trace;

pub use dist::Distribution;
pub use engine::{Scheduler, Sim};
pub use metrics::{Cdf, Histogram, LatencyRecorder, SummaryStats};
pub use report::{Figure, Table};
pub use rng::SimRng;
pub use series::{DataPoint, Series};
pub use shard::{Domain, DomainCtx, DomainId, ShardedSim};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TRACE_CAPACITY};
