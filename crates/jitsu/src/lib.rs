//! # jitsu — just-in-time summoning of unikernels
//!
//! This crate is the paper's primary contribution: the toolstack layer that
//! launches unikernels in response to network traffic and masks their boot
//! latency.
//!
//! * [`config`] — service configuration: which DNS name maps to which
//!   unikernel image, external IP and port (§3.3.2);
//! * [`lifecycle`] — the one decision of a service's lifecycle: a pure step
//!   from where a service stands and one query or timer to where it stands
//!   next and what to do (admit, coalesce, serve warm, reap, `SERVFAIL`);
//! * [`directory`] — the Jitsu directory service standing alone: an
//!   authoritative DNS responder that returns the address of a running
//!   unikernel, triggers a launch for a known-but-not-running one, or
//!   answers `SERVFAIL` when the host is out of resources, deciding through
//!   the lifecycle's query step;
//! * [`launcher`] — summoning and retiring unikernels through the
//!   (optimised) `xen-sim` toolstack, composing domain construction with the
//!   guest boot pipeline;
//! * [`synjitsu`] — the SYN proxy: accepts embryonic TCP connections on
//!   behalf of still-booting unikernels, buffers their data, and records the
//!   connection state in XenStore (Figure 7);
//! * [`handoff`] — the two-phase commit through XenStore that guarantees
//!   exactly one of Synjitsu or the unikernel answers any given packet;
//! * [`concurrent`] — jitsud, the daemon tying it all together: per-service
//!   lifecycle state machines scheduled on the `jitsu_sim` event engine,
//!   with launch-slot admission control, duplicate-query coalescing,
//!   memory-exhaustion `SERVFAIL` and idle reaping (§3.3). One query on a
//!   fresh board is a Figure 9a cold start; thousands are a boot storm;
//! * [`fleet`] — boards of that daemon on the sharded engine, failing
//!   `SERVFAIL`ed queries over to each other.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::let_underscore_must_use,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod concurrent;
pub mod config;
pub mod directory;
pub mod fleet;
pub mod handoff;
pub mod launcher;
pub mod lifecycle;
pub mod synjitsu;

pub use concurrent::{ConcurrentJitsud, JitsuEvent, LifecyclePhase, StormMetrics, StormSim};
pub use config::{JitsuConfig, ServiceConfig};
pub use directory::{DirectoryAction, DirectoryService};
pub use fleet::{FleetMsg, FleetSim};
pub use handoff::HandoffPhase;
pub use launcher::{LaunchOutcome, Launcher};
pub use synjitsu::Synjitsu;
