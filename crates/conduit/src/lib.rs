//! # conduit — shared-memory channels with XenStore rendezvous
//!
//! §3.2 of the paper introduces *Conduit*, a Plan 9-like layer that lets
//! unikernels (and legacy VMs) discover each other by name and then exchange
//! bytes over zero-copy shared memory, without touching the network bridge:
//!
//! 1. [`vchan`] — the point-to-point transport: a pair of byte rings in
//!    grant-shared pages, signalled by event channels (compatible in spirit
//!    with the Xen `libvchan` the paper builds on);
//! 2. [`rendezvous`] — the naming layer: servers register
//!    `/conduit/<name>`, clients write a connection request into the
//!    server's create-restricted `listen` directory, and both sides learn
//!    the grant/event-channel references from `/local/domain/<domid>/vchan`;
//! 3. [`flows`] — the `/conduit/flows` metadata tree management tools read.
//!
//! The Jitsu directory service is itself discovered through a well-known
//! `jitsud` conduit node, and Synjitsu hands TCP state to booting unikernels
//! through the same store (§3.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flows;
pub mod rendezvous;
pub mod vchan;

pub use flows::{FlowState, FlowTable};
pub use rendezvous::{ConduitError, ConduitRegistry, Endpoint};
pub use vchan::{VchanError, VchanPair};
