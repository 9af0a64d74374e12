//! # xen-sim — a Xen hypervisor substrate, simulated
//!
//! The paper's contribution is a toolstack, not a hypervisor: Jitsu drives
//! the ordinary Xen 4.4/4.5 control interfaces (domain construction,
//! XenStore coordination, grant tables, event channels, the split driver
//! model, dom0 hotplug scripts) and optimises how they are exercised. To
//! reproduce the toolstack's behaviour without ARM hardware this crate
//! implements those interfaces as an in-process model:
//!
//! * [`domain`] — domain descriptors and the lifecycle state machine;
//! * [`memory`] — physical page accounting, the memory zeroing cost that
//!   dominates domain-build time (Figure 4), and the MirageOS/ARM memory
//!   layout of §2.3;
//! * [`grant_table`] / [`event_channel`] — the page-sharing permission and
//!   notification primitives that vchan (and hence Conduit) builds on;
//! * [`fdt`] — the Flattened Device Tree handed to ARM guests at boot,
//!   written in one pass straight into its DTB bytes;
//! * [`domain_builder`] — loads a kernel image, assigns and zeroes RAM,
//!   writes the DTB and produces per-stage timings;
//! * [`devices`] — the split-driver (XenBus) state machine for console,
//!   network and block devices;
//! * [`hotplug`] — the dom0 vif hotplug path in its three variants
//!   (bash script, dash script, inline ioctl) from §3.1;
//! * [`bridge`] — the dom0 software bridge frames traverse;
//! * [`toolstack`] — the `xl`-equivalent orchestration layer with the
//!   vanilla (serialised) and Jitsu (parallelised) build paths that
//!   Figure 4 sweeps.
//!
//! All timing is virtual ([`jitsu_sim`]); all coordination state lives in a
//! real [`xenstore::XenStore`] so the toolstack code paths are genuinely
//! exercised rather than stubbed.

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

pub mod bridge;
pub mod devices;
pub mod domain;
pub mod domain_builder;
pub mod event_channel;
pub mod fdt;
pub mod grant_table;
pub mod hotplug;
pub mod memory;
pub mod toolstack;

pub use bridge::Bridge;
pub use devices::{DeviceKind, XenbusState};
pub use domain::{Domain, DomainConfig, DomainState};
pub use domain_builder::{BuildReport, DomainBuilder};
pub use event_channel::{EventChannelTable, Port};
pub use grant_table::{GrantRef, GrantTable};
pub use hotplug::HotplugStyle;
pub use memory::{MemoryLayout, PageAllocator, PAGE_SIZE};
pub use toolstack::{BootOptimisations, LaunchSlots, Toolstack};
pub use xenstore::DomId;
