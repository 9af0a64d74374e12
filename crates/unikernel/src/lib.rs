//! # unikernel — MirageOS-style appliance model
//!
//! A unikernel is a single-address-space VM produced by compiling the
//! application, its configuration and its device drivers into one image
//! (§2). This crate models the pieces of that story the evaluation depends
//! on:
//!
//! * [`image`] — the on-disk artefact: ~1 MB images, 8–16 MiB memory
//!   requirements;
//! * [`boot`] — the guest-side boot pipeline of §2.3 (assembler boot tasks,
//!   MMU and exception setup, the C `arch_init`, binding the OCaml runtime,
//!   then attaching netfront and starting the application), with calibrated
//!   per-stage costs for ARM and x86;
//! * [`appliance`] — the application logic the evaluation runs inside
//!   unikernels: a static personal-site HTTP server and the disk-backed
//!   persistent HTTP queue whose throughput §4 reports;
//! * [`instance`] — a running unikernel: a [`netstack::Interface`] plus an
//!   appliance, fed Ethernet frames and producing response frames, with
//!   support for adopting proxied TCP connections from Synjitsu.

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

pub mod appliance;
pub mod boot;
pub mod image;
pub mod instance;

pub use appliance::{Appliance, QueueAppliance, StaticSiteAppliance};
pub use boot::{BootPipeline, BootStage};
pub use image::UnikernelImage;
pub use instance::UnikernelInstance;
