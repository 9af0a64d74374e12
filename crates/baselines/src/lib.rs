//! # baselines — the systems Jitsu is compared against
//!
//! §4 compares on-demand unikernel launch against Docker containers started
//! from `inetd` on the same hardware (Figure 9b). This crate models that
//! baseline:
//!
//! * [`docker`] — the container start pipeline (image metadata, layer
//!   mounts, union filesystem setup, namespace/cgroup creation, process
//!   exec), dominated by metadata-heavy I/O on the backing store, plus the
//!   occasional ext4/VFS failure observed for the devicemapper-on-tmpfs
//!   workaround;
//! * [`inetd`] — the trigger path shared by the baselines: a listening
//!   super-server that forks a handler per incoming connection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod docker;
pub mod inetd;

pub use docker::{ContainerRuntime, ContainerStart, DockerConfig};
pub use inetd::Inetd;
