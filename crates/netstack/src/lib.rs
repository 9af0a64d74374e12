//! # netstack — a memory-safe, sans-io network stack
//!
//! MirageOS unikernels replace the C network stack with OCaml libraries; the
//! paper leans on that memory safety both for its security argument
//! (Table 2: "all traffic parsed on the external network \[is\] done so in
//! memory-safe OCaml") and for Synjitsu's trick of serialising embryonic TCP
//! connection state through XenStore (§3.3.1). This crate is the Rust
//! analogue: parsers and serialisers for Ethernet, ARP, IPv4, ICMP, UDP and
//! TCP written entirely in safe Rust, a small TCP state machine whose
//! connection control block ([`tcp::Tcb`]) can be serialised and rebuilt in
//! another stack instance, a DNS message codec (the Jitsu directory service
//! speaks DNS), and a minimal HTTP/1.1 codec
//! used by the evaluation workloads.
//!
//! The stack is *sans-io*: packets are byte slices passed in and out of pure
//! state machines ([`iface::Interface`]), so the same code runs over the
//! simulated bridge, over vchan conduits, or in unit tests with hand-built
//! frames.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arp;
pub mod buf;
pub mod checksum;
pub mod dns;
pub mod ethernet;
pub mod http;
pub mod icmp;
pub mod iface;
pub mod ipv4;
pub mod tcp;
pub mod udp;

pub use buf::{FrameBuf, FrameBufMut};
pub use ethernet::{EtherType, EthernetFrame, MacAddr};
pub use iface::Interface;
pub use ipv4::{Ipv4Addr, Ipv4Packet, Protocol};
pub use tcp::{Tcb, TcpFlags, TcpSegment, TcpState};

/// Errors produced while parsing or constructing packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The buffer is too short to contain the claimed structure.
    Truncated {
        /// Protocol layer reporting the error.
        layer: &'static str,
        /// Bytes needed.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// A checksum failed verification.
    BadChecksum(&'static str),
    /// A field held an unsupported or malformed value.
    Malformed {
        /// Protocol layer reporting the error.
        layer: &'static str,
        /// Description of the problem.
        what: String,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Truncated { layer, needed, got } => {
                write!(
                    f,
                    "{layer}: truncated packet (need {needed} bytes, got {got})"
                )
            }
            NetError::BadChecksum(layer) => write!(f, "{layer}: checksum mismatch"),
            NetError::Malformed { layer, what } => write!(f, "{layer}: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Result alias for packet operations.
pub type Result<T> = std::result::Result<T, NetError>;
