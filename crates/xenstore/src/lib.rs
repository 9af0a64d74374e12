//! # xenstore — a hierarchical, transactional key-value store
//!
//! XenStore is the shared configuration database of a Xen host: a tree of
//! small values, one subtree per domain, used by the toolstack and by guests
//! to coordinate domain construction, device attachment and (in Jitsu)
//! conduit rendezvous and Synjitsu's TCP state handoff.
//!
//! This crate reimplements the store from scratch:
//!
//! * a **persistent, structurally shared** path/tree model with per-node
//!   permissions ([`path`], [`node`], [`children`], [`tree`], [`perms`]) —
//!   snapshots are O(1) pointer copies, mutations copy only the
//!   root-to-leaf path (and of each directory on it one chunk of entries,
//!   whatever its fan-out), and [`tree::TreeDiff`] computes structural
//!   diffs that skip shared subtrees in O(1) — including Jitsu's
//!   *create-restricted* directory extension (§3.2.3 of the paper,
//!   analogous to POSIX setgid+sticky),
//! * watches ([`watch`]) — notification callbacks on subtree modification,
//! * per-domain quotas ([`quota`]),
//! * a binary wire protocol ([`wire`]) mirroring `xsd_sockmsg`,
//! * transactions with **three-way commit-time merging** and **three
//!   pluggable reconciliation engines** ([`engine`]): the serialising
//!   abort-and-retry behaviour of the C `xenstored`, the in-memory merge of
//!   the OCaml `oxenstored`, and the Jitsu fork's merge function that treats
//!   creations under a common directory root as non-conflicting. Each
//!   transaction keeps the pristine base tree it started from (an O(1)
//!   snapshot), and at commit time its *net effect* is grafted onto the
//!   concurrently-advanced live tree instead of aborting with `EAGAIN`,
//!   unless the engine detects a node-granularity conflict. Figure 3 of the
//!   paper compares the three engines under parallel VM start/stop load;
//!   `bench/src/bin/fig3.rs` regenerates it and `bench/src/bin/
//!   xenstore_storm.rs` measures abort/merge rates under storm load.
//!
//! ## Example
//!
//! ```
//! use xenstore::{XenStore, EngineKind, DomId};
//!
//! let mut xs = XenStore::new(EngineKind::JitsuMerge);
//! let dom0 = DomId::DOM0;
//! xs.write(dom0, None, "/local/domain/3/name", b"http_server").unwrap();
//! assert_eq!(xs.read(dom0, None, "/local/domain/3/name").unwrap(), b"http_server");
//!
//! // Transactions batch updates atomically.
//! let t = xs.transaction_start(dom0).unwrap();
//! xs.write(dom0, Some(t), "/conduit/http_server", b"3").unwrap();
//! xs.write(dom0, Some(t), "/conduit/http_server/listen", b"").unwrap();
//! xs.transaction_end(dom0, t, true).unwrap();
//! assert_eq!(xs.read(dom0, None, "/conduit/http_server").unwrap(), b"3");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod children;
pub mod engine;
pub mod error;
pub mod node;
pub mod path;
pub mod perms;
pub mod quota;
pub mod store;
pub mod transaction;
pub mod tree;
pub mod watch;
pub mod wire;

pub use children::ChildMap;
pub use engine::{CostModel, EngineKind, TxnEngine};
pub use error::{Error, Result};
pub use node::Node;
pub use path::Path;
pub use perms::{DomId, PermLevel, Permission, Permissions};
pub use quota::Quota;
pub use store::{StoreStats, TxId, XenStore};
pub use transaction::Transaction;
pub use tree::{Tree, TreeDiff};
pub use watch::{Watch, WatchEvent, WatchManager};
