//! Regression tests for the `HashMap` sweep: every result-producing path
//! that used to iterate a `HashMap` now runs over a `BTreeMap` (or sorts
//! explicitly), so insertion order must never leak into observable output.
//!
//! Each test performs the same set of insertions in two shuffled orders and
//! asserts the rendered output is byte-identical. Before the conversion
//! these would have been flaky under `HashMap`'s per-process SipHash seed;
//! after it they are guaranteed stable, and the root `clippy.toml`'s
//! `disallowed-types` entries for `HashMap` and `HashSet` keep them that way
//! statically.

use jitsu_repro::prelude::*;

/// `Interface::connection_keys` must enumerate the connection table in key
/// order regardless of the order connections were opened.
#[test]
fn connection_table_enumeration_is_insertion_order_independent() {
    let remotes = [
        Ipv4Addr::new(10, 0, 0, 9),
        Ipv4Addr::new(10, 0, 0, 2),
        Ipv4Addr::new(10, 0, 0, 7),
        Ipv4Addr::new(10, 0, 0, 4),
    ];
    let run = |order: &[usize]| {
        let mut iface = jitsu_repro::netstack::iface::Interface::new(
            MacAddr([0x06, 0x16, 0x3e, 0, 0, 1]),
            Ipv4Addr::new(10, 0, 0, 1),
        );
        for &i in order {
            // Pin the ephemeral port to the remote's index so the key set is
            // identical across runs and only the insertion order varies.
            iface.set_ephemeral_base(50_000 + i as u16);
            let _syn = iface.tcp_connect(remotes[i], 80);
        }
        iface.connection_keys()
    };
    let forward = run(&[0, 1, 2, 3]);
    let shuffled = run(&[2, 0, 3, 1]);
    assert_eq!(forward, shuffled);
    let mut sorted = forward.clone();
    sorted.sort();
    assert_eq!(forward, sorted, "connection keys enumerate in sorted order");
}

/// XenStore `directory` listings must not depend on the order children were
/// written (DNS-triggered boots race, so jitsud writes arrive shuffled).
#[test]
fn xenstore_directory_listing_is_insertion_order_independent() {
    let children = ["vif", "console", "vbd", "control", "memory"];
    let run = |order: &[usize]| {
        let mut store = XenStore::new(EngineKind::JitsuMerge);
        let dom0 = jitsu_repro::xenstore::DomId(0);
        for &i in order {
            store
                .write(
                    dom0,
                    None,
                    &format!("/local/domain/1/{}", children[i]),
                    b"1",
                )
                .expect("write child");
        }
        store
            .directory(dom0, None, "/local/domain/1")
            .expect("list children")
    };
    let forward = run(&[0, 1, 2, 3, 4]);
    let shuffled = run(&[4, 1, 3, 0, 2]);
    assert_eq!(forward, shuffled);
}
