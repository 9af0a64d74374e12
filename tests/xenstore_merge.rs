//! Integration tests for the persistent-tree XenStore: O(1) snapshots,
//! structural sharing across the whole stack, commit-time transaction
//! merging under the interleavings parallel domain builds produce, and the
//! incremental quota accounting staying consistent with the reference walk
//! over a realistic toolstack workload.

use jitsu_repro::prelude::*;
use jitsu_repro::xenstore::{Error as XsError, Quota};

#[test]
fn transaction_snapshots_are_o1_even_on_large_stores() {
    let mut xs = XenStore::new(EngineKind::JitsuMerge);
    for i in 0..5_000 {
        xs.write(DomId::DOM0, None, &format!("/warm/b{}/k{i}", i % 32), b"v")
            .unwrap();
    }
    // Opening (and aborting) transactions on a 5000-node store is pure
    // pointer work: the live tree is never copied.
    let live_before = xs.tree().clone();
    for _ in 0..100 {
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        xs.transaction_end(DomId::DOM0, t, false).unwrap();
    }
    assert!(
        xs.tree().shares_root_with(&live_before),
        "read-only transaction churn must not copy the tree"
    );
}

#[test]
fn parallel_domain_build_transactions_merge_with_zero_aborts() {
    // The Figure 3 interleaving, driven through the public store API: N
    // toolstack threads each build a domain inside a transaction, all
    // opened before any commits.
    let mut xs = XenStore::new(EngineKind::JitsuMerge);
    let n = 24;
    let mut open = Vec::new();
    for worker in 0..n {
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        let home = format!("/local/domain/{}", 100 + worker);
        xs.write(DomId::DOM0, Some(t), &format!("{home}/name"), b"svc")
            .unwrap();
        xs.write(
            DomId::DOM0,
            Some(t),
            &format!("{home}/device/vif/0/state"),
            b"1",
        )
        .unwrap();
        open.push(t);
    }
    for t in open {
        xs.transaction_end(DomId::DOM0, t, true).unwrap();
    }
    let stats = xs.stats();
    assert_eq!(stats.conflicts, 0, "sibling domain creations never abort");
    assert_eq!(stats.commits, n as u64);
    assert_eq!(
        stats.merged,
        (n - 1) as u64,
        "every commit after the first lands on a moved base and merges"
    );
    for worker in 0..n {
        assert!(xs
            .exists(
                DomId::DOM0,
                None,
                &format!("/local/domain/{}/name", 100 + worker)
            )
            .unwrap());
    }
}

#[test]
fn the_serialising_engine_still_aborts_the_same_interleaving() {
    let mut xs = XenStore::new(EngineKind::Serial);
    let t1 = xs.transaction_start(DomId::DOM0).unwrap();
    let t2 = xs.transaction_start(DomId::DOM0).unwrap();
    xs.write(DomId::DOM0, Some(t1), "/local/domain/5/name", b"a")
        .unwrap();
    xs.write(DomId::DOM0, Some(t2), "/local/domain/6/name", b"b")
        .unwrap();
    xs.transaction_end(DomId::DOM0, t1, true).unwrap();
    assert_eq!(
        xs.transaction_end(DomId::DOM0, t2, true),
        Err(XsError::Again)
    );
    assert_eq!(xs.stats().merged, 0);
}

/// Two transactions each see `/local/domain/7` absent and each create it,
/// on the way to different children. Run one after the other, the second
/// would have found the node, so it must abort in every engine. The Jitsu
/// merge, which forgives a shared child list, must not forgive a read that
/// saw absence because its own write later created the path.
#[test]
fn a_read_that_saw_a_path_absent_conflicts_with_its_concurrent_creation_in_every_engine() {
    for engine in EngineKind::ALL {
        let mut xs = XenStore::new(engine);
        let t1 = xs.transaction_start(DomId::DOM0).unwrap();
        let t2 = xs.transaction_start(DomId::DOM0).unwrap();
        for t in [t1, t2] {
            assert_eq!(
                xs.exists(DomId::DOM0, Some(t), "/local/domain/7"),
                Ok(false)
            );
        }
        xs.write(DomId::DOM0, Some(t1), "/local/domain/7/name", b"web")
            .unwrap();
        xs.write(DomId::DOM0, Some(t2), "/local/domain/7/other", b"x")
            .unwrap();
        assert_eq!(
            xs.transaction_end(DomId::DOM0, t1, true),
            Ok(()),
            "{engine:?}"
        );
        assert_eq!(
            xs.transaction_end(DomId::DOM0, t2, true),
            Err(XsError::Again),
            "{engine:?}"
        );
        assert!(!xs
            .exists(DomId::DOM0, None, "/local/domain/7/other")
            .unwrap());
    }
}

/// The other side of the same rule: a transaction that creates
/// `/local/domain/7` and then reads it read its own write, so the Jitsu
/// merge commits it beside a sibling's concurrent creation of the same
/// directory, as it commits any two sibling creations.
#[test]
fn a_read_of_a_node_the_transaction_created_does_not_conflict_in_the_jitsu_merge() {
    let mut xs = XenStore::new(EngineKind::JitsuMerge);
    let t1 = xs.transaction_start(DomId::DOM0).unwrap();
    xs.write(DomId::DOM0, Some(t1), "/local/domain/7/name", b"web")
        .unwrap();
    assert_eq!(
        xs.exists(DomId::DOM0, Some(t1), "/local/domain/7"),
        Ok(true)
    );
    xs.write(DomId::DOM0, None, "/local/domain/7/other", b"x")
        .unwrap();
    assert_eq!(xs.transaction_end(DomId::DOM0, t1, true), Ok(()));
    assert!(xs
        .exists(DomId::DOM0, None, "/local/domain/7/name")
        .unwrap());
    assert!(xs
        .exists(DomId::DOM0, None, "/local/domain/7/other")
        .unwrap());
}

#[test]
fn merged_commits_fire_watches_from_the_merged_tree() {
    let mut xs = XenStore::new(EngineKind::JitsuMerge);
    xs.mkdir(DomId::DOM0, None, "/local/domain").unwrap();
    xs.watch(DomId(3), "/local/domain", "builds").unwrap();
    xs.take_watch_events(DomId(3));

    let t1 = xs.transaction_start(DomId::DOM0).unwrap();
    let t2 = xs.transaction_start(DomId::DOM0).unwrap();
    xs.write(DomId::DOM0, Some(t1), "/local/domain/7/name", b"a")
        .unwrap();
    xs.write(DomId::DOM0, Some(t2), "/local/domain/8/name", b"b")
        .unwrap();
    xs.transaction_end(DomId::DOM0, t1, true).unwrap();
    xs.transaction_end(DomId::DOM0, t2, true).unwrap();
    let paths: Vec<String> = xs
        .take_watch_events(DomId(3))
        .into_iter()
        .map(|e| e.path.to_string())
        .collect();
    // Each commit contributes exactly its net-new paths — the merged
    // commit's events come from the merged tree, not its raw write log.
    assert_eq!(
        paths,
        vec![
            "/local/domain/7",
            "/local/domain/7/name",
            "/local/domain/8",
            "/local/domain/8/name",
        ]
    );
}

#[test]
fn toolstack_workload_keeps_incremental_quota_counts_consistent() {
    // Drive a real toolstack through creates and destroys, then cross-check
    // the store's incremental per-domain counts against the O(n) walk.
    let mut ts = Toolstack::new(
        BoardKind::Cubieboard2.board(),
        EngineKind::JitsuMerge,
        0x1234,
    );
    let mut doms = Vec::new();
    for i in 0..4 {
        let report = ts
            .create_domain(
                jitsu_repro::xen::domain::DomainConfig::unikernel(format!("svc{i}")),
                BootOptimisations::jitsu(),
            )
            .unwrap();
        doms.push(report.dom);
    }
    ts.destroy(doms[1]).unwrap();
    ts.destroy(doms[2]).unwrap();
    for dom in [DomId::DOM0, doms[0], doms[3]] {
        assert_eq!(
            ts.xenstore.owned_nodes(dom),
            ts.xenstore.tree().owned_count(dom),
            "incremental count for {dom:?} diverged from the reference walk"
        );
    }
    assert_eq!(ts.xenstore_stats().conflicts, 0);
}

#[test]
fn guest_node_quota_is_enforced_from_the_incremental_counts() {
    let mut xs = XenStore::with_quota(EngineKind::JitsuMerge, Quota::tiny());
    xs.mkdir(DomId::DOM0, None, "/local/domain/9").unwrap();
    xs.set_perms(
        DomId::DOM0,
        None,
        "/local/domain/9",
        jitsu_repro::xenstore::Permissions::owned_by(DomId(9)),
    )
    .unwrap();
    let mut created = 0;
    loop {
        match xs.write(DomId(9), None, &format!("/local/domain/9/k{created}"), b"v") {
            Ok(()) => created += 1,
            Err(XsError::QuotaExceeded("nodes")) => break,
            Err(e) => panic!("unexpected error: {e}"),
        }
        assert!(created < 64, "the tiny quota must trip");
    }
    // Freeing nodes (subtree removal settles the counts) reopens headroom.
    xs.rm(DomId(9), None, "/local/domain/9/k0").unwrap();
    assert!(xs
        .write(DomId(9), None, "/local/domain/9/again", b"v")
        .is_ok());
}

#[test]
fn a_boot_storm_on_one_launch_slot_still_merges_its_registrations() {
    // End to end through the concurrent engine: even one launch slot
    // overlaps boot registrations with handoff flips and direct writes.
    let mut sim = ConcurrentJitsud::sim(
        JitsuConfig::new("merge.example")
            .with_service(ServiceConfig::http_site(
                "a.merge.example",
                Ipv4Addr::new(192, 168, 9, 20),
            ))
            .with_service(ServiceConfig::http_site(
                "b.merge.example",
                Ipv4Addr::new(192, 168, 9, 21),
            ))
            .with_launch_slots(2),
        BoardKind::Cubieboard2.board(),
        0xCAFE,
    );
    ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, "a.merge.example");
    ConcurrentJitsud::inject_query(&mut sim, SimTime::from_millis(2), "b.merge.example");
    sim.run();
    let xs = sim.world().xenstore_stats();
    assert_eq!(xs.conflicts, 0);
    assert!(xs.merged > 0);
}
