//! The watch events of one scripted domain cycle, pinned.
//!
//! Which watches fire, for which paths, in which order per domain is
//! protocol-visible behaviour that the store derives from what each
//! mutation changed. The script below drives every way a change reaches a
//! watcher — direct writes (creating, overwriting, touching), implicit
//! ancestors, subtree removal, permission changes, a create-restricted
//! rendezvous, a multi-write transaction and domain destruction — through
//! the real toolstack and Conduit code, and the full `(domain, path, token)`
//! sequence must equal `golden/xenstore_watch_events.txt`, which was
//! recorded before the store stopped diffing its own direct ops.

use jitsu_repro::conduit::rendezvous::ConduitRegistry;
use jitsu_repro::prelude::*;
use jitsu_repro::xen::domain::DomainConfig;
use jitsu_repro::xenstore::Permissions;

const GOLDEN: &str = include_str!("golden/xenstore_watch_events.txt");

/// Drain `doms`' queues in the order given, one line per event.
fn drain(xs: &mut XenStore, step: &str, doms: &[DomId], log: &mut String) {
    for &dom in doms {
        for event in xs.take_watch_events(dom) {
            log.push_str(&format!(
                "{step}: dom{} {} {}\n",
                dom.0, event.path, event.token
            ));
        }
    }
}

#[test]
fn scripted_cycle_fires_the_recorded_watch_events() {
    let mut ts = Toolstack::new(BoardKind::Cubieboard2.board(), EngineKind::JitsuMerge, 17);
    let mut log = String::new();
    let dom0 = DomId::DOM0;
    for (path, token) in [
        ("/local/domain", "domains"),
        ("/conduit", "conduit"),
        ("/tool", "tool"),
    ] {
        ts.xenstore
            .watch(dom0, path, token)
            .expect("dom0 may watch");
    }
    drain(&mut ts.xenstore, "watch", &[dom0], &mut log);

    let create = |ts: &mut Toolstack, name: &str| {
        let dom = ts
            .create_domain(DomainConfig::unikernel(name), BootOptimisations::jitsu())
            .expect("the board has room")
            .dom;
        ts.unpause(dom).expect("the domain exists");
        dom
    };
    let server = create(&mut ts, "http_server");
    let client = create(&mut ts, "php_backend");
    // dom0 hands the client its home directory, as a toolstack that lets
    // guests publish their own keys does.
    let home = format!("/local/domain/{}", client.0);
    ts.xenstore
        .set_perms(dom0, None, &home, Permissions::owned_by(client))
        .expect("dom0 may hand a home over");
    ts.xenstore
        .watch(client, &home, "home")
        .expect("a guest may watch its home");
    let all = [dom0, server, client];
    drain(&mut ts.xenstore, "create", &all, &mut log);

    let mut registry = ConduitRegistry::new();
    registry
        .register(&mut ts.xenstore, "http_server", server)
        .expect("registration succeeds");
    drain(&mut ts.xenstore, "register", &all, &mut log);

    ConduitRegistry::connect(&mut ts.xenstore, client, "http_server", "conn1")
        .expect("the listen directory is create-restricted");
    drain(&mut ts.xenstore, "connect", &all, &mut log);

    let accepted = registry
        .accept(
            &mut ts.xenstore,
            &mut ts.grants,
            &mut ts.event_channels,
            "http_server",
            server,
        )
        .expect("accept succeeds");
    assert_eq!(accepted.len(), 1);
    drain(&mut ts.xenstore, "accept", &all, &mut log);

    // Guest writes: a deep creation under its own home (two implicit
    // ancestors), an overwrite, a same-value touch, and a refused write.
    let xs = &mut ts.xenstore;
    let key = format!("{home}/data/cache/key");
    xs.write(client, None, &key, b"1").expect("own home");
    xs.write(client, None, &key, b"2").expect("own home");
    xs.write(client, None, &key, b"2").expect("own home");
    xs.write(client, None, "/conduit/http_server/established/x/y", b"x")
        .expect_err("only the server may write there");
    drain(xs, "guest-writes", &all, &mut log);

    // Three writes in one transaction, one of them a net no-op.
    let tx = xs.transaction_start(dom0).expect("dom0 is exempt");
    xs.write(dom0, Some(tx), "/tool/golden/a", b"1")
        .expect("dom0");
    xs.write(dom0, Some(tx), "/tool/golden/b", b"2")
        .expect("dom0");
    xs.write(dom0, Some(tx), &key, b"2").expect("dom0");
    xs.transaction_end(dom0, tx, true).expect("no conflict");
    drain(xs, "transaction", &all, &mut log);

    // A direct write while a transaction is open, then a merged commit.
    let tx = xs.transaction_start(dom0).expect("dom0 is exempt");
    xs.write(dom0, Some(tx), "/tool/golden/c", b"3")
        .expect("dom0");
    xs.write(dom0, None, "/tool/golden/a", b"4").expect("dom0");
    xs.transaction_end(dom0, tx, true)
        .expect("disjoint paths merge");
    drain(xs, "merged-transaction", &all, &mut log);

    let conn = &accepted[0];
    ConduitRegistry::close(xs, "http_server", server, &conn.conn, conn.flow_id)
        .expect("close succeeds");
    drain(xs, "close", &all, &mut log);

    xs.rm(dom0, None, "/tool/golden").expect("dom0");
    drain(xs, "rm", &all, &mut log);

    // The destroyed domain's queue goes with it; the others see its home
    // and its backend directories disappear.
    ts.destroy(client).expect("the domain exists");
    drain(&mut ts.xenstore, "destroy-client", &all, &mut log);
    ts.destroy(server).expect("the domain exists");
    drain(&mut ts.xenstore, "destroy-server", &all, &mut log);

    assert!(
        log == GOLDEN,
        "watch events drifted from tests/golden/xenstore_watch_events.txt; got:\n{log}"
    );
}
