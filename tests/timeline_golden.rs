//! Cross-commit determinism golden: the simulated timeline of three short
//! fixed-seed runs, pinned as digests.
//!
//! Each run folds its latency histogram and its fabric, NVM, netsim,
//! scheduler and event-queue counters into one FNV-1a digest. A host-speed
//! change to the simulator (a new container, a cheaper bookkeeping path)
//! must leave every digest unchanged: the simulated model is the same, so
//! every event lands at the same nanosecond and every counter reads the
//! same.
//!
//! A second set of digests pins one small arm of each benchmark runner
//! family (micro, shardscale, migrate, txnmix, the application arms, the
//! Figure 2 point and the chain/fan-out ablation) over everything the arm
//! reports besides wall clock: the registry, health and series JSON, the
//! audit report, and the tail and attribution folds where the arm carries
//! them. A refactor of the runners may change how those fields are reached,
//! never the digests.
//!
//! The constants below may change only with a deliberate change to the
//! simulated model, recorded in CHANGES.md together with the new values.
//! A failure here from a change that claims "identical timelines" is a
//! behaviour change, not a stale constant.

use hyperloop_repro::hyperloop::txn::{CommitMode, TxnOutcome};
use hyperloop_repro::hyperloop::{GroupConfig, HyperLoopGroup, ReplicaHandle, ShardId};
use hyperloop_repro::hyperloop_bench::appbench::run_fig11_arm;
use hyperloop_repro::hyperloop_bench::fanout_ablation::chain_write_latency;
use hyperloop_repro::hyperloop_bench::micro::{gwrite_plan, run_primitive, MicroOpts, SystemKind};
use hyperloop_repro::hyperloop_bench::migrate::{run_migrate, MigrateOpts};
use hyperloop_repro::hyperloop_bench::mongo2::run_fig2_point;
use hyperloop_repro::hyperloop_bench::shardscale::{run_shardscale, ShardScaleOpts};
use hyperloop_repro::hyperloop_bench::txnmix::{run_txnmix, TxnMixOpts};
use hyperloop_repro::kvstore::{KvConfig, ReplicatedKv, ShardedKv};
use hyperloop_repro::netsim::NodeId;
use hyperloop_repro::simcore::{Histogram, MetricsRegistry, QueueStats, SimDuration};
use hyperloop_repro::testbed::{drive, Cluster, ClusterConfig, ShardPlacement};
use std::collections::BTreeMap;

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of a run: the registry (counters, gauges, histogram summaries)
/// plus the event-queue counters.
fn digest(reg: &MetricsRegistry, queue: QueueStats) -> u64 {
    let text = format!(
        "{}|pushed={} popped={} max_depth={}",
        reg.to_json(),
        queue.pushed,
        queue.popped,
        queue.max_depth
    );
    fnv1a(text.as_bytes())
}

/// A durable 1 KB gWRITE + gFLUSH chain: 3 replicas, window 16, no
/// background tenants — the NIC-offloaded path.
fn gwrite_durable(seed: u64) -> u64 {
    let r = run_primitive(
        SystemKind::HyperLoop,
        gwrite_plan(1024),
        MicroOpts {
            ops: 400,
            warmup: 20,
            window: 16,
            hogs_per_node: 0,
            pace: SimDuration::ZERO,
            seed,
            ..MicroOpts::default()
        },
    );
    digest(&r.registry, r.arm.host.queue)
}

/// A Naive-Event chain under co-location: replica CPUs forward every hop
/// through the scheduler, 96 background tenants per replica.
fn naive_event(seed: u64) -> u64 {
    let r = run_primitive(
        SystemKind::NaiveEvent,
        gwrite_plan(1024),
        MicroOpts {
            ops: 120,
            warmup: 10,
            seed,
            ..MicroOpts::default()
        },
    );
    digest(&r.registry, r.arm.host.queue)
}

/// Locking transactions on a 2-shard × 3-replica `ShardedKv`: two-key
/// transfers over eight hot accounts, four in flight, aborts resubmitted.
fn locking_txns(seed: u64) -> u64 {
    const ACCOUNTS: u64 = 8;
    const TXNS: u64 = 48;
    const IN_FLIGHT: usize = 4;
    let client = NodeId(0);
    let mut cluster = Cluster::new(
        7,
        4,
        64 << 20,
        ClusterConfig {
            seed,
            ..ClusterConfig::default()
        },
    );
    let chains = cluster.place_shards(
        &ShardPlacement::RoundRobin {
            replicas_per_shard: 3,
        },
        2,
        client,
    );
    let groups: Vec<HyperLoopGroup> = cluster.setup_fabric(|ctx| {
        chains
            .iter()
            .map(|chain| HyperLoopGroup::setup(ctx, client, chain, GroupConfig::default()))
            .collect()
    });
    let (clients, mut replicas): (Vec<_>, Vec<Vec<ReplicaHandle>>) =
        groups.into_iter().map(|g| (g.client, g.replicas)).unzip();
    let stores = clients
        .into_iter()
        .map(|c| ReplicatedKv::new(c, KvConfig::default()))
        .collect();
    let mut kv = ShardedKv::with_hash_router(stores);
    kv.enable_txns(CommitMode::Locking, seed ^ 0x7);
    let mut sim = cluster.into_sim();
    sim.run();

    // Transfer `n` moves one unit from account `n % 8` to `(3n + 1) % 8`.
    let submit = |kv: &mut ShardedKv<_>, n: u64| {
        let (from, to) = (n % ACCOUNTS, (3 * n + 1) % ACCOUNTS);
        let mut t = kv.txn();
        let bal =
            |v: Option<&[u8]>| v.map_or(0, |b| i64::from_le_bytes(b[..8].try_into().unwrap()));
        let bf = bal(kv.txn_get(&mut t, from).as_deref());
        let bt = bal(kv.txn_get(&mut t, to).as_deref());
        kv.txn_put(&mut t, from, (bf - 1).to_le_bytes().to_vec())
            .unwrap();
        kv.txn_put(&mut t, to, (bt + 1).to_le_bytes().to_vec())
            .unwrap();
        kv.txn_commit(t)
    };
    let mut replenished = [0u64; 2];
    let mut outstanding = BTreeMap::new();
    let mut hist = Histogram::new();
    let (mut issued, mut committed) = (0u64, 0u64);
    for _round in 0..100_000 {
        while issued < TXNS && outstanding.len() < IN_FLIGHT {
            let id = submit(&mut kv, issued);
            outstanding.insert(id, (issued, sim.now()));
            issued += 1;
        }
        sim.run();
        let done = drive(&mut sim, |ctx| {
            kv.poll(ctx);
            kv.pump_txns(ctx)
        });
        let now = sim.now();
        for (id, outcome) in done {
            let (n, t0) = outstanding.remove(&id).expect("known txn");
            match outcome {
                TxnOutcome::Committed => {
                    hist.record(now.since(t0));
                    committed += 1;
                }
                TxnOutcome::Aborted => {
                    let id = submit(&mut kv, n);
                    outstanding.insert(id, (n, t0));
                }
            }
        }
        if committed == TXNS {
            break;
        }
        // Re-post each chain's consumed pre-posted runway.
        drive(&mut sim, |ctx| {
            for (s, reps) in replicas.iter_mut().enumerate() {
                let done = kv.shard(ShardId(s as u32)).transport.completed();
                let delta = (done - replenished[s]) as u32;
                replenished[s] = done;
                for r in reps.iter_mut().filter(|_| delta > 0) {
                    r.replenish(ctx, delta);
                }
            }
        });
    }
    assert_eq!(committed, TXNS, "transactions wedged");

    let mut reg = MetricsRegistry::new();
    sim.model.export_into(&mut reg, "cluster");
    kv.txn_manager().export_into(&mut reg, "txn");
    reg.merge_histogram("txn.commit_latency", &hist);
    digest(&reg, sim.queue.stats())
}

#[test]
fn durable_gwrite_timeline_is_pinned() {
    assert_eq!(
        [gwrite_durable(7), gwrite_durable(0xBEEF)],
        [1_986_183_500_924_061_691, 3_948_711_920_684_914_556],
        "durable gWRITE timeline moved"
    );
}

#[test]
fn naive_event_timeline_is_pinned() {
    assert_eq!(
        [naive_event(7), naive_event(0xBEEF)],
        [14_600_793_209_654_751_550, 11_710_997_004_871_515_989],
        "Naive-Event timeline moved"
    );
}

#[test]
fn locking_txn_timeline_is_pinned() {
    assert_eq!(
        [locking_txns(7), locking_txns(0xBEEF)],
        [8_643_027_756_439_097_897, 9_694_780_907_565_992_495],
        "locking-txn timeline moved"
    );
}

/// Digest of a list of report fragments, in order.
fn digest_parts(parts: &[String]) -> u64 {
    fnv1a(parts.join("|").as_bytes())
}

/// A traced durable gWRITE micro arm: registry, health, series, stage
/// attribution and tail profile.
fn micro_traced() -> u64 {
    let r = run_primitive(
        SystemKind::HyperLoop,
        gwrite_plan(1024),
        MicroOpts {
            ops: 200,
            warmup: 10,
            window: 4,
            hogs_per_node: 0,
            pace: SimDuration::ZERO,
            seed: 7,
            trace: true,
            ..MicroOpts::default()
        },
    );
    let tr = r.arm.trace.as_ref().expect("traced arm");
    digest_parts(&[
        r.registry.to_json(),
        r.arm.health.to_json(),
        r.arm.series.to_json(),
        tr.attribution.to_json(),
        tr.tail.to_json(),
    ])
}

/// A traced two-shard shardscale arm, audit on.
fn shardscale_arm() -> u64 {
    let r = run_shardscale(
        2,
        ShardScaleOpts {
            ops: 256,
            trace: true,
            ..ShardScaleOpts::default()
        },
    );
    let tr = r.arm.trace.as_ref().expect("traced arm");
    digest_parts(&[
        r.registry.to_json(),
        r.arm.health.to_json(),
        r.arm.series.to_json(),
        r.arm.audit_json.clone(),
        tr.attribution.to_json(),
        tr.tail.to_json(),
    ])
}

/// A traced two-shard live-migration arm, audit on.
fn migrate_arm() -> u64 {
    let r = run_migrate(
        2,
        MigrateOpts {
            ops: 256,
            trace: true,
            ..MigrateOpts::default()
        },
    );
    digest_parts(&[
        r.registry.to_json(),
        r.arm.health.to_json(),
        r.arm.series.to_json(),
        r.arm.audit_json.clone(),
        r.arm.trace.as_ref().expect("traced arm").tail.to_json(),
    ])
}

/// A traced locking txnmix arm, audit on.
fn txnmix_arm() -> u64 {
    let r = run_txnmix(
        CommitMode::Locking,
        TxnMixOpts {
            txns: 48,
            trace: true,
            ..TxnMixOpts::default()
        },
    );
    digest_parts(&[
        r.registry.to_json(),
        r.arm.health.to_json(),
        r.arm.series.to_json(),
        r.arm.audit_json.clone(),
        r.arm.trace.as_ref().expect("traced arm").tail.to_json(),
    ])
}

/// A HyperLoop Figure 11 (kvstore, YCSB-A) arm under co-location.
fn fig11_arm() -> u64 {
    let r = run_fig11_arm(SystemKind::HyperLoop, 120, 0xF11);
    digest_parts(&[
        format!("{:?}", r.latency),
        r.registry.to_json(),
        r.arm.health.to_json(),
        r.arm.series.to_json(),
    ])
}

/// A small Figure 2 point: three native replica sets on 4-core servers.
fn fig2_point() -> u64 {
    let p = run_fig2_point(3, 4, 40, 0x2A);
    digest_parts(&[
        format!("{:?} {}", p.latency, p.ctx_per_sec.to_bits()),
        p.arm.health.to_json(),
        p.arm.series.to_json(),
    ])
}

/// The chain arm of the chain vs fan-out ablation.
fn chain_ablation() -> u64 {
    let (p50, arm) = chain_write_latency(3, 64);
    digest_parts(&[
        format!("{}", p50.as_nanos()),
        arm.health.to_json(),
        arm.series.to_json(),
    ])
}

#[test]
fn micro_traced_output_is_pinned() {
    assert_eq!(
        micro_traced(),
        10_641_205_197_594_042_647,
        "traced micro arm output moved"
    );
}

#[test]
fn shardscale_output_is_pinned() {
    assert_eq!(
        shardscale_arm(),
        12_020_913_124_183_976_894,
        "shardscale arm output moved"
    );
}

#[test]
fn migrate_output_is_pinned() {
    assert_eq!(
        migrate_arm(),
        11_087_066_344_319_446_116,
        "migrate arm output moved"
    );
}

#[test]
fn txnmix_output_is_pinned() {
    assert_eq!(
        txnmix_arm(),
        17_308_610_255_942_242_791,
        "txnmix arm output moved"
    );
}

#[test]
fn fig11_output_is_pinned() {
    assert_eq!(
        fig11_arm(),
        9_728_775_786_907_110_404,
        "Figure 11 arm output moved"
    );
}

#[test]
fn fig2_output_is_pinned() {
    assert_eq!(
        fig2_point(),
        2_300_932_228_702_297_837,
        "Figure 2 point output moved"
    );
}

#[test]
fn chain_ablation_output_is_pinned() {
    assert_eq!(
        chain_ablation(),
        9_319_981_708_221_695_635,
        "chain ablation arm output moved"
    );
}
