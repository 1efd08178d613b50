//! Application benchmarks: the paper's §6.2 (Figures 11 and 12) plus the
//! design-choice ablations DESIGN.md calls out.

use crate::arm::{Arm, ArmOutput, Taps};
use crate::driver::{BenchDriver, DocDriver, KvDriver};
use crate::micro::{
    bench_group_config, gwrite_plan, gwrite_plan_flush, run_primitive, MicroOpts, SystemKind,
};
use crate::report::{latency_header, latency_row, ratio, us, Report, Scenario};
use baseline::{NaiveChain, NaiveClient, NaiveConfig};
use cpusched::{HogProfile, ProcKind, SchedConfig};
use docstore::{DocConfig, ReplicatedDocStore};
use hyperloop::apps::install_group_maintenance;
use hyperloop::{GroupClient, GroupConfig, HyperLoopGroup};
use kvstore::{KvConfig, ReplicatedKv};
use netsim::NodeId;
use rnicsim::CqId;
use simcore::{LatencySummary, MetricsRegistry, SimDuration, SimTime};
use testbed::{Cluster, ClusterConfig};
use ycsb::{Generator, Workload};

/// The multi-tenant application environment: client node 0, replicas 1..=3,
/// background tenants and a 6 ms effective slice (see `MicroOpts`).
fn app_cluster(seed: u64, hogs: u32) -> Cluster {
    let mut cluster = Cluster::new(
        4,
        16,
        256 << 20,
        ClusterConfig {
            seed,
            sched: SchedConfig {
                time_slice: SimDuration::from_millis(6),
                ..SchedConfig::default()
            },
            ..ClusterConfig::default()
        },
    );
    for n in 1..=3u32 {
        cluster.add_background_load(
            NodeId(n),
            hogs,
            HogProfile {
                busy_mean: SimDuration::from_millis(25),
                idle_mean: SimDuration::from_millis(150),
            },
        );
    }
    cluster
}

fn replica_nodes() -> Vec<NodeId> {
    vec![NodeId(1), NodeId(2), NodeId(3)]
}

/// A HyperLoop group over replicas 1..=3, maintained in the background.
fn app_group(cluster: &mut Cluster) -> GroupClient {
    let group = cluster.setup_fabric(|ctx| {
        let cfg = GroupConfig {
            shared_size: 16 << 20,
            ..bench_group_config(16)
        };
        HyperLoopGroup::setup(ctx, NodeId(0), &replica_nodes(), cfg)
    });
    install_group_maintenance(cluster, group.replicas, SimDuration::from_nanos(400));
    group.client
}

/// A Naive chain over replicas 1..=3 whose replicas run as `replica_kind`.
fn app_naive(cluster: &mut Cluster, replica_kind: ProcKind) -> NaiveClient {
    let cfg = NaiveConfig {
        shared_size: 16 << 20,
        window: 16,
        prepost_depth: 768,
        replica_kind,
        ..NaiveConfig::default()
    };
    NaiveChain::setup(cluster, NodeId(0), &replica_nodes(), cfg).client
}

fn kv_config() -> KvConfig {
    KvConfig {
        capacity: 4096,
        max_value: 1024,
        log_size: 8 << 20,
        control_size: 4096,
        durable: true,
    }
}

/// Result of one application arm.
#[derive(Debug, Clone)]
pub struct AppResult {
    /// Per-op latency distribution.
    pub latency: LatencySummary,
    /// Cluster-wide metrics snapshot: every fabric/NVM/scheduler counter
    /// under `cluster.*`, the op-latency histogram under
    /// `bench.op_latency` and the health counters under `health.*`.
    pub registry: MetricsRegistry,
    /// Host statistics, health and series of the run.
    pub arm: ArmOutput,
}

/// Installs `driver` on the client node, bound to the chain's ack CQ, and
/// runs the application arm until it has completed `ops` operations.
fn run_app<D: BenchDriver>(
    mut cluster: Cluster,
    driver: D,
    ack_cq: CqId,
    ops: u64,
    mut arm: Arm,
) -> AppResult {
    let p = cluster.add_app(NodeId(0), ProcKind::Polling, Box::new(driver));
    cluster.bind_cq(p, NodeId(0), ack_cq, SimDuration::from_nanos(300));
    let mut sim = cluster.into_sim();
    arm.run_cluster(
        &mut sim,
        SimDuration::from_millis(20),
        SimTime::from_secs(1200),
        |c| c.app_mut::<D>(p).is_done(),
    );
    assert_eq!(sim.model.fab.stats().errors, 0);
    let hist = sim.model.app_mut::<D>(p).hist().clone();
    let mut registry = MetricsRegistry::new();
    sim.model.export_into(&mut registry, "cluster");
    registry.merge_histogram("bench.op_latency", &hist);
    arm.health.export_into(&mut registry, "health");
    AppResult {
        latency: hist.summary(),
        registry,
        arm: arm.finish(ops, &sim),
    }
}

/// One Fig. 11 arm: replicated RocksDB (kvstore) update latency under
/// YCSB-A with co-located tenants.
pub fn run_fig11_arm(kind: SystemKind, writes: u64, seed: u64) -> AppResult {
    let arm = Arm::new(Taps::default());
    let mut cluster = app_cluster(seed, 96);
    let pace = SimDuration::from_micros(300);
    let gen = Generator::with_value_len(Workload::A, 4096, seed ^ 0xA5, 1024);
    // Observer-only per-shard SLO health: the driver records issue/ack
    // edges and the run loop ticks the monitor on its poll cadence.
    let health = arm.health.clone();
    if kind == SystemKind::HyperLoop {
        let client = app_group(&mut cluster);
        let ack_cq = client.ack_cq();
        let store = ReplicatedKv::new(client, kv_config());
        let d = KvDriver::new(store, gen, writes, 50, pace).with_health(health, 0);
        run_app(cluster, d, ack_cq, writes, arm)
    } else {
        let client = app_naive(&mut cluster, kind.replica_kind());
        let ack_cq = client.ack_cq();
        let store = ReplicatedKv::new(client, kv_config());
        let d = KvDriver::new(store, gen, writes, 50, pace).with_health(health, 0);
        run_app(cluster, d, ack_cq, writes, arm)
    }
}

/// Figure 11: replicated RocksDB update latency, three systems.
pub fn fig11(rep: &mut Report, quick: bool) {
    rep.banner("Figure 11: replicated RocksDB (kvstore), YCSB-A updates, loaded replicas");
    let writes = if quick { 800 } else { 4000 };
    rep.line(latency_header("system"));
    let mut p99s = Vec::new();
    for kind in [
        SystemKind::NaiveEvent,
        SystemKind::NaivePolling,
        SystemKind::HyperLoop,
    ] {
        let r = run_fig11_arm(kind, writes, 0xF11);
        rep.line(latency_row(kind.label(), &r.latency));
        rep.scenario(
            Scenario::new(format!("fig11/ycsb-a/{}", kind.label()))
                .system(kind.label())
                .seed(0xF11)
                .config("store", "kvstore")
                .config("workload", "YCSB-A")
                .config("writes", writes)
                .latency(&r.latency)
                .arm(&r.arm)
                .metrics(r.registry),
        );
        p99s.push((kind, r.latency.p99));
    }
    let hl = p99s[2].1;
    rep.line(format!(
        "p99 gains over HyperLoop: Naive-Event {} Naive-Polling {}",
        ratio(p99s[0].1, hl),
        ratio(p99s[1].1, hl),
    ));
}

fn doc_config() -> DocConfig {
    DocConfig {
        capacity: 4096,
        max_doc: 1536,
        log_size: 8 << 20,
        n_locks: 64,
    }
}

/// One Fig. 12 arm: replicated MongoDB (docstore) latency for a YCSB
/// workload, native (polling CPU replication) vs HyperLoop.
pub fn run_fig12_arm(hl: bool, workload: Workload, ops: u64, seed: u64) -> AppResult {
    let arm = Arm::new(Taps::default());
    let mut cluster = app_cluster(seed, 96);
    let stack = SimDuration::from_micros(150);
    let pace = SimDuration::from_micros(200);
    let gen = Generator::with_value_len(workload, 4096, seed ^ 0x12, 1024);
    let health = arm.health.clone();
    if hl {
        let client = app_group(&mut cluster);
        let ack_cq = client.ack_cq();
        let store = ReplicatedDocStore::new(client, doc_config(), 1);
        let d = DocDriver::new(store, gen, ops, 50, stack, pace).with_health(health, 0);
        run_app(cluster, d, ack_cq, ops, arm)
    } else {
        let client = app_naive(&mut cluster, ProcKind::EventDriven);
        let ack_cq = client.ack_cq();
        let mut store = ReplicatedDocStore::new(client, doc_config(), 1);
        // Native MongoDB: journal replication is the critical path; log
        // application is asynchronous (paper §5.2 description of vanilla
        // replication).
        store.set_mode(docstore::WriteMode::AppendOnly);
        let d = DocDriver::new(store, gen, ops, 50, stack, pace).with_health(health, 0);
        run_app(cluster, d, ack_cq, ops, arm)
    }
}

/// Figure 12: replicated MongoDB latency across YCSB workloads.
pub fn fig12(rep: &mut Report, quick: bool) {
    rep.banner("Figure 12: replicated MongoDB (docstore), YCSB A/B/D/E/F, loaded replicas");
    let ops = if quick { 1500 } else { 8000 };
    rep.line(format!(
        "{:<10} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} | {:>9} {:>9}",
        "workload",
        "nat mean",
        "nat p95",
        "nat p99",
        "HL mean",
        "HL p95",
        "HL p99",
        "mean cut",
        "gap cut"
    ));
    for (wi, w) in Workload::PAPER_SET.into_iter().enumerate() {
        let seed = 0xF12 + 101 * wi as u64;
        let nat_arm = run_fig12_arm(false, w, ops, seed);
        let hl_arm = run_fig12_arm(true, w, ops, seed);
        let (nat, hl) = (nat_arm.latency, hl_arm.latency);
        let mean_cut = 100.0 * (1.0 - hl.mean.as_micros_f64() / nat.mean.as_micros_f64().max(1e-9));
        let gap_nat = nat.p99.as_micros_f64() - nat.mean.as_micros_f64();
        let gap_hl = hl.p99.as_micros_f64() - hl.mean.as_micros_f64();
        let gap_cut = 100.0 * (1.0 - gap_hl / gap_nat.max(1e-9));
        rep.line(format!(
            "{:<10} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} | {:>8.0}% {:>8.0}%",
            w.to_string(),
            us(nat.mean),
            us(nat.p95),
            us(nat.p99),
            us(hl.mean),
            us(hl.p95),
            us(hl.p99),
            mean_cut,
            gap_cut,
        ));
        for (label, r) in [("native", nat_arm), ("HyperLoop", hl_arm)] {
            rep.scenario(
                Scenario::new(format!("fig12/{w}/{label}"))
                    .system(label)
                    .seed(seed)
                    .config("store", "docstore")
                    .config("workload", w.to_string())
                    .config("ops", ops)
                    .latency(&r.latency)
                    .arm(&r.arm)
                    .metrics(r.registry),
            );
        }
    }
}

/// Design-choice ablations (DESIGN.md):
/// flush cost, polling crossover, fan-out vs chain.
pub fn ablations(rep: &mut Report, quick: bool) {
    rep.banner("Ablation: interleaved gFLUSH cost (HyperLoop gWRITE, unloaded)");
    let opts = MicroOpts {
        ops: if quick { 500 } else { 3000 },
        hogs_per_node: 0,
        pace: SimDuration::ZERO,
        ..MicroOpts::default()
    };
    for (label, flush) in [("gWRITE only", false), ("gWRITE + gFLUSH", true)] {
        let r = run_primitive(SystemKind::HyperLoop, gwrite_plan_flush(1024, flush), opts);
        rep.line(format!(
            "{:<18} mean={} p99={}",
            label,
            us(r.latency.mean),
            us(r.latency.p99)
        ));
        rep.scenario(
            Scenario::new(format!(
                "ablation/flush-cost/{}",
                if flush { "flush" } else { "no-flush" }
            ))
            .system(SystemKind::HyperLoop.label())
            .seed(opts.seed)
            .config("payload_bytes", 1024u64)
            .config("flush", flush)
            .latency(&r.latency)
            .arm(&r.arm)
            .metrics(r.registry),
        );
    }

    rep.banner("Ablation: chain vs NIC-coordinated fan-out (unloaded, 1 KB durable writes)");
    rep.line(format!(
        "{:<8} {:>14} {:>14}",
        "replicas", "chain p50", "fan-out p50"
    ));
    for gs in [3u32, 5, 7] {
        let ops = if quick { 200 } else { 800 };
        let (chain, chain_arm) = crate::fanout_ablation::chain_write_latency(gs, ops);
        let (fan, fan_arm) = crate::fanout_ablation::fanout_write_latency(gs, ops);
        rep.line(format!("{:<8} {:>14} {:>14}", gs, us(chain), us(fan)));
        // Two runs, one scenario: fold their host meters into one block.
        // The health/series blocks come from the chain arm (the paper's
        // default topology); the fan-out arm's telemetry is equivalent.
        rep.scenario(
            Scenario::new(format!("ablation/fanout/g{gs}"))
                .config("group_size", gs)
                .gauge("chain_p50_ns", chain.as_nanos() as f64)
                .gauge("fanout_p50_ns", fan.as_nanos() as f64)
                .arm(&chain_arm)
                .host(chain_arm.host.merged(&fan_arm.host)),
        );
    }

    rep.banner("Ablation: consistent-read scaling across serving replicas (beyond the paper)");
    rep.line(format!(
        "{:<18} {:>12} {:>10}",
        "serving replicas", "8KB reads/s", "aggregate"
    ));
    for n in [1u32, 2, 3] {
        let (rps, arm) = crate::fanout_ablation::read_scaling(n, if quick { 1000 } else { 4000 });
        rep.line(format!(
            "{:<18} {:>12.0} {:>7.1} Gbps",
            n,
            rps,
            rps * 8192.0 * 8.0 / 1e9
        ));
        rep.scenario(
            Scenario::new(format!("ablation/read-scaling/{n}"))
                .config("serving_replicas", n)
                .config("read_bytes", 8192u64)
                .gauge("reads_per_sec", rps)
                .arm(&arm),
        );
    }

    rep.banner("Ablation: polling vs event-driven replicas vs co-location");
    rep.line(format!(
        "{:<10} {:>16} {:>16}",
        "tenants", "Naive-Event p99", "Naive-Polling p99"
    ));
    for hogs in [0u32, 32, 96] {
        let opts = MicroOpts {
            ops: if quick { 600 } else { 2500 },
            hogs_per_node: hogs,
            ..MicroOpts::default()
        };
        let ev = run_primitive(SystemKind::NaiveEvent, gwrite_plan(1024), opts);
        let po = run_primitive(SystemKind::NaivePolling, gwrite_plan(1024), opts);
        rep.line(format!(
            "{:<10} {:>16} {:>16}",
            hogs,
            us(ev.latency.p99),
            us(po.latency.p99)
        ));
        for (kind, r) in [
            (SystemKind::NaiveEvent, &ev),
            (SystemKind::NaivePolling, &po),
        ] {
            rep.scenario(
                Scenario::new(format!("ablation/colocation/hogs{hogs}/{}", kind.label()))
                    .system(kind.label())
                    .seed(opts.seed)
                    .config("hogs_per_node", hogs)
                    .config("payload_bytes", 1024u64)
                    .latency(&r.latency)
                    .arm(&r.arm)
                    .metrics(r.registry.clone()),
            );
        }
    }
}
