//! Microbenchmark environments: the paper's §6.1 setup.
//!
//! One dedicated client machine drives a chain of `group_size` replica
//! machines (two 8-core CPUs each in the paper; 16 cores here). For the
//! latency experiments the replica machines also host bursty background
//! tenants (the paper's co-located instances / `stress-ng`); the throughput
//! experiment (Fig. 9) runs the paper's best case — pinned, unloaded
//! replicas — because that is where Naïve-RDMA can still keep up on
//! throughput while burning a core.

use crate::arm::{self, ring_capacity, Arm, ArmOutput, Taps};
use crate::driver::{BenchDriver, OpPlan, PrimitiveDriver};
use baseline::{NaiveChain, NaiveConfig};
use cpusched::{HogProfile, ProcKind, SchedConfig};
use hyperloop::apps::install_group_maintenance;
use hyperloop::{GroupConfig, GroupOp, GroupTransport, HyperLoopGroup};
use netsim::NodeId;
use rnicsim::Payload;
use simcore::{LatencySummary, MetricsRegistry, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use testbed::{Cluster, ClusterConfig, ProcRef};

/// Which system runs the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// NIC-offloaded group primitives; replica CPUs off the critical path.
    HyperLoop,
    /// Replica CPUs forward every hop, event-driven (wake per op).
    NaiveEvent,
    /// Replica CPUs forward every hop, spinning on their CQs.
    NaivePolling,
}

impl SystemKind {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::HyperLoop => "HyperLoop",
            SystemKind::NaiveEvent => "Naive-Event",
            SystemKind::NaivePolling => "Naive-Polling",
        }
    }

    /// How a Naive chain's replica processes wait for work.
    pub(crate) fn replica_kind(&self) -> ProcKind {
        if *self == SystemKind::NaivePolling {
            ProcKind::Polling
        } else {
            ProcKind::EventDriven
        }
    }
}

/// Microbenchmark parameters.
#[derive(Debug, Clone, Copy)]
pub struct MicroOpts {
    /// Replication group size.
    pub group_size: u32,
    /// Cores per machine.
    pub cores: u32,
    /// Background tenant processes per replica machine.
    pub hogs_per_node: u32,
    /// Operations measured (after warm-up).
    pub ops: u64,
    /// Warm-up operations discarded from statistics.
    pub warmup: u64,
    /// Operations kept in flight (1 = closed-loop latency).
    pub window: u32,
    /// Think time between completion and next issue (ZERO = closed loop).
    pub pace: SimDuration,
    /// Scheduler parameters. The default uses a 3 ms effective time slice —
    /// what a CFS box running hundreds of processes converges to
    /// (sched_min_granularity dominates) — which is what bounds a woken
    /// process's queueing delay on the paper's loaded servers.
    pub sched: SchedConfig,
    /// Background tenant burst profile.
    pub hog_profile: HogProfile,
    /// Root seed.
    pub seed: u64,
    /// Capture a causal trace of the run and fold it into stage
    /// attribution and a tail profile (plus counter-track samples) on the
    /// result.
    pub trace: bool,
}

impl Default for MicroOpts {
    fn default() -> Self {
        MicroOpts {
            group_size: 3,
            cores: 16,
            hogs_per_node: 96,
            ops: 10_000,
            warmup: 100,
            window: 1,
            pace: SimDuration::from_micros(300),
            sched: SchedConfig {
                time_slice: SimDuration::from_millis(6),
                ..SchedConfig::default()
            },
            hog_profile: HogProfile {
                busy_mean: SimDuration::from_millis(25),
                idle_mean: SimDuration::from_millis(150),
            },
            seed: 0xBEEF,
            trace: false,
        }
    }
}

/// Result of one microbenchmark run.
#[derive(Debug, Clone)]
pub struct MicroResult {
    /// Per-op latency distribution.
    pub latency: LatencySummary,
    /// Wall time from first issue to last completion.
    pub elapsed: SimDuration,
    /// Operations completed.
    pub ops: u64,
    /// Peak replica data-path process CPU, as a fraction of the run (1.0 =
    /// one fully-burnt core).
    pub replica_cpu: f64,
    /// Metrics snapshot of the whole cluster at the end of the run
    /// (fabric/NVM/scheduler/link counters plus the op-latency histogram
    /// under `bench.op_latency`).
    pub registry: MetricsRegistry,
    /// Host statistics, health (no audit: violations stay zero), series
    /// and, for [`MicroOpts::trace`] runs, the trace folds.
    pub arm: ArmOutput,
}

impl MicroResult {
    /// Throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// Group config sized for long microbenchmark runs: deep pre-posting keeps
/// the data path independent of maintenance wake-ups under load.
pub fn bench_group_config(window: u32) -> GroupConfig {
    GroupConfig {
        shared_size: 4 << 20,
        meta_slots: 64,
        prepost_depth: 768,
        window,
        first_gen: 0,
    }
}

/// Runs `ops` operations from `plan` through the chosen system and options.
///
/// Traced runs ([`MicroOpts::trace`]) are re-run bare to measure the
/// observability tax (see `crate::arm::measure`); both runs draw from
/// the one `plan`.
///
/// # Panics
///
/// Panics if the run does not complete within the simulation watchdog.
pub fn run_primitive(kind: SystemKind, plan: OpPlan, opts: MicroOpts) -> MicroResult {
    let plan = Rc::new(RefCell::new(plan));
    let taps = Taps {
        trace: opts.trace.then(|| ring_capacity(opts.ops + opts.warmup)),
        counters: &["cluster.fabric.", "cluster.sched.", "cluster.nvm."],
        ..Taps::default()
    };
    arm::measure(
        taps,
        |arm| {
            let p = Rc::clone(&plan);
            primitive_arm(kind, Box::new(move |i| (p.borrow_mut())(i)), opts, arm)
        },
        |r| &mut r.arm,
    )
}

/// One metered run: builds the loaded cluster and the chosen chain.
fn primitive_arm(kind: SystemKind, plan: OpPlan, opts: MicroOpts, arm: Arm) -> MicroResult {
    let mut cluster = Cluster::new(
        opts.group_size + 1,
        opts.cores,
        256 << 20,
        ClusterConfig {
            seed: opts.seed,
            sched: opts.sched,
            ..ClusterConfig::default()
        },
    );
    let replicas: Vec<NodeId> = (1..=opts.group_size).map(NodeId).collect();
    for &rn in &replicas {
        cluster.add_background_load(rn, opts.hogs_per_node, opts.hog_profile);
    }
    cluster.set_tracer(arm.tracer.clone());
    match kind {
        SystemKind::HyperLoop => {
            let mut group = cluster.setup_fabric(|ctx| {
                HyperLoopGroup::setup(ctx, NodeId(0), &replicas, bench_group_config(opts.window))
            });
            group.client.set_tracer(arm.tracer.clone());
            let maint = install_group_maintenance(
                &mut cluster,
                group.replicas,
                SimDuration::from_nanos(400),
            );
            drive_primitive(cluster, group.client, &maint, plan, opts, arm)
        }
        SystemKind::NaiveEvent | SystemKind::NaivePolling => {
            let mut chain = NaiveChain::setup(
                &mut cluster,
                NodeId(0),
                &replicas,
                NaiveConfig {
                    window: opts.window,
                    prepost_depth: 768,
                    cmd_slots: 64,
                    replica_kind: kind.replica_kind(),
                    ..NaiveConfig::default()
                },
            );
            chain.client.set_tracer(arm.tracer.clone());
            drive_primitive(cluster, chain.client, &chain.replica_procs, plan, opts, arm)
        }
    }
}

/// Installs the client driver over `client` and runs the arm to the end;
/// `data_procs` are the replica processes whose CPU is reported.
fn drive_primitive<T: GroupTransport + 'static>(
    mut cluster: Cluster,
    client: T,
    data_procs: &[ProcRef],
    plan: OpPlan,
    opts: MicroOpts,
    mut arm: Arm,
) -> MicroResult {
    let ack_cq = client.ack_cq();
    let driver = PrimitiveDriver::with_pace(
        client,
        plan,
        opts.ops + opts.warmup,
        opts.window,
        opts.warmup,
        opts.pace,
    )
    .with_health(arm.health.clone(), 0);
    let p = cluster.add_app(NodeId(0), ProcKind::Polling, Box::new(driver));
    cluster.bind_cq(p, NodeId(0), ack_cq, SimDuration::from_nanos(300));

    let mut sim = cluster.into_sim();
    // Watchdog: generous cap so pathological stalls fail loudly.
    arm.run_cluster(
        &mut sim,
        SimDuration::from_millis(20),
        SimTime::from_secs(600),
        |c| c.app_mut::<PrimitiveDriver<T>>(p).is_done(),
    );
    let d = sim.model.app_mut::<PrimitiveDriver<T>>(p);
    let hist = d.hist.clone();
    let elapsed = d
        .done_at
        .expect("done")
        .since(d.started_at.expect("started"));
    // Normalize CPU by the whole run (processes are busy from time zero,
    // including the warm-up ramp), capping at one core.
    let sim_total = sim.now().since(SimTime::ZERO);
    let replica_cpu = data_procs
        .iter()
        .map(|&p| {
            let (busy, _) = sim.model.proc_cpu(p);
            (busy.as_secs_f64() / sim_total.as_secs_f64().max(1e-12)).min(1.0)
        })
        .fold(0.0f64, f64::max);
    assert_eq!(sim.model.fab.stats().errors, 0, "data-path errors");

    let mut registry = MetricsRegistry::new();
    sim.model.export_into(&mut registry, "cluster");
    registry.merge_histogram("bench.op_latency", &hist);
    registry.set_gauge("bench.replica_cpu", replica_cpu);
    registry.set_gauge("bench.elapsed_secs", elapsed.as_secs_f64());

    MicroResult {
        latency: hist.summary(),
        elapsed,
        ops: opts.ops,
        replica_cpu,
        registry,
        arm: arm.finish(opts.ops, &sim),
    }
}

/// A gWRITE plan: replicate `size` bytes at a rotating offset. `flush`
/// interleaves a gFLUSH (durable at every hop before forwarding).
pub fn gwrite_plan_flush(size: u64, flush: bool) -> OpPlan {
    Box::new(move |i| GroupOp::Write {
        offset: (i % 64) * 8192,
        data: Payload::filled((i & 0xFF) as u8, size as usize),
        flush,
    })
}

/// A durably-flushed gWRITE plan (see [`gwrite_plan_flush`]).
pub fn gwrite_plan(size: u64) -> OpPlan {
    gwrite_plan_flush(size, true)
}

/// A gMEMCPY plan: every replica copies `size` bytes log→db.
pub fn gmemcpy_plan(size: u64) -> OpPlan {
    Box::new(move |i| GroupOp::Memcpy {
        src: (i % 16) * 65536,
        dst: 2 << 20 | ((i % 16) * 65536),
        len: size,
        flush: true,
    })
}

/// A gCAS plan: sequential compare-and-swap on one lock word (always
/// matching, as a lock handover would).
pub fn gcas_plan(group_size: u32) -> OpPlan {
    Box::new(move |i| GroupOp::Cas {
        offset: 0,
        compare: i,
        swap: i + 1,
        execute: hyperloop::ExecuteMap::all(group_size),
    })
}
