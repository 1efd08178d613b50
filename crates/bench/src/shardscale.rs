//! The shard-scaling benchmark: aggregate throughput vs shard count.
//!
//! One client machine drives 1→8 independent HyperLoop chains through a
//! [`ShardSet`], with a fixed offered load (total operations, uniform
//! random keys, fixed per-shard window). A single group serializes on one
//! chain; sharding lets the chains replicate concurrently, so aggregate
//! throughput should rise monotonically with the shard count until the
//! client NIC saturates — the scale-out story the single-group sections of
//! the paper leave implicit.
//!
//! Chains are laid out disjointly over the rack with
//! [`ShardPlacement::RoundRobin`]; the report carries both the shard-set
//! counters (`bench.shards.shard{i}.*`) and the per-chain NVM counters
//! (`bench.shard{i}.nvm.node{n}.*`), so the JSON shows the traffic each
//! chain actually carried.

use crate::arm::{self, ring_capacity, Arm, ArmOutput, Artifact, Taps};
use crate::report::{us, Report, Scenario};
use hyperloop::{
    GroupClient, GroupConfig, GroupOp, HyperLoopGroup, ReplicaHandle, ShardId, ShardSet,
};
use netsim::NodeId;
use rnicsim::Payload;
use simcore::simaudit::op_id_base;
use simcore::{
    HealthMonitor, Histogram, LatencySummary, MetricsRegistry, SimDuration, SimRng, SimTime,
    Simulation,
};
use std::collections::{HashMap, VecDeque};
use testbed::cluster::drive;
use testbed::{Cluster, ClusterConfig, ShardPlacement};

/// Shard-scaling benchmark parameters.
#[derive(Debug, Clone, Copy)]
pub struct ShardScaleOpts {
    /// Replicas per shard chain.
    pub replicas_per_shard: u32,
    /// Total operations across all shards (the fixed offered load).
    pub ops: u64,
    /// Per-shard in-flight window.
    pub window: u32,
    /// gWRITE payload bytes.
    pub payload: u64,
    /// Root seed.
    pub seed: u64,
    /// Capture a causal trace + counter-track samples for this arm.
    pub trace: bool,
}

impl Default for ShardScaleOpts {
    fn default() -> Self {
        ShardScaleOpts {
            replicas_per_shard: 3,
            ops: 4096,
            window: 16,
            payload: 1024,
            seed: 0x5CA1E,
            trace: false,
        }
    }
}

/// Result of one shard-count arm.
#[derive(Debug, Clone)]
pub struct ShardScaleResult {
    /// Shard count of this arm.
    pub shards: u32,
    /// Per-op latency distribution (issue to chain ack).
    pub latency: LatencySummary,
    /// Wall time from first issue to last ack.
    pub elapsed: SimDuration,
    /// Operations completed (= the offered load).
    pub ops: u64,
    /// Per-shard completion counts, shard order.
    pub per_shard_acked: Vec<u64>,
    /// Cluster + shard-set metrics snapshot.
    pub registry: MetricsRegistry,
    /// Host statistics with the observability tax of the always-on audit
    /// tap, health (invariant violations, expected zero, plus per-shard
    /// SLO states), series, the audit report and, on traced arms, the
    /// trace folds.
    pub arm: ArmOutput,
}

impl ShardScaleResult {
    /// Aggregate throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// Runs the fixed offered load through `n_shards` chains.
///
/// Auditing is always on in this sweep, so every arm is re-run bare to
/// measure the observability tax (see `arm::measure`).
///
/// # Panics
///
/// Panics on data-path errors, lost operations, or a stalled run.
pub fn run_shardscale(n_shards: u32, opts: ShardScaleOpts) -> ShardScaleResult {
    let taps = Taps {
        audit: true,
        trace: opts.trace.then(|| ring_capacity(opts.ops)),
        counters: &["bench.shards.", "cluster.sched.", "cluster.fabric."],
    };
    arm::measure(
        taps,
        |arm| shardscale_arm(n_shards, opts, arm),
        |r| &mut r.arm,
    )
}

/// One metered arm. The bare run drives the exact same
/// issue/poll/replenish loop with every tap off.
fn shardscale_arm(n_shards: u32, opts: ShardScaleOpts, mut arm: Arm) -> ShardScaleResult {
    let cluster = Cluster::new(
        1 + n_shards * opts.replicas_per_shard,
        4,
        256 << 20,
        ClusterConfig {
            seed: opts.seed,
            ..ClusterConfig::default()
        },
    );
    let placement = ShardPlacement::RoundRobin {
        replicas_per_shard: opts.replicas_per_shard,
    };
    let chains = cluster.place_shards(&placement, n_shards, NodeId(0));
    let (ops, payload, seed) = (opts.ops, opts.payload, opts.seed);
    let mut rig = ShardRig::new(cluster, &chains, opts.window, ops, payload, seed, &arm);
    let started = rig.sim.now();
    while rig.done < opts.ops {
        // Closed loop: refill every shard's window from its queue...
        rig.refill(&arm.health);
        // Sample with the windows full (the drain samples them empty): the
        // in-flight track renders the issue/drain sawtooth instead of a
        // flat zero line.
        arm.sample(rig.sim.now(), |reg| rig.export_counters(reg));
        // ...let the chains run dry, then collect.
        rig.drain(&mut arm);
    }
    let (elapsed, mut registry) = rig.finish(&chains, started, opts.ops);
    let per_shard_acked: Vec<u64> = (0..n_shards)
        .map(|s| rig.set.completed_on(ShardId(s)))
        .collect();
    arm.audit.export_into(&mut registry, "audit");
    arm.health.export_into(&mut registry, "health");

    ShardScaleResult {
        shards: n_shards,
        latency: rig.hist.summary(),
        elapsed,
        ops: opts.ops,
        per_shard_acked,
        registry,
        arm: arm.finish(opts.ops, &rig.sim),
    }
}

/// Bytes of each shard chain's replicated region.
pub(crate) const SHARD_REGION: u64 = 4 << 20;

/// The durable `payload`-byte gWRITE the offered load issues for `key`.
pub(crate) fn write_op(key: u64, payload: u64) -> GroupOp {
    GroupOp::Write {
        offset: (key % 64) * 8192,
        data: Payload::filled((key & 0xFF) as u8, payload as usize),
        flush: true,
    }
}

/// The closed-loop rig the shard-scaling and migration sweeps share:
/// HyperLoop chains behind a [`ShardSet`] on client node 0, wired to an
/// arm's taps, with the fixed offered load (`ops` uniform random keys)
/// routed up front so every arm sees the per-key shard assignment the
/// router would give it online.
pub(crate) struct ShardRig {
    pub(crate) sim: Simulation<Cluster>,
    pub(crate) set: ShardSet<GroupClient>,
    pub(crate) replicas: Vec<Vec<ReplicaHandle>>,
    /// Keys not yet issued, per shard.
    pub(crate) queues: Vec<VecDeque<u64>>,
    /// Issue time of every op in flight, by `(shard, generation)`.
    pub(crate) sent: HashMap<(u32, u64), SimTime>,
    pub(crate) hist: Histogram,
    /// Ops acknowledged so far.
    pub(crate) done: u64,
    payload: u64,
}

impl ShardRig {
    /// Sets up one chain per entry of `chains`, each with a `window`-deep
    /// pipeline, drains the wiring, and draws the load from `seed`.
    pub(crate) fn new(
        mut cluster: Cluster,
        chains: &[Vec<NodeId>],
        window: u32,
        ops: u64,
        payload: u64,
        seed: u64,
        arm: &Arm,
    ) -> ShardRig {
        cluster.set_tracer(arm.tracer.clone());
        // Descriptor chains cost ~7 send WQEs per generation on each
        // replica NIC, so the pre-post depth is bounded by the NIC's send
        // queue: 128 generations of runway, topped back up from the bench
        // loop as acks drain it. The data path never waits on a replenish.
        let groups: Vec<HyperLoopGroup> = cluster.setup_fabric(|ctx| {
            chains
                .iter()
                .enumerate()
                .map(|(i, chain)| {
                    // Disjoint, epoch-qualified generation bases keep op ids
                    // (= trace ids = WQE wr_ids) globally unique across
                    // shards and across a migration cutover.
                    let cfg = GroupConfig {
                        shared_size: SHARD_REGION,
                        meta_slots: 64,
                        prepost_depth: 128,
                        window,
                        first_gen: op_id_base(i as u32, 0),
                    };
                    HyperLoopGroup::setup(ctx, NodeId(0), chain, cfg)
                })
                .collect()
        });
        let (clients, replicas): (Vec<_>, Vec<_>) = groups
            .into_iter()
            .map(|mut g| {
                g.client.set_tracer(arm.tracer.clone());
                (g.client, g.replicas)
            })
            .unzip();
        let set = ShardSet::with_hash_router(clients);
        let mut sim = cluster.into_sim();
        sim.run(); // drain group wiring
        arm.probe_windows(sim.now(), chains.len() as u32, window);

        let mut rng = SimRng::new(seed ^ 0x51AB);
        let mut queues = vec![VecDeque::new(); chains.len()];
        for _ in 0..ops {
            let key = rng.next_u64();
            queues[set.route(key).0 as usize].push_back(key);
        }
        ShardRig {
            sim,
            set,
            replicas,
            queues,
            sent: HashMap::new(),
            hist: Histogram::new(),
            done: 0,
            payload,
        }
    }

    /// Refills every shard's window from its queue.
    pub(crate) fn refill(&mut self, health: &HealthMonitor) {
        let ShardRig {
            sim,
            set,
            queues,
            sent,
            payload,
            ..
        } = self;
        drive(sim, |ctx| {
            for (s, queue) in queues.iter_mut().enumerate() {
                let sid = ShardId(s as u32);
                while set.can_issue_on(sid) {
                    let Some(key) = queue.pop_front() else {
                        break;
                    };
                    let gen = set
                        .issue_on(ctx, sid, write_op(key, *payload))
                        .expect("window checked");
                    sent.insert((sid.0, gen), ctx.now);
                    health.record_issue(ctx.now, sid.0);
                }
            }
        });
    }

    /// Records the op `gen` on `shard` as acked now.
    pub(crate) fn acked(&mut self, health: &HealthMonitor, shard: ShardId, gen: u64) {
        let t0 = self
            .sent
            .remove(&(shard.0, gen))
            .expect("ack for an op we issued");
        let lat = self.sim.now().since(t0);
        self.hist.record(lat);
        health.record_ack(self.sim.now(), shard.0, lat);
        self.done += 1;
    }

    /// The cluster and shard-set counters the counter tracks sample.
    pub(crate) fn export_counters(&self, reg: &mut MetricsRegistry) {
        self.sim.model.export_into(reg, "cluster");
        self.set.export_into(reg, "bench.shards");
    }

    /// Lets the chains run dry, samples the counters, records every ack,
    /// ticks health, and re-posts one descriptor chain per completed
    /// generation so the pre-posted runway never shrinks (the replica
    /// maintenance loop in miniature, driven deterministically from the
    /// bench loop).
    pub(crate) fn drain(&mut self, arm: &mut Arm) {
        self.sim.run();
        let acks = drive(&mut self.sim, |ctx| self.set.poll(ctx));
        arm.sample(self.sim.now(), |reg| self.export_counters(reg));
        assert!(!acks.is_empty(), "run stalled after {} ops", self.done);
        let mut drained = vec![0u32; self.queues.len()];
        for a in acks {
            self.acked(&arm.health, a.shard, a.ack.gen);
            drained[a.shard.0 as usize] += 1;
        }
        arm.health.tick(self.sim.now());
        let replicas = &mut self.replicas;
        drive(&mut self.sim, |ctx| {
            for (shard, &n) in drained.iter().enumerate() {
                if n > 0 {
                    for r in replicas[shard].iter_mut() {
                        r.replenish(ctx, n);
                    }
                }
            }
        });
    }

    /// Checks that all `ops` completed cleanly and snapshots the cluster,
    /// per-chain and shard-set counters, the op-latency histogram and the
    /// elapsed time since `started`.
    pub(crate) fn finish(
        &self,
        chains: &[Vec<NodeId>],
        started: SimTime,
        ops: u64,
    ) -> (SimDuration, MetricsRegistry) {
        let elapsed = self.sim.now().since(started);
        assert_eq!(self.sim.model.fab.stats().errors, 0, "data-path errors");
        assert_eq!(self.set.completed(), ops, "lost operations");
        let mut registry = MetricsRegistry::new();
        self.sim.model.export_into(&mut registry, "cluster");
        self.sim
            .model
            .export_shards_into(&mut registry, chains, "bench");
        self.set.export_into(&mut registry, "bench.shards");
        registry.merge_histogram("bench.op_latency", &self.hist);
        registry.set_gauge("bench.elapsed_secs", elapsed.as_secs_f64());
        (elapsed, registry)
    }
}

/// The shard counts of the scaling sweep.
pub const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// Shard-scaling sweep: 1→8 chains under the same offered load.
pub fn shardscale(rep: &mut Report, quick: bool) {
    rep.banner("Shard scaling: aggregate gWRITE throughput vs shard count (fixed offered load)");
    let opts = ShardScaleOpts {
        ops: if quick { 1024 } else { 4096 },
        trace: rep.profile_enabled(),
        ..ShardScaleOpts::default()
    };
    rep.line(format!(
        "{:<8} {:>12} {:>10} {:>10} {:>10}  per-shard ops",
        "shards", "Kops/s", "speedup", "mean", "p99"
    ));
    let mut base = None;
    for n in SHARD_COUNTS {
        let r = run_shardscale(n, opts);
        let tput = r.ops_per_sec();
        let base_tput = *base.get_or_insert(tput);
        rep.line(format!(
            "{:<8} {:>12.1} {:>9.2}x {:>10} {:>10}  {:?}",
            n,
            tput / 1e3,
            tput / base_tput,
            us(r.latency.mean),
            us(r.latency.p99),
            r.per_shard_acked,
        ));
        let name = format!("shardscale/{n}");
        let mut sc = Scenario::new(name.clone())
            .system("HyperLoop")
            .seed(opts.seed)
            .config("shards", n)
            .config("replicas_per_shard", opts.replicas_per_shard)
            .config("window", opts.window)
            .config("ops", opts.ops)
            .config("payload_bytes", opts.payload)
            .latency(&r.latency)
            .gauge("ops_per_sec", tput)
            .gauge("speedup", tput / base_tput)
            .arm(&r.arm)
            .metrics(r.registry.clone());
        for (s, &acked) in r.per_shard_acked.iter().enumerate() {
            sc = sc.config(&format!("shard{s}_ops"), acked);
        }
        if let Some(tr) = &r.arm.trace {
            sc = sc.stage_attribution(tr.attribution.clone());
        }
        r.arm.write_artifacts(
            rep,
            &name,
            &[
                Artifact::Trace,
                Artifact::Folded,
                Artifact::Audit,
                Artifact::Tail,
            ],
        );
        rep.scenario(sc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_scales_monotonically_with_shards() {
        let opts = ShardScaleOpts {
            ops: 512,
            ..ShardScaleOpts::default()
        };
        let mut last = 0.0f64;
        for n in SHARD_COUNTS {
            let r = run_shardscale(n, opts);
            assert_eq!(r.ops, 512);
            assert_eq!(r.per_shard_acked.iter().sum::<u64>(), 512);
            let tput = r.ops_per_sec();
            assert!(
                tput > last,
                "{n} shards did not beat the previous arm: {tput:.0} <= {last:.0} ops/s"
            );
            last = tput;
            assert_eq!(
                r.arm.health.violations, 0,
                "auditors flagged a clean run:\n{}",
                r.arm.audit_json
            );
            assert_eq!(r.arm.health.shards.len(), n as usize);
            // The registry carries per-shard counters for every shard.
            for s in 0..n {
                assert_eq!(
                    r.registry.counter(&format!("bench.shards.shard{s}.acked")),
                    Some(r.per_shard_acked[s as usize]),
                    "shard {s} counter missing from the snapshot"
                );
            }
        }
    }
}
