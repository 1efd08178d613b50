//! `txn_contended`: multi-key transactions on a 4-shard × 3-replica
//! `ShardedKv`, locking commit, zipf θ = 0.99, 8 logical transactions in
//! flight, with the standard auditor set and the health monitor on — the
//! txnmix runner's measured arm, driven by the benchmark's own loop.
//!
//! The mix alternates YCSB-F reads and read-modify-writes with two-key
//! transfers on a separate account keyspace; transfers conserve value, so
//! the account balances must sum to zero at the end.

use crate::ledger::{run_until_traced, Bucket, Ledger};
use crate::{Phases, Workload};
use hyperloop::txn::{CommitMode, TxnOutcome};
use hyperloop::{GroupClient, GroupConfig, HyperLoopGroup, ReplicaHandle, ShardId};
use kvstore::{KvConfig, KvTxn, ReplicatedKv, ShardedKv};
use netsim::NodeId;
use simcore::simaudit::{op_id_base, Probe};
use simcore::{
    Audit, HealthMonitor, Histogram, MetricsRegistry, SimTime, Simulation, SloConfig, Tracer,
};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;
use testbed::{drive, Cluster, ClusterConfig, ShardPlacement};
use ycsb::{Generator, Operation, Workload as Ycsb};

const SHARDS: u32 = 4;
const REPLICAS: u32 = 3;
const CONCURRENCY: usize = 8;
const THETA: f64 = 0.99;
/// Accounts in the transfer keyspace; workload F uses as many keys above.
const RECORDS: u64 = 256;
const WINDOW: u32 = 16;
/// A logical transaction aborted this often is livelocked.
const MAX_ATTEMPTS: u32 = 256;
/// Rounds in a row with no outcome before the run counts as stalled.
const MAX_IDLE_ROUNDS: u32 = 10_000;

/// One logical transaction, retried across aborts until it commits.
#[derive(Debug, Clone)]
enum MixOp {
    Read(u64),
    Rmw(u64, Vec<u8>),
    Transfer(u64, u64, u64),
}

fn balance(v: Option<Vec<u8>>) -> i64 {
    v.map(|b| i64::from_le_bytes(b[..8].try_into().expect("8-byte balance")))
        .unwrap_or(0)
}

fn submit(kv: &mut ShardedKv<GroupClient>, op: &MixOp) -> u64 {
    let mut t: KvTxn = kv.txn();
    match op {
        MixOp::Read(key) => {
            kv.txn_get(&mut t, RECORDS + key);
        }
        MixOp::Rmw(key, value) => {
            kv.txn_get(&mut t, RECORDS + key);
            kv.txn_put(&mut t, RECORDS + key, value.clone())
                .expect("value fits the store geometry");
        }
        MixOp::Transfer(from, to, amount) => {
            let bf = balance(kv.txn_get(&mut t, *from));
            let bt = balance(kv.txn_get(&mut t, *to));
            kv.txn_put(&mut t, *from, (bf - *amount as i64).to_le_bytes().to_vec())
                .expect("value fits the store geometry");
            kv.txn_put(&mut t, *to, (bt + *amount as i64).to_le_bytes().to_vec())
                .expect("value fits the store geometry");
        }
    }
    kv.txn_commit(t)
}

/// The shard a logical transaction's health is tracked against: its
/// first-read key's.
fn primary_shard(kv: &ShardedKv<GroupClient>, op: &MixOp) -> u32 {
    match op {
        MixOp::Read(k) | MixOp::Rmw(k, _) => kv.route(RECORDS + k).0,
        MixOp::Transfer(from, _, _) => kv.route(*from).0,
    }
}

/// A built transaction workload.
pub struct Txns {
    sim: Simulation<Cluster>,
    kv: ShardedKv<GroupClient>,
    replicas: Vec<Vec<ReplicaHandle>>,
    audit: Audit,
    health: HealthMonitor,
    fgen: Generator,
    tgen: Generator,
    drawn: u64,
    /// Logical transactions in flight: txn id → (op, submit time, aborts).
    outstanding: HashMap<u64, (MixOp, SimTime, u32)>,
    hist: Histogram,
    committed: u64,
    submitted: u64,
    /// Submit no new logical transactions (drain at the end of the run).
    stop: bool,
    last_completed: Vec<u64>,
    idle_rounds: u32,
    ledger: Option<Rc<Ledger>>,
    failures: Vec<(&'static str, u64)>,
}

impl Txns {
    /// Builds the workload, timing each setup phase into `phases`. With
    /// `audited` false the auditors are off (the audit-tax comparison).
    pub fn build(
        seed: u64,
        audited: bool,
        ledger: Option<Rc<Ledger>>,
        phases: &mut Phases,
    ) -> Txns {
        let t0 = Instant::now();
        let client = NodeId(0);
        let mut cluster = Cluster::new(
            1 + SHARDS * REPLICAS,
            4,
            256 << 20,
            ClusterConfig {
                seed,
                ..ClusterConfig::default()
            },
        );
        let t1 = Instant::now();

        let chains = cluster.place_shards(
            &ShardPlacement::RoundRobin {
                replicas_per_shard: REPLICAS,
            },
            SHARDS,
            client,
        );
        let audit = if audited {
            Audit::standard()
        } else {
            Audit::disabled()
        };
        let tracer = Tracer::disabled().with_audit(audit.clone());
        cluster.set_tracer(tracer.clone());
        let health = HealthMonitor::new(SloConfig::default());
        health.set_tracer(tracer.clone());
        let groups: Vec<HyperLoopGroup> = cluster.setup_fabric(|ctx| {
            chains
                .iter()
                .enumerate()
                .map(|(i, chain)| {
                    let cfg = GroupConfig {
                        shared_size: 4 << 20,
                        meta_slots: 64,
                        prepost_depth: 128,
                        window: WINDOW,
                        first_gen: op_id_base(i as u32, 0),
                    };
                    HyperLoopGroup::setup(ctx, client, chain, cfg)
                })
                .collect()
        });
        let (clients, replicas): (Vec<_>, Vec<Vec<ReplicaHandle>>) =
            groups.into_iter().map(|g| (g.client, g.replicas)).unzip();
        let stores = clients
            .into_iter()
            .map(|mut c| {
                c.set_tracer(tracer.clone());
                ReplicatedKv::new(c, KvConfig::default())
            })
            .collect();
        let mut kv = ShardedKv::with_hash_router(stores);
        kv.enable_txns(CommitMode::Locking, seed ^ 0x7);
        kv.set_txn_audit(audit.clone());
        kv.set_txn_tracer(tracer);
        let t2 = Instant::now();

        let mut sim = cluster.into_sim();
        sim.run();
        for shard in 0..SHARDS {
            audit.probe(
                sim.now(),
                Probe::Window {
                    shard,
                    window: WINDOW as u64,
                },
            );
        }
        let t3 = Instant::now();
        phases.add(t1 - t0, t2 - t1, t3 - t2);

        Txns {
            sim,
            kv,
            replicas,
            audit,
            health,
            fgen: Generator::with_theta(Ycsb::F, RECORDS, seed ^ 0xF0, THETA),
            tgen: Generator::with_theta(Ycsb::Transfer, RECORDS, seed ^ 0x71, THETA),
            drawn: 0,
            outstanding: HashMap::new(),
            hist: Histogram::new(),
            committed: 0,
            submitted: 0,
            stop: false,
            last_completed: vec![0; SHARDS as usize],
            idle_rounds: 0,
            ledger,
            failures: Vec::new(),
        }
    }

    fn next_op(&mut self) -> MixOp {
        self.drawn += 1;
        if self.drawn.is_multiple_of(2) {
            match self.fgen.next_op() {
                Operation::Read { key } => MixOp::Read(key),
                Operation::ReadModifyWrite { key, value } => MixOp::Rmw(key, value),
                other => MixOp::Read(other.key()),
            }
        } else {
            loop {
                if let Operation::Transfer { from, to, amount } = self.tgen.next_op() {
                    return MixOp::Transfer(from, to, amount);
                }
            }
        }
    }

    /// Times `f` into `b` when tracing.
    fn timed<R>(&mut self, b: Bucket, f: impl FnOnce(&mut Self) -> R) -> R {
        let t0 = self.ledger.as_ref().map(|_| Instant::now());
        let r = f(self);
        if let (Some(l), Some(t0)) = (&self.ledger, t0) {
            l.lap(b, t0);
        }
        r
    }

    /// One round of the benchmark loop: top up the window, run the simulation
    /// dry, collect outcomes (resubmitting aborts), tick health and
    /// replenish every chain's pre-posted runway. Returns false on a stall
    /// or livelock.
    fn round(&mut self) -> bool {
        while !self.stop && self.outstanding.len() < CONCURRENCY {
            let op = self.next_op();
            let id = self.timed(Bucket::TxnSubmit, |w| submit(&mut w.kv, &op));
            let now = self.sim.now();
            let shard = primary_shard(&self.kv, &op);
            self.timed(Bucket::Health, |w| w.health.record_issue(now, shard));
            self.outstanding.insert(id, (op, now, 0));
            self.submitted += 1;
        }
        match &self.ledger {
            Some(l) => run_until_traced(&mut self.sim, SimTime::MAX, l),
            None => self.sim.run(),
        };
        let done = self.timed(Bucket::TxnPump, |w| {
            let kv = &mut w.kv;
            drive(&mut w.sim, |ctx| {
                kv.poll(ctx);
                kv.pump_txns(ctx)
            })
        });
        if done.is_empty() {
            self.idle_rounds += 1;
            if self.idle_rounds >= MAX_IDLE_ROUNDS {
                self.failures.push(("stall", 1));
                return false;
            }
        } else {
            self.idle_rounds = 0;
        }
        let now = self.sim.now();
        for (id, outcome) in done {
            let Some((op, t0, aborts)) = self.outstanding.remove(&id) else {
                self.failures.push(("unknown_txn_outcome", 1));
                return false;
            };
            match outcome {
                TxnOutcome::Committed => {
                    let lat = now.since(t0);
                    self.hist.record(lat);
                    let shard = primary_shard(&self.kv, &op);
                    self.timed(Bucket::Health, |w| w.health.record_ack(now, shard, lat));
                    self.committed += 1;
                }
                TxnOutcome::Aborted if aborts + 1 >= MAX_ATTEMPTS => {
                    self.failures.push(("livelock", 1));
                    return false;
                }
                TxnOutcome::Aborted => {
                    let id = self.timed(Bucket::TxnSubmit, |w| submit(&mut w.kv, &op));
                    self.outstanding.insert(id, (op, t0, aborts + 1));
                }
            }
        }
        self.timed(Bucket::Health, |w| w.health.tick(now));
        self.timed(Bucket::TxnReplenish, |w| {
            let Txns {
                sim,
                kv,
                replicas,
                last_completed,
                ..
            } = w;
            drive(sim, |ctx| {
                for (s, reps) in replicas.iter_mut().enumerate() {
                    let done = kv.shard(ShardId(s as u32)).transport.completed();
                    let delta = done - last_completed[s];
                    if delta > 0 {
                        last_completed[s] = done;
                        for r in reps.iter_mut() {
                            r.replenish(ctx, delta as u32);
                        }
                    }
                }
            })
        });
        true
    }
}

impl Workload for Txns {
    fn advance(&mut self, target: u64) -> bool {
        while self.committed < target {
            if !self.round() {
                return false;
            }
        }
        true
    }

    fn completed(&self) -> u64 {
        self.committed
    }

    fn counters(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        self.sim.model.export_into(&mut reg, "cluster");
        crate::export_queue(&self.sim.queue.stats(), &mut reg);
        self.kv.txn_manager().export_into(&mut reg, "txn");
        reg
    }

    fn latency(&self) -> Histogram {
        self.hist.clone()
    }

    fn sim_now(&self) -> SimTime {
        self.sim.now()
    }

    fn finish(&mut self) -> (u64, Vec<(&'static str, u64)>) {
        self.stop = true;
        while self.failures.is_empty() && !self.outstanding.is_empty() && self.round() {}
        let mut failures = std::mem::take(&mut self.failures);
        failures.push(("uncommitted_txns", self.submitted - self.committed));
        failures.push(("fabric_errors", self.sim.model.fab.stats().errors));
        failures.push(("audit_violations", self.audit.violation_count()));
        let sum: i64 = (0..RECORDS)
            .map(|k| balance(self.kv.get(k).map(|v| v.to_vec())))
            .sum();
        failures.push(("transfer_balance_nonzero", u64::from(sum != 0)));
        (self.submitted, failures)
    }
}
