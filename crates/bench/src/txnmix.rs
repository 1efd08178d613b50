//! The transaction-mix benchmark: multi-key transactions vs contention.
//!
//! One client machine drives a 4-shard [`ShardedKv`] with a mix of YCSB
//! workload-F read-modify-write transactions and two-key [`Transfer`]
//! transactions (distinct zipfian accounts, often on different shards),
//! through both commit paths of the transaction layer: **locking**
//! (paper-§5 gCAS write locks in global key order) and **optimistic**
//! (FDB-style validate-then-commit over version words). The zipfian skew
//! `theta` is the contention knob — higher theta concentrates traffic on
//! fewer hot keys, driving lock retries on the locking path and validation
//! aborts on the optimistic one.
//!
//! Auditing is always on for measured arms: the standard auditor set plus
//! the transaction auditor (atomicity, isolation, lock hygiene) watch
//! every arm, and every arm additionally checks *conservation* — transfers
//! move value between accounts, so the sum of all balances must end at
//! zero. A lost update, partial commit or leaked lock shows up as either
//! an audit violation or a conservation failure.
//!
//! [`Transfer`]: ycsb::Operation::Transfer

use crate::arm::{self, Arm, ArmOutput, Artifact, Taps};
use crate::report::{us, Report, Scenario};
use hyperloop::txn::{CommitMode, TxnOutcome};
use hyperloop::{GroupConfig, HyperLoopGroup, ReplicaHandle, ShardId};
use kvstore::{KvConfig, KvTxn, ReplicatedKv, ShardedKv};
use netsim::NodeId;
use simcore::simaudit::op_id_base;
use simcore::{Histogram, LatencySummary, MetricsRegistry, SimTime, TxnAttribution};
use std::collections::HashMap;
use testbed::cluster::drive;
use testbed::{Cluster, ClusterConfig, ShardPlacement};
use ycsb::{Generator, Operation, Workload};

/// Transaction-mix benchmark parameters.
#[derive(Debug, Clone, Copy)]
pub struct TxnMixOpts {
    /// Number of shards (each a full replication chain).
    pub shards: u32,
    /// Replicas per shard chain.
    pub replicas_per_shard: u32,
    /// Logical transactions to complete (each retried until it commits).
    pub txns: u64,
    /// Transactions kept in flight concurrently.
    pub concurrency: usize,
    /// Zipfian skew `theta ∈ (0, 1)` — the contention knob.
    pub theta: f64,
    /// Accounts in the transfer keyspace (workload F uses a disjoint
    /// keyspace of the same size, offset above it).
    pub records: u64,
    /// Root seed.
    pub seed: u64,
    /// Capture causal traces on the observed arm: txn phase spans, op
    /// parent tags and sampled `txn.*` counter tracks. Observational only
    /// — the simulated timeline is byte-identical either way.
    pub trace: bool,
}

impl Default for TxnMixOpts {
    fn default() -> Self {
        TxnMixOpts {
            shards: 4,
            replicas_per_shard: 3,
            txns: 512,
            concurrency: 8,
            theta: 0.9,
            records: 256,
            seed: 0x7A317,
            trace: false,
        }
    }
}

/// Result of one (mode, theta) arm.
#[derive(Debug, Clone)]
pub struct TxnMixResult {
    /// The commit path measured.
    pub mode: CommitMode,
    /// Commit latency distribution (submission to committed outcome).
    pub latency: LatencySummary,
    /// Wall time from first submission to last commit.
    pub elapsed: simcore::SimDuration,
    /// Logical transactions committed (= the offered load).
    pub committed: u64,
    /// Commit attempts that aborted and were retried.
    pub aborted: u64,
    /// Lock acquisitions that backed off and retried (locking path).
    pub lock_retries: u64,
    /// Mean number of distinct shards per committed transaction.
    pub mean_span: f64,
    /// Cluster + transaction metrics snapshot.
    pub registry: MetricsRegistry,
    /// Abort root-cause tally, `(label, count)` in the normative cause
    /// order; counts sum to `aborted`.
    pub abort_causes: Vec<(String, u64)>,
    /// Host statistics with the observability tax, per-shard SLO health
    /// over logical-transaction latency (each txn tracked against its
    /// primary key's shard; violations from the audit), series, the audit
    /// report and, on traced arms, the trace (txn phase spans, op tags,
    /// transport events and the sampled `txn.*` counter tracks).
    pub arm: ArmOutput,
}

impl TxnMixResult {
    /// Committed transactions per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.committed as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }

    /// Aborts per commit (the contention signature).
    pub fn abort_ratio(&self) -> f64 {
        self.aborted as f64 / self.committed.max(1) as f64
    }
}

/// One logical transaction drawn from the workload mix, retried across
/// aborts until it commits.
#[derive(Debug, Clone)]
enum MixOp {
    /// Read-only txn (the F read half).
    Read(u64),
    /// Workload-F RMW: read the key, write back a derived value.
    Rmw(u64, Vec<u8>),
    /// Two-account transfer (conserves the balance sum).
    Transfer(u64, u64, u64),
}

fn balance(v: Option<Vec<u8>>) -> i64 {
    v.map(|b| i64::from_le_bytes(b[..8].try_into().expect("8-byte balance")))
        .unwrap_or(0)
}

/// Builds and submits one transaction for `op`; returns the txn id.
fn submit(kv: &mut ShardedKv<hyperloop::GroupClient>, op: &MixOp, f_base: u64) -> u64 {
    let mut t: KvTxn = kv.txn();
    match op {
        MixOp::Read(key) => {
            kv.txn_get(&mut t, f_base + key);
        }
        MixOp::Rmw(key, value) => {
            kv.txn_get(&mut t, f_base + key);
            kv.txn_put(&mut t, f_base + key, value.clone())
                .expect("geometry");
        }
        MixOp::Transfer(from, to, amount) => {
            let bf = balance(kv.txn_get(&mut t, *from));
            let bt = balance(kv.txn_get(&mut t, *to));
            kv.txn_put(&mut t, *from, (bf - *amount as i64).to_le_bytes().to_vec())
                .expect("geometry");
            kv.txn_put(&mut t, *to, (bt + *amount as i64).to_le_bytes().to_vec())
                .expect("geometry");
        }
    }
    kv.txn_commit(t)
}

/// The shard a logical transaction is tracked against for SLO health:
/// the routed shard of its primary (first-read) key.
fn primary_shard(kv: &ShardedKv<hyperloop::GroupClient>, op: &MixOp, f_base: u64) -> u32 {
    match op {
        MixOp::Read(k) | MixOp::Rmw(k, _) => kv.route(f_base + k).0,
        MixOp::Transfer(from, _, _) => kv.route(*from).0,
    }
}

/// Distinct shards `op` touches.
fn span_of(kv: &ShardedKv<hyperloop::GroupClient>, op: &MixOp, f_base: u64) -> u64 {
    match op {
        MixOp::Read(k) | MixOp::Rmw(k, _) => {
            let _ = kv.route(f_base + k);
            1
        }
        MixOp::Transfer(from, to, _) => {
            if kv.route(*from) == kv.route(*to) {
                1
            } else {
                2
            }
        }
    }
}

/// The taps of a txnmix arm: the audit is always on; tracing keeps a
/// fixed ring and samples the `txn.*` counters.
fn taps(opts: &TxnMixOpts) -> Taps {
    Taps {
        audit: true,
        trace: opts.trace.then_some(1 << 18),
        counters: &["txn."],
    }
}

/// Runs one arm with the audit (and, when asked, trace) taps on, then
/// re-runs it bare to measure the observability tax (see
/// `arm::measure`).
///
/// # Panics
///
/// Panics on data-path errors, a stalled run, a livelocked transaction, or
/// a conservation failure.
pub fn run_txnmix(mode: CommitMode, opts: TxnMixOpts) -> TxnMixResult {
    arm::measure(
        taps(&opts),
        |arm| txnmix_arm(mode, opts, arm),
        |r| &mut r.arm,
    )
}

/// One metered arm. Per-shard SLO health (observer-only) tracks each
/// logical transaction against its primary key's shard.
fn txnmix_arm(mode: CommitMode, opts: TxnMixOpts, mut arm: Arm) -> TxnMixResult {
    let client = NodeId(0);
    let nodes = 1 + opts.shards * opts.replicas_per_shard;
    let mut cluster = Cluster::new(
        nodes,
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
    let chains = cluster.place_shards(&placement, opts.shards, client);
    cluster.set_tracer(arm.tracer.clone());

    let groups: Vec<HyperLoopGroup> = cluster.setup_fabric(|ctx| {
        chains
            .iter()
            .enumerate()
            .map(|(i, chain)| {
                let cfg = GroupConfig {
                    shared_size: 4 << 20,
                    meta_slots: 64,
                    prepost_depth: 128,
                    window: 16,
                    first_gen: op_id_base(i as u32, 0),
                };
                HyperLoopGroup::setup(ctx, client, chain, cfg)
            })
            .collect()
    });
    let (clients, mut replicas): (Vec<_>, Vec<Vec<ReplicaHandle>>) =
        groups.into_iter().map(|g| (g.client, g.replicas)).unzip();
    let stores: Vec<ReplicatedKv<hyperloop::GroupClient>> = clients
        .into_iter()
        .map(|mut c| {
            c.set_tracer(arm.tracer.clone());
            ReplicatedKv::new(c, KvConfig::default())
        })
        .collect();
    let mut kv = ShardedKv::with_hash_router(stores);
    kv.enable_txns(mode, opts.seed ^ 0x7);
    kv.set_txn_audit(arm.audit.clone());
    // The txn manager shares the cluster tracer: phase spans and op tags
    // land in the same buffer as the transport events (and feed the
    // phase-pairing auditor even when the buffer itself is disabled).
    kv.set_txn_tracer(arm.tracer.clone());

    let mut sim = cluster.into_sim();
    sim.run(); // drain group wiring
    arm.probe_windows(sim.now(), opts.shards, 16);

    // The offered load: alternate workload-F ops (reads + RMWs on a
    // keyspace above the accounts) and two-key transfers (on the account
    // keyspace, where conservation is checked).
    let f_base = opts.records;
    let mut fgen = Generator::with_theta(Workload::F, opts.records, opts.seed ^ 0xF0, opts.theta);
    let mut tgen = Generator::with_theta(
        Workload::Transfer,
        opts.records,
        opts.seed ^ 0x71,
        opts.theta,
    );
    let mut drawn = 0u64;
    let mut next_op = |fgen: &mut Generator, tgen: &mut Generator| -> MixOp {
        drawn += 1;
        if drawn.is_multiple_of(2) {
            match fgen.next_op() {
                Operation::Read { key } => MixOp::Read(key),
                Operation::ReadModifyWrite { key, value } => MixOp::Rmw(key, value),
                other => MixOp::Read(other.key()),
            }
        } else {
            loop {
                if let Operation::Transfer { from, to, amount } = tgen.next_op() {
                    return MixOp::Transfer(from, to, amount);
                }
            }
        }
    };

    let mut outstanding: HashMap<u64, (MixOp, SimTime, u32)> = HashMap::new();
    let mut hist = Histogram::new();
    let mut committed = 0u64;
    let mut span_sum = 0u64;
    let mut submitted = 0u64;
    let mut last_completed = vec![0u64; opts.shards as usize];
    let started = sim.now();
    let mut idle_ticks = 0u32;
    while committed < opts.txns {
        // Fill the concurrency window with fresh logical transactions.
        while outstanding.len() < opts.concurrency && submitted < opts.txns {
            let op = next_op(&mut fgen, &mut tgen);
            let shard = primary_shard(&kv, &op, f_base);
            let id = submit(&mut kv, &op, f_base);
            outstanding.insert(id, (op, sim.now(), 0));
            arm.health.record_issue(sim.now(), shard);
            submitted += 1;
        }
        sim.run();
        let done = drive(&mut sim, |ctx| {
            kv.poll(ctx);
            kv.pump_txns(ctx)
        });
        // Host-side sampling of the txn counters into Perfetto counter
        // tracks — never touches the simulated timeline.
        arm.sample(sim.now(), |reg| kv.txn_manager().export_into(reg, "txn"));
        if done.is_empty() {
            idle_ticks += 1;
            assert!(
                idle_ticks < 10_000,
                "txnmix stalled at {committed}/{} with {} outstanding",
                opts.txns,
                outstanding.len()
            );
        } else {
            idle_ticks = 0;
        }
        for (id, outcome) in done {
            let (op, t0, attempts) = outstanding.remove(&id).expect("unknown txn completed");
            match outcome {
                TxnOutcome::Committed => {
                    let lat = sim.now().since(t0);
                    hist.record(lat);
                    arm.health
                        .record_ack(sim.now(), primary_shard(&kv, &op, f_base), lat);
                    span_sum += span_of(&kv, &op, f_base);
                    committed += 1;
                }
                TxnOutcome::Aborted => {
                    assert!(
                        attempts < 256,
                        "logical op livelocked after {attempts} aborts: {op:?}"
                    );
                    // Retry with fresh reads (and fresh versions).
                    let id = submit(&mut kv, &op, f_base);
                    outstanding.insert(id, (op, t0, attempts + 1));
                }
            }
        }
        arm.health.tick(sim.now());
        // Keep every chain's pre-posted descriptor runway topped up.
        drive(&mut sim, |ctx| {
            for s in 0..opts.shards as usize {
                let now_done = kv.shard(ShardId(s as u32)).transport.completed();
                let delta = now_done - last_completed[s];
                if delta > 0 {
                    last_completed[s] = now_done;
                    for r in replicas[s].iter_mut() {
                        r.replenish(ctx, delta as u32);
                    }
                }
            }
        });
    }
    let elapsed = sim.now().since(started);
    assert_eq!(sim.model.fab.stats().errors, 0, "data-path errors");

    // Conservation: transfers move value between accounts; the account
    // keyspace must sum to zero or a transaction lost (or forged) money.
    let total: i64 = (0..opts.records)
        .map(|k| balance(kv.get(k).map(|v| v.to_vec())))
        .sum();
    assert_eq!(total, 0, "transfers did not conserve value: sum {total}");

    let mgr = kv.txn_manager();
    let mut registry = MetricsRegistry::new();
    sim.model.export_into(&mut registry, "cluster");
    mgr.export_into(&mut registry, "txn");
    registry.merge_histogram("bench.txn_latency", &hist);
    registry.set_gauge("bench.elapsed_secs", elapsed.as_secs_f64());
    arm.audit.export_into(&mut registry, "audit");
    arm.health.export_into(&mut registry, "health");

    TxnMixResult {
        mode,
        latency: hist.summary(),
        elapsed,
        committed,
        aborted: mgr.aborted,
        lock_retries: mgr.lock_retries,
        mean_span: span_sum as f64 / committed.max(1) as f64,
        registry,
        abort_causes: mgr
            .abort_cause_counts()
            .iter()
            .map(|&(label, n)| (label.to_string(), n))
            .collect(),
        arm: arm.finish(committed, &sim),
    }
}

/// The contention skews of the sweep.
pub const THETAS: [f64; 3] = [0.5, 0.9, 0.99];

/// Transaction-mix sweep: both commit paths across contention levels.
pub fn txnmix(rep: &mut Report, quick: bool) {
    rep.banner(
        "Transaction mix: multi-key commit/abort throughput vs contention (4 shards, audit on)",
    );
    rep.line(format!(
        "{:<12} {:<7} {:>10} {:>9} {:>9} {:>12} {:>10} {:>10} {:>6}",
        "mode", "theta", "Ktxn/s", "commits", "aborts", "lock_retry", "mean", "p99", "span"
    ));
    for mode in [CommitMode::Locking, CommitMode::Optimistic] {
        for theta in THETAS {
            let opts = TxnMixOpts {
                txns: if quick { 192 } else { 512 },
                theta,
                trace: rep.profile_enabled(),
                ..TxnMixOpts::default()
            };
            let r = run_txnmix(mode, opts);
            assert_eq!(
                r.arm.health.violations, 0,
                "txn audit violations:\n{}",
                r.arm.audit_json
            );
            let label = match mode {
                CommitMode::Locking => "locking",
                CommitMode::Optimistic => "optimistic",
            };
            rep.line(format!(
                "{:<12} {:<7} {:>10.1} {:>9} {:>9} {:>12} {:>10} {:>10} {:>6.2}",
                label,
                theta,
                r.ops_per_sec() / 1e3,
                r.committed,
                r.aborted,
                r.lock_retries,
                us(r.latency.mean),
                us(r.latency.p99),
                r.mean_span,
            ));
            let name = format!("txnmix/{label}/theta{theta}");
            let mut sc = Scenario::new(name.clone())
                .system("HyperLoop")
                .seed(opts.seed)
                .config("mode", label)
                .config("shards", opts.shards)
                .config("replicas_per_shard", opts.replicas_per_shard)
                .config("theta", theta)
                .config("txns", opts.txns)
                .config("concurrency", opts.concurrency)
                .config("records", opts.records)
                .latency(&r.latency)
                .gauge("ops_per_sec", r.ops_per_sec())
                .gauge("abort_ratio", r.abort_ratio())
                .gauge("lock_retries", r.lock_retries as f64)
                .gauge("mean_span", r.mean_span)
                .arm(&r.arm)
                .metrics(r.registry.clone())
                .abort_causes(r.abort_causes.clone());
            if let Some(tr) = &r.arm.trace {
                sc = sc.txn_breakdown(TxnAttribution::from_events(&tr.events));
            }
            rep.scenario(sc);
            r.arm.write_artifacts(
                rep,
                &name,
                &[
                    Artifact::Tail,
                    Artifact::Audit,
                    Artifact::TxnTrace,
                    Artifact::TxnFolded,
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::simprof::{txn_chrome_trace_with_counters, txn_folded_stacks};

    /// One observed arm, without the bare re-run.
    fn observed(mode: CommitMode, opts: TxnMixOpts) -> TxnMixResult {
        txnmix_arm(mode, opts, Arm::new(taps(&opts)))
    }

    fn quick_opts(theta: f64) -> TxnMixOpts {
        TxnMixOpts {
            txns: 96,
            theta,
            ..TxnMixOpts::default()
        }
    }

    #[test]
    fn both_commit_paths_run_clean_on_four_shards() {
        for mode in [CommitMode::Locking, CommitMode::Optimistic] {
            let r = run_txnmix(mode, quick_opts(0.9));
            assert_eq!(r.committed, 96);
            assert_eq!(
                r.arm.health.violations, 0,
                "{mode:?} violations:\n{}",
                r.arm.audit_json
            );
            // Counter sanity: aborts and commits are both bounded by
            // commit attempts.
            let started = r.registry.counter("txn.started").unwrap();
            assert!(r.committed <= started);
            assert!(r.aborted <= started);
            assert!((1.0..=2.0).contains(&r.mean_span), "span {}", r.mean_span);
        }
    }

    #[test]
    fn contention_drives_retries_or_aborts() {
        // High skew must produce more conflict work than low skew on at
        // least one of the two conflict channels.
        let lo = run_txnmix(CommitMode::Locking, quick_opts(0.5));
        let hi = run_txnmix(CommitMode::Locking, quick_opts(0.99));
        assert!(
            hi.lock_retries + hi.aborted >= lo.lock_retries + lo.aborted,
            "contention knob inert: hi {}+{} vs lo {}+{}",
            hi.lock_retries,
            hi.aborted,
            lo.lock_retries,
            lo.aborted
        );
    }

    /// Regression: the optimistic path once corrected the client version
    /// cache from in-flight validation acks, so a transaction submitted
    /// while a conflicting commit was between its version bump and its
    /// client-side install paired a *fresh* version with a *stale* read —
    /// and the torn pair validated cleanly, committing a lost update.
    /// Only high contention at full scale opens the window; conservation
    /// (checked inside the run) catches the lost debit.
    #[test]
    fn optimistic_high_contention_conserves_value() {
        let opts = TxnMixOpts {
            txns: 512,
            theta: 0.99,
            ..TxnMixOpts::default()
        };
        let r = observed(CommitMode::Optimistic, opts);
        assert_eq!(r.committed, 512);
        assert_eq!(r.arm.health.violations, 0, "{}", r.arm.audit_json);
    }

    #[test]
    fn txn_breakdown_tiles_commit_latency_in_both_modes() {
        for mode in [CommitMode::Locking, CommitMode::Optimistic] {
            let opts = TxnMixOpts {
                trace: true,
                ..quick_opts(0.9)
            };
            let r = observed(mode, opts);
            let att = TxnAttribution::from_events(&r.arm.trace.expect("traced").events);
            assert!(att.txns > 0, "{mode:?}: no complete txns folded");
            assert_eq!(att.truncated, 0, "{mode:?}: unpaired phase spans");
            assert!(att.linked_ops > 0, "{mode:?}: no parent-tagged ops");
            let diff = (att.mean_e2e_ns() - att.phase_mean_sum_ns()).abs();
            assert!(
                diff <= 1.0,
                "{mode:?}: phase means must tile mean commit latency (off {diff} ns)"
            );
        }
    }

    #[test]
    fn tracing_is_observer_only() {
        let base = observed(CommitMode::Locking, quick_opts(0.9));
        let traced = observed(
            CommitMode::Locking,
            TxnMixOpts {
                trace: true,
                ..quick_opts(0.9)
            },
        );
        assert_eq!(base.latency.p99, traced.latency.p99);
        assert_eq!(base.committed, traced.committed);
        assert_eq!(base.aborted, traced.aborted);
        assert_eq!(base.abort_causes, traced.abort_causes);
        assert_eq!(
            base.arm.audit_json, traced.arm.audit_json,
            "tracing must not perturb the timeline"
        );
        // Health and the windowed series are trace-independent.
        assert_eq!(base.arm.health, traced.arm.health);
        assert_eq!(base.arm.series, traced.arm.series);
        assert_eq!(base.arm.series.to_json(), traced.arm.series.to_json());
    }

    #[test]
    fn traced_artifacts_are_byte_identical_for_same_seed() {
        let opts = TxnMixOpts {
            trace: true,
            ..quick_opts(0.9)
        };
        let a = observed(CommitMode::Locking, opts)
            .arm
            .trace
            .expect("traced");
        let b = observed(CommitMode::Locking, opts)
            .arm
            .trace
            .expect("traced");
        assert_eq!(
            txn_chrome_trace_with_counters(&a.events, &a.samples),
            txn_chrome_trace_with_counters(&b.events, &b.samples),
            "txn chrome trace must be deterministic"
        );
        assert_eq!(
            txn_folded_stacks(&a.events),
            txn_folded_stacks(&b.events),
            "folded txn stacks must be deterministic"
        );
        assert!(!a.samples.is_empty(), "counter tracks must be sampled");
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn abort_causes_sum_to_aborted_in_both_modes() {
        for mode in [CommitMode::Locking, CommitMode::Optimistic] {
            let r = run_txnmix(mode, quick_opts(0.99));
            let total: u64 = r.abort_causes.iter().map(|(_, n)| n).sum();
            assert_eq!(
                total, r.aborted,
                "{mode:?}: causes {:?} must sum to aborted {}",
                r.abort_causes, r.aborted
            );
        }
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let a = run_txnmix(CommitMode::Optimistic, quick_opts(0.9));
        let b = run_txnmix(CommitMode::Optimistic, quick_opts(0.9));
        assert_eq!(
            a.arm.audit_json, b.arm.audit_json,
            "audit JSON must be deterministic"
        );
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.aborted, b.aborted);
        assert_eq!(a.latency.p99, b.latency.p99);
    }
}
