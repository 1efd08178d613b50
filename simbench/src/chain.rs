//! The two replicated-write workloads: one 3-replica chain driven by the
//! benchmark's own closed-loop client app.
//!
//! - `gwrite_durable`: HyperLoop group primitives (NIC-offloaded chain,
//!   replica CPUs off the data path), durable 1 KB gWRITE + gFLUSH,
//!   unloaded replicas, window 16, no think time.
//! - `naive_colocated`: the Naïve-Event chain (replica CPUs forward every
//!   hop), 96 bursty background tenants per replica node, window 1 with a
//!   300 µs think time — the paper's co-location setting.

use crate::ledger::{run_until_traced, Bucket, Ledger};
use crate::{Phases, Workload};
use baseline::{NaiveChain, NaiveConfig, NaiveReplica};
use cpusched::{HogProfile, ProcKind, SchedConfig};
use hyperloop::apps::install_group_maintenance;
use hyperloop::{GroupAck, GroupConfig, GroupError, GroupOp, GroupTransport, HyperLoopGroup};
use netsim::NodeId;
use rnicsim::Payload;
use simcore::{
    HealthMonitor, Histogram, MetricsRegistry, SimDuration, SimRng, SimTime, Simulation, SloConfig,
};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;
use testbed::{Cluster, ClusterConfig, Env, HostApp, HostEvent, ProcRef};

/// Bytes per gWRITE.
const WRITE_BYTES: usize = 1024;
/// Distinct write slots; the data check compares each slot's last write.
const SLOTS: u64 = 64;
const SLOT_STRIDE: u64 = 8192;
/// The client's first issue waits for this timer, so the boot drain (every
/// event before it) is a fixed, separately timed part of setup.
const BOOT: SimDuration = SimDuration::from_micros(50);
/// Health-monitor tick cadence, as in the micro runners.
const TICK: SimDuration = SimDuration::from_millis(20);
/// A chain that acks nothing for this long has stalled.
const STALL: SimDuration = SimDuration::from_secs(2);

/// Which chain runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// HyperLoop durable gWRITE on unloaded replicas.
    HyperLoop,
    /// Naïve-Event chain on replicas shared with background tenants.
    NaiveColocated,
}

/// State the client app shares with the benchmark loop.
struct Shared {
    issued: Cell<u64>,
    completed: Cell<u64>,
    /// Issue errors other than a full window (never expected).
    issue_errors: Cell<u64>,
    /// Set once measurement ends: drain what is in flight, issue nothing.
    stop: Cell<bool>,
    /// Issue→ack latency of every op, in sim time.
    hist: RefCell<Histogram>,
    /// Fill byte of the last write issued to each slot.
    last_fill: RefCell<Vec<Option<u8>>>,
    /// Present in traced runs: the client's spans land here.
    ledger: Option<Rc<Ledger>>,
}

/// The benchmark's closed-loop client: keeps `window` ops in flight,
/// waiting `pace` after each ack before the next issue when `pace > 0`.
struct Client<T> {
    transport: T,
    window: u32,
    pace: SimDuration,
    rng: SimRng,
    sent_at: std::collections::HashMap<u64, SimTime>,
    acks: Vec<GroupAck>,
    health: HealthMonitor,
    shared: Rc<Shared>,
}

impl<T: GroupTransport> Client<T> {
    /// The next write of the seeded plan: `(slot, fill byte, op)`.
    fn next_op(&mut self) -> (u64, u8, GroupOp) {
        let r = self.rng.next_u64();
        let slot = r % SLOTS;
        let fill = (r >> 32) as u8;
        let op = GroupOp::Write {
            offset: slot * SLOT_STRIDE,
            data: Payload::filled(fill, WRITE_BYTES),
            flush: true,
        };
        (slot, fill, op)
    }

    fn fill(&mut self, env: &mut Env<'_>) {
        let s = Rc::clone(&self.shared);
        while !s.stop.get() && s.issued.get() - s.completed.get() < self.window as u64 {
            let (slot, fill, op) = self.next_op();
            let t0 = s.ledger.as_ref().map(|_| Instant::now());
            let r = env.with_fabric(|ctx| self.transport.issue(ctx, op));
            if let (Some(l), Some(t0)) = (&s.ledger, t0) {
                l.lap(Bucket::ClientIssue, t0);
            }
            let gen = match r {
                Ok(g) => g,
                Err(GroupError::WindowFull) => break,
                Err(GroupError::OutOfRange) => {
                    s.issue_errors.set(s.issue_errors.get() + 1);
                    break;
                }
            };
            let now = env.now();
            self.sent_at.insert(gen, now);
            s.last_fill.borrow_mut()[slot as usize] = Some(fill);
            let t0 = s.ledger.as_ref().map(|_| Instant::now());
            self.health.record_issue(now, 0);
            if let (Some(l), Some(t0)) = (&s.ledger, t0) {
                l.lap(Bucket::AppHealth, t0);
            }
            s.issued.set(s.issued.get() + 1);
            if !self.pace.is_zero() {
                break;
            }
        }
    }
}

impl<T: GroupTransport + 'static> HostApp for Client<T> {
    fn on_event(&mut self, env: &mut Env<'_>, event: HostEvent) {
        let s = Rc::clone(&self.shared);
        match event {
            HostEvent::Start => env.set_timer(BOOT, 0),
            HostEvent::Timer(_) => self.fill(env),
            HostEvent::CqReady(_) => {
                let mut acks = std::mem::take(&mut self.acks);
                let t0 = s.ledger.as_ref().map(|_| Instant::now());
                env.with_fabric(|ctx| self.transport.poll_into(ctx, &mut acks));
                if let (Some(l), Some(t0)) = (&s.ledger, t0) {
                    l.lap(Bucket::ClientPoll, t0);
                }
                let now = env.now();
                for ack in acks.drain(..) {
                    if let Some(sent) = self.sent_at.remove(&ack.gen) {
                        s.completed.set(s.completed.get() + 1);
                        s.hist.borrow_mut().record(now.since(sent));
                        let t0 = s.ledger.as_ref().map(|_| Instant::now());
                        self.health.record_ack(now, 0, now.since(sent));
                        if let (Some(l), Some(t0)) = (&s.ledger, t0) {
                            l.lap(Bucket::AppHealth, t0);
                        }
                    }
                }
                self.acks = acks;
                if self.pace.is_zero() {
                    self.fill(env);
                } else if !s.stop.get() {
                    env.set_timer(self.pace, 0);
                }
            }
            HostEvent::WorkDone(_) => {}
        }
    }
}

/// What the end-of-run data check reads.
enum Replicas {
    /// HyperLoop: replica nodes and the shared region's base address.
    HyperLoop(Vec<NodeId>, u64),
    /// Naïve: the replica processes, whose handled-op counts must match.
    Naive(Vec<ProcRef>),
}

/// A built chain workload.
pub struct Chain {
    sim: Simulation<Cluster>,
    shared: Rc<Shared>,
    health: HealthMonitor,
    replicas: Replicas,
    /// Sim time between the benchmark's progress checks: a few ops' worth.
    slice: SimDuration,
    deadline: SimTime,
    next_tick: SimTime,
    last_progress: (u64, SimTime),
    ledger: Option<Rc<Ledger>>,
    failures: Vec<(&'static str, u64)>,
}

fn replica_nodes() -> Vec<NodeId> {
    (1..=3).map(NodeId).collect()
}

impl Chain {
    /// Builds the workload, timing each setup phase into `phases`.
    pub fn build(kind: Kind, seed: u64, ledger: Option<Rc<Ledger>>, phases: &mut Phases) -> Chain {
        let t0 = Instant::now();
        // The micro runners' scheduler: a 6 ms effective slice, what CFS
        // converges to with hundreds of processes.
        let sched = SchedConfig {
            time_slice: SimDuration::from_millis(6),
            ..SchedConfig::default()
        };
        let mut cluster = Cluster::new(
            4,
            16,
            256 << 20,
            ClusterConfig {
                seed,
                sched,
                ..ClusterConfig::default()
            },
        );
        if kind == Kind::NaiveColocated {
            let hogs = HogProfile {
                busy_mean: SimDuration::from_millis(25),
                idle_mean: SimDuration::from_millis(150),
            };
            for rn in replica_nodes() {
                cluster.add_background_load(rn, 96, hogs);
            }
        }
        let t1 = Instant::now();

        let client = NodeId(0);
        let health = HealthMonitor::new(SloConfig::default());
        let shared = Rc::new(Shared {
            issued: Cell::new(0),
            completed: Cell::new(0),
            issue_errors: Cell::new(0),
            stop: Cell::new(false),
            hist: RefCell::new(Histogram::new()),
            last_fill: RefCell::new(vec![None; SLOTS as usize]),
            ledger: ledger.clone(),
        });
        let rng = SimRng::new(seed ^ 0x5157_0B5E);
        let (slice, replicas) = match kind {
            Kind::HyperLoop => {
                let group = cluster.setup_fabric(|ctx| {
                    HyperLoopGroup::setup(
                        ctx,
                        client,
                        &replica_nodes(),
                        GroupConfig {
                            shared_size: 4 << 20,
                            meta_slots: 64,
                            prepost_depth: 768,
                            window: 16,
                            first_gen: 0,
                        },
                    )
                });
                let base = group.client.layout().shared_base;
                install_group_maintenance(
                    &mut cluster,
                    group.replicas,
                    SimDuration::from_nanos(400),
                );
                let ack_cq = group.client.ack_cq();
                let app = closed_loop(group.client, 16, SimDuration::ZERO, rng, &health, &shared);
                let p = cluster.add_app(client, ProcKind::Polling, Box::new(app));
                cluster.bind_cq(p, client, ack_cq, SimDuration::from_nanos(300));
                (
                    SimDuration::from_micros(20),
                    Replicas::HyperLoop(replica_nodes(), base),
                )
            }
            Kind::NaiveColocated => {
                let chain = NaiveChain::setup(
                    &mut cluster,
                    client,
                    &replica_nodes(),
                    NaiveConfig {
                        window: 1,
                        prepost_depth: 768,
                        cmd_slots: 64,
                        replica_kind: ProcKind::EventDriven,
                        ..NaiveConfig::default()
                    },
                );
                let ack_cq = chain.client.ack_cq();
                let pace = SimDuration::from_micros(300);
                let app = closed_loop(chain.client, 1, pace, rng, &health, &shared);
                let p = cluster.add_app(client, ProcKind::Polling, Box::new(app));
                cluster.bind_cq(p, client, ack_cq, SimDuration::from_nanos(300));
                (
                    SimDuration::from_micros(500),
                    Replicas::Naive(chain.replica_procs),
                )
            }
        };
        let t2 = Instant::now();

        let mut sim = cluster.into_sim();
        let boot_end = SimTime::ZERO + BOOT - SimDuration::from_nanos(1);
        sim.run_until(boot_end);
        let t3 = Instant::now();
        phases.add(t1 - t0, t2 - t1, t3 - t2);

        Chain {
            sim,
            shared,
            health,
            replicas,
            slice,
            deadline: boot_end,
            next_tick: SimTime::ZERO + TICK,
            last_progress: (0, boot_end),
            ledger,
            failures: Vec::new(),
        }
    }

    /// Runs sim slices while `more` holds, unless the chain stalls.
    fn run_while(&mut self, mut more: impl FnMut(&Shared) -> bool) {
        while more(&self.shared) {
            self.deadline += self.slice;
            match &self.ledger {
                Some(l) => run_until_traced(&mut self.sim, self.deadline, l),
                None => self.sim.run_until(self.deadline),
            };
            if self.deadline >= self.next_tick {
                let t0 = Instant::now();
                self.health.tick(self.sim.now());
                if let Some(l) = &self.ledger {
                    l.lap(Bucket::Health, t0);
                }
                self.next_tick += TICK;
            }
            let done = self.shared.completed.get();
            if done > self.last_progress.0 {
                self.last_progress = (done, self.deadline);
            } else if self.deadline.since(self.last_progress.1) > STALL {
                self.failures.push(("stall", 1));
                return;
            }
        }
    }
}

fn closed_loop<T: GroupTransport>(
    transport: T,
    window: u32,
    pace: SimDuration,
    rng: SimRng,
    health: &HealthMonitor,
    shared: &Rc<Shared>,
) -> Client<T> {
    Client {
        transport,
        window,
        pace,
        rng,
        sent_at: std::collections::HashMap::new(),
        acks: Vec::new(),
        health: health.clone(),
        shared: Rc::clone(shared),
    }
}

impl Workload for Chain {
    fn advance(&mut self, target: u64) -> bool {
        self.run_while(|s| s.completed.get() < target);
        self.failures.is_empty()
    }

    fn completed(&self) -> u64 {
        self.shared.completed.get()
    }

    fn counters(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        self.sim.model.export_into(&mut reg, "cluster");
        crate::export_queue(&self.sim.queue.stats(), &mut reg);
        reg
    }

    fn latency(&self) -> Histogram {
        self.shared.hist.borrow().clone()
    }

    fn sim_now(&self) -> SimTime {
        self.sim.now()
    }

    fn finish(&mut self) -> (u64, Vec<(&'static str, u64)>) {
        self.shared.stop.set(true);
        if self.failures.is_empty() {
            self.run_while(|s| s.completed.get() < s.issued.get());
        }
        let mut failures = std::mem::take(&mut self.failures);
        let attempted = self.shared.issued.get();
        let acked = self.shared.completed.get();
        failures.push(("unacked_ops", attempted - acked));
        failures.push(("issue_errors", self.shared.issue_errors.get()));
        failures.push(("fabric_errors", self.sim.model.fab.stats().errors));
        let wrong = match &self.replicas {
            Replicas::HyperLoop(nodes, base) => {
                let last = self.shared.last_fill.borrow();
                let mut wrong = 0;
                for &n in nodes {
                    for (slot, fill) in last.iter().enumerate() {
                        let Some(fill) = fill else { continue };
                        let at = base + slot as u64 * SLOT_STRIDE;
                        let bytes = self
                            .sim
                            .model
                            .fab
                            .mem(n)
                            .read_durable_vec(at, WRITE_BYTES as u64)
                            .expect("slot inside the shared region");
                        if bytes.iter().any(|b| b != fill) {
                            wrong += 1;
                        }
                    }
                }
                wrong
            }
            Replicas::Naive(procs) => procs
                .iter()
                .filter(|&&p| self.sim.model.app_mut::<NaiveReplica>(p).handled != acked)
                .count() as u64,
        };
        failures.push(("replica_data_mismatch", wrong));
        (attempted, failures)
    }
}
