//! The traced run's wall-time ledger, recorded entirely from outside the
//! simulator: the benchmark owns the event loop (`peek_time`/`pop` plus
//! `Model::handle`) and buckets each event's handling time by its
//! `ClusterEvent`/`NicEvent` variant; the benchmark's own client app and
//! loop add the spans they open around public calls (transport issue/poll,
//! health taps, transaction submit/pump/replenish).
//!
//! Spans nest in one place only: the client app runs inside
//! `ClusterEvent::TaskDone`, so the host-app bucket's self time is its
//! total minus the spans opened inside it ([`Ledger::nested_in_app`]).

use simcore::SimTime;
use std::cell::Cell;
use std::time::Instant;
use testbed::{Cluster, ClusterEvent};

/// One row of the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    /// `EventQueue::peek_time` + `pop`.
    Queue,
    /// `NicEvent::EngineRun`: the rnicsim send-queue engine (NVM writes
    /// and flushes run inside it).
    Engine,
    /// `NicEvent::Deliver`: netsim wire delivery into the receiving NIC.
    Deliver,
    /// `ClusterEvent::Cpu`, `TimerDue` and `HostNotify`: the cpusched
    /// scheduler, including the wake that a NIC notification submits.
    Cpu,
    /// `ClusterEvent::TaskDone` (self time): host-app handlers dispatched
    /// by testbed — replica forwarding, maintainers, the benchmark's
    /// client app.
    App,
    /// `ClusterEvent::Start`.
    Start,
    /// `GroupTransport::issue`, timed in the benchmark's client app.
    ClientIssue,
    /// `GroupTransport::poll_into`, timed in the benchmark's client app.
    ClientPoll,
    /// `HealthMonitor` record calls made by the client app inside a handler.
    AppHealth,
    /// `HealthMonitor` calls made from the benchmark loop (ticks, and the
    /// transaction workload's records).
    Health,
    /// Transaction construction: `txn`/`txn_get`/`txn_put`/`txn_commit`.
    TxnSubmit,
    /// `ShardedKv::poll` + `pump_txns`.
    TxnPump,
    /// `ReplicaHandle::replenish` of the pre-posted descriptor runway.
    TxnReplenish,
}

const BUCKETS: usize = 13;

/// Accumulated wall time and span count per [`Bucket`]. Shared (`Rc`)
/// between the benchmark loop and the client app inside the cluster.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    ns: [Cell<u64>; BUCKETS],
    count: [Cell<u64>; BUCKETS],
}

impl Ledger {
    /// Adds one span of `ns` nanoseconds to `b`.
    pub fn add(&self, b: Bucket, ns: u64) {
        let i = b as usize;
        self.ns[i].set(self.ns[i].get() + ns);
        self.count[i].set(self.count[i].get() + 1);
    }

    /// Adds the time since `t0` to `b` and returns the current instant.
    pub fn lap(&self, b: Bucket, t0: Instant) -> Instant {
        let t1 = Instant::now();
        self.add(b, (t1 - t0).as_nanos() as u64);
        t1
    }

    /// Total nanoseconds recorded under `b`.
    pub fn ns(&self, b: Bucket) -> u64 {
        self.ns[b as usize].get()
    }

    /// Spans recorded under `b`.
    pub fn count(&self, b: Bucket) -> u64 {
        self.count[b as usize].get()
    }

    /// Client-side spans that run inside a `TaskDone` handler, to be taken
    /// out of [`Bucket::App`]'s total to get its self time.
    pub fn nested_in_app(&self) -> u64 {
        self.ns(Bucket::ClientIssue) + self.ns(Bucket::ClientPoll) + self.ns(Bucket::AppHealth)
    }

    /// Sum of every bucket's self time: the nested client spans are already
    /// inside [`Bucket::App`]'s total, so they are counted once.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().map(Cell::get).sum::<u64>() - self.nested_in_app()
    }
}

fn bucket_of(ev: &ClusterEvent) -> Bucket {
    match ev {
        ClusterEvent::Nic(rnicsim::NicEvent::EngineRun { .. }) => Bucket::Engine,
        ClusterEvent::Nic(rnicsim::NicEvent::Deliver { .. }) => Bucket::Deliver,
        ClusterEvent::Cpu { .. }
        | ClusterEvent::TimerDue { .. }
        | ClusterEvent::HostNotify { .. } => Bucket::Cpu,
        ClusterEvent::TaskDone { .. } => Bucket::App,
        ClusterEvent::Start => Bucket::Start,
    }
}

/// `Simulation::run_until` with every event's handling time charged to its
/// bucket. Dispatches exactly the events `run_until` would, in the same
/// order, so the simulated timeline is unchanged.
pub fn run_until_traced(
    sim: &mut simcore::Simulation<Cluster>,
    deadline: SimTime,
    led: &Ledger,
) -> u64 {
    use simcore::Model;
    let mut steps = 0;
    let mut t = Instant::now();
    loop {
        match sim.queue.peek_time() {
            Some(at) if at <= deadline => {}
            _ => break,
        }
        let (now, ev) = sim.queue.pop().expect("peeked event vanished");
        t = led.lap(Bucket::Queue, t);
        let b = bucket_of(&ev);
        sim.model.handle(now, ev, &mut sim.queue);
        t = led.lap(b, t);
        steps += 1;
    }
    led.lap(Bucket::Queue, t);
    steps
}
