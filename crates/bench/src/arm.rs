//! The bench arm lifecycle, in one place for every runner.
//!
//! An *arm* is one measured run of one configuration. Every runner drives
//! its arms through the same lifecycle, and this module owns all of it:
//!
//! 1. `Arm::new` starts the [`HostMeter`] and builds the tap set from
//!    `Taps`: the standard [`Audit`] (or a disabled one), the [`Tracer`]
//!    (with a ring buffer, or without), the [`HealthMonitor`] wired to that
//!    tracer, and a [`CounterSampler`] over the runner's registry prefixes
//!    on traced arms. The runner then builds its cluster, attaches the
//!    tracer where it wants events, and drives the load.
//! 2. `Arm::finish` stops the meter *before* any post-run analysis, so
//!    folds are never billed to the arm's wall clock; copies the audit's
//!    violation count into the health summary; and, on traced arms only,
//!    folds stage attribution and the tail profile from the trace ring.
//! 3. `measure` re-runs the arm bare (every tap off) iff any tap was on,
//!    and records the wall-clock difference as the observability tax.
//!    Health and series are observer-only and stay on in both runs.
//! 4. `ArmOutput::write_artifacts` writes the per-arm files the runner
//!    asks for, named `<KIND>_<scenario>` with `/` mapped to `_`.
//!
//! The runner keeps only its own setup, drive loop and registry, and
//! chooses which blocks and artifacts to attach.

use crate::report::Report;
use simcore::simaudit::{HealthSummary, Probe, SeriesSummary};
use simcore::simprof::{
    chrome_trace_with_counters, folded_stacks, txn_chrome_trace_with_counters, txn_folded_stacks,
    CounterSample, CounterSampler, StageAttribution,
};
use simcore::tailprof::TailProfile;
use simcore::{
    Audit, HealthMonitor, HostMeter, HostStats, MetricsRegistry, Model, SimDuration, SimTime,
    Simulation, SloConfig, TraceEvent, Tracer,
};
use testbed::Cluster;

/// The observation taps an arm runs with. The default is bare: no audit,
/// no trace ring, no counter tracks.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Taps {
    /// Feed the trace stream to the standard auditor set.
    pub(crate) audit: bool,
    /// Keep a trace ring of this many events.
    pub(crate) trace: Option<usize>,
    /// Registry prefixes sampled into counter tracks (traced arms only).
    pub(crate) counters: &'static [&'static str],
}

/// Trace-ring size for an arm issuing `ops` operations: about 96 events
/// per op across the NIC, wire and scheduler layers, so whole-span
/// eviction essentially never fires, bounded to keep memory sane.
pub(crate) fn ring_capacity(ops: u64) -> usize {
    ops.saturating_mul(96).clamp(1 << 16, 1 << 21) as usize
}

/// One arm in flight: the running host meter and the tap set.
#[derive(Debug)]
pub(crate) struct Arm {
    meter: HostMeter,
    traced: bool,
    sampler: Option<CounterSampler>,
    /// The audit tap (disabled unless `Taps::audit`).
    pub(crate) audit: Audit,
    /// The tracer to hand to the cluster and clients. It feeds the audit
    /// and, on traced arms, the ring buffer; otherwise it is a no-op.
    pub(crate) tracer: Tracer,
    /// Per-shard SLO health and windowed series, always on.
    pub(crate) health: HealthMonitor,
}

impl Arm {
    /// Starts the host meter and builds the tap set.
    pub(crate) fn new(taps: Taps) -> Arm {
        let meter = HostMeter::start();
        let audit = if taps.audit {
            Audit::standard()
        } else {
            Audit::disabled()
        };
        let tracer = match taps.trace {
            Some(capacity) => Tracer::enabled(capacity),
            None => Tracer::disabled(),
        }
        .with_audit(audit.clone());
        let health = HealthMonitor::new(SloConfig::default());
        health.set_tracer(tracer.clone());
        let sampler = (taps.trace.is_some() && !taps.counters.is_empty())
            .then(|| CounterSampler::with_prefixes(taps.counters));
        Arm {
            meter,
            traced: taps.trace.is_some(),
            sampler,
            audit,
            tracer,
            health,
        }
    }

    /// Teaches the flow-control auditor each shard's window before
    /// traffic starts.
    pub(crate) fn probe_windows(&self, now: SimTime, shards: u32, window: u32) {
        let window = u64::from(window);
        for shard in 0..shards {
            self.audit.probe(now, Probe::Window { shard, window });
        }
    }

    /// Samples the counter tracks at `now` from the registry `export`
    /// fills. A no-op (and `export` never runs) on arms without tracks.
    pub(crate) fn sample(&mut self, now: SimTime, export: impl FnOnce(&mut MetricsRegistry)) {
        if let Some(s) = self.sampler.as_mut() {
            let mut reg = MetricsRegistry::new();
            export(&mut reg);
            s.sample(now, &reg);
        }
    }

    /// Runs a cluster arm in `tick` steps until `done`: each step ticks
    /// health and samples the cluster counters.
    ///
    /// # Panics
    ///
    /// Panics if the run is not done by `cap`.
    pub(crate) fn run_cluster(
        &mut self,
        sim: &mut Simulation<Cluster>,
        tick: SimDuration,
        cap: SimTime,
        mut done: impl FnMut(&mut Cluster) -> bool,
    ) {
        loop {
            let next = sim.now() + tick;
            sim.run_until(next);
            self.health.tick(sim.now());
            self.sample(sim.now(), |reg| sim.model.export_into(reg, "cluster"));
            if done(&mut sim.model) {
                break;
            }
            assert!(sim.now() < cap, "run stalled at {:?}", sim.now());
        }
    }

    /// Ends the arm: stops the meter, then summarizes health (violations
    /// from the audit) and the series, and folds the trace on traced arms.
    /// `ops` is the operation count the host rates divide by.
    pub(crate) fn finish<M: Model>(self, ops: u64, sim: &Simulation<M>) -> ArmOutput {
        let host = self
            .meter
            .finish(ops, sim.now().since(SimTime::ZERO), sim.queue.stats());
        let mut health = self.health.summary();
        health.violations = self.audit.violation_count();
        let series = self.health.series();
        let audit_json = if self.audit.is_enabled() {
            self.audit.to_json()
        } else {
            String::new()
        };
        let trace = self.traced.then(|| {
            let events = self.tracer.events();
            let mut samples = self
                .sampler
                .map(|s| s.samples().to_vec())
                .unwrap_or_default();
            samples.extend(series.counter_samples());
            ArmTrace {
                attribution: StageAttribution::from_events(&events),
                tail: TailProfile::from_events(&events),
                events,
                samples,
            }
        });
        ArmOutput {
            host,
            health,
            series,
            audit_json,
            trace,
        }
    }
}

/// Runs an arm with `taps` and, iff any tap was on, once more bare; the
/// bare run's wall clock becomes the observed run's observability tax.
/// Both runs replay the same timeline (taps only read it), so the
/// difference is pure observation cost. `output` reaches the result's
/// [`ArmOutput`].
pub(crate) fn measure<R>(
    taps: Taps,
    mut run: impl FnMut(Arm) -> R,
    output: impl Fn(&mut R) -> &mut ArmOutput,
) -> R {
    let mut res = run(Arm::new(taps));
    if taps.audit || taps.trace.is_some() {
        let mut bare = run(Arm::new(Taps::default()));
        let bare_ns = output(&mut bare).host.wall_ns;
        let out = output(&mut res);
        out.host = out.host.clone().with_bare_wall_ns(bare_ns);
    }
    res
}

/// What an arm leaves behind besides the runner's own numbers.
#[derive(Debug, Clone)]
pub struct ArmOutput {
    /// Host-side (wall-clock) statistics, with the observability tax when
    /// `measure` re-ran the arm bare.
    pub host: HostStats,
    /// Health/SLO summary; `violations` is the audit's count.
    pub health: HealthSummary,
    /// Windowed telemetry series sampled at every health tick.
    pub series: SeriesSummary,
    /// The audit's structured violation report; empty when the arm ran
    /// unaudited.
    pub audit_json: String,
    /// Trace folds (traced arms only).
    pub trace: Option<ArmTrace>,
}

/// The trace ring of a traced arm and what was folded from it.
#[derive(Debug, Clone)]
pub struct ArmTrace {
    /// The captured events (whole spans; overflow evicts whole ops).
    pub events: Vec<TraceEvent>,
    /// Counter-track samples: the runner's prefixes, then the health
    /// series tracks.
    pub samples: Vec<CounterSample>,
    /// Per-stage latency attribution over every complete op.
    pub attribution: StageAttribution,
    /// Tail-latency profile over the same ring.
    pub tail: TailProfile,
}

/// A per-arm artifact file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Artifact {
    /// `TRACE_*.json`: Chrome trace with counter tracks.
    Trace,
    /// `FOLDED_*.txt`: collapsed op stacks rooted at the scenario name.
    Folded,
    /// `AUDIT_*.json`: the audit report (audited arms, traced or not).
    Audit,
    /// `TAIL_*.json`: the tail profile with exemplar span trees.
    Tail,
    /// `TXNTRACE_*.json`: Chrome trace of transaction phases.
    TxnTrace,
    /// `FOLDED_txn_*.txt`: collapsed transaction-phase stacks.
    TxnFolded,
}

impl ArmOutput {
    /// Writes the requested artifacts of scenario `name` into the report's
    /// trace directory, if it has one. Trace-derived artifacts need a
    /// traced arm and the audit artifact an audited one; the rest are
    /// skipped.
    ///
    /// # Panics
    ///
    /// Panics if the trace directory is not writable.
    pub(crate) fn write_artifacts(&self, rep: &Report, name: &str, which: &[Artifact]) {
        if !rep.trace_enabled() {
            return;
        }
        for &a in which {
            let (file, body) = match (a, &self.trace) {
                (Artifact::Audit, _) if !self.audit_json.is_empty() => {
                    (format!("AUDIT_{name}.json"), self.audit_json.clone())
                }
                (Artifact::Audit, _) | (_, None) => continue,
                (Artifact::Trace, Some(t)) => (
                    format!("TRACE_{name}.json"),
                    chrome_trace_with_counters(&t.events, &t.samples),
                ),
                (Artifact::Folded, Some(t)) => {
                    (format!("FOLDED_{name}.txt"), folded_stacks(&t.events, name))
                }
                (Artifact::Tail, Some(t)) => {
                    (format!("TAIL_{name}.json"), t.tail.to_artifact_json(name))
                }
                (Artifact::TxnTrace, Some(t)) => (
                    format!("TXNTRACE_{name}.json"),
                    txn_chrome_trace_with_counters(&t.events, &t.samples),
                ),
                (Artifact::TxnFolded, Some(t)) => (
                    format!("FOLDED_txn_{name}.txt"),
                    txn_folded_stacks(&t.events),
                ),
            };
            rep.write_trace(&file, &body).expect("trace sink writable");
        }
    }
}
