//! simbench: host-speed benchmark of the HyperLoop simulator.
//!
//! ```text
//! simbench --workload <gwrite_durable|naive_colocated|txn_contended>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every number is taken from outside the program: wall time around calls
//! into public functions, and public `export_into`/`stats()` counters. The
//! steady phase runs as a sequence of equal-work blocks (the simulation is
//! deterministic, so every run does the same work in each block); each
//! block's rate is divided by the rate of a fixed calibration kernel timed
//! right after it, and the median over blocks is reported. See
//! `simbench/README.md` for the workloads, the metrics and which end-to-end
//! metric each per-layer metric should move.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer ledger from a traced re-run of the same seed, plus the tracing
//! overhead, the audit tax and the normalisation guard. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.

mod calib;
mod chain;
mod ledger;
mod txn;

use ledger::{Bucket, Ledger};
use simcore::{Histogram, MetricsRegistry, QueueStats, SimTime};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A built workload the benchmark drives block by block.
pub trait Workload {
    /// Runs until at least `target` logical ops have completed in total.
    /// Returns false if the run failed (stall, livelock); the failure is
    /// reported by [`Workload::finish`].
    fn advance(&mut self, target: u64) -> bool;
    /// Logical ops completed so far (acked gWRITEs, committed txns).
    fn completed(&self) -> u64;
    /// Snapshot of the public layer counters.
    fn counters(&self) -> MetricsRegistry;
    /// Sim-time latency of every completed op.
    fn latency(&self) -> Histogram;
    /// Current sim time.
    fn sim_now(&self) -> SimTime;
    /// Drains what is in flight and checks the outputs. Returns the
    /// logical ops attempted and every named check with its failure count.
    fn finish(&mut self) -> (u64, Vec<(&'static str, u64)>);
}

/// Wall time of each setup phase, one entry per build.
#[derive(Debug, Default)]
pub struct Phases {
    cluster: Vec<f64>,
    wiring: Vec<f64>,
    boot: Vec<f64>,
}

impl Phases {
    /// Records one build's `Cluster::new` (+ background tenants), wiring
    /// (groups/chain, apps, kv) and boot-drain times.
    pub fn add(&mut self, cluster: Duration, wiring: Duration, boot: Duration) {
        self.cluster.push(cluster.as_secs_f64());
        self.wiring.push(wiring.as_secs_f64());
        self.boot.push(boot.as_secs_f64());
    }

    /// Median over builds of `phase` (or of the whole build, for `None`),
    /// each build's time multiplied by its machine-speed factor.
    fn median_normalised(&self, phase: Option<&[f64]>, factor: &[f64]) -> f64 {
        let v: Vec<f64> = (0..self.cluster.len())
            .map(|i| {
                let t = match phase {
                    Some(p) => p[i],
                    None => self.cluster[i] + self.wiring[i] + self.boot[i],
                };
                t * factor[i]
            })
            .collect();
        median(&v)
    }
}

/// Adds the event-queue counters to `reg` under `queue.`.
pub fn export_queue(stats: &QueueStats, reg: &mut MetricsRegistry) {
    reg.counter_set("queue.pushed", stats.pushed);
    reg.counter_set("queue.popped", stats.popped);
    reg.counter_set("queue.max_depth", stats.max_depth as u64);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wl {
    GwriteDurable,
    NaiveColocated,
    TxnContended,
}

impl Wl {
    fn parse(s: &str) -> Option<Wl> {
        match s {
            "gwrite_durable" => Some(Wl::GwriteDurable),
            "naive_colocated" => Some(Wl::NaiveColocated),
            "txn_contended" => Some(Wl::TxnContended),
            _ => None,
        }
    }

    /// Logical ops per block: about 40 ms of host work on a 2020s x86
    /// core, long enough to average over scheduler noise, short enough to
    /// give a median over hundreds of blocks.
    fn block_ops(self) -> u64 {
        match self {
            Wl::GwriteDurable => 1536,
            Wl::NaiveColocated => 1536,
            Wl::TxnContended => 96,
        }
    }

    fn build(
        self,
        seed: u64,
        audited: bool,
        ledger: Option<Rc<Ledger>>,
        phases: &mut Phases,
    ) -> Box<dyn Workload> {
        match self {
            Wl::GwriteDurable => Box::new(chain::Chain::build(
                chain::Kind::HyperLoop,
                seed,
                ledger,
                phases,
            )),
            Wl::NaiveColocated => Box::new(chain::Chain::build(
                chain::Kind::NaiveColocated,
                seed,
                ledger,
                phases,
            )),
            Wl::TxnContended => Box::new(txn::Txns::build(seed, audited, ledger, phases)),
        }
    }
}

/// Blocks per second of `--seconds`: fixed, so that the same arguments do
/// the same simulated work on every machine (a block plus its calibration
/// takes about 60 ms on a 2020s x86 core).
const BLOCKS_PER_S: u64 = 16;

/// Calibrations per run for `setup_s`, each after [`BUILDS_PER_CALIB`]
/// builds; `setup_s` is the median over all the builds.
const SETUP_CALIBS: usize = 41;
const BUILDS_PER_CALIB: usize = 3;

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// One measured pass over the steady phase.
struct Pass {
    /// Per measured block: raw ops per wall second.
    raw: Vec<f64>,
    /// Per measured block: calibration kernel steps per wall second.
    calib: Vec<f64>,
    /// Per measured block: wall seconds (without calibration).
    block_s: Vec<f64>,
    /// Wall seconds over every block, warm-up included.
    steady_s: f64,
    /// Ops over every block, warm-up included.
    steady_ops: u64,
    /// Counter deltas over every block.
    counts: MetricsRegistry,
    queue_max_depth: u64,
    latency: Histogram,
    sim_elapsed_s: f64,
    attempted: u64,
    failures: Vec<(&'static str, u64)>,
}

impl Pass {
    /// Median over blocks of the machine-normalised rate.
    fn normalised(&self) -> f64 {
        let v: Vec<f64> = self
            .raw
            .iter()
            .zip(&self.calib)
            .map(|(r, c)| r * calib::factor(*c))
            .collect();
        median(&v)
    }
}

fn delta(end: &MetricsRegistry, start: &MetricsRegistry) -> MetricsRegistry {
    let mut d = MetricsRegistry::new();
    for (k, v) in end.counters() {
        d.counter_set(k, v.saturating_sub(start.counter(k).unwrap_or(0)));
    }
    d
}

/// One instance of the workload being driven through the steady phase.
struct Runner {
    w: Box<dyn Workload>,
    block_ops: u64,
    /// Spun inside every timed block (the normalisation guard).
    busy_wait: Duration,
    start: MetricsRegistry,
    sim_start: SimTime,
    raw: Vec<f64>,
    calib: Vec<f64>,
    block_s: Vec<f64>,
    steady: Duration,
    failed: bool,
}

impl Runner {
    fn new(
        wl: Wl,
        seed: u64,
        audited: bool,
        ledger: Option<Rc<Ledger>>,
        busy_wait: Duration,
    ) -> Runner {
        let w = wl.build(seed, audited, ledger, &mut Phases::default());
        Runner {
            start: w.counters(),
            sim_start: w.sim_now(),
            w,
            block_ops: wl.block_ops(),
            busy_wait,
            raw: Vec::new(),
            calib: Vec::new(),
            block_s: Vec::new(),
            steady: Duration::ZERO,
            failed: false,
        }
    }

    /// Runs block `i` (block 0 is the unrecorded warm-up), then times the
    /// calibration kernel.
    fn block(&mut self, i: u64) {
        if self.failed {
            return;
        }
        let before = self.w.completed();
        let t0 = Instant::now();
        if !self.w.advance((i + 1) * self.block_ops) {
            self.failed = true;
            return;
        }
        let spin = Instant::now();
        while spin.elapsed() < self.busy_wait {
            std::hint::spin_loop();
        }
        let dt = t0.elapsed();
        self.steady += dt;
        let c = calib::measure();
        if i > 0 {
            self.raw
                .push((self.w.completed() - before) as f64 / dt.as_secs_f64());
            self.calib.push(c);
            self.block_s.push(dt.as_secs_f64());
        }
    }

    fn finish(mut self) -> Pass {
        let steady_ops = self.w.completed();
        let end = self.w.counters();
        let sim_elapsed_s = self.w.sim_now().since(self.sim_start).as_secs_f64();
        let latency = self.w.latency();
        let (attempted, failures) = self.w.finish();
        Pass {
            raw: self.raw,
            calib: self.calib,
            block_s: self.block_s,
            steady_s: self.steady.as_secs_f64(),
            steady_ops,
            queue_max_depth: end.counter("queue.max_depth").unwrap_or(0),
            counts: delta(&end, &self.start),
            latency,
            sim_elapsed_s,
            attempted,
            failures,
        }
    }
}

/// Peak resident set size of this process image, in MiB: `VmHWM` from
/// `/proc/self/status`. (`getrusage`'s `ru_maxrss` would also count the
/// launcher's memory from before `exec`.)
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Sums counters named `prefix*suffix` (e.g. every node's flushes).
fn sum_matching(reg: &MetricsRegistry, prefix: &str, suffix: &str) -> u64 {
    reg.counters()
        .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

struct Args {
    wl: Wl,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut wl, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => wl = Some(Wl::parse(&val).ok_or(format!("unknown workload {val}"))?),
            "--seed" => seed = Some(val.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = val.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1..=60".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        wl: wl.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metric lines and the final JSON object.
struct Out {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Out {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("{name:<40} {value:>16.6} {unit}");
        self.metrics.push((name.to_string(), value, unit));
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!("usage: simbench --workload <gwrite_durable|naive_colocated|txn_contended> --seed <n> --seconds <1-60> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let wl = args.wl;
    let seed = args.seed;
    let blocks = args.seconds * BLOCKS_PER_S;
    calib::measure();

    // Setup: repeated builds, each group followed by a calibration run
    // whose rate converts the group's wall times to reference-machine
    // seconds.
    let mut phases = Phases::default();
    let mut factor = Vec::new();
    for _ in 0..SETUP_CALIBS {
        for _ in 0..BUILDS_PER_CALIB {
            drop(wl.build(seed, true, None, &mut phases));
        }
        let f = 1.0 / calib::factor(calib::measure());
        factor.extend([f; BUILDS_PER_CALIB]);
    }
    let ones = vec![1.0; factor.len()];
    println!("# setup_raw_s {:.6}", phases.median_normalised(None, &ones));

    // The measured run, and in traced mode the runs it is compared with,
    // each a fresh build of the same seed. They advance block by block in
    // turn, so every comparison is between blocks run seconds apart under
    // the same machine conditions.
    let led = Rc::new(Ledger::default());
    let mut runners = vec![Runner::new(wl, seed, true, None, Duration::ZERO)];
    if args.trace {
        runners.push(Runner::new(
            wl,
            seed,
            true,
            Some(Rc::clone(&led)),
            Duration::ZERO,
        ));
        runners.push(Runner::new(wl, seed, true, None, Duration::ZERO));
        if wl == Wl::TxnContended {
            runners.push(Runner::new(wl, seed, false, None, Duration::ZERO));
        }
    }
    for i in 0..=blocks {
        for r in runners.iter_mut() {
            r.block(i);
        }
        if i == 0 && args.trace {
            // The guard: a busy-wait of a quarter of the reference's
            // warm-up block, spun inside every later block of one run.
            runners[2].busy_wait = runners[0].steady.mul_f64(0.25);
        }
    }
    let wait = runners.get(2).map_or(Duration::ZERO, |r| r.busy_wait);
    // The steady phase's spans, before the end-of-run drain adds more.
    let led = (*led).clone();
    let mut passes = runners.into_iter().map(Runner::finish);
    let reference = passes.next().expect("the reference run");
    let mut failures = reference.failures.clone();
    let mut out = Out {
        metrics: Vec::new(),
    };
    let per_op = |p: &Pass, x: u64| x as f64 / p.steady_ops as f64;
    // Diagnostics: the machine's speed and the un-normalised rate, so a
    // slow box shows; the sim-time figures, deterministic per seed, that
    // a host-speed change must leave byte-identical.
    let h = &reference.latency;
    println!("# machine.calib_per_s {:.0}", median(&reference.calib));
    println!("# raw_host_ops_per_s {:.1}", median(&reference.raw));
    println!("# sim_p50_us {}", h.p50().as_secs_f64() * 1e6);
    println!("# sim_p99_us {}", h.p99().as_secs_f64() * 1e6);
    println!("# sim_p999_us {}", h.p999().as_secs_f64() * 1e6);
    println!(
        "# sim_kops_per_s {}",
        reference.steady_ops as f64 / reference.sim_elapsed_s / 1e3
    );
    println!("# sim_samples {}", h.count());
    if !args.trace {
        out.put("host_ops_per_s", reference.normalised(), "1/s");
        out.put("setup_s", phases.median_normalised(None, &factor), "s");
        out.put("peak_rss_mib", peak_rss_mib(), "MiB");
    } else {
        let traced = passes.next().expect("the traced run");
        failures.extend(traced.failures.iter().copied());
        let same = traced.counts.counters().eq(reference.counts.counters())
            && traced.latency.summary() == reference.latency.summary();
        failures.push(("traced_run_differs", u64::from(!same)));

        let guard = passes.next().expect("the guard run");
        failures.extend(guard.failures.iter().copied());
        let expected = wait.as_secs_f64() / (median(&reference.block_s) + wait.as_secs_f64());
        let measured = 1.0 - guard.normalised() / reference.normalised();
        println!(
            "# guard: busy-wait {:?} per block, expected drop {:.2}%, measured {:.2}%",
            wait,
            expected * 100.0,
            measured * 100.0
        );
        let audit_tax = if wl == Wl::TxnContended {
            let bare = passes.next().expect("the audit-off run");
            failures.extend(bare.failures.iter().copied());
            (bare.normalised() / reference.normalised() - 1.0) * 100.0
        } else {
            0.0
        };

        let c = &traced.counts;
        let ops = traced.steady_ops as f64;
        let ns = |b: Bucket| led.ns(b) as f64 / ops;
        let wall_ns = traced.steady_s * 1e9 / ops;
        let app_self = (led.ns(Bucket::App) - led.nested_in_app()) as f64 / ops;
        let health = ns(Bucket::Health) + ns(Bucket::AppHealth);
        let popped = c.counter("queue.popped").unwrap_or(0);
        out.put(
            "simcore.queue.events_per_op",
            per_op(&traced, popped),
            "count",
        );
        out.put(
            "simcore.queue.ns_per_event",
            led.ns(Bucket::Queue) as f64 / popped as f64,
            "ns",
        );
        out.put("simcore.queue.ns_per_op", ns(Bucket::Queue), "ns");
        out.put(
            "simcore.queue.max_depth",
            traced.queue_max_depth as f64,
            "count",
        );
        out.put("rnicsim.engine.ns_per_op", ns(Bucket::Engine), "ns");
        out.put(
            "rnicsim.engine.events_per_op",
            led.count(Bucket::Engine) as f64 / ops,
            "count",
        );
        out.put(
            "rnicsim.wqes_per_op",
            per_op(
                &traced,
                c.counter("cluster.fabric.wqes_executed").unwrap_or(0),
            ),
            "count",
        );
        out.put("netsim.deliver.ns_per_op", ns(Bucket::Deliver), "ns");
        out.put(
            "netsim.msgs_per_op",
            per_op(
                &traced,
                c.counter("cluster.fabric.net.messages").unwrap_or(0),
            ),
            "count",
        );
        out.put(
            "netsim.bytes_per_op",
            per_op(&traced, c.counter("cluster.fabric.net.bytes").unwrap_or(0)),
            "bytes",
        );
        out.put(
            "nvmsim.flushes_per_op",
            per_op(&traced, sum_matching(c, "cluster.fabric.nvm.", ".flushes")),
            "count",
        );
        out.put(
            "nvmsim.bytes_written_per_op",
            per_op(
                &traced,
                sum_matching(c, "cluster.fabric.nvm.", ".bytes_written"),
            ),
            "bytes",
        );
        out.put("cpusched.ns_per_op", ns(Bucket::Cpu), "ns");
        out.put(
            "cpusched.events_per_op",
            led.count(Bucket::Cpu) as f64 / ops,
            "count",
        );
        out.put(
            "cpusched.context_switches_per_op",
            per_op(
                &traced,
                sum_matching(c, "cluster.sched.", ".context_switches"),
            ),
            "count",
        );
        out.put("testbed.app.ns_per_op", app_self, "ns");
        out.put(
            "hyperloop.client.issue_ns_per_op",
            ns(Bucket::ClientIssue),
            "ns",
        );
        out.put(
            "hyperloop.client.poll_ns_per_op",
            ns(Bucket::ClientPoll),
            "ns",
        );
        out.put(
            "hyperloop.txn.submit_ns_per_txn",
            ns(Bucket::TxnSubmit),
            "ns",
        );
        out.put("hyperloop.txn.pump_ns_per_txn", ns(Bucket::TxnPump), "ns");
        out.put(
            "hyperloop.txn.replenish_ns_per_txn",
            ns(Bucket::TxnReplenish),
            "ns",
        );
        let commits = c.counter("txn.committed").unwrap_or(0).max(1) as f64;
        let attempts =
            c.counter("txn.committed").unwrap_or(0) + c.counter("txn.aborted").unwrap_or(0);
        out.put(
            "hyperloop.txn.attempts_per_commit",
            attempts as f64 / commits,
            "count",
        );
        out.put(
            "hyperloop.txn.lock_retries_per_commit",
            c.counter("txn.lock_retries").unwrap_or(0) as f64 / commits,
            "count",
        );
        out.put("simaudit.health.ns_per_op", health, "ns");
        out.put("simaudit.audit_tax_pct", audit_tax, "%");
        out.put(
            "setup.cluster_s",
            phases.median_normalised(Some(&phases.cluster), &factor),
            "s",
        );
        out.put(
            "setup.wiring_s",
            phases.median_normalised(Some(&phases.wiring), &factor),
            "s",
        );
        out.put(
            "setup.boot_drain_s",
            phases.median_normalised(Some(&phases.boot), &factor),
            "s",
        );
        out.put("bench.wall_ns_per_op", wall_ns, "ns");
        out.put(
            "bench.residual_ns_per_op",
            wall_ns - led.total_ns() as f64 / ops,
            "ns",
        );
        out.put(
            "bench.trace_overhead_pct",
            (reference.normalised() / traced.normalised() - 1.0) * 100.0,
            "%",
        );
        out.put(
            "bench.guard_absorbed_pct",
            (expected - measured) / expected * 100.0,
            "%",
        );
        out.put("machine.calib_per_s", median(&reference.calib), "1/s");
        out.put("bench.raw_host_ops_per_s", median(&reference.raw), "1/s");
    }

    let failed: u64 = failures.iter().map(|(_, n)| n).sum();
    for (name, n) in &failures {
        if *n > 0 {
            println!("FAILED {name}: {n}");
        }
    }
    let attempted = reference.attempted.max(1);
    println!(
        "# failed_share {}",
        failed.min(attempted) as f64 / attempted as f64
    );
    let correct = failed == 0;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(k, v, u)| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed.min(attempted),
        metrics.join(", ")
    );
}

/// JSON has no NaN/inf: a non-finite value is written as `null` so the
/// line stays parseable. Only a failed run (no measured block) produces one.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
