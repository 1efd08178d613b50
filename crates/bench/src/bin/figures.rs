//! Regenerates the HyperLoop paper's tables and figures.
//!
//! ```text
//! cargo run --release -p hyperloop-bench --bin figures -- all [--quick]
//! cargo run --release -p hyperloop-bench --bin figures -- fig8a table2 ...
//! cargo run --release -p hyperloop-bench --bin figures -- all --json out/
//! ```
//!
//! `--json <path>` additionally writes every reported scenario (latency
//! summary, metrics-registry snapshot, config, seed and — for traced
//! runners — a `stage_attribution` block) as machine-readable JSON: to
//! `<path>` itself, or to `<path>/BENCH_figures.json` when `<path>` is a
//! directory.
//!
//! `--trace <dir>` additionally writes per-scenario profiling artifacts
//! into `<dir>`: Chrome traces with interleaved counter tracks
//! (`TRACE_*.json`, open in Perfetto), flamegraph collapsed stacks
//! (`FOLDED_*.txt`, feed to flamegraph.pl / speedscope) and — for the
//! `hostperf` sweep — *wall-clock* folded stacks of the simulator itself
//! (`HOST_*.txt`).
//!
//! Unknown figure ids, unknown flags and a `--json`/`--trace` with no value
//! print the usage line and exit with status 2.

use hyperloop_bench::figures::{self, FigureArgs};
use hyperloop_bench::report::Report;

const USAGE: &str = "usage: figures [all | <id>...] [--quick] [--json <path>] [--trace <dir>]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = FigureArgs::parse(&args).unwrap_or_else(|e| {
        eprintln!("figures: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let quick = parsed.quick;
    let has = |name: &str| parsed.wants(name);

    let mut rep = Report::new("figures");
    rep.set_quick(quick);
    if let Some(p) = &parsed.json {
        rep.set_json_path(p);
    }
    if let Some(d) = &parsed.trace {
        rep.set_trace_dir(d);
    }

    if quick {
        rep.line("(quick mode: reduced op counts; tails are noisier)");
    }
    if has("fig2a") {
        hyperloop_bench::mongo2::fig2a(&mut rep, quick);
    }
    if has("fig2b") {
        hyperloop_bench::mongo2::fig2b(&mut rep, quick);
    }
    if has("fig8a") {
        figures::fig8a(&mut rep, quick);
    }
    if has("fig8b") {
        figures::fig8b(&mut rep, quick);
    }
    if has("table2") {
        figures::table2(&mut rep, quick);
    }
    if has("fig9") {
        figures::fig9(&mut rep, quick);
    }
    if has("fig10") {
        figures::fig10(&mut rep, quick);
    }
    if has("fig11") {
        hyperloop_bench::appbench::fig11(&mut rep, quick);
    }
    if has("fig12") {
        hyperloop_bench::appbench::fig12(&mut rep, quick);
    }
    if has("shardscale") {
        hyperloop_bench::shardscale::shardscale(&mut rep, quick);
    }
    if has("migrate") {
        hyperloop_bench::migrate::migrate(&mut rep, quick);
    }
    if has("hostperf") {
        hyperloop_bench::hostperf::hostperf(&mut rep, quick);
    }
    if has("txnmix") {
        hyperloop_bench::txnmix::txnmix(&mut rep, quick);
    }
    if has("ablations") {
        hyperloop_bench::appbench::ablations(&mut rep, quick);
    }
    rep.finish().expect("write JSON report");
}
