//! A fast sanity pass over the three headline comparisons — useful while
//! tuning simulation parameters. Not a paper figure; see `figures` for the
//! full evaluation.
//!
//! `--json <path>` writes the scenarios as machine-readable JSON (to
//! `<path>/BENCH_smoke.json` when `<path>` is a directory). Any other
//! argument, or a `--json` with no value, prints the usage line and exits
//! with status 2.

use hyperloop_bench::fanout_ablation::read_scaling;
use hyperloop_bench::micro::{gwrite_plan, run_primitive, MicroOpts, SystemKind};
use hyperloop_bench::report::{Report, Scenario};
use std::path::PathBuf;

const USAGE: &str = "usage: smoke [--json <path>]";

/// Parses the arguments after the program name into the `--json` path.
/// Rejects a `--json` with no value (or with another flag where the value
/// should be) and any other argument.
fn parse_args(args: &[String]) -> Result<Option<PathBuf>, String> {
    let mut json = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => {
                let value = it.next().filter(|v| !v.starts_with("--"));
                json = Some(PathBuf::from(value.ok_or("--json needs a value")?));
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(json)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("smoke: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let mut rep = Report::new("smoke");
    if let Some(p) = &json_path {
        rep.set_json_path(p);
    }

    let opts = MicroOpts {
        ops: 800,
        warmup: 50,
        ..MicroOpts::default()
    };
    rep.line("1 KB durable gWRITE, 3 replicas, 96 tenants/node:");
    for kind in [SystemKind::NaiveEvent, SystemKind::HyperLoop] {
        let r = run_primitive(kind, gwrite_plan(1024), opts);
        rep.line(format!(
            "  {:<13} mean={} p99={} replica-cpu={:.1}%",
            kind.label(),
            r.latency.mean,
            r.latency.p99,
            r.replica_cpu * 100.0
        ));
        rep.scenario(
            Scenario::new(format!("smoke/gwrite-1KB/{}", kind.label()))
                .system(kind.label())
                .seed(opts.seed)
                .config("payload_bytes", 1024u64)
                .config("ops", opts.ops)
                .latency(&r.latency)
                .gauge("ops_per_sec", r.ops_per_sec())
                .gauge("replica_cpu", r.replica_cpu)
                .arm(&r.arm)
                .metrics(r.registry),
        );
    }
    rep.line("8 KB read scaling:");
    for n in [1u32, 3] {
        let (rps, arm) = read_scaling(n, 1500);
        rep.line(format!(
            "  {} serving replica(s): {:.0} reads/s ({:.1} Gbps)",
            n,
            rps,
            rps * 8192.0 * 8.0 / 1e9
        ));
        rep.scenario(
            Scenario::new(format!("smoke/read-scaling/{n}"))
                .config("serving_replicas", n)
                .config("read_bytes", 8192u64)
                .gauge("reads_per_sec", rps)
                .arm(&arm),
        );
    }
    rep.finish().expect("write JSON report");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<PathBuf>, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_an_optional_json_path() {
        assert_eq!(parse(&[]), Ok(None));
        assert_eq!(parse(&["--json", "out/"]), Ok(Some(PathBuf::from("out/"))));
    }

    #[test]
    fn rejects_a_dangling_json_and_unknown_arguments() {
        for (args, err) in [
            (&["--json"][..], "--json needs a value"),
            (&["--json", "--quick"][..], "--json needs a value"),
            (&["--quick"][..], "unknown flag --quick"),
            (&["out/"][..], "unexpected argument \"out/\""),
        ] {
            assert_eq!(parse(args), Err(err.to_string()), "{args:?}");
        }
    }
}
