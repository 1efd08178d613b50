//! hostprof end-to-end: the counting global allocator (installed by the
//! `hyperloop-bench` crate, which this binary links) feeds balanced
//! per-thread deltas, scope timers nest and fold, and — the determinism
//! contract — a same-seed benchmark run serializes byte-identically with
//! host profiling enabled vs disabled once the shared canonicalizer strips
//! the volatile `host.*` fields.

use hyperloop_bench::micro::{gwrite_plan, run_primitive, MicroOpts, SystemKind};
use hyperloop_bench::report::{Report, Scenario};
use hyperloop_repro::hyperloop::harness::{drive, fabric_sim};
use hyperloop_repro::hyperloop::{GroupConfig, GroupOp, HyperLoopGroup};
use hyperloop_repro::netsim::{FabricConfig, NodeId};
use hyperloop_repro::rnicsim::{NicConfig, Payload};
use hyperloop_repro::simcore::hostprof::{self, HostProf};
use hyperloop_repro::simcore::jsonw::canonicalize_report;
use std::sync::Mutex;

/// The enable/disable flag is process-wide (the tables are per-thread), so
/// tests that toggle it must not overlap.
static PROF_FLAG: Mutex<()> = Mutex::new(());

#[test]
fn counting_allocator_balances_and_counts_reallocs_once() {
    let _flag = PROF_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    hostprof::disable();
    let before = hostprof::alloc_snapshot();
    {
        let mut v: Vec<u64> = Vec::new();
        for i in 0..4096 {
            v.push(i); // growth path: realloc, not an alloc+free pair
        }
        std::hint::black_box(&v);
    }
    let delta = hostprof::alloc_snapshot().since(&before);
    // The counting allocator IS installed here (unlike simcore's own unit
    // tests), so the balanced region must show real traffic.
    assert!(delta.allocs > 0, "counting allocator saw no allocations");
    assert!(delta.reallocs > 0, "vec growth should go through realloc");
    assert!(delta.alloc_bytes > 0);
    // Balance: everything allocated in the region was freed in the region,
    // and reallocs were counted once (old size retired, new size charged)
    // rather than as an extra alloc/free pair.
    assert_eq!(delta.allocs, delta.frees, "alloc/free imbalance");
    assert_eq!(
        delta.alloc_bytes, delta.freed_bytes,
        "byte imbalance — realloc double-counted?"
    );
}

#[test]
fn steady_state_gwrite_performs_zero_net_allocations_per_op() {
    let _flag = PROF_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    hostprof::disable();
    let mut sim = fabric_sim(
        4,
        64 << 20,
        NicConfig::default(),
        FabricConfig::default(),
        42,
    );
    let nodes = [NodeId(1), NodeId(2), NodeId(3)];
    let mut group = drive(&mut sim, |ctx| {
        HyperLoopGroup::setup(ctx, NodeId(0), &nodes, GroupConfig::default())
    });
    sim.run();

    let mut acks = Vec::new();
    let mut cqes = Vec::new();
    let mut run_one = |sim: &mut _, group: &mut HyperLoopGroup, i: u64| {
        let data = Payload::filled((i & 0xFF) as u8, 1024);
        drive(sim, |ctx| {
            group
                .client
                .issue(
                    ctx,
                    GroupOp::Write {
                        offset: (i % 64) * 4096,
                        data,
                        flush: true,
                    },
                )
                .unwrap()
        });
        sim.run();
        acks.clear();
        let n = drive(sim, |ctx| group.client.poll_into(ctx, &mut acks));
        assert_eq!(n, 1, "op {i}: got {n} acks");
        // Off-critical-path maintenance, exactly the maintenance-app idiom:
        // drain the upstream recv CQ and replenish one descriptor chain per
        // consumed completion.
        drive(sim, |ctx| {
            for r in &mut group.replicas {
                cqes.clear();
                ctx.poll_cq_into(r.node(), r.recv_cq(), 64, &mut cqes);
                r.replenish(ctx, cqes.len() as u32);
            }
        });
        sim.run();
    };

    // Warm-up: payload/SGE slabs fill; the event queue's near run, body
    // slab, wheel slots and scratch vectors reach their high-water
    // capacity. The wheel conserves slot buffers by swapping, so capacity
    // keeps migrating between slots for a while — several hundred ops
    // before the last cold slot has grown.
    for i in 0..512u64 {
        run_one(&mut sim, &mut group, i);
    }

    // Steady state: the whole gWRITE fastpath — op construction, gather,
    // wire, chain forwarding, scatter, ack, poll — must recycle every
    // buffer it takes. Net heap growth over the region is zero, which is
    // only possible if each op's allocations are matched by frees.
    let before = hostprof::alloc_snapshot();
    let steady_ops = 256u64;
    for i in 64..64 + steady_ops {
        run_one(&mut sim, &mut group, i);
    }
    let delta = hostprof::alloc_snapshot().since(&before);

    assert_eq!(
        delta.allocs, delta.frees,
        "steady-state gWRITE leaked allocations: {} allocs vs {} frees over {steady_ops} ops",
        delta.allocs, delta.frees
    );
    // Byte traffic balances too: no per-op state grows. The client NIC's
    // never-flushed ack writes are kept as merged spans over its ack ring,
    // which stop growing once every slot has been written.
    let net = delta.alloc_bytes.saturating_sub(delta.freed_bytes);
    assert_eq!(
        net, 0,
        "steady-state gWRITE grew the heap: {} bytes in, {} bytes out \
         (net {net}) over {steady_ops} ops",
        delta.alloc_bytes, delta.freed_bytes
    );
}

#[test]
fn scope_timers_nest_under_a_real_run() {
    let _flag = PROF_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    hostprof::reset();
    hostprof::enable();
    {
        let _outer = HostProf::scope("test.outer");
        let opts = MicroOpts {
            ops: 100,
            warmup: 10,
            ..MicroOpts::default()
        };
        let _ = run_primitive(SystemKind::HyperLoop, gwrite_plan(1024), opts);
    }
    hostprof::disable();
    let folded = hostprof::folded_stacks();
    let stats = hostprof::scopes();
    hostprof::reset();
    // The run's own instrumentation folded under our scope: the event queue
    // and the NIC engine are on every op's host path.
    assert!(
        folded.contains("host;test.outer;simcore.queue.pop"),
        "queue pops missing from folded stacks:\n{folded}"
    );
    assert!(
        folded.contains("host;test.outer;rnicsim.engine"),
        "NIC engine scope missing from folded stacks:\n{folded}"
    );
    let pops = stats
        .iter()
        .find(|s| s.path == "test.outer;simcore.queue.pop")
        .expect("pop scope stat");
    assert!(
        pops.calls > 100,
        "expected many queue pops, saw {}",
        pops.calls
    );
    let outer = stats
        .iter()
        .find(|s| s.path == "test.outer")
        .expect("outer scope stat");
    assert!(outer.total_ns >= outer.self_ns);
}

/// One seeded micro run serialized as a full report.
fn report_json(profile: bool) -> String {
    hostprof::reset();
    if profile {
        hostprof::enable();
    } else {
        hostprof::disable();
    }
    let opts = MicroOpts {
        ops: 300,
        warmup: 20,
        ..MicroOpts::default()
    };
    let r = run_primitive(SystemKind::HyperLoop, gwrite_plan(1024), opts);
    hostprof::disable();
    hostprof::reset();
    let mut rep = Report::new("hostprof-identity");
    rep.scenario(
        Scenario::new("identity/gwrite-1KB")
            .system("HyperLoop")
            .seed(opts.seed)
            .config("ops", opts.ops)
            .latency(&r.latency)
            .gauge("ops_per_sec", r.ops_per_sec())
            .gauge("replica_cpu", r.replica_cpu)
            .host(r.arm.host.clone())
            .metrics(r.registry.clone()),
    );
    rep.to_json()
}

#[test]
fn same_seed_reports_are_byte_identical_with_profiling_on_or_off() {
    let _flag = PROF_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    let off = report_json(false);
    let on = report_json(true);
    // Raw reports differ only in the volatile host-side numbers; after the
    // shared canonicalizer strips `host.*`, the same seed must produce the
    // same bytes whether the profiler observed the run or not.
    assert_eq!(
        canonicalize_report(&off).expect("canonicalize unprofiled"),
        canonicalize_report(&on).expect("canonicalize profiled"),
        "host profiling perturbed the simulation output"
    );
}
