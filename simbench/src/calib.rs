//! Machine-speed calibration: fixed kernels, independent of the
//! repository's crates, timed right after every work block.
//!
//! On a shared VM the host rate of the same deterministic simulation moves
//! by up to 2x with neighbour load, in regimes that last seconds. No single
//! small kernel tracks that: a table walk moves by a fifth as much, an
//! allocation-heavy loop by about half. Calibration therefore runs three
//! standard-library kernels that each mimic one side of the simulator's
//! work — a miniature discrete-event loop (binary-heap queue, hash map of
//! 1 KiB buffers, boxed payloads), an indirect-call dispatch loop over many
//! small handlers, and an allocate/insert/remove churn — and takes the
//! geometric mean of their rates.
//!
//! On a 2-vCPU shared VM the simulator's block rate, in log terms, moves
//! [`ELASTICITY`] times as much as that mean across machine regimes (fitted
//! on 10-block medians of all three workloads; it cut their spread from
//! 12–21% to 3–5%), so a block's rate is multiplied by
//! `(REFERENCE / kernel rate)^ELASTICITY`. A slowdown of the simulator's own
//! code does not slow the kernels and is not cancelled; the busy-wait guard
//! in `main.rs` checks exactly that.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Geometric-mean kernel rate, in steps per second, that normalised rates
/// are quoted at: a normalised rate is what the block would have run at on
/// a machine whose kernels run this fast.
pub const REFERENCE_STEPS_PER_S: f64 = 1.0e7;
/// Log-log sensitivity of the simulator's rate to the kernels' rate.
pub const ELASTICITY: f64 = 1.5;

/// Steps of each kernel per calibration: about 5 ms each on a 2020s x86
/// core.
const DES_STEPS: u64 = 1 << 15;
const DISPATCH_STEPS: u64 = 1 << 18;
const CHURN_STEPS: u64 = 1 << 15;

/// Distinct state keys (each a 1 KiB buffer once touched).
const KEYS: u64 = 512;
const STATE_BYTES: usize = 1024;

/// Runs the three kernels once and returns the geometric mean of their
/// rates, in steps per wall second.
pub fn measure() -> f64 {
    let rate = |steps: u64, f: fn(u64) -> u64| {
        let t0 = Instant::now();
        black_box(f(black_box(steps)));
        steps as f64 / t0.elapsed().as_secs_f64()
    };
    let r = [
        rate(DES_STEPS, des),
        rate(DISPATCH_STEPS, dispatch),
        rate(CHURN_STEPS, churn),
    ];
    (r[0] * r[1] * r[2]).cbrt()
}

/// Multiplier that converts a rate measured next to a calibration of
/// `calib_per_s` into reference-machine terms.
pub fn factor(calib_per_s: f64) -> f64 {
    (REFERENCE_STEPS_PER_S / calib_per_s).powf(ELASTICITY)
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Discrete-event loop: pop the earliest event, run one of four handlers
/// picked by the event, schedule one follow-up. The same sequence on every
/// call.
fn des(steps: u64) -> u64 {
    let mut queue: BinaryHeap<Reverse<(u64, u64, u8)>> =
        (0..64u64).map(|i| Reverse((i, i, (i % 4) as u8))).collect();
    let mut state: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut fifo: VecDeque<Box<[u8]>> = VecDeque::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for seq in 0..steps {
        let Reverse((t, key, kind)) = queue.pop().expect("one event is pushed per pop");
        x = xorshift(x ^ t);
        match kind {
            0 => {
                let v = state
                    .entry(key % KEYS)
                    .or_insert_with(|| vec![0; STATE_BYTES]);
                v[(x % STATE_BYTES as u64) as usize] ^= x as u8;
                acc = acc.wrapping_add(v[((x >> 10) % STATE_BYTES as u64) as usize] as u64);
            }
            1 => {
                let len = 64 + (x % STATE_BYTES as u64) as usize;
                fifo.push_back(vec![x as u8; len].into_boxed_slice());
                if fifo.len() > 32 {
                    acc ^= fifo.pop_front().map_or(0, |b| b.len() as u64);
                }
            }
            2 => {
                if let Some(v) = state.remove(&((x >> 5) % KEYS)) {
                    acc = acc.wrapping_add(v.iter().step_by(64).map(|&b| b as u64).sum::<u64>());
                }
            }
            _ => {
                let scratch: Vec<u64> = (0..16).map(|j| x.rotate_left(j)).collect();
                acc ^= scratch.iter().fold(0, |a, b| a ^ b);
            }
        }
        queue.push(Reverse((t + 1 + x % 97, seq, ((x >> 17) % 4) as u8)));
    }
    acc
}

macro_rules! handlers {
    ($($name:ident $k:expr;)*) => {
        $(
            fn $name(a: u64, b: u64) -> u64 {
                let mut x = a ^ $k;
                for _ in 0..($k % 5 + 1) {
                    x = x.rotate_left($k % 63).wrapping_mul(b | 1) ^ ($k * 0x9E37);
                    if x & 8 == 0 {
                        x = x.wrapping_add(b >> 3);
                    }
                }
                x
            }
        )*
        const HANDLERS: &[fn(u64, u64) -> u64] = &[$($name),*];
    };
}

handlers! {
    h0 1; h1 3; h2 5; h3 7; h4 11; h5 13; h6 17; h7 19; h8 23; h9 29; h10 31;
    h11 37; h12 41; h13 43; h14 47; h15 53; h16 59; h17 61; h18 67; h19 71;
    h20 73; h21 79; h22 83; h23 89; h24 97; h25 101; h26 103; h27 107;
    h28 109; h29 113; h30 127; h31 131;
}

/// Indirect-call dispatch over many small handlers with unpredictable
/// targets, like the simulator's per-event `match` and trait calls.
fn dispatch(steps: u64) -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut acc = 0u64;
    for _ in 0..steps {
        x = xorshift(x);
        acc = black_box(HANDLERS[(x >> 7) as usize % HANDLERS.len()])(acc, x);
    }
    acc
}

/// Allocation churn: insert and remove variable-size buffers in a hash map
/// and keep a bounded binary heap, like payload and completion traffic.
fn churn(steps: u64) -> u64 {
    let mut map: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut heap = BinaryHeap::new();
    let mut x = 0x1234_5678u64;
    let mut acc = 0u64;
    for i in 0..steps {
        x = xorshift(x);
        let key = x % 4096;
        if x & 1 == 0 {
            map.insert(key, vec![(x >> 8) as u8; 16 + (x >> 20) as usize % 1100]);
        } else if let Some(v) = map.remove(&key) {
            acc = acc.wrapping_add(v[0] as u64);
        }
        heap.push(Reverse((x >> 30, i)));
        if heap.len() > 512 {
            acc ^= heap.pop().map_or(0, |Reverse((t, _))| t);
        }
    }
    acc
}
