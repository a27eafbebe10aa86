//! The reference workload host times are normalized by.
//!
//! The machine the benchmark runs on is shared: its speed drifts by a
//! quarter or more over minutes as other tenants load the caches, the
//! memory and the sibling cores, and thread CPU time does not exclude
//! that. So after every timed slice the benchmark also times this fixed
//! workload, which lives in the benchmark and changes with no commit of
//! the program, and reports the slice's time scaled to a reference run
//! of [`REF_NS`]: `cpu × (REF_NS / reference)^SENSITIVITY`. A program
//! change moves the slice and not the reference; a slower machine moves
//! both.

use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::hint::black_box;

use crate::trace::cpu_ns;

/// Host CPU ns of one reference run on the machine class the benchmark
/// was tuned on (an uncontended 2.1 GHz Xeon VM): normalized times read
/// as ns on that machine.
pub const REF_NS: f64 = 1_000_000.0;

/// How much harder than the reference the machine's slow periods hit
/// the simulator: its CPU time grows as the reference's to this power.
/// Fitted on the machine the benchmark was tuned on, over two sets of 30
/// runs (one per workload and seed 1–10, each set on its own): 1.2–1.3
/// minimized the run-to-run spread of every workload in both sets, the
/// workloads' own exponents ranging from ~0.9 (`bulk_ix`, cache-resident)
/// to ~1.8 (`conn_scale`, 900 MiB of connection state).
pub const SENSITIVITY: f64 = 1.25;

/// Entries in the pointer-chase table (8 MiB of `u32`).
const CHASE: usize = 1 << 21;
/// Entries in the probed table (2 MiB of `u64`).
const TABLE: usize = 1 << 18;
/// Steps per reference run.
const STEPS: u64 = 5_000;

/// A frozen mix of what a discrete-event network simulator spends its
/// time on: cache-missing loads, a priority queue, table probes, and
/// packet-sized copies and checksums. Deterministic: no randomized
/// hashing, fixed tables.
pub struct Reference {
    next: Vec<u32>,
    pos: u32,
    heap: BinaryHeap<(u64, u32)>,
    table: Vec<u64>,
    src: Vec<u8>,
    dst: Vec<u8>,
}

impl Reference {
    /// Builds the tables.
    pub fn new() -> Reference {
        // One random cycle through the chase table (Fisher–Yates order,
        // each entry pointing at its successor).
        let mut order: Vec<u32> = (0..CHASE as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..CHASE).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; CHASE];
        for w in 0..CHASE {
            next[order[w] as usize] = order[(w + 1) % CHASE];
        }
        Reference {
            next,
            pos: 0,
            heap: BinaryHeap::new(),
            table: (0..TABLE as u64)
                .map(|k| k.wrapping_mul(0x9e37_79b9))
                .collect(),
            src: vec![7u8; 1 << 16],
            dst: vec![0u8; 1 << 16],
        }
    }

    /// Runs the reference once; returns its host CPU ns.
    pub fn run(&mut self) -> u64 {
        let t = cpu_ns();
        let mut p = self.pos;
        let mut h = 0u64;
        for i in 0..STEPS {
            p = self.next[p as usize];
            h = (h ^ p as u64).wrapping_mul(0x100_0000_01b3).rotate_left(5);
            self.heap.push((h >> 40, p));
            if self.heap.len() > 4096 {
                self.heap.pop();
            }
            h ^= self.table[(h >> 20) as usize % TABLE];
            if i % 64 == 0 {
                let off = p as usize % (self.src.len() - 1460);
                self.dst[..1460].copy_from_slice(&self.src[off..off + 1460]);
                h = h.wrapping_add(
                    self.dst[..1460]
                        .chunks(2)
                        .map(|c| u64::from(c[0]) + u64::from(c[1]))
                        .sum::<u64>(),
                );
            }
        }
        self.pos = black_box(p);
        black_box(h);
        cpu_ns() - t
    }
}

thread_local! {
    static REFERENCE: RefCell<Option<Reference>> = const { RefCell::new(None) };
}

/// Host CPU time of a piece of work and of the reference run right after.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timed {
    /// Host CPU ns of the work.
    pub cpu_ns: u64,
    /// Host CPU ns of the reference run.
    pub ref_ns: u64,
}

impl Timed {
    /// The work's CPU time at the reference speed:
    /// `cpu × (REF_NS / ref)^SENSITIVITY`.
    pub fn normalized_ns(&self) -> f64 {
        self.cpu_ns as f64 * (REF_NS / self.ref_ns as f64).powf(SENSITIVITY)
    }
}

/// Runs `f`, then the reference; returns `f`'s result and both times.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Timed) {
    let t = cpu_ns();
    let r = f();
    let cpu_ns = cpu_ns() - t;
    let ref_ns = REFERENCE.with(|cell| cell.borrow_mut().get_or_insert_with(Reference::new).run());
    (r, Timed { cpu_ns, ref_ns })
}
