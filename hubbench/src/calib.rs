//! A fixed reference workload that measures how fast the host runs, so
//! end-to-end times can be scaled to one reference speed.
//!
//! On a shared virtual machine the same code can run 30–90% slower for
//! minutes at a time, so runs made a few minutes apart disagree by more
//! than any change worth measuring. The benchmark therefore times this
//! workload at a few wave boundaries inside every measured pass (and
//! just before and after every set-up), and reports each time as
//! `raw × (REFERENCE_NS / reference time)^SENSITIVITY`: the time the
//! engine would have taken had the reference workload run in exactly
//! [`REFERENCE_NS`]. Sampling inside the pass makes the reference see
//! the host the pass saw. The engine slows more than the reference
//! workload when the host slows, so the ratio enters with the power
//! [`SENSITIVITY`] (see [`scale`]). The workload is part of the
//! benchmark, not of the engine, so a change to the engine cannot move it; it allocates nothing after
//! [`Reference::new`], so the engine's heap cannot move it either, and
//! each sample is the median of a few back-to-back runs, so the caches
//! the engine leaves behind barely move it. It mixes what the engine
//! spends its time on: dependent loads over a working set larger than
//! the per-core caches, sorting and searching, text formatting and byte
//! hashing.

use crate::rfq::SplitMix64;
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// The reference speed, as the reference workload's time: a round figure
/// within the 20–35 ms it took on the 2-vCPU virtual machine the
/// baselines in `README.md` were measured on, so scaled times read as
/// times there.
pub const REFERENCE_NS: f64 = 25e6;
/// How much faster the engine's times grow than the reference workload's
/// when the host slows. Over 40 runs of 50 s on that machine, 20 on each
/// listed workload, log(engine time) against log(reference time) had
/// slopes of 1.2–1.6 for every end-to-end time; 1.5 is the round middle.
/// With a power of 1 the quartile spreads of ten-run sets reached 0.25;
/// with 1.5 they stayed within 0.13.
pub const SENSITIVITY: f64 = 1.5;
/// Slots of the pointer-chasing cycle (8 MiB of `u32`).
const CHAIN: usize = 1 << 21;
/// Dependent loads per run.
const CHASE: usize = 200_000;
/// Keys sorted, searched and formatted per run.
const KEYS: usize = 1 << 15;
/// Reference samples per pass, spread evenly over its waves.
pub const REFERENCE_SAMPLES: usize = 4;
/// Runs per sample; the sample is their median.
const RUNS: usize = 3;

/// The reference workload with its buffers, built once per process.
pub struct Reference {
    next: Vec<u32>,
    keys: Vec<u64>,
    scratch: Vec<u64>,
    text: String,
}

impl Reference {
    pub fn new() -> Self {
        let mut rng = SplitMix64(0xCA11_B8A7E);
        // Sattolo's algorithm: a single cycle through every slot, so the
        // chase visits the whole working set in an order the prefetcher
        // cannot guess.
        let mut next: Vec<u32> = (0..CHAIN as u32).collect();
        for i in (1..CHAIN).rev() {
            next.swap(i, (rng.next() % i as u64) as usize);
        }
        let keys = (0..KEYS).map(|_| rng.next()).collect();
        let mut reference =
            Self { next, keys, scratch: Vec::with_capacity(KEYS), text: String::new() };
        reference.run();
        reference
    }

    /// The median wall time of a few back-to-back runs, in ns.
    pub fn measure(&mut self) -> f64 {
        let mut ns = [0.0; RUNS];
        for t in &mut ns {
            *t = self.run() as f64;
        }
        ns.sort_by(f64::total_cmp);
        ns[RUNS / 2]
    }

    /// Runs the workload once and returns its wall time in ns.
    fn run(&mut self) -> u64 {
        let started = Instant::now();
        let mut at = 0u32;
        for _ in 0..CHASE {
            at = self.next[at as usize];
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.keys);
        self.scratch.sort_unstable();
        let mut found = 0usize;
        for k in self.keys.iter().step_by(2) {
            found += self.scratch.binary_search(k).unwrap_or(0);
        }
        self.text.clear();
        for k in &self.keys[..KEYS / 2] {
            let _ = write!(self.text, "K{k:016x}*{}~", k % 1000);
        }
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for b in self.text.bytes() {
            hash = (hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        black_box((at, found, hash));
        started.elapsed().as_nanos() as u64
    }
}

/// The factor that turns a time measured while the reference workload
/// took `reference_ns` into the time at the reference speed.
pub fn scale(reference_ns: f64) -> f64 {
    (REFERENCE_NS / reference_ns).powf(SENSITIVITY)
}
