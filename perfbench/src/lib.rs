//! `perfbench` — the MPPM workspace's benchmark.
//!
//! Three workloads drive the system from outside, through its public
//! entry points, and each prints every end-to-end metric by name and
//! unit after checking the program's outputs:
//!
//! * [`sim`] — detailed simulation of seeded 4- and 8-program mixes
//!   (`MixSim`), each also predicted by MPPM so its error is measured;
//! * [`campaign`] — an in-process `Campaign::run` over a seeded
//!   stratified sample of 8-program mixes on two LLC designs;
//! * [`serve`] — an `mppmd` child process kept busy with `predict`
//!   requests (and, traced, under open-loop load at a nominal rate and a
//!   ladder of rates).
//!
//! A traced run (`--trace 1`) repeats the workload with a span around
//! every call into a layer, reads the counters the program publishes,
//! prints an attribution table, and runs the [`probes`] so every
//! per-layer metric is reported. `METRICS.md` is the catalogue.

// The CPU-clock reads in `clock` are the crate's only unsafe code.
#![deny(unsafe_code)]

pub mod campaign;
pub mod catalogue;
pub mod clock;
pub mod host;
pub mod pins;
pub mod probes;
pub mod runner;
pub mod serve;
pub mod sim;
pub mod spans;
pub mod stats;

use mppm_experiments::Store;
use mppm_sim::MachineConfig;
use mppm_trace::{suite, TraceGeometry};
use std::path::{Path, PathBuf};

pub use catalogue::{Metric, Report};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Detailed simulation of seeded mixes.
    Sim,
    /// In-process design-space campaign.
    Campaign,
    /// `mppmd` under predict load.
    Serve,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 3] = [Workload::Sim, Workload::Campaign, Workload::Serve];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sim => "sim",
            Workload::Campaign => "campaign",
            Workload::Serve => "serve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::full`] is what the benchmark measures;
/// [`Scale::smoke`] runs every code path in seconds for the self-tests.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Label used in pin files (`full` or `smoke`).
    pub label: &'static str,
    /// Trace geometry of every simulation and profile.
    pub geometry: TraceGeometry,
    /// The experiment-harness scale with the same geometry (what
    /// `Context` and `Campaign` derive their geometry from).
    pub ctx_scale: mppm_experiments::Scale,
    /// Worker threads (and, for `serve`, connections).
    pub workers: usize,
    /// Set-up is repeated in one run at least this many times and for at
    /// least [`Scale::setup_min_s`] wall seconds; `setup_s` is the median
    /// of the repetitions' CPU seconds.
    pub setup_min_reps: usize,
    /// Seconds of repeated set-up in one run, at least.
    pub setup_min_s: f64,
    /// Mixes per design in one campaign.
    pub campaign_mixes: usize,
    /// Mixes per campaign journal shard.
    pub campaign_shard: usize,
    /// Distinct requests the `serve` workload draws from.
    pub serve_pool: usize,
    /// `serve` nominal rate, requests/s.
    pub serve_nominal_rps: f64,
    /// `serve` ladder rates, requests/s, ascending.
    pub serve_ladder_rps: Vec<f64>,
    /// Seconds of load per ladder rung.
    pub serve_rung_s: f64,
    /// `serve` latency limit on p99, ms.
    pub serve_limit_ms: f64,
}

impl Scale {
    /// The benchmark's measured scale: the paper's full trace geometry.
    pub fn full() -> Self {
        Self {
            label: "full",
            geometry: TraceGeometry::default(),
            ctx_scale: mppm_experiments::Scale::Full,
            workers: 2,
            setup_min_reps: 5,
            setup_min_s: 5.0,
            campaign_mixes: 4000,
            campaign_shard: 64,
            serve_pool: 4096,
            serve_nominal_rps: 500.0,
            serve_ladder_rps: vec![
                500.0, 1000.0, 1500.0, 2000.0, 3000.0, 4000.0, 5000.0, 6000.0, 8000.0, 10000.0,
            ],
            serve_rung_s: 1.0,
            serve_limit_ms: 10.0,
        }
    }

    /// A seconds-long scale that exercises every code path.
    pub fn smoke() -> Self {
        Self {
            label: "smoke",
            geometry: mppm_experiments::Scale::Quick.geometry(),
            ctx_scale: mppm_experiments::Scale::Quick,
            workers: 2,
            setup_min_reps: 2,
            setup_min_s: 0.0,
            campaign_mixes: 64,
            campaign_shard: 16,
            serve_pool: 48,
            serve_nominal_rps: 200.0,
            serve_ladder_rps: vec![200.0, 400.0],
            serve_rung_s: 0.2,
            serve_limit_ms: 50.0,
        }
    }
}

/// Where a run keeps its state: the private profile store, journals,
/// sockets, span logs and result rows. Resolved at run time from the
/// working directory, never from the build location.
#[derive(Debug, Clone)]
pub struct StateDir {
    root: PathBuf,
}

impl StateDir {
    /// Uses (creating) `root`.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// The state root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The private profile store's root.
    pub fn store_root(&self, scale: &Scale) -> PathBuf {
        self.root.join(format!("store-{}", scale.label))
    }

    /// Opens the private profile store.
    pub fn store(&self, scale: &Scale) -> std::io::Result<Store> {
        Store::open(self.store_root(scale))
    }

    /// A scratch path under the state root, unique to this process.
    pub fn scratch(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}-{}", std::process::id()))
    }
}

/// The machine with Table 2's LLC config `idx` (0-based).
pub fn machine(idx: usize) -> MachineConfig {
    MachineConfig::baseline().with_llc(mppm_sim::llc_configs()[idx])
}

/// Makes sure the private store holds every suite profile the workloads
/// need (LLC configs #1 and #2 at `scale`), computing missing ones on
/// `scale.workers` threads. A warm store returns in milliseconds; this
/// runs before any timing and is not part of `setup_s`.
pub fn warm_store(state: &StateDir, scale: &Scale) -> std::io::Result<()> {
    let store = state.store(scale)?;
    let jobs: Vec<(usize, usize)> = (0..2)
        .flat_map(|cfg| (0..suite::spec_suite().len()).map(move |b| (cfg, b)))
        .collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..scale.workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(&(cfg, b)) = jobs.get(i) else { break };
                store.profile(&suite::spec_suite()[b], &machine(cfg), scale.geometry);
            });
        }
    });
    Ok(())
}

/// FNV-1a 64-bit digest, the benchmark's output fingerprint.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A deterministic 64-bit generator (SplitMix64) for workload inputs:
/// the seed alone fixes every mix and request a run uses.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    /// A generator for `seed`, salted per use so workloads draw
    /// independent streams.
    pub fn new(seed: u64, salt: u64) -> Self {
        Self(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_rng_is_a_function_of_the_seed() {
        let draw = |seed| {
            let mut r = SeedRng::new(seed, 1);
            (0..8).map(|_| r.below(29)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let mut r = SeedRng::new(9, 2);
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
