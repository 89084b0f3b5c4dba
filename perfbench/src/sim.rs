//! The `sim` workload: detailed simulation of seeded 4- and 8-program
//! mixes, each also predicted by MPPM.
//!
//! Mixes are drawn from a fixed pool of eight suite benchmarks (so the
//! compiled traces, about 70 MB each at full geometry, fit in memory):
//! four memory-bound and four cache-friendlier ones. Work comes in
//! *rounds*: a round splits the pool into two halves `A` and `B` of two
//! memory-bound and two cache-friendlier programs each and simulates `A`,
//! `B` (4 programs each) and `A⊎A`, `B⊎B` (8 programs each), so every pool
//! benchmark runs on three cores per round. Rounds come in cycles of
//! [`CYCLE`] that pair every program with every other of its kind once;
//! the seed picks where each cycle starts and which pairs join. Single
//! rounds differ in cost by ±15%, whole cycles by under 2%, so a run
//! simulates whole cycles until `--seconds` have passed, and exact counts
//! cover the first cycle so they do not depend on host speed.
//!
//! The timed rounds keep to the pool and repeat each half on eight cores,
//! which suits a throughput figure but not an accuracy one. MPPM's error
//! is therefore measured, in traced runs and outside any timing, on the
//! [`accuracy_mixes`]: random mixes of 4 and of 8 distinct programs drawn
//! from the whole suite with a fixed seed.

use mppm::mix::Mix;
use mppm::{Prediction, SingleCoreProfile};
use mppm_experiments::Context;
use mppm_obs::Observer;
use mppm_sim::{MixResult, MixSim, SimArena, TraceCache};
use mppm_trace::{suite, BenchmarkSpec};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

use crate::spans::SpanLog;
use crate::{clock, machine, pins, stats, Metric, Scale, SeedRng, StateDir};

/// The benchmark pool mixes are drawn from: four memory-bound programs
/// (14–35 LLC misses per kilo-instruction) and four cache-friendlier ones
/// (3–10), all with isolated CPI between 0.76 and 1.39. Programs that
/// finish early re-run their trace until the slowest finishes, so a wide
/// CPI spread within a mix would make the work per mix swing with the
/// pairing rather than with the simulator's speed.
pub const POOL: [&str; 8] = [
    "lbm",
    "libquantum",
    "leslie3d",
    "soplex",
    "gcc",
    "omnetpp",
    "xalancbmk",
    "h264ref",
];

/// Rounds per cycle; exact counts cover the first cycle.
pub const CYCLE: usize = PAIRINGS.len();

/// Suite index of every pool benchmark.
pub fn pool_indices() -> Vec<usize> {
    let names = suite::names();
    POOL.iter()
        .map(|p| {
            names
                .iter()
                .position(|n| n == p)
                .expect("pool benchmarks are suite members")
        })
        .collect()
}

/// The halves a split can put together: two of the memory-bound
/// programs (`POOL[..4]`) and two of the cache-friendly ones
/// (`POOL[4..]`), by position in [`POOL`].
fn half(heavy: &[usize], light: &[usize]) -> Vec<usize> {
    heavy[..2].iter().chain(&light[..2]).copied().collect()
}

/// The three ways to pair up four programs, as positions.
const PAIRINGS: [[usize; 4]; 3] = [[0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 1, 2]];

/// The four mixes of round `r`, largest first so the two workers start on
/// the long simulations. Both the memory-bound and the cache-friendlier
/// programs' pairings cycle through [`PAIRINGS`] from seeded offsets, so
/// every three consecutive rounds pair each program with each other of its
/// kind once (the pairings set most of a mix's cost); the seed also picks
/// which memory-bound pair joins which cache-friendlier pair.
pub fn round(r: usize, offsets: [usize; 3]) -> Vec<Mix> {
    let pool = pool_indices();
    let by =
        |idx: &[usize; 4], xs: &[usize]| -> Vec<usize> { idx.iter().map(|&i| xs[i]).collect() };
    let heavy = by(&PAIRINGS[(offsets[0] + r) % 3], &pool[..4]);
    let mut light = by(&PAIRINGS[(offsets[1] + r) % 3], &pool[4..]);
    if (offsets[2] + r) % 2 == 1 {
        light.rotate_left(2);
    }
    let a = half(&heavy, &light);
    let b = half(&heavy[2..], &light[2..]);
    let doubled = |h: &[usize]| Mix::new(h.iter().chain(h).copied().collect());
    vec![doubled(&a), doubled(&b), Mix::new(a), Mix::new(b)]
}

/// Seed of the accuracy set. It is fixed, so every run measures the error
/// on the same mixes and their results can be pinned.
pub const ACCURACY_SEED: u64 = 0xacc;
/// Mixes of each size (8 and 4 programs) in the accuracy set.
pub const ACCURACY_MIXES: usize = 3;

/// The accuracy set: [`ACCURACY_MIXES`] mixes of 8 and then of 4
/// distinct programs, each drawn uniformly from the whole suite.
pub fn accuracy_mixes() -> Vec<Mix> {
    let mut rng = SeedRng::new(ACCURACY_SEED, 0xac);
    let n = suite::spec_suite().len();
    [8, 4]
        .into_iter()
        .flat_map(|cores| std::iter::repeat_n(cores, ACCURACY_MIXES))
        .map(|cores| {
            let mut all: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut all);
            Mix::new(all[..cores].to_vec())
        })
        .collect()
}

/// Every distinct mix any seed can produce: the 36 possible halves and
/// their doubled eight-program mixes.
pub fn all_mixes() -> Vec<Mix> {
    let pool = pool_indices();
    let pairs = |xs: &[usize]| -> Vec<Vec<usize>> {
        (0..4)
            .flat_map(|i| (i + 1..4).map(move |j| vec![xs[i], xs[j]]))
            .collect()
    };
    let mut out = Vec::new();
    for h in pairs(&pool[..4]) {
        for l in pairs(&pool[4..]) {
            let half = half(&h, &l);
            out.push(Mix::new(half.clone()));
            out.push(Mix::new(half.iter().chain(&half).copied().collect()));
        }
    }
    out
}

/// Pin key of a mix: its benchmark names in canonical order.
pub fn mix_key(mix: &Mix) -> String {
    mix.members()
        .iter()
        .map(|&i| suite::spec_suite()[i].name())
        .collect::<Vec<_>>()
        .join("+")
}

/// Digest of one simulation result.
pub fn result_digest(result: &MixResult) -> u64 {
    crate::fnv1a(
        serde_json::to_string(result)
            .expect("results serialize")
            .as_bytes(),
    )
}

/// Everything the measurement needs, built by [`setup`].
pub struct Setup {
    ctx: Context,
    profiles: Vec<SingleCoreProfile>,
    traces: TraceCache,
    geometry: mppm_trace::TraceGeometry,
}

/// Loads the suite profiles (LLC config #1) from the warm store and
/// compiles the pool's traces into a fresh shared [`TraceCache`].
pub fn setup(state: &StateDir, scale: &Scale, spans: &SpanLog) -> std::io::Result<Setup> {
    let store = state.store(scale)?;
    let profiles = spans.scope("Store::suite_profiles", "store", None, 0, |_| {
        store.suite_profiles(&machine(0), scale.geometry)
    });
    let traces = TraceCache::new();
    let pool = pool_indices();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..scale.workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(&b) = pool.get(i) else { break };
                let spec = &suite::spec_suite()[b];
                spans.scope(
                    "TraceCache::get_or_compile",
                    "trace",
                    None,
                    b as u64,
                    |_| traces.get_or_compile(spec, scale.geometry),
                );
            });
        }
    });
    Ok(Setup {
        ctx: Context::with_store(scale.ctx_scale, store),
        profiles,
        traces,
        geometry: scale.geometry,
    })
}

/// One simulated and predicted mix.
#[derive(Debug, Clone)]
pub struct MixRun {
    /// Round the mix belongs to (0-based) and its place in the round.
    pub round: (usize, usize),
    /// The mix.
    pub mix: Mix,
    /// Detailed-simulation result.
    pub result: MixResult,
    /// MPPM prediction.
    pub prediction: Prediction,
    /// Host seconds `MixSim::run_into` took.
    pub sim_s: f64,
    /// CPU seconds the worker thread spent in `MixSim::run_into`.
    pub cpu_s: f64,
    /// Simulator counter deltas for this mix (traced runs only).
    pub counters: BTreeMap<String, u64>,
}

/// The outcome of one measurement pass.
pub struct Pass {
    /// Every mix, in round order (not completion order, so float sums
    /// over them do not depend on thread timing).
    pub runs: Vec<MixRun>,
    /// Wall seconds from the first mix started to the last finished.
    pub wall_s: f64,
}

struct Queue {
    offsets: [usize; 3],
    rounds: usize,
    jobs: VecDeque<((usize, usize), Mix)>,
}

/// Simulates and predicts whole cycles of [`CYCLE`] rounds on
/// `scale.workers` threads until `seconds` have passed. With
/// `spans` enabled, every call is spanned and each worker publishes the
/// simulator's counters into its own observer.
pub fn measure(setup: &Setup, scale: &Scale, seed: u64, seconds: f64, spans: &SpanLog) -> Pass {
    let machine = machine(0);
    let mut rng = SeedRng::new(seed, 0x51);
    let offsets = [rng.below(3), rng.below(3), rng.below(2)];
    let queue = Mutex::new(Queue {
        offsets,
        rounds: 0,
        jobs: VecDeque::new(),
    });
    let runs = Mutex::new(Vec::new());
    let root = spans.start("sim.measure", "root", None, 0);
    let root_id = root.id();
    let start = clock::now();
    std::thread::scope(|s| {
        for _ in 0..scale.workers {
            s.spawn(|| {
                let observer = if spans.enabled() {
                    Observer::with_sinks(Vec::new())
                } else {
                    Observer::disabled()
                };
                let obs_root = observer.root("sim");
                let mut arena = SimArena::new();
                loop {
                    let job = {
                        let mut q = queue.lock().expect("queue lock is never poisoned");
                        if q.jobs.is_empty()
                            && (!q.rounds.is_multiple_of(CYCLE)
                                || q.rounds == 0
                                || clock::secs_since(start) < seconds)
                        {
                            let r = q.rounds;
                            let mixes = round(r, q.offsets);
                            q.jobs
                                .extend(mixes.into_iter().enumerate().map(|(i, m)| ((r, i), m)));
                            q.rounds += 1;
                        }
                        q.jobs.pop_front()
                    };
                    let Some((round, mix)) = job else { break };
                    let specs: Vec<&BenchmarkSpec> = mix
                        .members()
                        .iter()
                        .map(|&i| &suite::spec_suite()[i])
                        .collect();
                    let key = crate::fnv1a(mix_key(&mix).as_bytes());
                    let before: BTreeMap<String, u64> =
                        observer.counter_snapshot().into_iter().collect();
                    let mut result = MixResult::default();
                    let open = spans.start("MixSim::run_into", "cmpsim", root_id, key);
                    let t = clock::now();
                    let cpu = clock::thread_cpu_s();
                    MixSim::new(&specs, &machine, scale.geometry)
                        .trace_cache(&setup.traces)
                        .arena(&mut arena)
                        .observer(&obs_root)
                        .run_into(&mut result);
                    let cpu_s = clock::thread_cpu_s() - cpu;
                    let sim_s = clock::secs_since(t);
                    spans.end(open);
                    let prediction = spans.scope("Context::predict", "model", root_id, key, |_| {
                        setup.ctx.predict(&mix, &setup.profiles)
                    });
                    let counters = observer
                        .counter_snapshot()
                        .into_iter()
                        .map(|(k, v)| {
                            let was = before.get(&k).copied().unwrap_or(0);
                            (k, v - was)
                        })
                        .collect();
                    runs.lock()
                        .expect("results lock is never poisoned")
                        .push(MixRun {
                            round,
                            mix,
                            result,
                            prediction,
                            sim_s,
                            cpu_s,
                            counters,
                        });
                }
            });
        }
    });
    let wall_s = clock::secs_since(start);
    spans.end(root);
    let mut runs = runs.into_inner().expect("results lock is never poisoned");
    runs.sort_by_key(|r| r.round);
    Pass { runs, wall_s }
}

/// Output checks: every result's digest must equal its pin.
/// Returns `(attempted, failed)`.
pub fn check(pass: &Pass, scale: &Scale, pins: &pins::Pins) -> (u64, u64, Vec<String>) {
    let mut failed = 0;
    let mut notes = Vec::new();
    for run in &pass.runs {
        let key = mix_key(&run.mix);
        let digest = result_digest(&run.result);
        let ok = pins.get(scale.label, &key) == Some(digest)
            && run.result.names.len() == run.mix.len()
            && run.prediction.stp().is_finite();
        if !ok {
            failed += 1;
            notes.push(format!(
                "sim: {key}: digest {digest:016x} does not match its pin"
            ));
        }
    }
    (pass.runs.len() as u64, failed, notes)
}

/// Simulates and predicts the [`accuracy_mixes`] on `scale.workers`
/// threads, untimed. Each mix compiles its own traces and drops them
/// afterwards, so the set's traces are never all in memory at once.
pub fn accuracy_pass(setup: &Setup, scale: &Scale) -> Pass {
    let machine = machine(0);
    let mixes = accuracy_mixes();
    let start = clock::now();
    let runs = mppm_experiments::parallel_map_with(
        "accuracy",
        &mixes,
        || (),
        |(), mix| {
            let specs: Vec<&BenchmarkSpec> = mix
                .members()
                .iter()
                .map(|&i| &suite::spec_suite()[i])
                .collect();
            let (result, sim_s) =
                clock::timed(|| MixSim::new(&specs, &machine, scale.geometry).run());
            MixRun {
                round: (0, 0),
                mix: mix.clone(),
                result,
                prediction: setup.ctx.predict(mix, &setup.profiles),
                sim_s,
                cpu_s: sim_s,
                counters: BTreeMap::new(),
            }
        },
    );
    Pass {
        runs,
        wall_s: clock::secs_since(start),
    }
}

/// Accuracy over `pass`: mean absolute relative error (percent) of
/// predicted STP, and of predicted per-program slowdown pooled over every
/// program, against simulation.
pub fn accuracy(pass: &Pass, profiles: &[SingleCoreProfile]) -> (f64, f64) {
    let mut stp = Vec::new();
    let mut slow = Vec::new();
    for run in &pass.runs {
        let cpi_sc: Vec<f64> = run
            .mix
            .members()
            .iter()
            .map(|&i| profiles[i].cpi_sc())
            .collect();
        let measured = run.result.stp(&cpi_sc);
        stp.push(((run.prediction.stp() - measured) / measured).abs());
        let sim_slow = mppm::metrics::slowdowns(&cpi_sc, &run.result.cpi_mc);
        for (p, m) in run.prediction.slowdowns().iter().zip(&sim_slow) {
            slow.push(((p - m) / m).abs());
        }
    }
    (
        100.0 * stats::mean(&stp).unwrap_or(0.0),
        100.0 * stats::mean(&slow).unwrap_or(0.0),
    )
}

/// `throughput_per_s` of one pass: simulated measurement-window
/// instructions per second with every worker on a core of its own —
/// Σ instructions ÷ (Σ per-mix CPU seconds ÷ workers). CPU time leaves
/// out the time a worker waited for a processor, which on a shared host
/// swings by tens of percent from run to run; summing per-mix times
/// also keeps the last cycle's drain, when one worker already idles,
/// out of the figure.
pub fn throughput(pass: &Pass, workers: usize) -> Metric {
    Metric::new("throughput_per_s", rate(pass, workers, |r| r.cpu_s), "1/s")
}

/// The same rate from per-mix wall seconds (printed beside the metric).
pub fn wall_throughput(pass: &Pass, workers: usize) -> f64 {
    rate(pass, workers, |r| r.sim_s)
}

fn rate(pass: &Pass, workers: usize, secs: impl Fn(&MixRun) -> f64) -> f64 {
    let insns: u64 = pass
        .runs
        .iter()
        .map(|r| r.result.trace_insns * r.result.names.len() as u64)
        .sum();
    let busy_s: f64 = pass.runs.iter().map(secs).sum();
    insns as f64 * workers as f64 / busy_s
}

/// Per-layer metrics of a traced pass.
pub fn layers(pass: &Pass, setup: &Setup, spans: &SpanLog) -> Vec<Metric> {
    let exact: Vec<&MixRun> = pass.runs.iter().filter(|r| r.round.0 < CYCLE).collect();
    let sum = |name: &str, runs: &[&MixRun]| -> u64 {
        runs.iter()
            .map(|r| r.counters.get(name).copied().unwrap_or(0))
            .sum()
    };
    let all: Vec<&MixRun> = pass.runs.iter().collect();
    let sim_ns: f64 = 1e9 * pass.runs.iter().map(|r| r.sim_s).sum::<f64>();
    let hits = sum("sim.llc.hits", &exact);
    let misses = sum("sim.llc.misses", &exact);
    let split = |cores: usize, p: f64| {
        let v = stats::sorted(
            pass.runs
                .iter()
                .filter(|r| r.mix.len() == cores)
                .map(|r| r.sim_s)
                .collect(),
        );
        stats::percentile(&v, p).unwrap_or(0.0)
    };
    let compiles: Vec<f64> = spans
        .spans()
        .iter()
        .filter(|s| s.name == "TraceCache::get_or_compile")
        .map(|s| s.secs())
        .collect();
    let ops: Vec<f64> = pool_indices()
        .iter()
        .map(|&b| {
            setup
                .traces
                .get_or_compile(&suite::spec_suite()[b], setup.geometry)
                .ops() as f64
        })
        .collect();
    vec![
        Metric::new(
            "trace.compile_s",
            stats::median(&compiles).unwrap_or(0.0),
            "s",
        ),
        Metric::new(
            "trace.compiled_ops",
            stats::mean(&ops).unwrap_or(0.0),
            "count",
        ),
        Metric::new(
            "cache.llc_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        ),
        Metric::new("cmpsim.mix_s_p50_4p", split(4, 50.0), "s"),
        Metric::new("cmpsim.mix_s_p90_4p", split(4, 90.0), "s"),
        Metric::new("cmpsim.mix_s_p50_8p", split(8, 50.0), "s"),
        Metric::new("cmpsim.mix_s_p90_8p", split(8, 90.0), "s"),
        Metric::new(
            "cmpsim.ns_per_op",
            sim_ns / sum("sim.batch.ops", &all).max(1) as f64,
            "ns",
        ),
        Metric::new(
            "cmpsim.ns_per_llc_commit",
            sim_ns / sum("sim.llc.commits", &all).max(1) as f64,
            "ns",
        ),
        Metric::new(
            "cmpsim.llc_commits",
            sum("sim.llc.commits", &exact) as f64,
            "count",
        ),
        Metric::new(
            "cmpsim.heap_pops",
            sum("sim.sched.heap_pops", &exact) as f64,
            "count",
        ),
    ]
}

/// `model.stp_err_pct` and `model.slowdown_err_pct` of an
/// [`accuracy_pass`].
pub fn accuracy_metrics(pass: &Pass, setup: &Setup) -> Vec<Metric> {
    let (stp_err, slow_err) = accuracy(pass, &setup.profiles);
    vec![
        Metric::new("model.stp_err_pct", stp_err, "%"),
        Metric::new("model.slowdown_err_pct", slow_err, "%"),
    ]
}

impl Setup {
    /// Drops the compiled pool traces (before the accuracy pass compiles
    /// its own).
    pub fn release_traces(&mut self) {
        self.traces = TraceCache::new();
    }
}

/// Simulates every mix any seed can produce ([`all_mixes`]) and the
/// [`accuracy_mixes`], and returns each one's pin key and result digest.
pub fn pin_all(state: &StateDir, scale: &Scale) -> std::io::Result<Vec<(String, u64)>> {
    let mut setup = setup(state, scale, &SpanLog::new(false))?;
    let machine = machine(0);
    let mixes = all_mixes();
    let out = mppm_experiments::parallel_map_with("pin", &mixes, SimArena::new, |arena, mix| {
        let specs: Vec<&BenchmarkSpec> = mix
            .members()
            .iter()
            .map(|&i| &suite::spec_suite()[i])
            .collect();
        let result = MixSim::new(&specs, &machine, scale.geometry)
            .trace_cache(&setup.traces)
            .arena(arena)
            .run();
        (mix_key(mix), result_digest(&result))
    });
    setup.release_traces();
    let accuracy = accuracy_pass(&setup, scale);
    Ok(out
        .into_iter()
        .chain(
            accuracy
                .runs
                .iter()
                .map(|r| (mix_key(&r.mix), result_digest(&r.result))),
        )
        .collect())
}
