//! Layer probes: single-threaded timings of one layer's public function
//! on inputs derived from the seed, run by every traced run.

use mppm::mix::Mix;
use mppm::SolverScratch;
use mppm_cache::{Replacement, SetAssocCache};
use mppm_experiments::Context;
use mppm_obs::Span;
use mppm_server::protocol::{ok_frame, resolve, Request};
use mppm_trace::{suite, CompiledTrace, FLAG_ACCESS};
use serde::Value;
use std::hint::black_box;

use crate::{clock, machine, serve, sim, stats, Metric, Scale, SeedRng, StateDir};

/// Mixes per size the solver probe times.
const SOLVES: usize = 200;
/// Request lines the wire probe decodes and frames it encodes.
const WIRE_LINES: usize = 2000;

/// Median seconds of `reps` calls of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let t: Vec<f64> = (0..reps).map(|_| clock::timed(&mut f).1).collect();
    stats::median(&t).unwrap_or(0.0)
}

/// `store.profiles_load_s`: `Store::suite_profiles` (LLC config #1) from
/// the warm disk store, each time through a freshly opened store.
pub fn store_load(state: &StateDir, scale: &Scale) -> Metric {
    let secs = median_secs(3, || {
        let store = state.store(scale).expect("the state directory is writable");
        black_box(store.suite_profiles(&machine(0), scale.geometry));
    });
    Metric::new("store.profiles_load_s", secs, "s")
}

/// `trace.compile_s` and `trace.compiled_ops`: `CompiledTrace::compile`
/// of each `sim` pool benchmark, one at a time.
pub fn trace_compile(scale: &Scale) -> Vec<Metric> {
    let mut secs = Vec::new();
    let mut ops = Vec::new();
    for b in sim::pool_indices() {
        let (trace, s) =
            clock::timed(|| CompiledTrace::compile(suite::spec_suite()[b].clone(), scale.geometry));
        secs.push(s);
        ops.push(trace.ops() as f64);
    }
    vec![
        Metric::new("trace.compile_s", stats::median(&secs).unwrap_or(0.0), "s"),
        Metric::new(
            "trace.compiled_ops",
            stats::mean(&ops).unwrap_or(0.0),
            "count",
        ),
    ]
}

/// `cache.access_ns`: `SetAssocCache::access` replaying the block stream
/// of a seed-chosen pool benchmark's compiled trace at LLC config #1.
pub fn cache_access(scale: &Scale, seed: u64) -> Metric {
    let pool = sim::pool_indices();
    let b = pool[SeedRng::new(seed, 0xca).below(pool.len())];
    let trace = CompiledTrace::compile(suite::spec_suite()[b].clone(), scale.geometry);
    let blocks: Vec<u64> = trace
        .blocks()
        .iter()
        .flat_map(|blk| {
            blk.block_ids()
                .iter()
                .zip(blk.flags())
                .filter(|(_, &f)| f & FLAG_ACCESS != 0)
                .map(|(&id, _)| id)
        })
        .collect();
    let llc = machine(0).llc;
    let secs = median_secs(3, || {
        let mut cache = SetAssocCache::new(llc, Replacement::Lru);
        let mut hits = 0u64;
        for &block in &blocks {
            hits += u64::from(cache.access(black_box(block)).hit);
        }
        black_box(hits);
    });
    Metric::new(
        "cache.access_ns",
        1e9 * secs / blocks.len().max(1) as f64,
        "ns",
    )
}

/// `cmpsim.profile_s`: `profile_single_core` of a seed-chosen pool
/// benchmark.
pub fn profile(scale: &Scale, seed: u64) -> Metric {
    let pool = sim::pool_indices();
    let spec = &suite::spec_suite()[pool[SeedRng::new(seed, 0x9f).below(pool.len())]];
    let (_, secs) = clock::timed(|| {
        black_box(mppm_sim::profile_single_core(
            spec,
            &machine(0),
            scale.geometry,
        ))
    });
    Metric::new("cmpsim.profile_s", secs, "s")
}

/// `model.solve_us_4p` and `model.solve_us_8p`: single-thread
/// `Context::predict_observed_with` over seeded random mixes, one warm
/// scratch, observer disabled.
pub fn solve(state: &StateDir, scale: &Scale, seed: u64) -> Vec<Metric> {
    let ctx = Context::with_store(
        scale.ctx_scale,
        state.store(scale).expect("the state directory is writable"),
    );
    let profiles = ctx.store().suite_profiles(&machine(0), scale.geometry);
    let mut rng = SeedRng::new(seed, 0x50);
    let n = profiles.len();
    let mut scratch = SolverScratch::new();
    let span = Span::disabled();
    [4, 8]
        .into_iter()
        .map(|cores| {
            let mixes: Vec<Mix> = (0..SOLVES)
                .map(|_| Mix::new((0..cores).map(|_| rng.below(n)).collect()))
                .collect();
            let secs = median_secs(3, || {
                for mix in &mixes {
                    black_box(ctx.predict_observed_with(mix, &profiles, &span, &mut scratch));
                }
            });
            let name = if cores == 4 {
                "model.solve_us_4p"
            } else {
                "model.solve_us_8p"
            };
            Metric::new(name, 1e6 * secs / SOLVES as f64, "us")
        })
        .collect()
}

/// `wire.decode_us` (request line → `protocol::Request` → `resolve`) and
/// `wire.encode_us` (`protocol::ok_frame` of a predict result) over the
/// `serve` workload's own request lines.
pub fn wire(state: &StateDir, scale: &Scale, seed: u64) -> Vec<Metric> {
    let pool = serve::pool(scale, seed);
    let picks = serve::draws(pool.len(), WIRE_LINES, &mut SeedRng::new(seed, 0x77));
    let lines: Vec<String> = picks
        .iter()
        .enumerate()
        .map(|(k, &p)| serve::request_line(scale, &pool[p], k as u64 + 1))
        .collect();
    let decode = median_secs(3, || {
        for line in &lines {
            let req: Request = serde_json::from_str(line.trim_end()).expect("request lines parse");
            black_box(resolve(&req).expect("request lines resolve"));
        }
    });
    let ctx = Context::with_store(
        scale.ctx_scale,
        state.store(scale).expect("the state directory is writable"),
    );
    let profiles = ctx.store().suite_profiles(&machine(0), scale.geometry);
    let results: Vec<Value> = pool
        .iter()
        .take(64)
        .map(|m| {
            serde_json::from_str(&serve::expected_result(&ctx.predict(m, &profiles)))
                .expect("results parse")
        })
        .collect();
    let encode: Vec<f64> = (0..3)
        .map(|_| {
            let values: Vec<Value> = (0..WIRE_LINES)
                .map(|k| results[k % results.len()].clone())
                .collect();
            clock::timed(|| {
                for (k, v) in values.into_iter().enumerate() {
                    black_box(ok_frame(k as u64, "predict", false, v, None));
                }
            })
            .1
        })
        .collect();
    let encode = stats::median(&encode).unwrap_or(0.0);
    vec![
        Metric::new("wire.decode_us", 1e6 * decode / WIRE_LINES as f64, "us"),
        Metric::new("wire.encode_us", 1e6 * encode / WIRE_LINES as f64, "us"),
    ]
}
