//! One benchmark run: set-up (repeated before the measurement; `setup_s`
//! is the median CPU time), the measurement, the output checks and the
//! metrics — or, traced, the layer probes, an untraced and a traced pass,
//! the attribution table and the per-layer metrics.

use std::path::PathBuf;

use crate::spans::{Attribution, SpanLog};
use crate::{
    campaign, catalogue, clock, host, pins, probes, serve, sim, stats, warm_store, Metric, Report,
    Scale, SeedRng, StateDir, Workload,
};

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Where state lives.
    pub state: StateDir,
    /// The `mppmd` binary the `serve` workload starts.
    pub daemon_exe: PathBuf,
}

/// What a run produced besides its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics, counts and checks.
    pub report: Report,
    /// Attribution table of the traced pass.
    pub attribution: Option<Attribution>,
    /// Spans of the traced pass, as JSON lines.
    pub spans_jsonl: String,
}

/// Runs the benchmark.
///
/// # Errors
///
/// A set-up failure (state directory, store, daemon) that leaves nothing
/// to measure.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    warm_store(&opts.state, &opts.scale).map_err(|e| format!("warming the profile store: {e}"))?;
    if !opts.traced {
        return match opts.workload {
            Workload::Sim => untraced_sim(opts),
            Workload::Campaign => untraced_campaign(opts),
            Workload::Serve => untraced_serve(opts),
        };
    }
    let probes = layer_probes(opts);
    let mut out = match opts.workload {
        Workload::Sim => traced_sim(opts)?,
        Workload::Campaign => traced_campaign(opts)?,
        Workload::Serve => traced_serve(opts, &probes)?,
    };
    let report = &mut out.report;
    report.fill(probes);
    if let Some(a) = &out.attribution {
        let pct = 100.0 * a.remainder_s() / a.e2e_s.max(f64::MIN_POSITIVE);
        report.set(Metric::new("obs.unattributed_pct", pct, "%"));
    }
    // Layers this workload does not run read 0: not applicable here, and
    // measured by the traced run of the workload that runs them.
    for def in catalogue::expected(true) {
        if report.get(&def.name).is_none() {
            report.set(Metric::new(&def.name, 0.0, &def.unit));
        }
    }
    Ok(out)
}

/// The layer probes every traced run makes (`sim` times trace compiles in
/// its own set-up instead).
fn layer_probes(opts: &Options) -> Vec<Metric> {
    let (scale, seed) = (&opts.scale, opts.seed);
    let mut out = vec![
        probes::store_load(&opts.state, scale),
        probes::cache_access(scale, seed),
        probes::profile(scale, seed),
    ];
    if opts.workload != Workload::Sim {
        out.extend(probes::trace_compile(scale));
    }
    out.extend(probes::solve(&opts.state, scale, seed));
    out.extend(probes::wire(&opts.state, scale, seed));
    out
}

fn self_rss() -> Metric {
    Metric::new(
        "peak_rss_mb",
        host::peak_rss_mb("self").unwrap_or(0.0),
        "MB",
    )
}

/// Repeats `setup` at least `scale.setup_min_reps` times and until the
/// set-ups have taken `scale.setup_min_s` wall seconds, handing every
/// result but the last to `retire`; `setup` returns what it built with
/// the CPU seconds it took. Returns the last result with the median of
/// those CPU seconds, and prints the median wall seconds beside it.
///
/// Set-up is short and allocation-heavy: in wall time it swung by up to
/// 60% for seconds at a time on a shared two-core host, and the median
/// of two runs' repetitions an hour apart moved by 46%. CPU time leaves
/// out the waits for a processor and the disk that make those swings.
fn repeated<T>(
    scale: &Scale,
    mut setup: impl FnMut(usize) -> Result<(T, f64), String>,
    mut retire: impl FnMut(T),
) -> Result<(T, f64), String> {
    let (mut cpu, mut wall) = (Vec::new(), Vec::new());
    let mut last = None;
    while cpu.len() < scale.setup_min_reps.max(1) || wall.iter().sum::<f64>() < scale.setup_min_s {
        if let Some(t) = last.take() {
            retire(t);
        }
        let (made, secs) = clock::timed(|| setup(cpu.len()));
        let (made, cpu_s) = made?;
        cpu.push(cpu_s);
        wall.push(secs);
        last = Some(made);
    }
    let median = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let sorted = stats::sorted(cpu.clone());
    println!(
        "  set-up x{}: median {:.6} CPU-s (from {:.6} to {:.6}), {:.6} wall-s",
        cpu.len(),
        median(&cpu),
        sorted[0],
        sorted[sorted.len() - 1],
        median(&wall)
    );
    Ok((last.expect("at least one set-up ran"), median(&cpu)))
}

fn untraced_sim(opts: &Options) -> Result<Outcome, String> {
    let off = SpanLog::new(false);
    let (setup, setup_s) = repeated(
        &opts.scale,
        |_| {
            let (made, cpu_s) = clock::cpu_timed(|| sim::setup(&opts.state, &opts.scale, &off));
            Ok((made.map_err(|e| e.to_string())?, cpu_s))
        },
        drop,
    )?;
    let pass = sim::measure(&setup, &opts.scale, opts.seed, opts.seconds, &off);
    let mut report = Report::default();
    let (a, f, p) = sim::check(&pass, &opts.scale, &pins::Pins::sim());
    report.count(a, f, p);
    println!(
        "  {} mixes; from per-mix wall time instead of CPU time: {:.0} insns/s",
        pass.runs.len(),
        sim::wall_throughput(&pass, opts.scale.workers)
    );
    report.set(sim::throughput(&pass, opts.scale.workers));
    report.set(Metric::new("setup_s", setup_s, "s"));
    report.set(self_rss());
    Ok(Outcome {
        report,
        ..Outcome::default()
    })
}

fn traced_sim(opts: &Options) -> Result<Outcome, String> {
    let spans = SpanLog::new(true);
    let mut setup = sim::setup(&opts.state, &opts.scale, &spans).map_err(|e| e.to_string())?;
    let half = opts.seconds / 2.0;
    let plain = sim::measure(&setup, &opts.scale, opts.seed, half, &SpanLog::new(false));
    let traced = sim::measure(&setup, &opts.scale, opts.seed, half, &spans);
    let mut report = Report::default();
    for pass in [&plain, &traced] {
        let (a, f, p) = sim::check(pass, &opts.scale, &pins::Pins::sim());
        report.count(a, f, p);
    }
    let sec_per_insn = |p: &sim::Pass| 1.0 / sim::throughput(p, opts.scale.workers).value;
    report.set(overhead(sec_per_insn(&plain), sec_per_insn(&traced)));
    report.fill(sim::layers(&traced, &setup, &spans));
    setup.release_traces();
    let accuracy = sim::accuracy_pass(&setup, &opts.scale);
    let (a, f, p) = sim::check(&accuracy, &opts.scale, &pins::Pins::sim());
    report.count(a, f, p);
    report.fill(sim::accuracy_metrics(&accuracy, &setup));
    let measured: Vec<_> = spans
        .spans()
        .into_iter()
        .filter(|s| s.name != "TraceCache::get_or_compile" && s.name != "Store::suite_profiles")
        .collect();
    let attribution = Attribution::build(&measured, traced.wall_s * opts.scale.workers as f64);
    Ok(Outcome {
        report,
        attribution: Some(attribution),
        spans_jsonl: spans.to_jsonl(),
    })
}

fn untraced_campaign(opts: &Options) -> Result<Outcome, String> {
    let off = SpanLog::new(false);
    let (setup, setup_s) = repeated(
        &opts.scale,
        |_| {
            let (made, cpu_s) =
                clock::cpu_timed(|| campaign::setup(&opts.state, &opts.scale, opts.seed, &off));
            Ok((made.map_err(|e| e.to_string())?, cpu_s))
        },
        drop,
    )?;
    let pass = campaign::measure(&setup, &opts.state, opts.seconds);
    let mut report = Report::default();
    let (a, f, p) = campaign::check(&pass, &opts.scale, opts.seed, None);
    report.count(a, f, p);
    println!(
        "  {} repetitions; from wall time instead of CPU time: {:.1} evaluations/s",
        pass.reps.len(),
        campaign::wall_throughput(&pass)
    );
    report.set(campaign::throughput(&pass, opts.scale.workers));
    report.set(Metric::new("setup_s", setup_s, "s"));
    report.set(self_rss());
    Ok(Outcome {
        report,
        ..Outcome::default()
    })
}

fn traced_campaign(opts: &Options) -> Result<Outcome, String> {
    let spans = SpanLog::new(true);
    let setup =
        campaign::setup(&opts.state, &opts.scale, opts.seed, &spans).map_err(|e| e.to_string())?;
    let plain = campaign::measure(&setup, &opts.state, opts.seconds / 2.0);
    let traced = campaign::traced(&setup, &opts.state)?;
    let mut report = Report::default();
    let (a, f, p) = campaign::check(&plain, &opts.scale, opts.seed, Some(traced.digest));
    report.count(a, f, p);
    let per_eval = |secs: f64, evals: u64| secs / evals.max(1) as f64;
    let plain_secs: f64 = plain.reps.iter().map(|r| r.secs).sum();
    let plain_evals: u64 = plain.reps.iter().map(|r| r.evaluations).sum();
    report.set(overhead(
        per_eval(plain_secs, plain_evals),
        per_eval(traced.wall_s, traced.evaluations),
    ));
    report.fill(traced.metrics);
    let spans_jsonl = spans.to_jsonl() + &traced.spans_jsonl;
    Ok(Outcome {
        report,
        attribution: Some(traced.attribution),
        spans_jsonl,
    })
}

/// Starts daemons (each to ready and warm) as [`repeated`] repeats
/// set-ups, shutting all but the last down; returns the last with the
/// median of the daemons' set-up CPU seconds and whether every shutdown
/// was clean.
fn start_daemon(opts: &Options, scale: &Scale) -> Result<(serve::Daemon, f64, bool), String> {
    let mut clean = true;
    let (daemon, setup_s) = repeated(
        scale,
        |i| {
            let daemon =
                serve::Daemon::start(&opts.daemon_exe, &opts.state, &opts.scale, &format!("{i}"))
                    .map_err(|e| format!("starting mppmd: {e}"))?;
            let cpu_s = daemon.setup_cpu_s;
            Ok((daemon, cpu_s))
        },
        |d| clean &= d.shutdown(),
    )?;
    Ok((daemon, setup_s, clean))
}

fn untraced_serve(opts: &Options) -> Result<Outcome, String> {
    let scale = &opts.scale;
    let (daemon, setup_s, clean) = start_daemon(opts, scale)?;
    let pool = serve::pool(scale, opts.seed);
    let capacity = serve::saturate(&daemon, scale, &pool, opts.seed, opts.seconds, 1)
        .map_err(|e| e.to_string());
    let rss = daemon.peak_rss_mb().unwrap_or(0.0);
    let clean = clean & daemon.shutdown();
    let capacity = capacity?;
    let mut report = Report::default();
    check_serve(opts, &[&capacity], &pool, clean, &mut report)?;
    report.set(Metric::new("throughput_per_s", capacity.per_cpu_s(), "1/s"));
    report.set(Metric::new("setup_s", setup_s, "s"));
    report.set(Metric::new("peak_rss_mb", rss, "MB"));
    let hits = capacity
        .counters
        .get("server.cache_hit")
        .copied()
        .unwrap_or(0);
    println!(
        "  saturated, {} in flight per connection: {} requests, {:.0} per wall second, {:.3} daemon CPU-s; response-cache hits {:.3}",
        serve::SATURATE_DEPTH,
        capacity.samples.len(),
        capacity.rate,
        capacity.window_cpu_s.iter().sum::<f64>(),
        hits as f64 / capacity.samples.len().max(1) as f64,
    );
    Ok(Outcome {
        report,
        ..Outcome::default()
    })
}

/// Checks every answer of `phases` and the daemons' clean exit.
fn check_serve(
    opts: &Options,
    phases: &[&serve::Phase],
    pool: &[mppm::mix::Mix],
    clean: bool,
    report: &mut Report,
) -> Result<(), String> {
    let store = opts.state.store(&opts.scale).map_err(|e| e.to_string())?;
    let ctx = mppm_experiments::Context::with_store(opts.scale.ctx_scale, store);
    let (a, f, p) = serve::check(phases, pool, &ctx, &opts.scale);
    report.count(a, f, p);
    let problem = (!clean).then(|| "serve: mppmd did not exit cleanly".to_string());
    report.count(1, u64::from(!clean), problem.into_iter().collect());
    Ok(())
}

/// Runs the ladder on `daemon`; returns the rungs run (stopping at the
/// first that fails) and prints each verdict.
fn ladder(
    opts: &Options,
    daemon: &serve::Daemon,
    pool: &[mppm::mix::Mix],
    rng: &mut SeedRng,
    mut next_id: u64,
) -> Result<Vec<serve::Phase>, String> {
    let scale = &opts.scale;
    let mut rungs = Vec::new();
    let off = SpanLog::new(false);
    for &rate in &scale.serve_ladder_rps {
        let rung = serve::phase(
            daemon,
            scale,
            pool,
            rng,
            rate,
            scale.serve_rung_s,
            next_id,
            &off,
        )
        .map_err(|e| e.to_string())?;
        next_id += rung.samples.len() as u64;
        let (pass, valid) = serve::rung_verdict(&rung, scale);
        println!(
            "  rung {rate:>7.0} rps: p99 {:>9.3} ms, lag p99 {:>7.3} ms, backlog {:>4} -> {}",
            rung.p99_ms(),
            rung.lag_p99_ms(),
            rung.backlog_end,
            if !valid {
                "invalid (generator lag)"
            } else if pass {
                "pass"
            } else {
                "fail"
            }
        );
        rungs.push(rung);
        if !pass {
            break;
        }
    }
    Ok(rungs)
}

/// Share of a traced `serve` run's seconds spent warming the response
/// cache before the untraced and traced passes, which share the rest.
const SERVE_WARM_SHARE: f64 = 0.2;

/// One daemon: a warm-up phase fills its response cache, then an untraced
/// and a traced phase of the same length run back to back (so the
/// overhead compares one daemon in one state), then the ladder.
fn traced_serve(opts: &Options, probes: &[Metric]) -> Result<Outcome, String> {
    let scale = &opts.scale;
    let pool = serve::pool(scale, opts.seed);
    let spans = SpanLog::new(true);
    let off = SpanLog::new(false);
    let rate = scale.serve_nominal_rps;
    let warm_s = SERVE_WARM_SHARE * opts.seconds;
    let half = (opts.seconds - warm_s) / 2.0;
    let once = Scale {
        setup_min_reps: 1,
        setup_min_s: 0.0,
        ..scale.clone()
    };
    let (daemon, _, clean) = start_daemon(opts, &once)?;
    let mut rng = SeedRng::new(opts.seed, 0xd0);
    let mut phases = Vec::new();
    let mut next_id = 1;
    for (secs, log) in [(warm_s, &off), (half, &off), (half, &spans)] {
        let phase = serve::phase(&daemon, scale, &pool, &mut rng, rate, secs, next_id, log)
            .map_err(|e| e.to_string())?;
        next_id += phase.samples.len() as u64;
        phases.push(phase);
    }
    let rungs = ladder(opts, &daemon, &pool, &mut rng, next_id)?;
    let clean = clean & daemon.shutdown();
    let (plain, traced) = (&phases[1], &phases[2]);
    let mut report = Report::default();
    let checked: Vec<&serve::Phase> = phases.iter().chain(&rungs).collect();
    check_serve(opts, &checked, &pool, clean, &mut report)?;
    report.set(overhead(plain.windowed_ms(50.0), traced.windowed_ms(50.0)));
    let (mut metrics, attribution) = serve::layers(traced, &spans, &pool, probes);
    metrics.push(Metric::new(
        "serve.max_rps",
        serve::max_rps(&rungs, scale),
        "1/s",
    ));
    metrics.push(Metric::new("serve.p50_ms", traced.windowed_ms(50.0), "ms"));
    metrics.push(Metric::new("serve.p99_ms", traced.p99_ms(), "ms"));
    report.fill(metrics);
    Ok(Outcome {
        report,
        attribution: Some(attribution),
        spans_jsonl: spans.to_jsonl(),
    })
}

/// `obs.tracing_overhead_pct`: extra time per unit of work in the traced
/// pass over the untraced one.
fn overhead(plain: f64, traced: f64) -> Metric {
    Metric::new(
        "obs.tracing_overhead_pct",
        100.0 * (traced - plain) / plain,
        "%",
    )
}
