//! The `campaign` workload: in-process `Campaign::run` over a seeded
//! stratified sample of 8-program mixes on LLC designs #1 and #2, each
//! repetition into a fresh journal, from a warm private profile store.

use mppm_campaign::{
    aggregate_journal, csv_bundle, execute_pending, AggregateOptions, Campaign, CampaignPlan,
    CampaignResult, CampaignSpec, Journal, MixSource,
};
use mppm_experiments::Context;
use mppm_obs::{Event, Observer, Sink};
use mppm_trace::suite;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::spans::{Attribution, SpanLog, SpanRec};
use crate::{clock, pins, stats, Metric, Scale, StateDir};

/// Programs per mix.
pub const CORES: usize = 8;
/// LLC designs evaluated (0-based Table 2 configs #1 and #2).
pub const DESIGNS: [usize; 2] = [0, 1];
/// Shards per design whose journaled outcomes are re-derived in process
/// by `Context::predict` as a reference check.
pub const REFERENCE_SHARDS: usize = 2;

/// The campaign a seed selects.
pub fn spec(scale: &Scale, seed: u64) -> CampaignSpec {
    CampaignSpec {
        cores: CORES,
        designs: DESIGNS.to_vec(),
        source: MixSource::Stratified {
            count: scale.campaign_mixes,
            seed,
        },
        shard_size: scale.campaign_shard,
    }
}

/// Pin key of a campaign: sample size and seed.
pub fn pin_key(scale: &Scale, seed: u64) -> String {
    format!("s{}x{seed}", scale.campaign_mixes)
}

/// Digest of a campaign's CSV bundle.
pub fn bundle_digest(result: &CampaignResult) -> u64 {
    crate::fnv1a(csv_bundle(result).as_bytes())
}

/// What the measurement needs, built by [`setup`].
pub struct Setup {
    ctx: Context,
    spec: CampaignSpec,
}

/// Opens the warm store, loads both designs' suite profiles and builds
/// the plan once (as `Campaign::run` does on every call).
pub fn setup(
    state: &StateDir,
    scale: &Scale,
    seed: u64,
    spans: &SpanLog,
) -> std::io::Result<Setup> {
    let ctx = Context::with_store(scale.ctx_scale, state.store(scale)?);
    for &cfg in &DESIGNS {
        spans.scope("Store::suite_profiles", "store", None, cfg as u64, |_| {
            ctx.profiles(&ctx.machine_with_config(cfg))
        });
    }
    let spec = spec(scale, seed);
    spans
        .scope("CampaignPlan::build", "campaign", None, 0, |_| {
            CampaignPlan::build(&spec, suite::spec_suite().len(), ctx.geometry())
        })
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    Ok(Setup { ctx, spec })
}

/// One campaign repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Wall seconds of the whole run.
    pub secs: f64,
    /// CPU seconds this process spent in the run, all threads.
    pub cpu_s: f64,
    /// Evaluations computed.
    pub evaluations: u64,
    /// CSV-bundle digest.
    pub digest: u64,
}

/// Outcome of the untraced measurement.
pub struct Pass {
    /// Every repetition.
    pub reps: Vec<Rep>,
    /// Problems found by the reference check.
    pub problems: Vec<String>,
}

/// An empty journal root under the state directory, named by `tag`.
fn fresh_journal(state: &StateDir, tag: &str) -> PathBuf {
    let dir = state.scratch(&format!("journal-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `Campaign::run` into a fresh journal until `seconds` have passed
/// (at least once). After the first repetition, a few shards of the
/// journal are re-derived in process as a reference check.
pub fn measure(setup: &Setup, state: &StateDir, seconds: f64) -> Pass {
    let mut reps = Vec::new();
    let mut problems = Vec::new();
    let start = clock::now();
    while reps.is_empty() || clock::secs_since(start) < seconds {
        let dir = fresh_journal(state, "run");
        let ((result, cpu_s), secs) = clock::timed(|| {
            clock::cpu_timed(|| Campaign::new(&setup.spec).journal(&dir).run(&setup.ctx))
        });
        match result {
            Ok(result) => {
                if reps.is_empty() {
                    problems.extend(reference_check(setup, &dir));
                }
                reps.push(Rep {
                    secs,
                    cpu_s,
                    evaluations: result.stats.evaluated_mixes,
                    digest: bundle_digest(&result),
                });
            }
            Err(e) => {
                problems.push(format!("campaign: run failed: {e}"));
                reps.push(Rep {
                    secs,
                    cpu_s,
                    evaluations: 0,
                    digest: 0,
                });
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    Pass { reps, problems }
}

/// Re-derives [`REFERENCE_SHARDS`] shards per design with
/// `Context::predict` and compares them with the journal.
fn reference_check(setup: &Setup, journal_root: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    let plan =
        match CampaignPlan::build(&setup.spec, suite::spec_suite().len(), setup.ctx.geometry()) {
            Ok(plan) => plan,
            Err(e) => return vec![format!("campaign: plan failed: {e}")],
        };
    let journal = match Journal::open(journal_root, &plan) {
        Ok(j) => j,
        Err(e) => return vec![format!("campaign: journal reopen failed: {e}")],
    };
    for (design, &cfg) in setup.spec.designs.iter().enumerate() {
        let profiles = setup.ctx.profiles(&setup.ctx.machine_with_config(cfg));
        for shard in plan.shards_of_design(design).take(REFERENCE_SHARDS) {
            let Ok(Some(record)) = journal.load(shard.id, shard.mixes()) else {
                problems.push(format!(
                    "campaign: shard d{design}-{} unreadable",
                    shard.id.index
                ));
                continue;
            };
            for (offset, outcome) in record.outcomes.iter().enumerate() {
                let mix = plan.population.mix_at(shard.start + offset as u64);
                let pred = setup.ctx.predict(&mix, &profiles);
                let max_slow = pred
                    .slowdowns()
                    .iter()
                    .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
                let same = outcome.members == mix.members()
                    && outcome.stp.to_bits() == pred.stp().to_bits()
                    && outcome.antt.to_bits() == pred.antt().to_bits()
                    && outcome.max_slowdown.to_bits() == max_slow.to_bits();
                if !same {
                    problems.push(format!(
                        "campaign: journaled outcome of mix {:?} on design #{} differs from Context::predict",
                        mix.members(),
                        cfg + 1
                    ));
                }
            }
        }
    }
    problems
}

/// Output checks: every repetition succeeded and produced the same
/// bundle, which equals the pinned digest when the seed is pinned.
pub fn check(
    pass: &Pass,
    scale: &Scale,
    seed: u64,
    traced_digest: Option<u64>,
) -> (u64, u64, Vec<String>) {
    let mut problems = pass.problems.clone();
    let pinned = pins::Pins::campaign().get(scale.label, &pin_key(scale, seed));
    let expected = pinned.or_else(|| pass.reps.first().map(|r| r.digest));
    let mut failed = 0;
    for (i, rep) in pass.reps.iter().enumerate() {
        if rep.evaluations == 0 || Some(rep.digest) != expected {
            failed += 1;
            problems.push(format!(
                "campaign: repetition {i} bundle {:016x} != expected",
                rep.digest
            ));
        }
    }
    if let Some(d) = traced_digest {
        if Some(d) != expected {
            failed += 1;
            problems.push(format!("campaign: traced bundle {d:016x} != expected"));
        }
    }
    if pinned.is_none() {
        eprintln!(
            "  [campaign] seed {seed} has no pinned bundle digest; checked against the reference shards and between repetitions"
        );
    }
    let attempted = pass.reps.len() as u64 + u64::from(traced_digest.is_some());
    (attempted, failed, problems)
}

/// `throughput_per_s` of the untraced pass: evaluations per second of
/// the median repetition with every worker on a core of its own —
/// evaluations ÷ (CPU seconds ÷ workers); one slow repetition moves
/// nothing. CPU time leaves out the time the workers waited for a
/// processor, which on a shared host swings by tens of percent.
pub fn throughput(pass: &Pass, workers: usize) -> Metric {
    Metric::new("throughput_per_s", rate(pass, workers, |r| r.cpu_s), "1/s")
}

/// The same rate from wall seconds (printed beside the metric).
pub fn wall_throughput(pass: &Pass) -> f64 {
    rate(pass, 1, |r| r.secs)
}

fn rate(pass: &Pass, workers: usize, secs: impl Fn(&Rep) -> f64) -> f64 {
    let secs: Vec<f64> = pass.reps.iter().map(secs).collect();
    let evals = pass.reps.first().map_or(0, |r| r.evaluations);
    evals as f64 * workers as f64 / stats::median(&secs).unwrap_or(0.0)
}

/// Turns the executor's own span-end events (shard and per-mix scopes,
/// with the `elapsed_us` the program measures) into benchmark spans.
/// Also counts the solver's per-mix `solver` events and how many of
/// them report convergence.
struct EventSpans {
    log: Arc<SpanLog>,
    epoch: std::time::Instant,
    solves: Arc<AtomicU64>,
    converged: Arc<AtomicU64>,
}

impl Sink for EventSpans {
    fn record(&self, event: Event) {
        if event.name == "solver" {
            self.solves.fetch_add(1, Ordering::Relaxed);
            let done = event
                .fields
                .iter()
                .any(|(k, v)| *k == "converged" && *v == mppm_obs::Value::Bool(true));
            self.converged.fetch_add(u64::from(done), Ordering::Relaxed);
            return;
        }
        if event.name != "span-end" {
            return;
        }
        let Some(us) = event.fields.iter().find_map(|(k, v)| match (k, v) {
            (&"elapsed_us", mppm_obs::Value::U64(us)) => Some(*us),
            _ => None,
        }) else {
            return;
        };
        let leaf = event.scope.rsplit('/').next().unwrap_or("");
        let (name, layer) = if leaf.starts_with("mix-") {
            ("predict_observed_with", "model")
        } else if leaf.starts_with("shard-") {
            ("shard (solve + Journal::store)", "campaign")
        } else {
            return;
        };
        let end_ns = u64::try_from(clock::now().duration_since(self.epoch).as_nanos()).unwrap_or(0);
        let key = crate::fnv1a(event.scope.as_bytes());
        let parent = (layer == "model").then(|| {
            let shard = event.scope.rsplit_once('/').map_or("", |(p, _)| p);
            crate::fnv1a(shard.as_bytes())
        });
        self.log.push(SpanRec {
            id: key,
            parent,
            name,
            layer,
            key,
            start_ns: end_ns.saturating_sub(us * 1000),
            end_ns,
        });
    }
}

/// Outcome of the traced pass.
pub struct Traced {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Attribution of the traced run.
    pub attribution: Attribution,
    /// Wall seconds of the traced run.
    pub wall_s: f64,
    /// Evaluations in the traced run.
    pub evaluations: u64,
    /// Bundle digest of the traced run.
    pub digest: u64,
    /// The traced run's spans, as JSON lines.
    pub spans_jsonl: String,
}

/// One traced campaign: the steps `Campaign::run` takes, called one by
/// one under spans, with the executor's shard and mix spans captured from
/// its observer; then every shard is reloaded and re-stored to time the
/// journal per shard.
pub fn traced(setup: &Setup, state: &StateDir) -> Result<Traced, String> {
    let epoch = clock::now();
    let log = Arc::new(SpanLog::new(true));
    let solves = Arc::new(AtomicU64::new(0));
    let converged = Arc::new(AtomicU64::new(0));
    let observer = Observer::new(Box::new(EventSpans {
        log: Arc::clone(&log),
        epoch,
        solves: Arc::clone(&solves),
        converged: Arc::clone(&converged),
    }));
    let dir = fresh_journal(state, "traced");
    let options = AggregateOptions::default();
    let n = suite::spec_suite().len();
    let start = clock::now();
    let (plan, plan_s) = clock::timed(|| CampaignPlan::build(&setup.spec, n, setup.ctx.geometry()));
    let plan = plan.map_err(|e| e.to_string())?;
    let (journal, open_s) = clock::timed(|| Journal::open(&dir, &plan));
    let journal = journal.map_err(|e| e.to_string())?;
    let (stats_, execute_s) = clock::timed(|| {
        let root = observer.root("campaign");
        execute_pending(&setup.ctx, &plan, &journal, &root)
    });
    let exec = stats_.map_err(|e| e.to_string())?;
    let (agg, aggregate_s) = clock::timed(|| aggregate_journal(&plan, &journal, &options));
    let (designs, stability) = agg.map_err(|e| e.to_string())?;
    let wall_s = clock::secs_since(start);
    let counters: std::collections::BTreeMap<String, u64> =
        observer.counter_snapshot().into_iter().collect();
    let _ = observer.finish();
    let result = CampaignResult {
        plan_id: plan.id.clone(),
        cores: setup.spec.cores,
        mixes: plan.population.len(),
        designs,
        stability,
        stats: exec.clone(),
    };
    let digest = bundle_digest(&result);

    // Journal I/O per shard, outside the timed run.
    let bytes: u64 = std::fs::read_dir(journal.dir())
        .map(|d| {
            d.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let mut load_ms = Vec::new();
    let mut records = Vec::new();
    for shard in &plan.shards {
        let (rec, s) = clock::timed(|| journal.load(shard.id, shard.mixes()));
        load_ms.push(1e3 * s);
        if let Ok(Some(rec)) = rec {
            records.push(rec);
        }
    }
    let copy_dir = fresh_journal(state, "restored");
    let copy = Journal::open(&copy_dir, &plan).map_err(|e| e.to_string())?;
    let store_ms: Vec<f64> = records
        .iter()
        .map(|r| 1e3 * clock::timed(|| copy.store(r)).1)
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&copy_dir);

    // Attribution in thread-seconds: sequential steps count once, the
    // parallel executor counts once per worker.
    let threads = mppm_experiments::worker_threads() as f64;
    let e2e_s = (wall_s - execute_s) + execute_s * threads;
    let mut spans = log.spans();
    for (name, secs) in [
        ("CampaignPlan::build", plan_s),
        ("Journal::open", open_s),
        ("aggregate_journal", aggregate_s),
    ] {
        let ns = (secs * 1e9) as u64;
        spans.push(SpanRec {
            id: 0,
            parent: None,
            name,
            layer: "campaign",
            key: 0,
            start_ns: 0,
            end_ns: ns,
        });
    }
    let attribution = Attribution::build(&spans, e2e_s);
    let spans_jsonl = log.to_jsonl();
    let predictions = counters.get("model.predictions").copied().unwrap_or(0);
    let steps = counters.get("model.steps").copied().unwrap_or(0);
    let evaluations = exec.evaluated_mixes;
    let unattributed = wall_s - plan_s - open_s - execute_s - aggregate_s;
    let metrics = vec![
        Metric::new("campaign.plan_s", plan_s, "s"),
        Metric::new("campaign.execute_s", execute_s, "s"),
        Metric::new("campaign.aggregate_s", aggregate_s, "s"),
        Metric::new(
            "campaign.journal_load_ms",
            stats::mean(&load_ms).unwrap_or(0.0),
            "ms",
        ),
        Metric::new(
            "campaign.journal_store_ms",
            stats::mean(&store_ms).unwrap_or(0.0),
            "ms",
        ),
        Metric::new(
            "campaign.journal_bytes_per_eval",
            bytes as f64 / evaluations.max(1) as f64,
            "B",
        ),
        Metric::new("campaign.unattributed_s", unattributed, "s"),
        Metric::new(
            "model.steps_per_mix",
            steps as f64 / predictions.max(1) as f64,
            "count",
        ),
        Metric::new(
            "model.converged_ratio",
            converged.load(Ordering::Relaxed) as f64 / solves.load(Ordering::Relaxed).max(1) as f64,
            "ratio",
        ),
    ];
    Ok(Traced {
        metrics,
        attribution,
        wall_s,
        evaluations,
        digest,
        spans_jsonl,
    })
}

/// The bundle digest of one campaign for `seed`, run from scratch.
///
/// # Errors
///
/// Set-up or campaign failure.
pub fn pin_one(state: &StateDir, scale: &Scale, seed: u64) -> Result<u64, String> {
    let setup = setup(state, scale, seed, &SpanLog::new(false)).map_err(|e| e.to_string())?;
    let dir = fresh_journal(state, "pin");
    let result = Campaign::new(&setup.spec)
        .journal(&dir)
        .run(&setup.ctx)
        .map_err(|e| e.to_string());
    let _ = std::fs::remove_dir_all(&dir);
    Ok(bundle_digest(&result?))
}
