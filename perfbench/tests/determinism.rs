//! The deterministic metrics — `model.stp_err_pct`,
//! `model.slowdown_err_pct`, `cmpsim.llc_commits` and
//! `model.steps_per_mix` — are identical with one and two worker threads.
//!
//! One test in its own binary: it sets `MPPM_THREADS`, which the
//! campaign executor reads.

use perfbench::spans::SpanLog;
use perfbench::{campaign, sim, warm_store, Metric, Scale, StateDir};
use std::path::PathBuf;

fn pick(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} measured"))
        .value
}

fn deterministic(workers: usize, state: &StateDir) -> Vec<(String, u64)> {
    std::env::set_var("MPPM_THREADS", workers.to_string());
    let scale = Scale {
        workers,
        ..Scale::smoke()
    };
    let spans = SpanLog::new(true);
    let mut setup = sim::setup(state, &scale, &spans).expect("sim set-up");
    let pass = sim::measure(&setup, &scale, 5, 0.0, &spans);
    let mut sim_metrics = sim::layers(&pass, &setup, &spans);
    setup.release_traces();
    let accuracy = sim::accuracy_pass(&setup, &scale);
    sim_metrics.extend(sim::accuracy_metrics(&accuracy, &setup));
    let off = SpanLog::new(false);
    let csetup = campaign::setup(state, &scale, 5, &off).expect("campaign set-up");
    let traced = campaign::traced(&csetup, state).expect("traced campaign");
    let mut out: Vec<(String, u64)> = [
        "model.stp_err_pct",
        "model.slowdown_err_pct",
        "cmpsim.llc_commits",
    ]
    .iter()
    .map(|n| (n.to_string(), pick(&sim_metrics, n).to_bits()))
    .collect();
    out.push((
        "model.steps_per_mix".into(),
        pick(&traced.metrics, "model.steps_per_mix").to_bits(),
    ));
    out.push(("campaign.digest".into(), traced.digest));
    out
}

#[test]
fn deterministic_metrics_do_not_depend_on_worker_count() {
    let state = StateDir::open(PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("determinism"))
        .expect("test state directory is writable");
    warm_store(&state, &Scale::smoke()).expect("store warms");
    let one = deterministic(1, &state);
    let two = deterministic(2, &state);
    assert_eq!(one, two);
    assert!(
        one.iter().all(|(_, v)| *v != 0),
        "every metric was measured: {one:?}"
    );
}
