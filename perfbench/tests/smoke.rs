//! Smoke runs of every workload at seconds-long scale, untraced and
//! traced: outputs check, and the result line carries exactly the
//! catalogue's metrics.

use perfbench::runner::{run, Options};
use perfbench::{Scale, StateDir, Workload};
use std::path::PathBuf;

fn options(workload: Workload, traced: bool) -> Options {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{}",
        workload.name(),
        u8::from(traced)
    ));
    Options {
        workload,
        seed: 3,
        seconds: 0.3,
        traced,
        scale: Scale::smoke(),
        state: StateDir::open(dir).expect("test state directory is writable"),
        daemon_exe: PathBuf::from(env!("CARGO_BIN_EXE_mppmd")),
    }
}

fn smoke(workload: Workload, traced: bool) {
    let out = run(&options(workload, traced)).expect("the run completes");
    let report = &out.report;
    assert!(
        report.correct(),
        "{} failed its checks: {:?}",
        workload.name(),
        report.problems
    );
    assert!(report.attempted > 0);
    let line = report
        .result_line(traced)
        .expect("every catalogue metric was measured");
    let v: serde_json::Value = serde_json::from_str(&line).expect("the result line is JSON");
    let expected = perfbench::catalogue::expected(traced).len();
    assert_eq!(
        v["metrics"].as_object().expect("metrics object").len(),
        expected
    );
    if traced {
        let a = out.attribution.expect("traced runs attribute their time");
        let total: f64 = a.rows.iter().map(|r| r.self_s).sum();
        assert!(
            (total - a.e2e_s).abs() < 1e-6 * a.e2e_s.max(1.0),
            "rows sum to end-to-end"
        );
    }
}

#[test]
fn sim_untraced() {
    smoke(Workload::Sim, false);
}

#[test]
fn sim_traced() {
    smoke(Workload::Sim, true);
}

#[test]
fn campaign_untraced() {
    smoke(Workload::Campaign, false);
}

#[test]
fn campaign_traced() {
    smoke(Workload::Campaign, true);
}

#[test]
fn serve_untraced() {
    smoke(Workload::Serve, false);
}

#[test]
fn serve_traced() {
    smoke(Workload::Serve, true);
}
