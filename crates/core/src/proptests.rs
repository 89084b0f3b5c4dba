//! Cross-module property tests on the model: invariants that must hold
//! for *any* structurally valid profile, not just the suite's.

#![cfg(test)]

use std::cell::RefCell;

use proptest::prelude::*;

use crate::contention::test_support::sdc;
use crate::contention::{
    ContentionModel, FoaModel, PartitionModel, ProbModel, SdcCompetitionModel,
};
use crate::model::{Mppm, MppmConfig, Prediction, SlowdownUpdate, SolverScratch};
use crate::profile::{IntervalProfile, MachineSummary, SingleCoreProfile};
use crate::CpiStack;
use mppm_cache::{CacheConfig, Sdc};
use mppm_obs::Span;

/// Strategy producing a random but valid synthetic profile.
///
/// Interval count is fixed at the paper's 50 so the default step size
/// (10 intervals) yields the paper's 25 smoothing iterations; profiles
/// with only a handful of intervals leave the EMA visibly unconverged,
/// which is a documented scale requirement, not a property to test.
fn profile_strategy(name: &'static str) -> impl Strategy<Value = SingleCoreProfile> {
    (
        0.3f64..3.0,            // cpi
        0.0f64..0.5,            // mem fraction of cpi
        0.0f64..2_000.0,        // llc accesses per interval
        0.0f64..1.0,            // miss fraction of accesses
    )
        .prop_map(move |(cpi, mem_frac, accesses, miss_frac)| {
            SingleCoreProfile::synthetic(
                name,
                8,
                50,
                10_000,
                cpi,
                cpi * mem_frac,
                accesses,
                accesses * miss_frac,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Slowdowns are finite, ≥ 1, and the derived metrics respect their
    /// bounds for any 2-program workload.
    #[test]
    fn model_invariants_hold_for_arbitrary_profiles(
        a in profile_strategy("a"),
        b in profile_strategy("b"),
    ) {
        let model = Mppm::new(MppmConfig::default(), FoaModel);
        let pred = model.predict(&[&a, &b]).expect("valid profiles");
        prop_assert!(pred.converged());
        for &r in pred.slowdowns() {
            prop_assert!(r.is_finite());
            prop_assert!(r >= 1.0 - 1e-9, "slowdown {r} below 1");
        }
        let stp = pred.stp();
        prop_assert!(stp > 0.0 && stp <= 2.0 + 1e-9, "STP {stp} out of range");
        prop_assert!(pred.antt() >= 1.0 - 1e-9);
    }

    /// Adding a cache-idle co-runner (no LLC traffic at all) changes
    /// nobody's prediction. Note that adding a *busy* co-runner is NOT
    /// monotone: slowing one competitor lowers its per-cycle LLC pressure
    /// on the others — exactly the performance entanglement the iterative
    /// model exists to capture.
    #[test]
    fn cache_idle_corunner_is_a_noop(
        a in profile_strategy("a"),
        b in profile_strategy("b"),
    ) {
        let idle = SingleCoreProfile::synthetic("idle", 8, 4, 10_000, 0.5, 0.0, 0.0, 0.0);
        let model = Mppm::new(MppmConfig::default(), FoaModel);
        let two = model.predict(&[&a, &b]).expect("valid");
        let three = model.predict(&[&a, &b, &idle]).expect("valid");
        prop_assert!(
            (three.slowdowns()[0] - two.slowdowns()[0]).abs() < 1e-6,
            "idle co-runner changed a's slowdown: {} -> {}",
            two.slowdowns()[0],
            three.slowdowns()[0]
        );
        prop_assert!((three.slowdowns()[2] - 1.0).abs() < 1e-9, "idle program unaffected");
    }

    /// Identical programs get identical predictions (symmetry). FOA and
    /// Prob are continuous, so any count works; SDC-competition allocates
    /// whole ways, so symmetry only holds when the way count divides
    /// evenly among the programs.
    #[test]
    fn symmetric_mixes_predict_symmetrically(p in profile_strategy("p")) {
        let configs = MppmConfig::default();
        fn check<M: ContentionModel>(p: &SingleCoreProfile, n: usize, cfg: MppmConfig, m: M) {
            let mix: Vec<&SingleCoreProfile> = std::iter::repeat_n(p, n).collect();
            let pred = Mppm::new(cfg, m).predict(&mix).expect("valid");
            let s = pred.slowdowns();
            for w in s.windows(2) {
                assert!((w[0] - w[1]).abs() < 1e-9, "{s:?}");
            }
        }
        check(&p, 3, configs.clone(), FoaModel);
        check(&p, 3, configs.clone(), ProbModel);
        // 8 ways split evenly over 2 or 4 programs.
        check(&p, 2, configs.clone(), SdcCompetitionModel);
        check(&p, 4, configs, SdcCompetitionModel);
    }

    /// Contention models never report more extra misses than there are
    /// hits to convert, for arbitrary windows.
    #[test]
    fn extra_misses_bounded_by_hits(
        counts in proptest::collection::vec(
            proptest::collection::vec(0.0f64..10_000.0, 9),
            2..5
        ),
    ) {
        let windows: Vec<Sdc> = counts
            .iter()
            .map(|cs| {
                let mut sdc = Sdc::new(8);
                for (d, &n) in cs.iter().enumerate() {
                    let mut unit = Sdc::new(8);
                    if d < 8 {
                        unit.record(Some(d as u32));
                    } else {
                        unit.record(None);
                    }
                    sdc.add_scaled(&unit, n);
                }
                sdc
            })
            .collect();
        for model in [&FoaModel as &dyn ContentionModel, &SdcCompetitionModel, &ProbModel] {
            let extra = model.extra_misses(&windows, 8);
            prop_assert_eq!(extra.len(), windows.len());
            for (e, w) in extra.iter().zip(&windows) {
                prop_assert!(*e >= -1e-9, "{}: negative extra", model.name());
                prop_assert!(
                    *e <= w.hits() + 1e-6,
                    "{}: extra {} > hits {}",
                    model.name(),
                    e,
                    w.hits()
                );
            }
        }
    }

    /// The EMA factor changes convergence dynamics but not the invariants.
    #[test]
    fn ema_sweep_stays_valid(
        a in profile_strategy("a"),
        b in profile_strategy("b"),
        ema in 0.0f64..0.95,
    ) {
        let model = Mppm::new(MppmConfig { ema, ..Default::default() }, FoaModel);
        let pred = model.predict(&[&a, &b]).expect("valid");
        prop_assert!(pred.converged());
        prop_assert!(pred.slowdowns().iter().all(|r| r.is_finite() && *r >= 1.0 - 1e-9));
    }
}

/// Cases per solver oracle: `MPPM_ORACLE_CASES` (default 32), so CI can
/// run a quick pass and a soak can run thousands.
fn oracle_cases() -> u32 {
    std::env::var("MPPM_ORACLE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(32)
}

/// LLC associativity of the phased profiles: wide enough that way
/// partitioning can give each of up to 16 programs a way.
const PHASED_ASSOC: u32 = 16;

/// Strategy for one interval of a phased profile, given the interval
/// length: `(cpi, mem share of cycles, LLC accesses per instruction, miss
/// share, hit-depth weights, fallback penalty)`. About one interval in
/// four misses nothing, so short windows fall below `min_misses` and take
/// the fallback penalty.
fn phased_interval() -> impl Strategy<Value = impl Fn(u64) -> IntervalProfile> {
    (
        0.2f64..8.0,
        0.0f64..1.0,
        0.0f64..0.5,
        (0u32..4, 0.0f64..1.0),
        collection::vec(0.0f64..1.0, PHASED_ASSOC as usize),
        0.0f64..400.0,
    )
        .prop_map(|(cpi, mem_share, per_insn, (quiet, miss_share), depth, fallback)| {
            move |insns: u64| {
                let accesses = per_insn * insns as f64;
                let misses = if quiet == 0 { 0.0 } else { accesses * miss_share };
                let norm: f64 = depth.iter().sum::<f64>().max(1e-9);
                let hits: Vec<f64> =
                    depth.iter().map(|w| (accesses - misses) * w / norm).collect();
                let cycles = cpi * insns as f64;
                let mem_stall_cycles = if misses > 0.0 { cycles * mem_share } else { 0.0 };
                IntervalProfile {
                    insns,
                    cycles,
                    mem_stall_cycles,
                    sdc: sdc(&hits, misses),
                    fallback_penalty: fallback,
                    stack: CpiStack::default(),
                }
            }
        })
}

/// Strategy for a phased profile: 3–64 intervals whose CPI, stall, SDC
/// and fallback all vary, over an interval length of its own (1–9,000
/// instructions, log-spread, so small positions leave window pieces at
/// interval edges that round to nothing). CPIs span 0.2–8, so a fast
/// program wraps its trace several times in one step.
fn phased_profile() -> impl Strategy<Value = SingleCoreProfile> {
    ((1u64..10, 0u32..4), collection::vec(phased_interval(), 3..65)).prop_map(
        |((mantissa, exponent), intervals)| {
            let insns = mantissa * 10u64.pow(exponent);
            SingleCoreProfile {
                name: "phased".into(),
                machine: MachineSummary {
                    llc: CacheConfig::new(
                        u64::from(PHASED_ASSOC) * 1024 * 64,
                        PHASED_ASSOC,
                        64,
                        16,
                    ),
                    mem_latency: 200,
                },
                intervals: intervals.iter().map(|iv| iv(insns)).collect(),
            }
        },
    )
}

/// Strategy for a solver configuration: every field varies, including
/// short runs that stop at `max_steps` and a limited memory bandwidth.
fn solver_config() -> impl Strategy<Value = MppmConfig> {
    (
        (0u32..2, 1_000u64..40_000),
        0.0f64..0.9,
        (0.5f64..3.0, 1usize..80),
        0.5f64..50.0,
        0u32..2,
        (0u32..2, 0.005f64..0.5),
    )
        .prop_map(|((fixed, step), ema, (passes, max_steps), min_misses, update, (limited, bw))| {
            MppmConfig {
                step_insns: (fixed == 1).then_some(step),
                ema,
                target_passes: passes,
                max_steps,
                min_misses,
                update: if update == 0 {
                    SlowdownUpdate::IsolatedCycles
                } else {
                    SlowdownUpdate::WindowCycles
                },
                bandwidth: (limited == 1).then_some(bw),
            }
        })
}

/// Asserts two predictions are equal bit for bit, NaNs and signed zeros
/// included.
fn assert_bit_identical(fast: &Prediction, reference: &Prediction) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(fast.steps(), reference.steps());
    assert_eq!(fast.converged(), reference.converged());
    assert_eq!(fast.history().len(), reference.history().len());
    for (step, (a, b)) in fast.history().iter().zip(reference.history()).enumerate() {
        assert_eq!(bits(a), bits(b), "slowdowns diverge after step {step}");
    }
    assert_eq!(bits(fast.cpi_mc()), bits(reference.cpi_mc()));
}

thread_local! {
    /// The one warm scratch every oracle case reuses, so a state leak from
    /// one mix into the next shows as a divergence.
    static SCRATCH: RefCell<SolverScratch> = RefCell::new(SolverScratch::new());
}

/// Runs the solver and its reference on one mix and compares them.
fn check_against_reference<M: ContentionModel>(
    model: M,
    cfg: MppmConfig,
    mix: &[&SingleCoreProfile],
) {
    let mppm = Mppm::new(cfg, model);
    let span = Span::disabled();
    let fast = SCRATCH
        .with(|s| mppm.predict_observed_with(mix, &span, &mut s.borrow_mut()))
        .expect("valid phased mix");
    let reference = mppm.reference_predict_observed(mix, &span).expect("valid phased mix");
    assert_bit_identical(&fast, &reference);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    /// The solver reproduces its allocate-per-step reference bit for bit
    /// on phased profiles: uneven intervals, multi-wrap windows, pieces
    /// at interval edges, fallback penalties, bandwidth queueing, every
    /// contention model and 1–16 programs, all through one warm scratch.
    #[test]
    fn solver_matches_reference_on_phased_profiles(
        profiles in collection::vec(phased_profile(), 1..17),
        cfg in solver_config(),
        contention in 0u32..4,
    ) {
        let mix: Vec<&SingleCoreProfile> = profiles.iter().collect();
        let n = mix.len() as u32;
        match contention {
            0 => check_against_reference(FoaModel, cfg, &mix),
            1 => check_against_reference(ProbModel, cfg, &mix),
            2 => check_against_reference(SdcCompetitionModel, cfg, &mix),
            _ => {
                // Split the ways as evenly as possible, at least one each.
                let ways =
                    (0..n).map(|p| PHASED_ASSOC / n + u32::from(p < PHASED_ASSOC % n)).collect();
                check_against_reference(PartitionModel::new(ways), cfg, &mix);
            }
        }
    }
}
