//! `perfbench` command line.
//!
//! ```text
//! perfbench --workload sim|campaign|serve --seed N --seconds S --trace 0|1
//!           [--scale full|smoke] [--state DIR]
//! perfbench pin sim|campaign [--scale full|smoke] [--seeds A-B] [--state DIR]
//! ```
//!
//! Run from the repository root (`bash perfbench/run.sh ...` builds and
//! runs it). State — the private profile store, journals, sockets, span
//! logs and result rows — lives under `perfbench/.state` unless `--state`
//! says otherwise. The last line of standard output is the result: one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.

use perfbench::runner::{self, Options};
use perfbench::{campaign, host, pins, sim, Scale, StateDir, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  perfbench --workload sim|campaign|serve --seed N --seconds S --trace 0|1 [--scale full|smoke] [--state DIR]
  perfbench pin sim|campaign [--scale full|smoke] [--seeds A-B] [--state DIR]";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|v| {
            v.parse::<T>()
                .map_err(|_| format!("{name}: cannot parse `{v}`"))
        })
        .transpose()
}

fn scale(args: &[String]) -> Result<Scale, String> {
    match flag(args, "--scale").unwrap_or("full") {
        "full" => Ok(Scale::full()),
        "smoke" => Ok(Scale::smoke()),
        other => Err(format!("--scale: unknown scale `{other}`")),
    }
}

fn state(args: &[String]) -> Result<StateDir, String> {
    let dir = match flag(args, "--state") {
        Some(d) => PathBuf::from(d),
        None => {
            if !Path::new("perfbench").is_dir() {
                return Err("run from the repository root (no ./perfbench directory here)".into());
            }
            PathBuf::from("perfbench/.state")
        }
    };
    StateDir::open(dir).map_err(|e| format!("state directory: {e}"))
}

fn daemon_exe() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    Ok(me.with_file_name("mppmd"))
}

fn bench(args: &[String]) -> Result<(), String> {
    let workload = flag(args, "--workload")
        .and_then(Workload::parse)
        .ok_or("--workload must be sim, campaign or serve")?;
    let seed: u64 = parse(args, "--seed")?.ok_or("--seed is required")?;
    let seconds: f64 = parse(args, "--seconds")?.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let traced = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let scale = scale(args)?;
    std::env::set_var("MPPM_THREADS", scale.workers.to_string());
    let opts = Options {
        workload,
        seed,
        seconds,
        traced,
        scale,
        state: state(args)?,
        daemon_exe: daemon_exe()?,
    };
    let provenance = host::Provenance::collect(seed);
    println!(
        "perfbench {} seed {seed} trace {} scale {}",
        workload.name(),
        u8::from(traced),
        opts.scale.label
    );
    println!("provenance {}", provenance.to_json());
    let out = runner::run(&opts)?;
    let report = &out.report;
    print!("{}", report.render());
    if let Some(a) = &out.attribution {
        print!("{}", a.render(workload.name()));
    }
    for p in &report.problems {
        println!("check failed: {p}");
    }
    let line = report.result_line(traced)?;
    let tag = format!("{}-seed{seed}-trace{}", workload.name(), u8::from(traced));
    let row = format!(
        "{{\"provenance\":{},\"result\":{line}}}\n",
        provenance.to_json()
    );
    let rows = opts.state.root().join("rows");
    let _ = std::fs::create_dir_all(&rows);
    let _ = mppm_obs::atomic_write_bytes(&rows.join(format!("{tag}.json")), row.as_bytes());
    if !out.spans_jsonl.is_empty() {
        let _ = mppm_obs::atomic_write_bytes(
            &rows.join(format!("{tag}.spans.jsonl")),
            out.spans_jsonl.as_bytes(),
        );
    }
    println!("{line}");
    Ok(())
}

/// Regenerates a pin file from the current code.
fn pin(args: &[String]) -> Result<(), String> {
    let what = args
        .get(1)
        .map(String::as_str)
        .ok_or("pin: say `sim` or `campaign`")?;
    let scale = scale(args)?;
    std::env::set_var("MPPM_THREADS", scale.workers.to_string());
    let state = state(args)?;
    perfbench::warm_store(&state, &scale).map_err(|e| e.to_string())?;
    match what {
        "sim" => {
            let mut pins = read_pins(SIM_PINS);
            for (key, digest) in sim::pin_all(&state, &scale).map_err(|e| e.to_string())? {
                pins.insert(scale.label, &key, digest);
            }
            write_pins(
                SIM_PINS,
                &pins.render("sim: MixResult digest of every pool mix, per scale"),
            )
        }
        "campaign" => {
            let (a, b) = flag(args, "--seeds")
                .and_then(|s| s.split_once('-'))
                .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)))
                .ok_or("pin campaign: --seeds A-B is required")?;
            let mut pins = read_pins(CAMPAIGN_PINS);
            for seed in a..=b {
                let digest = campaign::pin_one(&state, &scale, seed)?;
                eprintln!("  [pin] campaign seed {seed}: {digest:016x}");
                pins.insert(scale.label, &campaign::pin_key(&scale, seed), digest);
            }
            write_pins(
                CAMPAIGN_PINS,
                &pins.render("campaign: CSV-bundle digest per sample size and seed, per scale"),
            )
        }
        other => Err(format!("pin: unknown target `{other}`")),
    }
}

const SIM_PINS: &str = "perfbench/pins/sim.txt";
const CAMPAIGN_PINS: &str = "perfbench/pins/campaign.txt";

/// The pins currently on disk (the compiled-in copy may be older).
fn read_pins(path: &str) -> pins::Pins {
    pins::Pins::parse(&std::fs::read_to_string(path).unwrap_or_default())
}

fn write_pins(path: &str, text: &str) -> Result<(), String> {
    mppm_obs::atomic_write_bytes(Path::new(path), text.as_bytes())
        .map_err(|e| format!("{path}: {e}"))?;
    eprintln!("  [pin] wrote {path}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("pin") => pin(&args),
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => bench(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
