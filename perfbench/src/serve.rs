//! The `serve` workload: an `mppmd` child process on the warm private
//! store, under `predict` load.
//!
//! Untraced runs measure capacity with [`saturate`]: a closed loop that
//! keeps the daemon busy. Traced runs use open-loop phases ([`phase`]).
//!
//! Requests are 4- and 8-program mixes on LLC config #1, drawn Zipf-like
//! from a seeded pool larger than the daemon's 1024-entry response cache,
//! so response-cache hits, misses and LRU evictions all occur. In an
//! open-loop phase, request `k` is due at `k / rate` seconds, the
//! requests alternate over [`Scale::workers`] connections (each with a
//! sending thread and a receiving thread that blocks in `read`), and
//! every latency is timed from the request's due time,
//! so a stall delays the requests behind it and counts against them.
//! A connection never has more than [`MAX_OUTSTANDING`] requests in
//! flight; beyond that the generator waits, which shows up as lag.
//!
//! A traced phase also records two spans per request as its answer
//! arrives — the request (due time to answer) and its generator lag (due
//! time to send) — in the run's [`SpanLog`].

use mppm::mix::Mix;
use mppm::Prediction;
use mppm_experiments::Context;
use mppm_server::protocol::{Request, PROTOCOL_VERSION};
use mppm_server::Client;
use mppm_trace::suite;
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use crate::spans::{Attribution, SpanLog, SpanRec};
use crate::{clock, machine, stats, Metric, Scale, SeedRng, StateDir};

/// Requests one connection may have in flight before the generator
/// waits for answers.
pub const MAX_OUTSTANDING: usize = 256;
/// Zipf exponent of the request popularity.
pub const ZIPF_S: f64 = 0.5;
/// A ladder rung is invalid when the generator's p99 lag exceeds this
/// share of the latency limit.
pub const LAG_BUDGET_SHARE: f64 = 0.5;
/// Windows a phase is split into for its robust percentiles.
pub const WINDOWS: usize = 10;
/// How long to wait for the last responses of a phase.
const DRAIN: Duration = Duration::from_secs(20);

/// The seeded request pool: distinct mixes, half of 4 and half of 8
/// programs, in popularity order.
pub fn pool(scale: &Scale, seed: u64) -> Vec<Mix> {
    let mut rng = SeedRng::new(seed, 0x5e);
    let n = suite::spec_suite().len();
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(scale.serve_pool);
    while out.len() < scale.serve_pool {
        let cores = if out.len() % 2 == 0 { 4 } else { 8 };
        let mix = Mix::new((0..cores).map(|_| rng.below(n)).collect());
        if seen.insert(mix.clone()) {
            out.push(mix);
        }
    }
    out
}

/// `count` pool indices drawn Zipf-like (`P(rank r) ∝ 1/(r+1)^s`).
pub fn draws(pool_len: usize, count: usize, rng: &mut SeedRng) -> Vec<usize> {
    let mut cdf = Vec::with_capacity(pool_len);
    let mut acc = 0.0;
    for r in 0..pool_len {
        acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
        cdf.push(acc);
    }
    (0..count)
        .map(|_| {
            let u = rng.unit() * acc;
            cdf.partition_point(|&c| c <= u).min(pool_len - 1)
        })
        .collect()
}

/// The request line (with newline) for `mix` as request `id`.
pub fn request_line(scale: &Scale, mix: &Mix, id: u64) -> String {
    let names: Vec<&str> = mix
        .members()
        .iter()
        .map(|&i| suite::spec_suite()[i].name())
        .collect();
    let req = Request {
        v: PROTOCOL_VERSION,
        id,
        kind: "predict".into(),
        mix: names.join(","),
        config: 1,
        interval_insns: scale.geometry.interval_insns,
        intervals: u64::from(scale.geometry.intervals),
        ..Request::default()
    };
    let mut line = serde_json::to_string(&req).expect("requests serialize");
    line.push('\n');
    line
}

/// The `result` member the daemon must answer `mix` with: the in-process
/// `Context::predict` prediction in the daemon's field order.
pub fn expected_result(pred: &Prediction) -> String {
    let floats = |xs: &[f64]| Value::Array(xs.iter().map(|&f| Value::Float(f)).collect());
    let value = Value::Object(vec![
        (
            "names".into(),
            Value::Array(
                pred.names()
                    .iter()
                    .map(|s| Value::String(s.clone()))
                    .collect(),
            ),
        ),
        ("cpi_sc".into(), floats(pred.cpi_sc())),
        ("cpi_mc".into(), floats(pred.cpi_mc())),
        ("slowdowns".into(), floats(pred.slowdowns())),
        ("stp".into(), Value::Float(pred.stp())),
        ("antt".into(), Value::Float(pred.antt())),
        ("steps".into(), Value::UInt(pred.steps() as u64)),
        ("converged".into(), Value::Bool(pred.converged())),
    ]);
    serde_json::to_string(&value).expect("values serialize")
}

/// A running daemon. Dropping it kills the process (if still running)
/// and waits for it, so no exit path leaves a daemon behind.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    /// CPU seconds the daemon took to start, bind and warm up.
    pub setup_cpu_s: f64,
}

impl Daemon {
    /// Starts `exe` on a fresh socket under the state directory, waits
    /// until it accepts connections, and warms its profile memo with one
    /// single-program predict per suite benchmark.
    pub fn start(exe: &Path, state: &StateDir, scale: &Scale, tag: &str) -> std::io::Result<Self> {
        let socket = state.scratch(&format!("mppmd-{tag}.sock"));
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(exe)
            .arg("--socket")
            .arg(&socket)
            .arg("--store")
            .arg(state.store_root(scale))
            .env("MPPM_THREADS", scale.workers.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let mut daemon = Self {
            child,
            socket,
            setup_cpu_s: 0.0,
        };
        let deadline = clock::now() + Duration::from_secs(30);
        let mut client = loop {
            match Client::connect(&daemon.socket) {
                Ok(c) => break c,
                Err(_) if clock::now() < deadline => {
                    if let Ok(Some(status)) = daemon.child.try_wait() {
                        return Err(std::io::Error::other(format!(
                            "mppmd exited early: {status}"
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(std::io::Error::other(e.to_string())),
            }
        };
        for spec in suite::spec_suite() {
            let mut req = Request {
                kind: "predict".into(),
                mix: spec.name().to_string(),
                config: 1,
                interval_insns: scale.geometry.interval_insns,
                intervals: u64::from(scale.geometry.intervals),
                ..Request::default()
            };
            if let Err(e) = client.request(&mut req) {
                return Err(std::io::Error::other(format!("warming mppmd: {e}")));
            }
        }
        daemon.setup_cpu_s = daemon.cpu_s();
        Ok(daemon)
    }

    /// The daemon's socket.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// The daemon's counters (`stats` request).
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        let Ok(mut client) = Client::connect(&self.socket) else {
            return out;
        };
        let mut req = Request {
            kind: "stats".into(),
            ..Request::default()
        };
        if let Ok(resp) = client.request(&mut req) {
            if let Some(fields) = resp.result.get("counters").and_then(Value::as_object) {
                for (k, v) in fields {
                    out.insert(k.clone(), v.as_u64().unwrap_or(0));
                }
            }
        }
        out
    }

    /// CPU seconds the daemon has run so far, over all its threads.
    pub fn cpu_s(&self) -> f64 {
        clock::pid_cpu_s(self.child.id()).unwrap_or(0.0)
    }

    /// The daemon's CPU seconds in each of [`WINDOWS`] consecutive
    /// windows of length `window` from `start`, read at every boundary.
    fn window_cpu_s(&self, start: Instant, window: Duration) -> Vec<f64> {
        clock::sleep_until(start);
        let mut last = self.cpu_s();
        let mut boundary = start;
        (0..WINDOWS)
            .map(|_| {
                boundary += window;
                clock::sleep_until(boundary);
                let now = self.cpu_s();
                let used = now - last;
                last = now;
                used
            })
            .collect()
    }

    /// Peak resident memory of the daemon process, MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::host::peak_rss_mb(&self.child.id().to_string())
    }

    /// Asks the daemon to shut down and waits for it to exit. Returns
    /// whether it exited cleanly (status 0 within ten seconds); a daemon
    /// that does not is killed.
    pub fn shutdown(mut self) -> bool {
        let asked = Client::connect(&self.socket)
            .and_then(|mut c| {
                c.request(&mut Request {
                    kind: "shutdown".into(),
                    ..Request::default()
                })
            })
            .is_ok();
        let deadline = clock::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return asked && status.success(),
                Ok(None) if clock::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                _ => return false,
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Both fail harmlessly once the daemon has exited and been reaped.
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One request of a phase, after it completed (or failed).
#[derive(Debug, Clone)]
pub struct Sample {
    /// Request id.
    pub id: u64,
    /// Pool index of the mix.
    pub pool_idx: usize,
    /// When it was due, relative to the phase start.
    pub due: Duration,
    /// When it was written to the socket.
    pub sent: Duration,
    /// When its response line arrived (`None`: never).
    pub recv: Option<Duration>,
    /// The response line.
    pub line: String,
    /// The response is `ok` and answers this request.
    pub ok: bool,
    /// The response came from the daemon's response cache.
    pub cached: bool,
}

impl Sample {
    /// Latency from the due time, ms (`None` if unanswered).
    pub fn latency_ms(&self) -> Option<f64> {
        self.recv
            .map(|r| 1e3 * r.saturating_sub(self.due).as_secs_f64())
    }

    /// Generator lag: how late the request was written, ms.
    pub fn lag_ms(&self) -> f64 {
        1e3 * self.sent.saturating_sub(self.due).as_secs_f64()
    }

    /// Parses the response frame: whether it is `ok` for this request,
    /// and whether it was `cached`.
    fn parse_flags(&mut self) {
        let v: Value = serde_json::from_str(&self.line).unwrap_or(Value::Null);
        let flag = |k: &str| matches!(v.get(k), Some(Value::Bool(true)));
        self.ok = flag("ok") && v.get("id").and_then(Value::as_u64) == Some(self.id);
        self.cached = flag("cached");
    }
}

/// Latencies of answered `ok` requests, sorted, and the number that
/// failed (error frame, wrong id, or no answer).
fn latencies(samples: &[Sample]) -> (Vec<f64>, u64) {
    let mut ms = Vec::new();
    let mut failed = 0;
    for s in samples {
        match s.latency_ms() {
            Some(l) if s.ok => ms.push(l),
            _ => failed += 1,
        }
    }
    (stats::sorted(ms), failed)
}

/// The outcome of one phase.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Offered rate, requests/s.
    pub rate: f64,
    /// Every request, in id order.
    pub samples: Vec<Sample>,
    /// Requests still unanswered when the last one was due.
    pub backlog_end: u64,
    /// Daemon counter deltas over the phase.
    pub counters: BTreeMap<String, u64>,
    /// CPU seconds the daemon spent in each of the phase's [`WINDOWS`]
    /// windows (read at every window boundary).
    pub window_cpu_s: Vec<f64>,
    /// Requests of each window: due in it (open loop) or answered in it
    /// ([`saturate`]).
    pub window_done: Vec<u64>,
}

impl Phase {
    /// Percentile `p` of each of [`WINDOWS`] consecutive windows of the
    /// phase (failed requests count as missing every limit), and the
    /// median of those: one stall burst moves one window, not the result.
    pub fn windowed_ms(&self, p: f64) -> f64 {
        let size = self.samples.len().div_ceil(WINDOWS).max(1);
        let per_window: Vec<f64> = self
            .samples
            .chunks(size)
            .map(|w| {
                let (mut ms, failed) = latencies(w);
                ms.extend((0..failed).map(|_| f64::INFINITY));
                stats::percentile(&stats::sorted(ms), p).unwrap_or(f64::INFINITY)
            })
            .collect();
        stats::median(&per_window).unwrap_or(f64::INFINITY)
    }

    /// Requests served per daemon CPU-second: the median over windows of
    /// the window's requests ÷ the daemon's CPU time in it.
    pub fn per_cpu_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .window_done
            .iter()
            .zip(&self.window_cpu_s)
            .map(|(&n, &cpu)| n as f64 / cpu.max(1e-9))
            .collect();
        stats::median(&rates).unwrap_or(0.0)
    }

    /// The phase's p99 as [`Phase::windowed_ms`] computes it.
    pub fn p99_ms(&self) -> f64 {
        self.windowed_ms(99.0)
    }

    /// Generator lag p99, ms.
    pub fn lag_p99_ms(&self) -> f64 {
        let lags = stats::sorted(self.samples.iter().map(Sample::lag_ms).collect());
        stats::percentile(&lags, 99.0).unwrap_or(0.0)
    }
}

/// Drives one phase: `count` requests at `rate` over `conns`, while
/// this thread reads the daemon's CPU time at every window boundary.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    daemon: &Daemon,
    conns: &mut [UnixStream],
    scale: &Scale,
    pool: &[Mix],
    picks: &[usize],
    rate: f64,
    first_id: u64,
    spans: &SpanLog,
) -> (Vec<Sample>, Vec<f64>) {
    let lines: Vec<String> = picks
        .iter()
        .enumerate()
        .map(|(k, &p)| request_line(scale, &pool[p], first_id + k as u64))
        .collect();
    let start = clock::now() + Duration::from_millis(5);
    let n_conns = conns.len();
    let mut per_conn: Vec<Vec<Sample>> = Vec::new();
    let window = Duration::from_secs_f64(picks.len() as f64 / rate / WINDOWS as f64);
    let mut cpu = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                let mine: Vec<usize> = (c..picks.len()).step_by(n_conns).collect();
                let lines = &lines;
                s.spawn(move || drive(stream, &mine, lines, picks, rate, start, first_id, spans))
            })
            .collect();
        cpu = daemon.window_cpu_s(start, window);
        for h in handles {
            per_conn.push(h.join().expect("generator threads do not panic"));
        }
    });
    let mut samples: Vec<Sample> = per_conn.into_iter().flatten().collect();
    samples.sort_by_key(|s| s.id);
    (samples, cpu)
}

/// One connection's generator: this thread sends its requests on
/// schedule (sleeping until each is due), and a companion thread blocks
/// reading the answers, so receive times are exact and no thread spins.
/// With `spans` enabled, the receiving thread records each answered
/// request's spans as its answer arrives.
#[allow(clippy::too_many_arguments)]
fn drive(
    stream: &mut UnixStream,
    mine: &[usize],
    lines: &[String],
    picks: &[usize],
    rate: f64,
    start: Instant,
    first_id: u64,
    spans: &SpanLog,
) -> Vec<Sample> {
    let due = |k: usize| Duration::from_secs_f64(k as f64 / rate);
    let mut samples: Vec<Sample> = mine
        .iter()
        .map(|&k| Sample {
            id: first_id + k as u64,
            pool_idx: picks[k],
            due: due(k),
            sent: Duration::ZERO,
            recv: None,
            line: String::new(),
            ok: false,
            cached: false,
        })
        .collect();
    let total = samples.len();
    let answered = std::sync::atomic::AtomicUsize::new(0);
    // Send times (ns since `start`), for the receiving thread's spans.
    let sent_ns: Vec<std::sync::atomic::AtomicU64> = (0..total)
        .map(|_| std::sync::atomic::AtomicU64::new(0))
        .collect();
    let dues: Vec<(u64, Duration)> = samples.iter().map(|s| (s.id, s.due)).collect();
    let last_due = start + samples.last().map_or(Duration::ZERO, |s| s.due);
    let Ok(mut reader) = stream.try_clone() else {
        return samples;
    };
    let _ = reader.set_read_timeout(Some(DRAIN));
    let received: Vec<(Duration, String)> = std::thread::scope(|s| {
        let answered = &answered;
        let (sent_ns, dues) = (&sent_ns, &dues);
        let receiver = s.spawn(move || {
            let mut got = Vec::with_capacity(total);
            let mut buf = vec![0u8; 1 << 16];
            let mut pending: Vec<u8> = Vec::new();
            while got.len() < total {
                match reader.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        let at = clock::now().duration_since(start);
                        pending.extend_from_slice(&buf[..n]);
                        while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
                            let line: Vec<u8> = pending.drain(..=pos).collect();
                            if let Some(&(id, due)) = dues.get(got.len()) {
                                let sent = sent_ns[got.len()].load(Ordering::Acquire);
                                record_spans(spans, start, id, due, Duration::from_nanos(sent), at);
                            }
                            got.push((
                                at,
                                String::from_utf8_lossy(&line[..line.len() - 1]).into_owned(),
                            ));
                        }
                        answered.store(got.len(), Ordering::Release);
                    }
                }
            }
            got
        });
        for (next, sample) in samples.iter_mut().enumerate() {
            // Back-pressure: never more than MAX_OUTSTANDING in flight.
            while next - answered.load(Ordering::Acquire) >= MAX_OUTSTANDING {
                if clock::now() > last_due + DRAIN {
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            clock::sleep_until(start + sample.due);
            sample.sent = clock::now().duration_since(start);
            let sent = u64::try_from(sample.sent.as_nanos()).unwrap_or(u64::MAX);
            sent_ns[next].store(sent, Ordering::Release);
            if stream.write_all(lines[mine[next]].as_bytes()).is_err() {
                break;
            }
        }
        receiver
            .join()
            .expect("the receiving thread does not panic")
    });
    for (sample, (at, line)) in samples.iter_mut().zip(received) {
        sample.recv = Some(at);
        sample.line = line;
    }
    samples
}

/// Records request `id`'s spans: the request from its due time to its
/// answer, and inside it the generator lag from due time to send. Ids are
/// derived from the request id, so spans of one log never collide.
fn record_spans(
    spans: &SpanLog,
    start: Instant,
    id: u64,
    due: Duration,
    sent: Duration,
    recv: Duration,
) {
    let (Some(due_ns), Some(sent_ns), Some(recv_ns)) = (
        spans.ns_at(start + due),
        spans.ns_at(start + sent.max(due)),
        spans.ns_at(start + recv.max(sent).max(due)),
    ) else {
        return;
    };
    spans.push(SpanRec {
        id: 2 * id,
        parent: None,
        name: "predict request",
        layer: "root",
        key: id,
        start_ns: due_ns,
        end_ns: recv_ns,
    });
    spans.push(SpanRec {
        id: 2 * id + 1,
        parent: Some(2 * id),
        name: "generator lag",
        layer: "serve",
        key: id,
        start_ns: due_ns,
        end_ns: sent_ns,
    });
}

/// Runs one phase of `secs` at `rate` and records the daemon's counter
/// deltas; with `spans` enabled, every request's spans too.
#[allow(clippy::too_many_arguments)]
pub fn phase(
    daemon: &Daemon,
    scale: &Scale,
    pool: &[Mix],
    rng: &mut SeedRng,
    rate: f64,
    secs: f64,
    first_id: u64,
    spans: &SpanLog,
) -> std::io::Result<Phase> {
    let count = ((rate * secs).round() as usize).max(1);
    let picks = draws(pool.len(), count, rng);
    let before = daemon.counters();
    let mut conns = (0..scale.workers)
        .map(|_| UnixStream::connect(daemon.socket()))
        .collect::<std::io::Result<Vec<_>>>()?;
    let (mut samples, window_cpu_s) = run_phase(
        daemon, &mut conns, scale, pool, &picks, rate, first_id, spans,
    );
    drop(conns);
    samples.iter_mut().for_each(Sample::parse_flags);
    let size = samples.len().div_ceil(WINDOWS).max(1);
    let window_done = samples.chunks(size).map(|w| w.len() as u64).collect();
    let counters = delta(&before, &daemon.counters());
    let last_due = samples.iter().map(|s| s.due).max().unwrap_or_default();
    let backlog_end = samples
        .iter()
        .filter(|s| s.recv.is_none_or(|r| r > last_due))
        .count() as u64;
    Ok(Phase {
        rate,
        samples,
        backlog_end,
        counters,
        window_cpu_s,
        window_done,
    })
}

/// Counter deltas from `before` to `after`.
fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(k, &v)| {
            (
                k.clone(),
                v.saturating_sub(before.get(k).copied().unwrap_or(0)),
            )
        })
        .collect()
}

/// Requests each connection keeps in flight in a [`saturate`] phase.
pub const SATURATE_DEPTH: usize = 8;

/// Runs a closed-loop phase of `secs`: each of [`Scale::workers`]
/// connections keeps [`SATURATE_DEPTH`] requests in flight, sending the
/// next as each answer arrives, so the daemon always has work queued and
/// never idles between requests. Requests are drawn as [`phase`] draws
/// them, each connection from its own seeded stream. The phase's `rate`
/// is the answered requests per wall second.
pub fn saturate(
    daemon: &Daemon,
    scale: &Scale,
    pool: &[Mix],
    seed: u64,
    secs: f64,
    first_id: u64,
) -> std::io::Result<Phase> {
    let conns = scale.workers.max(1);
    // More requests than a connection can be answered in `secs`.
    let cap = (SATURATE_CAP_RPS * secs).ceil() as usize;
    let picks: Vec<Vec<usize>> = (0..conns)
        .map(|c| draws(pool.len(), cap, &mut SeedRng::new(seed, 0xd1 + c as u64)))
        .collect();
    let before = daemon.counters();
    let mut streams = (0..conns)
        .map(|_| UnixStream::connect(daemon.socket()))
        .collect::<std::io::Result<Vec<_>>>()?;
    let start = clock::now() + Duration::from_millis(5);
    let end = start + Duration::from_secs_f64(secs);
    let window = Duration::from_secs_f64(secs / WINDOWS as f64);
    let mut window_cpu_s = Vec::new();
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter_mut()
            .zip(&picks)
            .enumerate()
            .map(|(c, (stream, picks))| {
                let ids = (0..).map(move |k: u64| first_id + k * conns as u64 + c as u64);
                s.spawn(move || closed_loop(stream, scale, pool, picks, ids, start, end))
            })
            .collect();
        window_cpu_s = daemon.window_cpu_s(start, window);
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator threads do not panic"))
            .collect()
    });
    drop(streams);
    samples.sort_by_key(|s| s.id);
    samples.iter_mut().for_each(Sample::parse_flags);
    let mut window_done = vec![0u64; WINDOWS];
    for s in &samples {
        if let Some(r) = s.recv {
            let w = (r.as_secs_f64() / window.as_secs_f64()) as usize;
            if let Some(n) = window_done.get_mut(w) {
                *n += 1;
            }
        }
    }
    let counters = delta(&before, &daemon.counters());
    Ok(Phase {
        rate: samples.len() as f64 / secs,
        samples,
        backlog_end: 0,
        counters,
        window_cpu_s,
        window_done,
    })
}

/// Upper bound on one connection's answered requests per second in a
/// [`saturate`] phase (response-cache hits take tens of microseconds).
const SATURATE_CAP_RPS: f64 = 50_000.0;

/// One connection of a [`saturate`] phase: keeps [`SATURATE_DEPTH`]
/// requests in flight until `end`, then collects the outstanding answers.
/// Times are relative to `start`; a request's due time is its send time.
fn closed_loop(
    stream: &mut UnixStream,
    scale: &Scale,
    pool: &[Mix],
    picks: &[usize],
    mut ids: impl Iterator<Item = u64>,
    start: Instant,
    end: Instant,
) -> Vec<Sample> {
    let mut samples: Vec<Sample> = Vec::new();
    let Ok(reader) = stream.try_clone() else {
        return samples;
    };
    let _ = reader.set_read_timeout(Some(DRAIN));
    let mut reader = std::io::BufReader::new(reader);
    clock::sleep_until(start);
    let mut next = 0;
    let mut answered = 0;
    loop {
        while next < picks.len() && next - answered < SATURATE_DEPTH && clock::now() < end {
            let id = ids.next().expect("ids are endless");
            let sent = clock::now().duration_since(start);
            if stream
                .write_all(request_line(scale, &pool[picks[next]], id).as_bytes())
                .is_err()
            {
                return samples;
            }
            samples.push(Sample {
                id,
                pool_idx: picks[next],
                due: sent,
                sent,
                recv: None,
                line: String::new(),
                ok: false,
                cached: false,
            });
            next += 1;
        }
        if answered == next {
            return samples;
        }
        let mut line = String::new();
        match std::io::BufRead::read_line(&mut reader, &mut line) {
            Ok(n) if n > 0 && line.ends_with('\n') => {
                line.pop();
                let sample = &mut samples[answered];
                sample.recv = Some(clock::now().duration_since(start));
                sample.line = line;
                answered += 1;
            }
            _ => return samples,
        }
    }
}

/// Whether a ladder rung met the latency limit without a growing
/// backlog, and whether the generator kept to its schedule.
pub fn rung_verdict(p: &Phase, scale: &Scale) -> (bool, bool) {
    let valid = p.lag_p99_ms() <= LAG_BUDGET_SHARE * scale.serve_limit_ms;
    let allowed_backlog = (p.rate * scale.serve_limit_ms / 1e3).ceil() as u64 + 1;
    let pass = valid && p.p99_ms() <= scale.serve_limit_ms && p.backlog_end <= allowed_backlog;
    (pass, valid)
}

/// The highest sustained rate: the last passing rung, interpolated in
/// log-latency toward the first failing one (whose p99 crossed the
/// limit). If no rung passes, the first rung's rate scaled by how far its
/// p99 overshot the limit.
pub fn max_rps(rungs: &[Phase], scale: &Scale) -> f64 {
    let limit = scale.serve_limit_ms;
    let passed: Vec<&Phase> = rungs
        .iter()
        .take_while(|p| rung_verdict(p, scale).0)
        .collect();
    let Some(last) = passed.last() else {
        let first = &rungs[0];
        return first.rate * (limit / first.p99_ms()).min(1.0);
    };
    let Some(fail) = rungs.get(passed.len()) else {
        return last.rate;
    };
    let (p1, p2) = (last.p99_ms().max(1e-3), fail.p99_ms());
    if !p2.is_finite() || p2 <= p1 || !rung_verdict(fail, scale).1 {
        return last.rate;
    }
    let frac = ((limit.ln() - p1.ln()) / (p2.ln() - p1.ln())).clamp(0.0, 1.0);
    last.rate + (fail.rate - last.rate) * frac
}

/// Checks every answered request against the in-process prediction.
/// Returns `(attempted, failed, problems)`.
pub fn check(
    phases: &[&Phase],
    pool: &[Mix],
    ctx: &Context,
    scale: &Scale,
) -> (u64, u64, Vec<String>) {
    let profiles = ctx.store().suite_profiles(&machine(0), scale.geometry);
    let mut expected: BTreeMap<usize, String> = BTreeMap::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut problems = Vec::new();
    for p in phases {
        for s in &p.samples {
            attempted += 1;
            let want = expected
                .entry(s.pool_idx)
                .or_insert_with(|| expected_result(&ctx.predict(&pool[s.pool_idx], &profiles)));
            let v: Value = serde_json::from_str(&s.line).unwrap_or(Value::Null);
            let ok = s.ok;
            let got = v
                .get("result")
                .map(|r| serde_json::to_string(r).expect("values serialize"));
            if !ok || got.as_deref() != Some(want.as_str()) {
                failed += 1;
                if problems.len() < 5 {
                    problems.push(format!("serve: request {} answered {:?}", s.id, s.line));
                }
            }
        }
    }
    (attempted, failed, problems)
}

/// Hit/miss latency split of a traced phase, and its request
/// attribution: each request's time from due to answer, split into the
/// generator lag its spans measured and — inside the socket round trip —
/// the wire and model time the layer probes put on it (decode plus encode
/// per request, one solve per response-cache miss). What is left, the
/// remainder, is socket transport, queueing and the daemon's own work.
pub fn layers(
    p: &Phase,
    spans: &SpanLog,
    pool: &[Mix],
    probes: &[Metric],
) -> (Vec<Metric>, Attribution) {
    let probe = |name: &str| {
        probes
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let wire_s = 1e-6 * (probe("wire.decode_us") + probe("wire.encode_us"));
    let mut hit = Vec::new();
    let mut miss = Vec::new();
    let mut e2e_s = 0.0;
    let mut model_s = 0.0;
    let mut answered = 0u64;
    for s in &p.samples {
        let Some(recv) = s.recv else { continue };
        answered += 1;
        e2e_s += recv.saturating_sub(s.due).as_secs_f64();
        let Some(l) = s.latency_ms().filter(|_| s.ok) else {
            continue;
        };
        if s.cached {
            hit.push(l);
        } else {
            miss.push(l);
            let solve = if pool[s.pool_idx].len() <= 4 {
                "model.solve_us_4p"
            } else {
                "model.solve_us_8p"
            };
            model_s += 1e-6 * probe(solve);
        }
    }
    let mut attribution = Attribution::build(&spans.spans(), e2e_s);
    attribution.add_estimate("wire (probe)", answered as f64 * wire_s);
    attribution.add_estimate("model (probe)", model_s);
    let c = |k: &str| p.counters.get(k).copied().unwrap_or(0);
    // The `stats` request that closes the phase counts itself.
    let requests = c("server.requests").saturating_sub(1);
    let metrics = vec![
        Metric::new(
            "server.hit_ratio",
            c("server.cache_hit") as f64 / requests.max(1) as f64,
            "ratio",
        ),
        Metric::new("server.evictions", c("store.evictions") as f64, "count"),
        Metric::new("server.dedup_joins", c("server.dedup_join") as f64, "count"),
        Metric::new(
            "server.hit_ms_p50",
            stats::median(&hit).unwrap_or(0.0),
            "ms",
        ),
        Metric::new(
            "server.miss_ms_p50",
            stats::median(&miss).unwrap_or(0.0),
            "ms",
        ),
        Metric::new("serve.gen_lag_ms_p99", p.lag_p99_ms(), "ms"),
        Metric::new("serve.backlog_end", p.backlog_end as f64, "count"),
    ];
    (metrics, attribution)
}
