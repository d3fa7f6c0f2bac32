//! `served-disk-small-window`: small-window NWC\* requests to an
//! in-process `nwc-serve` server over a writable page file whose buffer
//! pool holds about 9 % of the tree.
//!
//! One connection carries the load. A sender thread writes each
//! request when it is due (open loop, fixed rate) and a receiver thread
//! matches responses by request id, so a slow response never delays
//! the next send. Latency runs from the scheduled send time.
//!
//! Before the open loop, an untraced run times closed-loop round trips:
//! every pair of a fixed set is sent [`ROUNDS`] times, one request in
//! flight, and the end-to-end percentiles are over each pair's fastest
//! round (README.md, Sizing).

use crate::adapter::{
    encode_nwc, Answer, Client, Index, Outcome as Wire, Pool, Query, ResponseReader, Scheme,
    Scratch, Service,
};
use crate::inputs::{ca_like, stratified_points, Rng};
use crate::trace::{Span, Tracer};
use crate::{percentile, procfs, ratio, sorted, Config, Outcome, Timed, SETUP_REPEATS};
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The fixed request rate: a quarter of the capacity measured at the
/// commit that introduced the benchmark. At half capacity a slow spell
/// of the shared host saturated the server mid-run (README.md).
const RATE_QPS: f64 = 325.0;
/// Open-loop requests per second of `--seconds`: the load runs for half
/// of `--seconds`, and the closed loop takes about the other half.
const OPEN_LOOP_PER_SECOND: f64 = RATE_QPS / 2.0;
/// Distinct (location, window) pairs the requests cycle through.
const DISTINCT: usize = 4096;
/// Buffer-pool frames: about 9 % of the 263-node tree.
const POOL_FRAMES: usize = 24;
const WORKERS: usize = 2;
/// Server-side deadline of every request, and the latency limit: a
/// response later than this after its scheduled send counts as failed.
const DEADLINE: Duration = Duration::from_millis(500);
/// Untimed closed-loop requests that fill the pool before timing.
const WARMUP: usize = 256;
/// Pairs timed in the closed-loop phase, per second of `--seconds`.
const CLOSED_PAIRS_PER_SECOND: f64 = 200.0;
/// Closed-loop rounds over those pairs; a pair's latency is its fastest.
const ROUNDS: usize = 3;
/// Root span ids: request `i` is `ROOT + i`, so the sender and the
/// receiver agree on it without talking.
const ROOT: u64 = 1 << 62;

/// Half the pairs use w = 25, half w = 50; n = 8, locations stratified
/// per window size, interleaved at random.
fn entries(cfg: &Config, rng: &mut Rng) -> Vec<Query> {
    let half = ((DISTINCT as f64 * cfg.scale / 2.0).round() as usize).max(8);
    let mut out = Vec::with_capacity(2 * half);
    for w in [25.0, 50.0] {
        out.extend(
            stratified_points(half, rng)
                .into_iter()
                .map(|(x, y)| Query::Nwc { x, y, w, n: 8 }),
        );
    }
    rng.shuffle(&mut out);
    out
}

/// What the receiver thread hands back: each request's outcome, when
/// the last response arrived, and its spans.
type Received = (Vec<Option<Timed>>, Instant, Vec<Span>);

/// Unloaded round trips and direct core calls, one per distinct pair.
struct Probe {
    rtt_us: Vec<f64>,
    core_candidates: u64,
}

struct Pass {
    setup_s: Vec<f64>,
    /// Closed-loop round trips (µs) and answers, round after round over
    /// the first `closed.len() / ROUNDS` pairs; empty in a traced run,
    /// which prints no end-to-end metric.
    closed: Vec<Timed>,
    wall_s: f64,
    /// Per request: latency from its scheduled send (µs) and answer.
    results: Vec<Timed>,
    /// Per request: how late the sender wrote it (µs).
    lag_us: Vec<f64>,
    spans: Vec<Span>,
    proc: (procfs::ProcSample, procfs::ProcSample),
    pool: (Pool, Pool),
    shed: u64,
    deadline: u64,
    pinned: u64,
    probe: Option<Probe>,
}

/// Numbers the page files. Every server gets a file of its own: a
/// stopped server's connection threads may keep its generation, and
/// with it the file's advisory lock, for up to their read timeout.
static NEXT_FILE: AtomicUsize = AtomicUsize::new(0);

/// Builds, saves and opens the index, starts a server over it and
/// connects the load connection.
fn start(data: &[(f64, f64)], cfg: &Config) -> Result<(Service, TcpStream, PathBuf), String> {
    let path = cfg.file(&format!(
        "served-{}.pages",
        NEXT_FILE.fetch_add(1, Ordering::Relaxed)
    ));
    Index::build(data).save_writable(&path)?;
    let service = Service::start(Index::open(&path, Some(POOL_FRAMES))?, WORKERS)?;
    let stream = TcpStream::connect(service.addr()).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    Ok((service, stream, path))
}

/// The answer, or why the request failed: a typed error, or a response
/// later than the latency limit.
fn answer_within_limit(outcome: Wire, us: f64) -> Result<Answer, String> {
    match outcome {
        Wire::Answer(_) if us > DEADLINE.as_secs_f64() * 1e6 => Err("late".to_string()),
        Wire::Answer(a) => Ok(a),
        Wire::Failed(why) => Err(why),
    }
}

/// Each pair's fastest round trip over the [`ROUNDS`] rounds of
/// `closed`, ascending.
fn fastest_rounds(closed: &[Timed]) -> Vec<f64> {
    let pairs = closed.len() / ROUNDS;
    sorted(
        (0..pairs)
            .map(|i| {
                (0..ROUNDS)
                    .map(|r| closed[r * pairs + i].0)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect(),
    )
}

fn stop(service: Service, path: &Path) {
    service.stop();
    let _ = std::fs::remove_file(path);
}

fn pass(
    cfg: &Config,
    data: &[(f64, f64)],
    entries: &[Query],
    traced: bool,
    setups: usize,
) -> Result<Pass, String> {
    let mut setup_s = Vec::with_capacity(setups);
    let mut live: Option<(Service, TcpStream, PathBuf)> = None;
    for _ in 0..setups {
        if let Some((service, _, path)) = live.take() {
            stop(service, &path);
        }
        let t = Instant::now();
        live = Some(start(data, cfg)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (service, stream, path) = live.ok_or("no set-up")?;
    let mut client = Client::connect(service.addr())?;
    for q in entries.iter().cycle().take(WARMUP) {
        client.query(q, Scheme::Star, DEADLINE)?;
    }
    let pairs = if cfg.trace {
        0
    } else {
        cfg.ops(CLOSED_PAIRS_PER_SECOND, 16).min(entries.len())
    };
    let mut closed = Vec::with_capacity(pairs * ROUNDS);
    for q in (0..ROUNDS).flat_map(|_| &entries[..pairs]) {
        let t = Instant::now();
        let outcome = client.query(q, Scheme::Star, DEADLINE)?;
        let us = t.elapsed().as_secs_f64() * 1e6;
        closed.push((us, answer_within_limit(outcome, us)));
    }

    let n = cfg.ops(OPEN_LOOP_PER_SECOND, 16);
    let counters0 = service.scrape()?;
    let pool0 = service.pool().unwrap_or_default();
    let proc0 = procfs::sample();
    let epoch = Instant::now();
    let t0 = epoch + Duration::from_millis(2);
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / RATE_QPS);
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = stream;
    reader
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("timeout: {e}"))?;

    let (sent, received) = std::thread::scope(|s| {
        let sender = s.spawn(|| -> Result<(Vec<f64>, Vec<Span>), String> {
            let mut tr = Tracer::new(traced, epoch, 0);
            let mut lag_us = Vec::with_capacity(n);
            for i in 0..n {
                let (d, now) = (due(i), Instant::now());
                if d > now {
                    std::thread::sleep(d - now);
                }
                lag_us.push(Instant::now().saturating_duration_since(d).as_secs_f64() * 1e6);
                let q = &entries[i % entries.len()];
                tr.call("serve.send", ROOT + i as u64, i as u64, || {
                    let frame = encode_nwc(i as u32, q, Scheme::Star, DEADLINE)?;
                    writer.write_all(&frame).map_err(|e| format!("send: {e}"))
                })?;
            }
            Ok((lag_us, tr.into_spans()))
        });
        let receiver = s.spawn(|| -> Result<Received, String> {
            let mut tr = Tracer::new(traced, epoch, 1);
            let mut frames = ResponseReader::default();
            let mut results: Vec<Option<Timed>> = (0..n).map(|_| None).collect();
            let mut last = t0;
            for _ in 0..n {
                let (id, outcome) = frames.next(&mut reader)?;
                last = Instant::now();
                let i = id as usize;
                let slot = results
                    .get_mut(i)
                    .ok_or(format!("unknown request id {id}"))?;
                tr.record(ROOT + i as u64, "bench.request", 0, i as u64, due(i), last);
                let us = last.saturating_duration_since(due(i)).as_secs_f64() * 1e6;
                *slot = Some((us, answer_within_limit(outcome, us)));
            }
            Ok((results, last, tr.into_spans()))
        });
        (
            sender
                .join()
                .unwrap_or_else(|_| Err("sender panicked".into())),
            receiver
                .join()
                .unwrap_or_else(|_| Err("receiver panicked".into())),
        )
    });
    let (lag_us, mut spans) = sent?;
    let (results, last, received_spans) = received?;
    let proc1 = procfs::sample();
    let pool1 = service.pool().unwrap_or_default();
    let counters1 = service.scrape()?;
    spans.extend(received_spans);

    let probe = if traced {
        let mut tr = Tracer::new(true, epoch, 2);
        let mut scratch = Scratch::default();
        let (mut rtt_us, mut core_candidates) = (Vec::with_capacity(entries.len()), 0);
        for (e, q) in entries.iter().enumerate() {
            let root = tr.begin("bench.probe", 0, e as u64);
            let t = Instant::now();
            tr.call("serve.rtt", root, e as u64, || {
                client.query(q, Scheme::Star, DEADLINE)
            })?;
            rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
            let answer = tr.call("core.nwc", root, e as u64, || {
                service.core_query(q, Scheme::Star, &mut scratch)
            })?;
            core_candidates += answer.counts.candidates;
            tr.end(root);
        }
        spans.extend(tr.into_spans());
        Some(Probe {
            rtt_us,
            core_candidates,
        })
    } else {
        None
    };
    let pinned = service.pool().map_or(0, |p| p.pinned);
    stop(service, &path);
    Ok(Pass {
        setup_s,
        closed,
        wall_s: last.saturating_duration_since(t0).as_secs_f64(),
        results: results
            .into_iter()
            .map(|r| r.expect("every request answered"))
            .collect(),
        lag_us,
        spans,
        proc: (proc0, proc1),
        pool: (pool0, pool1),
        shed: counters1.shed - counters0.shed,
        deadline: counters1.deadline - counters0.deadline,
        pinned,
        probe,
    })
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (_, data) = ca_like(cfg.points());
    let entries = entries(cfg, &mut Rng::new(cfg.seed));
    let reference = crate::reference(&Index::build(&data), &entries)?;
    procfs::reset_peak_rss();

    let mut out = Outcome {
        wrong: reference.disagree,
        ..Outcome::default()
    };
    let untraced = pass(
        cfg,
        &data,
        &entries,
        false,
        if cfg.trace { 1 } else { SETUP_REPEATS },
    )?;
    out.pinned += untraced.pinned;
    let pairs = untraced.closed.len() / ROUNDS;
    crate::check_results(&untraced.closed, &reference.answers[..pairs], &mut out);
    let checked = crate::check_results(&untraced.results, &reference.answers, &mut out);
    let n = untraced.results.len() as u64;
    if !cfg.trace {
        let fastest = fastest_rounds(&untraced.closed);
        let latency_us = [50.0, 99.0].map(|p| percentile(&fastest, p));
        out.set_end_to_end(&untraced.setup_s, &checked, untraced.wall_s, latency_us);
        return Ok(out);
    }

    let traced = pass(cfg, &data, &entries, true, 1)?;
    out.pinned += traced.pinned;
    let checked = crate::check_results(&traced.results, &reference.answers, &mut out);
    let probe = traced.probe.as_ref().ok_or("traced pass without probe")?;
    let l = &mut out.per_layer;
    l.counts = checked.counts;
    l.queries = checked.answered;
    crate::set_core_calls(l, &traced.spans, probe.core_candidates);
    let rtt = sorted(probe.rtt_us.clone());
    l.serve_rtt_unloaded_p50_us = percentile(&rtt, 50.0);
    l.serve_overhead_p50_us = l.serve_rtt_unloaded_p50_us - l.core_call_p50_us;
    let loaded = sorted(traced.results.iter().map(|(us, _)| *us).collect());
    l.serve_loaded_p50_us = percentile(&loaded, 50.0);
    l.serve_loaded_p99_us = percentile(&loaded, 99.0);
    let waits = sorted(
        traced
            .results
            .iter()
            .enumerate()
            .map(|(i, (us, _))| us - probe.rtt_us[i % entries.len()])
            .collect(),
    );
    l.serve_queue_wait_p50_us = percentile(&waits, 50.0);
    l.serve_queue_wait_p99_us = percentile(&waits, 99.0);
    l.serve_shed_frac = ratio(traced.shed as f64, n as f64);
    l.serve_deadline_frac = ratio(traced.deadline as f64, n as f64);
    l.serve_gen_lag_p99_us = percentile(&sorted(traced.lag_us.clone()), 99.0);
    l.set_pool(&traced.pool, n);
    l.set_proc(&untraced.proc, &traced.proc, n);
    crate::save_trace(cfg, &traced.spans)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_rounds_takes_each_pairs_best_round() {
        let timed = |us: &[f64]| -> Vec<Timed> {
            us.iter()
                .map(|&us| (us, Err("unchecked".to_string())))
                .collect()
        };
        // Three rounds over two pairs; a stall hits pair 0 in round 0
        // and pair 1 in round 2.
        let closed = timed(&[900.0, 20.0, 10.0, 30.0, 11.0, 700.0]);
        assert_eq!(fastest_rounds(&closed), vec![10.0, 20.0]);
    }
}
