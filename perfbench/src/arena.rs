//! `arena-paper-mix`: the paper's §5 query mix against an in-memory
//! index, closed loop, two threads calling the index directly.
//!
//! Candidate evaluation in `nwc-core` dominates; the store and the
//! server are not involved.

use crate::adapter::{Index, Query, Scheme, Scratch};
use crate::inputs::{ca_like, stratified_points, Rng};
use crate::trace::{Span, Tracer};
use crate::{procfs, Config, Outcome, Timed, SETUP_REPEATS};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Queries per second of `--seconds`: enough for a steady
/// `query_p99_us` (README.md, Sizing).
const QUERIES_PER_SECOND: f64 = 600.0;
const THREADS: usize = 2;

/// ¾ NWC\* split evenly between w = 200 and w = 400, ¼ kNWC\* with
/// w = 200, k = 5, m = 2; n = 8 throughout. Each kind's locations are
/// stratified on their own, then the kinds are interleaved at random.
fn queries(cfg: &Config) -> Vec<Query> {
    let total = cfg.ops(QUERIES_PER_SECOND, 8);
    let nwc_each = total * 3 / 8;
    let mut rng = Rng::new(cfg.seed);
    let mut out = Vec::with_capacity(total);
    for w in [200.0, 400.0] {
        out.extend(
            stratified_points(nwc_each, &mut rng)
                .into_iter()
                .map(|(x, y)| Query::Nwc { x, y, w, n: 8 }),
        );
    }
    out.extend(
        stratified_points(total - 2 * nwc_each, &mut rng)
            .into_iter()
            .map(|(x, y)| Query::Knwc {
                x,
                y,
                w: 200.0,
                n: 8,
                k: 5,
                m: 2,
            }),
    );
    rng.shuffle(&mut out);
    out
}

struct Pass {
    setup_s: Vec<f64>,
    wall_s: f64,
    /// Per query, in input order: latency (µs) and answer.
    results: Vec<Timed>,
    spans: Vec<Span>,
    proc: (procfs::ProcSample, procfs::ProcSample),
}

fn pass(data: &[(f64, f64)], queries: &[Query], traced: bool, setups: usize) -> Pass {
    let mut setup_s = Vec::with_capacity(setups);
    let mut index = None;
    for _ in 0..setups {
        drop(index.take());
        let t = Instant::now();
        index = Some(Index::build(data));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let index = index.expect("at least one set-up");
    let epoch = Instant::now();
    let next = AtomicUsize::new(0);
    let before = procfs::sample();
    let t0 = Instant::now();
    let parts: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|tid| {
                let (index, next) = (&index, &next);
                s.spawn(move || {
                    let mut tr = Tracer::new(traced, epoch, tid as u64);
                    let mut scratch = Scratch::default();
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(q) = queries.get(i) else { break };
                        let name = if matches!(q, Query::Nwc { .. }) {
                            "core.nwc"
                        } else {
                            "core.knwc"
                        };
                        let root = tr.begin("bench.query", 0, i as u64);
                        let start = Instant::now();
                        let answer = tr.call(name, root, i as u64, || {
                            index.query(q, Scheme::Star, &mut scratch)
                        });
                        out.push((i, (start.elapsed().as_secs_f64() * 1e6, answer)));
                        tr.end(root);
                    }
                    (out, tr.into_spans())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("query thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let after = procfs::sample();
    let mut results: Vec<Option<Timed>> = (0..queries.len()).map(|_| None).collect();
    let mut spans = Vec::new();
    for (out, s) in parts {
        for (i, timed) in out {
            results[i] = Some(timed);
        }
        spans.extend(s);
    }
    Pass {
        setup_s,
        wall_s,
        results: results
            .into_iter()
            .map(|r| r.expect("every query ran"))
            .collect(),
        spans,
        proc: (before, after),
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (_, data) = ca_like(cfg.points());
    let queries = queries(cfg);
    let reference = crate::reference(&Index::build(&data), &queries)?;
    procfs::reset_peak_rss();

    let mut out = Outcome {
        wrong: reference.disagree,
        ..Outcome::default()
    };
    let untraced = pass(
        &data,
        &queries,
        false,
        if cfg.trace { 1 } else { SETUP_REPEATS },
    );
    let checked = crate::check_results(&untraced.results, &reference.answers, &mut out);
    if !cfg.trace {
        let latency_us = [50.0, 99.0].map(|p| crate::segment_percentile(&checked.latencies_us, p));
        out.set_end_to_end(&untraced.setup_s, &checked, untraced.wall_s, latency_us);
        return Ok(out);
    }

    let traced = pass(&data, &queries, true, 1);
    let checked = crate::check_results(&traced.results, &reference.answers, &mut out);
    let l = &mut out.per_layer;
    l.counts = checked.counts;
    l.queries = checked.answered;
    l.core_knwc_not_greedy_frac = crate::ratio(
        reference.knwc_not_greedy as f64,
        reference.knwc_sampled as f64,
    );
    l.set_proc(&untraced.proc, &traced.proc, queries.len() as u64);
    crate::set_core_calls(l, &traced.spans, checked.counts.candidates);
    crate::save_trace(cfg, &traced.spans)?;
    Ok(out)
}
