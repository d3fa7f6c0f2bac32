//! `disk-churn`: sliding-window writes on a writable page file whose
//! pool holds the whole tree, with NWC+ reads in between. One thread.
//!
//! Each push removes the oldest point and inserts a new one drawn from
//! the same CA-like model; every 64th push commits (fsync'd shadow
//! paging) and every 8th is followed by a query. NWC+ is used because
//! NWC\* needs the IWP augmentation, which every commit invalidates.

use crate::adapter::{Answer, Index, Query, Scheme, Scratch};
use crate::inputs::{ca_like, stratified_points, Rng};
use crate::trace::{Span, Tracer};
use crate::{
    percentile, procfs, ratio, sorted, span_us, Config, Outcome, Timed, CROSS_CHECK_EVERY,
    SETUP_REPEATS,
};
use std::collections::VecDeque;
use std::time::Instant;

/// Pushes per second of `--seconds` (README.md, Sizing).
const PUSHES_PER_SECOND: f64 = 1700.0;
const COMMIT_EVERY: usize = 64;
const QUERY_EVERY: usize = 8;

struct Inputs {
    data: Vec<(f64, f64)>,
    inserts: Vec<(f64, f64)>,
    queries: Vec<Query>,
}

fn inputs(cfg: &Config) -> Inputs {
    let (model, data) = ca_like(cfg.points());
    let mut rng = Rng::new(cfg.seed);
    let pushes = cfg.ops(PUSHES_PER_SECOND, 2 * COMMIT_EVERY);
    let inserts = (0..pushes).map(|_| model.sample(&mut rng)).collect();
    let queries = stratified_points(pushes / QUERY_EVERY, &mut rng)
        .into_iter()
        .map(|(x, y)| Query::Nwc {
            x,
            y,
            w: 100.0,
            n: 8,
        })
        .collect();
    Inputs {
        data,
        inserts,
        queries,
    }
}

/// Replays the pushes on an in-memory index and answers each query at
/// the same point of the sequence, under DIP (and a sample unoptimised).
/// Returns the answers and how many sampled queries the two disagree on.
fn reference(inp: &Inputs) -> Result<(Vec<Answer>, u64), String> {
    let mut index = Index::build(&inp.data);
    let mut fifo: VecDeque<u32> = (0..inp.data.len() as u32).collect();
    let mut scratch = Scratch::default();
    let (mut answers, mut disagree) = (Vec::with_capacity(inp.queries.len()), 0);
    for (j, &p) in inp.inserts.iter().enumerate() {
        index.remove(fifo.pop_front().ok_or("empty window")?)?;
        fifo.push_back(index.insert(p)?);
        if (j + 1) % QUERY_EVERY == 0 {
            let qi = j / QUERY_EVERY;
            let q = &inp.queries[qi];
            let dip = index.query(q, Scheme::Dip, &mut scratch)?;
            if qi.is_multiple_of(CROSS_CHECK_EVERY)
                && !crate::same_answer(&dip, &index.query(q, Scheme::Plain, &mut scratch)?)
            {
                disagree += 1;
            }
            answers.push(dip);
        }
    }
    Ok((answers, disagree))
}

struct Pass {
    setup_s: Vec<f64>,
    wall_s: f64,
    /// Per push (µs), the commit included when the push triggered one.
    write_us: Vec<f64>,
    commit_us: Vec<f64>,
    /// `wchar` bytes per commit (traced pass only).
    commit_bytes: Vec<f64>,
    results: Vec<Timed>,
    spans: Vec<Span>,
    proc: (procfs::ProcSample, procfs::ProcSample),
    pool: (crate::adapter::Pool, crate::adapter::Pool),
    file: (u64, u64),
    live: usize,
    pinned: u64,
}

fn pass(cfg: &Config, inp: &Inputs, traced: bool, setups: usize) -> Result<Pass, String> {
    let path = cfg.file("churn.pages");
    let mut setup_s = Vec::with_capacity(setups);
    let mut opened = None;
    for _ in 0..setups {
        drop(opened.take());
        let t = Instant::now();
        Index::build(&inp.data).save_writable(&path)?;
        opened = Some(Index::open(&path, None)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut index = opened.ok_or("no set-up")?;
    index.warm()?;

    let mut tr = Tracer::new(traced, Instant::now(), 0);
    let mut scratch = Scratch::default();
    let mut fifo: VecDeque<u32> = (0..inp.data.len() as u32).collect();
    let (mut write_us, mut commit_us, mut commit_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut results = Vec::with_capacity(inp.queries.len());
    let file0 = procfs::file_bytes(&path);
    let pool0 = index.pool().unwrap_or_default();
    let proc0 = procfs::sample();
    let t0 = Instant::now();
    for (j, &p) in inp.inserts.iter().enumerate() {
        let req = j as u64;
        let root = tr.begin("bench.push", 0, req);
        let t = Instant::now();
        let oldest = fifo.pop_front().ok_or("empty window")?;
        tr.call("rtree.remove", root, req, || index.remove(oldest))?;
        fifo.push_back(tr.call("rtree.insert", root, req, || index.insert(p))?);
        if (j + 1) % COMMIT_EVERY == 0 {
            let before = if traced { procfs::sample().wchar } else { 0 };
            let tc = Instant::now();
            tr.call("store.commit", root, req, || index.commit())?;
            commit_us.push(tc.elapsed().as_secs_f64() * 1e6);
            if traced {
                commit_bytes.push((procfs::sample().wchar - before) as f64);
            }
        }
        write_us.push(t.elapsed().as_secs_f64() * 1e6);
        tr.end(root);
        if (j + 1) % QUERY_EVERY == 0 {
            let q = &inp.queries[j / QUERY_EVERY];
            let root = tr.begin("bench.query", 0, req);
            let t = Instant::now();
            let answer = tr.call("core.nwc", root, req, || {
                index.query(q, Scheme::Plus, &mut scratch)
            });
            results.push((t.elapsed().as_secs_f64() * 1e6, answer));
            tr.end(root);
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let proc1 = procfs::sample();
    let pool1 = index.pool().unwrap_or_default();
    Ok(Pass {
        setup_s,
        wall_s,
        write_us,
        commit_us,
        commit_bytes,
        results,
        spans: tr.into_spans(),
        proc: (proc0, proc1),
        pool: (pool0, pool1),
        file: (file0, procfs::file_bytes(&path)),
        live: index.live_points(),
        pinned: pool1.pinned,
    })
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let inp = inputs(cfg);
    let (reference, disagree) = reference(&inp)?;
    procfs::reset_peak_rss();
    let pushes = inp.inserts.len() as u64;

    let mut out = Outcome {
        wrong: disagree,
        ..Outcome::default()
    };
    let untraced = pass(cfg, &inp, false, if cfg.trace { 1 } else { SETUP_REPEATS })?;
    out.pinned += untraced.pinned;
    out.attempted += pushes;
    let checked = crate::check_results(&untraced.results, &reference, &mut out);
    if !cfg.trace {
        let latency_us = [50.0, 99.0].map(|p| crate::segment_percentile(&checked.latencies_us, p));
        out.set_end_to_end(&untraced.setup_s, &checked, untraced.wall_s, latency_us);
        return Ok(out);
    }

    let traced = pass(cfg, &inp, true, 1)?;
    out.pinned += traced.pinned;
    out.attempted += pushes;
    let checked = crate::check_results(&traced.results, &reference, &mut out);
    let l = &mut out.per_layer;
    l.counts = checked.counts;
    l.queries = checked.answered;
    crate::set_core_calls(l, &traced.spans, checked.counts.candidates);
    l.rtree_insert_p50_us = percentile(&span_us(&traced.spans, &["rtree.insert"]), 50.0);
    l.rtree_remove_p50_us = percentile(&span_us(&traced.spans, &["rtree.remove"]), 50.0);
    l.set_pool(&traced.pool, traced.results.len() as u64);
    l.store_commit_p50_us = percentile(&span_us(&traced.spans, &["store.commit"]), 50.0);
    l.store_bytes_written_per_commit = ratio(
        traced.commit_bytes.iter().sum(),
        traced.commit_bytes.len() as f64,
    );
    l.store_file_growth_bytes = traced.file.1 as f64 - traced.file.0 as f64;
    // The write metrics come from the untraced pass.
    let writes = sorted(untraced.write_us.clone());
    l.write_p50_us = percentile(&writes, 50.0);
    l.write_p99_us = percentile(&writes, 99.0);
    l.commit_p50_us = percentile(&sorted(untraced.commit_us.clone()), 50.0);
    l.write_throughput_ops = ratio(pushes as f64, writes.iter().sum::<f64>() / 1e6);
    l.bytes_written_per_point = ratio(
        (untraced.proc.1.wchar - untraced.proc.0.wchar) as f64,
        pushes as f64,
    );
    l.file_bytes_per_live_point = ratio(untraced.file.1 as f64, untraced.live as f64);
    l.set_proc(
        &untraced.proc,
        &traced.proc,
        pushes + untraced.results.len() as u64,
    );
    crate::save_trace(cfg, &traced.spans)?;
    Ok(out)
}
