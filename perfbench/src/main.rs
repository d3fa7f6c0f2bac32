//! The repository benchmark. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!           [--scale <f>] [--out <dir>]
//! ```
//!
//! Prints one JSON object as the last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when an answer is wrong or a page pin leaked,
//! 2 when the run could not complete.

mod adapter;
mod arena;
mod churn;
mod inputs;
mod procfs;
mod served;
mod trace;

use adapter::{Answer, Counts, Group, Index, Query, Scheme, Scratch};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One timed operation: its latency (µs) and its answer or error.
pub type Timed = (f64, Result<Answer, String>);

/// Process samples taken before and after a pass.
pub type ProcPair = (procfs::ProcSample, procfs::ProcSample);

pub const WORKLOADS: [&str; 3] = ["arena-paper-mix", "served-disk-small-window", "disk-churn"];

/// Times the set-up is repeated in an untraced run; `setup_s` is the
/// median.
pub const SETUP_REPEATS: usize = 9;

/// Every `CROSS_CHECK_EVERY`-th reference answer is cross-checked (see
/// [`reference`]).
pub const CROSS_CHECK_EVERY: usize = 128;

/// Threads that compute reference answers.
const REFERENCE_THREADS: usize = 2;

#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Multiplies the dataset size and the operation counts (1.0 = the
    /// bench scale; the smoke tests use less).
    pub scale: f64,
    /// Where page files and span logs go.
    pub out: PathBuf,
}

impl Config {
    /// Operations in a run: `per_second` per second of `--seconds`, at
    /// `--scale`, at least `min`.
    pub fn ops(&self, per_second: f64, min: usize) -> usize {
        ((per_second * self.seconds * self.scale).round() as usize).max(min)
    }

    pub fn points(&self) -> usize {
        ((inputs::CA_POINTS as f64 * self.scale).round() as usize).max(200)
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.out
            .join(format!("{}-{}-{name}", self.workload, self.seed))
    }
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => cfg.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--scale" => cfg.scale = value.parse().map_err(|_| bad())?,
            "--out" => cfg.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cfg.workload != "all" && !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    if !(cfg.seconds > 0.0 && cfg.scale > 0.0) {
        return Err("--seconds and --scale must be positive".into());
    }
    Ok(cfg)
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Consecutive segments a run's query latencies are split into for the
/// end-to-end percentiles (one per second of a default served run).
pub const SEGMENTS: usize = 10;

/// The `p`-th percentile of each of [`SEGMENTS`] consecutive segments of
/// `in_order`, median over the segments. A stall of the host that hits
/// one segment moves that segment's tail only; a change in the program
/// moves every segment.
pub fn segment_percentile(in_order: &[f64], p: f64) -> f64 {
    let (n, k) = (in_order.len(), SEGMENTS.min(in_order.len()).max(1));
    let per: Vec<f64> = (0..k)
        .map(|s| percentile(&sorted(in_order[s * n / k..(s + 1) * n / k].to_vec()), p))
        .collect();
    median(&per)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The end-to-end metrics, printed by every untraced run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub query_p50_us: f64,
    pub query_p99_us: f64,
    pub query_throughput_qps: f64,
    pub ok_frac: f64,
    pub node_accesses_per_query: f64,
    pub peak_rss_mib: f64,
}

impl EndToEnd {
    fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", self.setup_s, "s"),
            ("query_p50_us", self.query_p50_us, "us"),
            ("query_p99_us", self.query_p99_us, "us"),
            ("query_throughput_qps", self.query_throughput_qps, "1/s"),
            ("ok_frac", self.ok_frac, "frac"),
            (
                "node_accesses_per_query",
                self.node_accesses_per_query,
                "count",
            ),
            ("peak_rss_mib", self.peak_rss_mib, "MiB"),
        ]
    }
}

/// The per-layer metrics, printed by every traced run. A layer that a
/// workload does not call reads 0.
#[derive(Debug, Default)]
pub struct PerLayer {
    pub core_call_p50_us: f64,
    pub core_call_p99_us: f64,
    pub core_knwc_call_p50_us: f64,
    pub core_ns_per_candidate: f64,
    pub core_knwc_not_greedy_frac: f64,
    /// Summed search counters of every query, and the query count.
    pub counts: Counts,
    pub queries: u64,
    pub rtree_insert_p50_us: f64,
    pub rtree_remove_p50_us: f64,
    pub store_pool_hit_frac: f64,
    pub store_pool_misses_per_query: f64,
    pub store_pool_evictions_per_query: f64,
    pub store_commit_p50_us: f64,
    pub store_bytes_written_per_commit: f64,
    pub store_file_growth_bytes: f64,
    pub serve_rtt_unloaded_p50_us: f64,
    pub serve_overhead_p50_us: f64,
    pub serve_loaded_p50_us: f64,
    pub serve_loaded_p99_us: f64,
    pub serve_queue_wait_p50_us: f64,
    pub serve_queue_wait_p99_us: f64,
    pub serve_shed_frac: f64,
    pub serve_deadline_frac: f64,
    pub serve_gen_lag_p99_us: f64,
    pub proc_cpu_us_per_op: f64,
    pub proc_ctx_switches_per_op: f64,
    pub trace_overhead_frac: f64,
    pub write_p50_us: f64,
    pub write_p99_us: f64,
    pub commit_p50_us: f64,
    pub write_throughput_ops: f64,
    pub bytes_written_per_point: f64,
    pub file_bytes_per_live_point: f64,
}

impl PerLayer {
    fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let c = &self.counts;
        let per_q = |v: u64| ratio(v as f64, self.queries as f64);
        vec![
            ("core.call_p50_us", self.core_call_p50_us, "us"),
            ("core.call_p99_us", self.core_call_p99_us, "us"),
            ("core.knwc_call_p50_us", self.core_knwc_call_p50_us, "us"),
            ("core.ns_per_candidate", self.core_ns_per_candidate, "ns"),
            (
                "core.knwc_not_greedy_frac",
                self.core_knwc_not_greedy_frac,
                "frac",
            ),
            (
                "core.candidate_windows_per_query",
                per_q(c.candidates),
                "count",
            ),
            (
                "core.qualified_frac",
                ratio(c.qualified as f64, c.candidates as f64),
                "frac",
            ),
            (
                "core.objects_visited_per_query",
                per_q(c.objects_visited),
                "count",
            ),
            (
                "core.window_queries_per_query",
                per_q(c.window_queries),
                "count",
            ),
            ("core.srr_skips_per_query", per_q(c.srr_skips), "count"),
            ("core.dip_pruned_per_query", per_q(c.dip_pruned), "count"),
            (
                "core.best_updates_per_query",
                per_q(c.best_updates),
                "count",
            ),
            ("grid.dep_skips_per_query", per_q(c.dep_skips), "count"),
            ("grid.dep_pruned_per_query", per_q(c.dep_pruned), "count"),
            (
                "rtree.traversal_accesses_per_query",
                per_q(c.io_traversal),
                "count",
            ),
            (
                "rtree.window_accesses_per_query",
                per_q(c.io_window),
                "count",
            ),
            ("rtree.insert_p50_us", self.rtree_insert_p50_us, "us"),
            ("rtree.remove_p50_us", self.rtree_remove_p50_us, "us"),
            ("store.pool_hit_frac", self.store_pool_hit_frac, "frac"),
            (
                "store.pool_misses_per_query",
                self.store_pool_misses_per_query,
                "count",
            ),
            (
                "store.pool_evictions_per_query",
                self.store_pool_evictions_per_query,
                "count",
            ),
            ("store.commit_p50_us", self.store_commit_p50_us, "us"),
            (
                "store.bytes_written_per_commit",
                self.store_bytes_written_per_commit,
                "B",
            ),
            ("store.file_growth_bytes", self.store_file_growth_bytes, "B"),
            (
                "serve.rtt_unloaded_p50_us",
                self.serve_rtt_unloaded_p50_us,
                "us",
            ),
            ("serve.overhead_p50_us", self.serve_overhead_p50_us, "us"),
            ("serve.loaded_p50_us", self.serve_loaded_p50_us, "us"),
            ("serve.loaded_p99_us", self.serve_loaded_p99_us, "us"),
            (
                "serve.queue_wait_p50_us",
                self.serve_queue_wait_p50_us,
                "us",
            ),
            (
                "serve.queue_wait_p99_us",
                self.serve_queue_wait_p99_us,
                "us",
            ),
            ("serve.shed_frac", self.serve_shed_frac, "frac"),
            ("serve.deadline_frac", self.serve_deadline_frac, "frac"),
            ("serve.gen_lag_p99_us", self.serve_gen_lag_p99_us, "us"),
            ("proc.cpu_us_per_op", self.proc_cpu_us_per_op, "us"),
            (
                "proc.ctx_switches_per_op",
                self.proc_ctx_switches_per_op,
                "count",
            ),
            ("trace.overhead_frac", self.trace_overhead_frac, "frac"),
            ("write_p50_us", self.write_p50_us, "us"),
            ("write_p99_us", self.write_p99_us, "us"),
            ("commit_p50_us", self.commit_p50_us, "us"),
            ("write_throughput_ops", self.write_throughput_ops, "1/s"),
            ("bytes_written_per_point", self.bytes_written_per_point, "B"),
            (
                "file_bytes_per_live_point",
                self.file_bytes_per_live_point,
                "B",
            ),
        ]
    }

    /// The buffer-pool metrics, from `(before, after)` counters around
    /// a pass of `queries` queries.
    pub fn set_pool(&mut self, (before, after): &(adapter::Pool, adapter::Pool), queries: u64) {
        let hits = (after.hits - before.hits) as f64;
        let misses = (after.misses - before.misses) as f64;
        self.store_pool_hit_frac = ratio(hits, hits + misses);
        self.store_pool_misses_per_query = ratio(misses, queries as f64);
        self.store_pool_evictions_per_query =
            ratio((after.evictions - before.evictions) as f64, queries as f64);
    }

    /// The process metrics, from `(before, after)` samples around the
    /// untraced and the traced pass of `ops` operations each: CPU time
    /// and context switches per operation (untraced), and the tracing
    /// overhead as traced CPU time over untraced, minus one.
    pub fn set_proc(&mut self, untraced: &ProcPair, traced: &ProcPair, ops: u64) {
        let cpu = |(a, b): &ProcPair| (b.cpu_us - a.cpu_us) as f64;
        let (before, after) = untraced;
        self.proc_cpu_us_per_op = ratio(cpu(untraced), ops as f64);
        self.proc_ctx_switches_per_op = ratio(
            (after.ctx_switches - before.ctx_switches) as f64,
            ops as f64,
        );
        self.trace_overhead_frac = ratio(cpu(traced), cpu(untraced)) - 1.0;
    }
}

/// What a workload hands back: the outcome counts and both metric sets
/// (only one of which is printed, as `--trace` selects).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Answers that differ from the reference.
    pub wrong: u64,
    /// Pool frames still pinned after the run.
    pub pinned: u64,
    pub end_to_end: EndToEnd,
    pub per_layer: PerLayer,
}

fn json_line(out: &Outcome, trace: bool) -> String {
    let metrics = if trace {
        out.per_layer.metrics()
    } else {
        out.end_to_end.metrics()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#)
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.wrong == 0 && out.pinned == 0,
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

/// Ascending durations (µs) of the spans with one of `names`.
pub fn span_us(spans: &[trace::Span], names: &[&str]) -> Vec<f64> {
    sorted(
        spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(trace::Span::dur_us)
            .collect(),
    )
}

/// Writes the span log and prints each span name's total and self time.
pub fn save_trace(cfg: &Config, spans: &[trace::Span]) -> Result<(), String> {
    let path = cfg.file("spans.jsonl");
    trace::write(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans: {} in {}", spans.len(), path.display());
    for (name, t) in trace::self_times(spans) {
        eprintln!(
            "  {name:<24} n={:<7} total={:>12.0}us self={:>12.0}us",
            t.count, t.total_us, t.self_us
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Answer checking
// ---------------------------------------------------------------------

/// Same groups in the same order: scores equal to 1e-9 (relative) and
/// identical id sets.
pub fn same_answer(a: &Answer, b: &Answer) -> bool {
    a.groups.len() == b.groups.len()
        && a.groups
            .iter()
            .zip(&b.groups)
            .all(|(x, y)| same_score(x.score, y.score) && x.ids == y.ids)
}

fn same_score(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(1.0)
}

/// What [`check_results`] found.
#[derive(Debug, Default)]
pub struct Checked {
    /// Every attempted query's latency, in operation order.
    pub latencies_us: Vec<f64>,
    /// Queries that returned an answer, right or wrong.
    pub answered: u64,
    /// Queries whose answer matched the reference.
    pub ok: u64,
    /// Summed search counters of the answered queries.
    pub counts: Counts,
}

/// Checks operation `i`'s answer against `reference[i % reference.len()]`
/// and adds every operation to `out`'s attempted, failed and wrong
/// counts.
pub fn check_results(results: &[Timed], reference: &[Answer], out: &mut Outcome) -> Checked {
    let mut c = Checked::default();
    let mut latencies = Vec::with_capacity(results.len());
    for (i, (us, got)) in results.iter().enumerate() {
        out.attempted += 1;
        latencies.push(*us);
        match got {
            Ok(answer) => {
                c.answered += 1;
                c.counts.add(&answer.counts);
                let want = &reference[i % reference.len()];
                if same_answer(answer, want) {
                    c.ok += 1;
                } else {
                    if out.wrong == 0 {
                        eprintln!(
                            "wrong answer: got {:?}, want {:?}",
                            answer.groups, want.groups
                        );
                    }
                    out.wrong += 1;
                    out.failed += 1;
                }
            }
            Err(e) => {
                if out.failed == 0 {
                    eprintln!("failed: {e}");
                }
                out.failed += 1;
            }
        }
    }
    c.latencies_us = latencies;
    c
}

impl Outcome {
    /// Sets the end-to-end metrics from an untraced pass: its set-up
    /// times, its checked queries, the wall time they took and the
    /// query latency's `[p50, p99]`.
    pub fn set_end_to_end(
        &mut self,
        setup_s: &[f64],
        checked: &Checked,
        wall_s: f64,
        [p50, p99]: [f64; 2],
    ) {
        let e = &mut self.end_to_end;
        e.setup_s = median(setup_s);
        e.query_p50_us = p50;
        e.query_p99_us = p99;
        e.query_throughput_qps = ratio(checked.ok as f64, wall_s);
        e.node_accesses_per_query = ratio(checked.counts.io_total as f64, checked.answered as f64);
        e.peak_rss_mib = procfs::sample().hwm_kib as f64 / 1024.0;
    }
}

/// Core call latencies from the `core.nwc` / `core.knwc` spans, and the
/// time per candidate window over `candidates` (the windows those same
/// calls evaluated).
pub fn set_core_calls(l: &mut PerLayer, spans: &[trace::Span], candidates: u64) {
    let all = span_us(spans, &["core.nwc", "core.knwc"]);
    l.core_call_p50_us = percentile(&all, 50.0);
    l.core_call_p99_us = percentile(&all, 99.0);
    l.core_knwc_call_p50_us = percentile(&span_us(spans, &["core.knwc"]), 50.0);
    l.core_ns_per_candidate = ratio(all.iter().sum::<f64>() * 1e3, candidates as f64);
}

/// What [`reference`] computed.
pub struct Reference {
    pub answers: Vec<Answer>,
    /// Sampled queries whose reference answer failed a cross-check.
    pub disagree: u64,
    /// Sampled kNWC queries, and how many of their pruned answers are
    /// not the greedy Definition-3 answer.
    pub knwc_sampled: u64,
    pub knwc_not_greedy: u64,
}

/// The guarantees of the paper's pruned kNWC against the greedy
/// Definition-3 answer `exact`, whatever order the candidates come in:
/// the same first group score (the NWC optimum), an answer exactly when
/// there is one, and at most `k` groups of `n` objects in ascending
/// score, no two sharing more than `m` objects.
fn pruned_knwc_sound(q: &Query, got: &Answer, exact: &Answer) -> bool {
    let Query::Knwc { n, k, m, .. } = *q else {
        return false;
    };
    let first = match (got.groups.first(), exact.groups.first()) {
        (None, None) => true,
        (Some(a), Some(b)) => same_score(a.score, b.score),
        _ => false,
    };
    let g = &got.groups;
    let shared = |a: &Group, b: &Group| a.ids.iter().filter(|id| b.ids.contains(id)).count();
    first
        && g.len() <= k as usize
        && g.iter().all(|x| x.ids.len() == n as usize)
        && g.windows(2).all(|w| w[0].score <= w[1].score)
        && g.iter()
            .enumerate()
            .all(|(i, a)| g[i + 1..].iter().all(|b| shared(a, b) <= m as usize))
}

/// Reference answers on an in-memory index under [`Scheme::Dip`]. Runs
/// outside any timed region. Every [`CROSS_CHECK_EVERY`]-th query is
/// cross-checked: an NWC query against [`Scheme::Plain`], which must
/// agree; a kNWC query against the greedy Definition-3 answer, which
/// the pruned answer must be sound against ([`pruned_knwc_sound`]) and
/// may differ from (counted, not failed: the library documents that
/// pruning by the current k-th distance can drop a group the greedy
/// answer keeps).
pub fn reference(index: &Index, queries: &[Query]) -> Result<Reference, String> {
    let started = std::time::Instant::now();
    let next = AtomicUsize::new(0);
    // Per query: its answer, whether the cross-check held, and for a
    // sampled kNWC query whether the answer is the greedy one.
    type Item = (usize, Answer, bool, Option<bool>);
    let results = std::thread::scope(|s| {
        let workers: Vec<_> = (0..REFERENCE_THREADS)
            .map(|_| {
                s.spawn(|| -> Result<Vec<Item>, String> {
                    let mut scratch = Scratch::default();
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(q) = queries.get(i) else {
                            return Ok(out);
                        };
                        let dip = index.query(q, Scheme::Dip, &mut scratch)?;
                        let (agree, greedy) = if !i.is_multiple_of(CROSS_CHECK_EVERY) {
                            (true, None)
                        } else if let Some(exact) = index.knwc_exact(q) {
                            (
                                pruned_knwc_sound(q, &dip, &exact),
                                Some(same_answer(&dip, &exact)),
                            )
                        } else {
                            let plain = index.query(q, Scheme::Plain, &mut scratch)?;
                            (same_answer(&dip, &plain), None)
                        };
                        out.push((i, dip, agree, greedy));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("reference thread panicked".into()))
            })
            .collect::<Vec<_>>()
    });
    let mut answers: Vec<Option<Answer>> = vec![None; queries.len()];
    let (mut disagree, mut knwc_sampled, mut knwc_not_greedy) = (0, 0, 0);
    for part in results {
        for (i, answer, agree, greedy) in part? {
            answers[i] = Some(answer);
            disagree += u64::from(!agree);
            if let Some(greedy) = greedy {
                knwc_sampled += 1;
                knwc_not_greedy += u64::from(!greedy);
            }
        }
    }
    eprintln!(
        "reference: {} answers in {:.1} s; {knwc_not_greedy} of {knwc_sampled} sampled kNWC answers are not the greedy one",
        queries.len(),
        started.elapsed().as_secs_f64()
    );
    Ok(Reference {
        answers: answers
            .into_iter()
            .map(|a| a.expect("every query answered"))
            .collect(),
        disagree,
        knwc_sampled,
        knwc_not_greedy,
    })
}

// ---------------------------------------------------------------------
// Entry
// ---------------------------------------------------------------------

fn run_one(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    let steal0 = procfs::cpu_steal_ticks();
    let mut out = match cfg.workload.as_str() {
        "arena-paper-mix" => arena::run(cfg),
        "served-disk-small-window" => served::run(cfg),
        _ => churn::run(cfg),
    }?;
    out.end_to_end.ok_frac = 1.0 - ratio(out.failed as f64, out.attempted as f64);
    let steal1 = procfs::cpu_steal_ticks();
    let steal = ratio((steal1.0 - steal0.0) as f64, (steal1.1 - steal0.1) as f64);
    eprintln!(
        "host steal during the run: {:.1} % of CPU time on {} CPUs",
        steal * 100.0,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    Ok(out)
}

/// Runs every workload in its own process and prints each metric with
/// its unit.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0u8;
    for name in WORKLOADS {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().cloned().unwrap_or_default();
            child_args.push(flag.clone());
            child_args.push(if flag == "--workload" {
                name.to_string()
            } else {
                value
            });
        }
        let out = match std::process::Command::new(&exe).args(&child_args).output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("error: {name}: {e}");
                return ExitCode::from(2);
            }
        };
        let code = out.status.code().unwrap_or(2).clamp(0, 255) as u8;
        worst = worst.max(code);
        let stdout = String::from_utf8_lossy(&out.stdout);
        println!("{name} (exit {code}):");
        print!("{}", String::from_utf8_lossy(&out.stderr));
        println!("  {}", stdout.lines().last().unwrap_or("(no result)"));
    }
    ExitCode::from(worst)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if cfg.workload == "all" {
        return run_all(&args);
    }
    match run_one(&cfg) {
        Ok(out) => {
            let metrics = if cfg.trace {
                out.per_layer.metrics()
            } else {
                out.end_to_end.metrics()
            };
            for (name, value, unit) in metrics {
                eprintln!("  {name:<36} {value:>14.3} {unit}");
            }
            println!("{}", json_line(&out, cfg.trace));
            if out.wrong > 0 || out.pinned > 0 {
                eprintln!(
                    "error: {} wrong answers, {} pinned pool frames",
                    out.wrong, out.pinned
                );
                return ExitCode::from(1);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_percentile_ignores_a_stall_in_one_segment() {
        let mut v: Vec<f64> = (0..1000).map(|i| (i % 100) as f64).collect();
        let steady = segment_percentile(&v, 99.0);
        assert_eq!(steady, 98.0);
        v[..100].iter_mut().for_each(|x| *x += 1e6);
        assert_eq!(segment_percentile(&v, 99.0), steady);
        v.iter_mut().for_each(|x| *x *= 2.0);
        assert_eq!(segment_percentile(&v, 99.0), 2.0 * steady);
    }

    #[test]
    fn pruned_knwc_soundness() {
        let q = Query::Knwc {
            x: 0.0,
            y: 0.0,
            w: 1.0,
            n: 3,
            k: 3,
            m: 1,
        };
        let answer = |groups: &[(f64, [u32; 3])]| Answer {
            groups: groups
                .iter()
                .map(|&(score, ids)| Group {
                    score,
                    ids: ids.to_vec(),
                })
                .collect(),
            counts: Counts::default(),
        };
        let exact = answer(&[(1.0, [1, 2, 3]), (2.0, [3, 4, 5]), (3.0, [5, 6, 7])]);
        // A different but sound later group is allowed.
        let other = answer(&[(1.0, [1, 2, 3]), (2.5, [3, 8, 9])]);
        assert!(pruned_knwc_sound(&q, &exact, &exact));
        assert!(pruned_knwc_sound(&q, &other, &exact));
        // A wrong first group, two groups sharing more than m objects,
        // descending scores or an empty answer are not.
        let first = answer(&[(1.5, [1, 2, 3])]);
        let shared = answer(&[(1.0, [1, 2, 3]), (2.0, [2, 3, 4])]);
        let order = answer(&[(1.0, [1, 2, 3]), (3.0, [4, 5, 6]), (2.0, [7, 8, 9])]);
        for bad in [first, shared, order, answer(&[])] {
            assert!(!pruned_knwc_sound(&q, &bad, &exact), "{:?}", bad.groups);
        }
    }
}
