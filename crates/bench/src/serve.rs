//! Load-generator sweep over the `nwc-serve` service layer (not from
//! the paper).
//!
//! An in-process server fronts a saved page file; the sweep measures it
//! two ways:
//!
//! - **closed loop** — `C` connections issuing queries back-to-back.
//!   This finds the service's *capacity*: the QPS it sustains when the
//!   clients themselves provide backpressure.
//! - **open loop** — queries arrive on a fixed schedule at {50 %,
//!   100 %, 150 %} of the measured capacity, crossed with a generous
//!   and a tight per-query deadline. Latency is measured from each
//!   query's *scheduled* send time, not the moment the socket write
//!   happened, so queue buildup is charged to the tail instead of
//!   silently dropped (the coordinated-omission trap). At 150 % the
//!   interesting output is not latency but *behavior*: the admission
//!   queue sheds with typed retry-after responses and tight deadlines
//!   convert queue wait into typed `Deadline` responses, rather than
//!   the server melting.
//!
//! Percentiles here are exact (sorted per-cell latencies), unlike the
//! server's own ≤ 2× log-bucketed scrape histograms. Besides the
//! markdown table, the run writes machine-readable
//! `results/BENCH_serve.json`.

use crate::context::ExperimentContext;
use crate::runner::build_index;
use crate::table::Table;
use nwc_core::{PageLayout, Scheme};
use nwc_serve::{IndexHandle, QueryOutcome, ServeClient, Server, ServerConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop offered load as fractions of the measured capacity.
pub const LOAD_FRACTIONS: [f64; 3] = [0.5, 1.0, 1.5];

/// Per-query deadlines crossed with each load point: a generous budget
/// that effectively never fires, and a tight one that converts queue
/// wait into typed `Deadline` responses under overload.
pub const DEADLINES_MS: [u32; 2] = [2_000, 5];

/// Concurrent client connections (closed loop and open loop both).
const CONNECTIONS: usize = 8;

/// One cell of the sweep.
#[derive(Clone, Debug)]
pub struct ServePoint {
    /// `"closed"` or `"open"`.
    pub mode: String,
    /// Offered load (0 for the closed loop — the clients set the pace).
    pub target_qps: f64,
    /// Per-query deadline sent on the wire.
    pub deadline_ms: u32,
    /// Requests sent.
    pub sent: u64,
    /// Typed outcomes.
    pub answered: u64,
    /// Queries that exceeded their deadline mid-search.
    pub deadline: u64,
    /// Requests rejected at admission.
    pub shed: u64,
    /// Untyped failures (protocol/socket/BadRequest/IoFailed) — always
    /// 0 on a healthy server.
    pub errors: u64,
    /// Answered queries per second of wall clock.
    pub achieved_qps: f64,
    /// Exact latency percentiles over answered queries, microseconds,
    /// measured from the scheduled send time.
    pub p50_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// 99.9th percentile.
    pub p999_us: u64,
}

/// Everything the serve experiment measured.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Dataset the page file was built from.
    pub dataset: String,
    /// Server worker threads.
    pub workers: usize,
    /// Client connections per cell.
    pub connections: usize,
    /// Wall clock per cell, milliseconds.
    pub cell_ms: u64,
    /// Capacity measured by the closed loop, queries/second.
    pub capacity_qps: f64,
    /// The closed-loop point followed by the open-loop grid.
    pub points: Vec<ServePoint>,
}

/// Runs the sweep and renders the markdown table; also writes
/// `results/BENCH_serve.json` (errors writing the file are reported on
/// stderr, not fatal — the measurement still prints).
pub fn serve(ctx: &ExperimentContext) -> String {
    let report = measure(ctx);
    let json = render_json(ctx, &report);
    let path = "results/BENCH_serve.json";
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(path, &json)) {
        Ok(()) => eprintln!("[serve] wrote {path}"),
        Err(e) => eprintln!("[serve] could not write {path}: {e}"),
    }
    render_markdown(&report)
}

/// The measurement itself, separated from rendering for tests.
pub fn measure(ctx: &ExperimentContext) -> ServeReport {
    let ds = ctx.dataset("CA");
    let arena = build_index(&ds);
    let path = std::env::temp_dir().join(format!("nwc-serve-bench-{}.pages", std::process::id()));
    arena
        .save_tree_writable_with_layout(&path, PageLayout::Clustered)
        .unwrap_or_else(|e| panic!("saving page file: {e}"));
    drop(arena);

    // A queue roughly one cell's depth and a modest wait bound, so the
    // 150 % cell actually sheds instead of queueing unboundedly.
    let config = ServerConfig {
        workers: 4,
        queue_depth: 64,
        max_estimated_wait: Duration::from_millis(250),
        default_deadline: None,
        ..ServerConfig::default()
    };
    let index = nwc_core::NwcIndex::open_disk(&path, config.swap_config)
        .unwrap_or_else(|e| panic!("opening page file: {e}"));
    let server = Server::start(Arc::new(IndexHandle::new(index)), "127.0.0.1:0", config)
        .unwrap_or_else(|e| panic!("starting server: {e}"));
    let addr = server.local_addr();

    // Short cells at tiny scale keep the unit test fast; real runs get
    // long enough cells for stable tails.
    let cell = if ctx.scale <= 0.02 {
        Duration::from_millis(150)
    } else {
        Duration::from_millis(800)
    };

    // Warm the pool so the closed loop measures steady state.
    let _ = run_cell(addr, Mode::Closed, 0.0, 2_000, cell / 4, ctx.seed);

    let closed = run_cell(addr, Mode::Closed, 0.0, DEADLINES_MS[0], cell, ctx.seed);
    let capacity_qps = closed.achieved_qps;
    let mut points = vec![closed];
    for &fraction in &LOAD_FRACTIONS {
        let qps = (capacity_qps * fraction).max(1.0);
        for &deadline_ms in &DEADLINES_MS {
            points.push(run_cell(addr, Mode::Open(qps), qps, deadline_ms, cell, ctx.seed));
        }
    }
    server.shutdown();
    let _ = std::fs::remove_file(&path);

    ServeReport {
        dataset: ds.name,
        workers: 4,
        connections: CONNECTIONS,
        cell_ms: cell.as_millis() as u64,
        capacity_qps,
        points,
    }
}

enum Mode {
    /// Back-to-back: each connection sends the next query the moment
    /// the previous answer lands.
    Closed,
    /// Scheduled arrivals at the given aggregate QPS.
    Open(f64),
}

/// Runs one cell: `CONNECTIONS` client threads against `addr` for
/// `duration`, tallying typed outcomes and exact latencies.
fn run_cell(
    addr: SocketAddr,
    mode: Mode,
    target_qps: f64,
    deadline_ms: u32,
    duration: Duration,
    seed: u64,
) -> ServePoint {
    let per_conn_interval = match mode {
        Mode::Closed => None,
        Mode::Open(qps) => Some(Duration::from_secs_f64(CONNECTIONS as f64 / qps)),
    };
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + duration;
    let mut tallies = Vec::new();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for conn in 0..CONNECTIONS {
            joins.push(scope.spawn(move || {
                conn_loop(addr, conn, seed, deadline_ms, per_conn_interval, start, end)
            }));
        }
        for j in joins {
            tallies.push(j.join().unwrap_or_else(|_| panic!("client thread panicked")));
        }
    });

    let mut point = ServePoint {
        mode: match mode {
            Mode::Closed => "closed".to_string(),
            Mode::Open(_) => "open".to_string(),
        },
        target_qps,
        deadline_ms,
        sent: 0,
        answered: 0,
        deadline: 0,
        shed: 0,
        errors: 0,
        achieved_qps: 0.0,
        p50_us: 0,
        p99_us: 0,
        p999_us: 0,
    };
    let mut latencies: Vec<u64> = Vec::new();
    for t in tallies {
        point.sent += t.sent;
        point.answered += t.answered;
        point.deadline += t.deadline;
        point.shed += t.shed;
        point.errors += t.errors;
        latencies.extend(t.latencies_us);
    }
    latencies.sort_unstable();
    point.achieved_qps = point.answered as f64 / duration.as_secs_f64();
    point.p50_us = percentile(&latencies, 0.50);
    point.p99_us = percentile(&latencies, 0.99);
    point.p999_us = percentile(&latencies, 0.999);
    point
}

#[derive(Default)]
struct ConnTally {
    sent: u64,
    answered: u64,
    deadline: u64,
    shed: u64,
    errors: u64,
    latencies_us: Vec<u64>,
}

fn conn_loop(
    addr: SocketAddr,
    conn: usize,
    seed: u64,
    deadline_ms: u32,
    interval: Option<Duration>,
    start: Instant,
    end: Instant,
) -> ConnTally {
    let mut tally = ConnTally::default();
    let Ok(mut client) = ServeClient::connect(addr) else {
        tally.errors += 1;
        return tally;
    };
    let queries = nwc_datagen::Dataset::query_points(64, seed ^ (conn as u64).wrapping_mul(0x9e37));
    // Stagger open-loop connections so aggregate arrivals are evenly
    // spaced, not bursts of CONNECTIONS.
    let offset = interval.map_or(Duration::ZERO, |iv| iv * conn as u32 / CONNECTIONS as u32);
    let mut next = start + offset;
    let mut i = 0usize;
    loop {
        let scheduled = match interval {
            // Open loop: wait for the schedule; latency is measured
            // from the *scheduled* time even when we fall behind.
            Some(iv) => {
                if next >= end {
                    break;
                }
                let now = Instant::now();
                if next > now {
                    std::thread::sleep(next - now);
                }
                let s = next;
                next += iv;
                s
            }
            // Closed loop: the clock is the previous response.
            None => {
                let now = Instant::now();
                if now >= end {
                    break;
                }
                now
            }
        };
        let q = queries[i % queries.len()];
        i += 1;
        tally.sent += 1;
        match client.nwc(Scheme::NWC_STAR, q.x, q.y, 200.0, 200.0, 8, deadline_ms) {
            Ok(QueryOutcome::Answer { .. }) => {
                tally.answered += 1;
                let us = scheduled.elapsed().as_micros();
                tally.latencies_us.push(u64::try_from(us).unwrap_or(u64::MAX));
            }
            // Legacy requests never receive Partial; count one as a
            // deadline if a future server ever sends it here.
            Ok(QueryOutcome::Deadline | QueryOutcome::Partial { .. }) => tally.deadline += 1,
            Ok(QueryOutcome::Shed { .. }) => tally.shed += 1,
            // The server never drains mid-cell; if a Stopped does
            // arrive, drop the request from the tally entirely.
            Ok(QueryOutcome::Stopped) => tally.sent -= 1,
            Ok(QueryOutcome::BadRequest(_) | QueryOutcome::IoFailed(_)) | Err(_) => {
                tally.errors += 1;
            }
        }
    }
    tally
}

/// Exact percentile over sorted microsecond latencies (ceil-rank).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn render_markdown(r: &ServeReport) -> String {
    let mut t = Table::new(
        "serve",
        format!(
            "Service-layer load sweep — {} on {} workers, {} connections, {} ms cells. \
             Closed-loop capacity {:.0} QPS; open-loop latency is measured from the \
             scheduled send time (coordinated-omission-safe); `shed` and `deadline` \
             are typed responses, not failures.",
            r.dataset, r.workers, r.connections, r.cell_ms, r.capacity_qps,
        ),
        vec![
            "mode", "target QPS", "deadline ms", "sent", "answered", "deadline", "shed",
            "errors", "achieved QPS", "p50 µs", "p99 µs", "p999 µs",
        ],
    );
    for p in &r.points {
        t.push_row(vec![
            p.mode.clone(),
            if p.target_qps > 0.0 {
                format!("{:.0}", p.target_qps)
            } else {
                "—".to_string()
            },
            p.deadline_ms.to_string(),
            p.sent.to_string(),
            p.answered.to_string(),
            p.deadline.to_string(),
            p.shed.to_string(),
            p.errors.to_string(),
            format!("{:.0}", p.achieved_qps),
            p.p50_us.to_string(),
            p.p99_us.to_string(),
            p.p999_us.to_string(),
        ]);
    }
    t.to_markdown()
}

/// Hand-rolled JSON (the workspace has no serde): stable field order,
/// numbers via `format!` so the file diffs cleanly between runs.
fn render_json(ctx: &ExperimentContext, r: &ServeReport) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"experiment\": \"serve\",\n");
    s.push_str(&format!("  \"dataset\": \"{}\",\n", r.dataset));
    s.push_str(&format!("  \"scale\": {},\n", ctx.scale));
    s.push_str(&format!("  \"seed\": {},\n", ctx.seed));
    s.push_str(&format!("  \"workers\": {},\n", r.workers));
    s.push_str(&format!("  \"connections\": {},\n", r.connections));
    s.push_str(&format!("  \"cell_ms\": {},\n", r.cell_ms));
    s.push_str(&format!("  \"capacity_qps\": {:.2},\n", r.capacity_qps));
    s.push_str("  \"sweep\": [\n");
    for (i, p) in r.points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"mode\": \"{}\", \"target_qps\": {:.2}, \"deadline_ms\": {}, \
             \"sent\": {}, \"answered\": {}, \"deadline\": {}, \"shed\": {}, \
             \"errors\": {}, \"achieved_qps\": {:.2}, \
             \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}}}{}\n",
            p.mode,
            p.target_qps,
            p.deadline_ms,
            p.sent,
            p.answered,
            p.deadline,
            p.shed,
            p.errors,
            p.achieved_qps,
            p.p50_us,
            p.p99_us,
            p.p999_us,
            if i + 1 == r.points.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_grid_with_typed_outcomes_and_json_well_formed() {
        let ctx = ExperimentContext::tiny();
        let r = measure(&ctx);
        // Closed-loop point plus the open-loop load × deadline grid.
        assert_eq!(
            r.points.len(),
            1 + LOAD_FRACTIONS.len() * DEADLINES_MS.len()
        );
        assert!(r.capacity_qps > 0.0, "closed loop answered nothing");
        for p in &r.points {
            assert_eq!(p.errors, 0, "untyped failures in cell {p:?}");
            assert_eq!(
                p.sent,
                p.answered + p.deadline + p.shed,
                "outcome counts do not add up in cell {p:?}"
            );
        }
        // Some cell must actually answer, and answered cells have sane
        // percentile ordering.
        assert!(r.points.iter().any(|p| p.answered > 0));
        for p in r.points.iter().filter(|p| p.answered > 0) {
            assert!(p.p50_us <= p.p99_us && p.p99_us <= p.p999_us);
        }
        let json = render_json(&ctx, &r);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
        assert!(json.contains("\"capacity_qps\""));
    }

    #[test]
    fn percentile_is_exact_ceil_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 0.999), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
