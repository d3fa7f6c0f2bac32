//! Spatial sharding scatter-gather sweep (beyond the paper).
//!
//! Cuts the CA-like dataset into K spatial tiles, saves them as a
//! sharded page-file directory, reopens with one *total* buffer-pool
//! budget split across the shard pools, and answers the same NWC*
//! query batch at several scatter widths. Reported per cell:
//!
//! - wall-clock and queries/sec;
//! - total **logical** I/O (the paper's metric) summed over the batch —
//!   and its ratio against the K = 1 cell at the same pool budget, the
//!   acceptance bar for the sharding overhead (cross-shard window
//!   queries re-descend K − 1 extra roots, bounded ≈ 1.25× at K = 4);
//! - the exact per-shard pool split, the shard count actually built,
//!   and the host's core count — on a 1-core container the thread sweep
//!   demonstrates correctness and bound-sharing, not parallel speedup.
//!
//! Writes machine-readable `results/BENCH_shard.json`.

use crate::context::ExperimentContext;
use crate::table::Table;
use nwc_core::{
    DiskIndexConfig, NwcQuery, Scheme, SearchStats, ShardedNwcIndex, WindowSpec,
};
use std::time::Instant;

/// One (pool budget × shard count × thread count) cell.
#[derive(Clone, Debug)]
pub struct ShardCell {
    /// Total pool frames across all shard pools (0 = unbounded).
    pub pool_capacity: usize,
    /// Shard count requested.
    pub shards_requested: usize,
    /// Shard count actually built (tiles are never empty).
    pub shards: usize,
    /// The monotone per-shard frame split actually applied.
    pub pool_split: Vec<usize>,
    /// Scatter width (worker threads).
    pub threads: usize,
    /// Wall-clock for the whole batch, seconds.
    pub wall_s: f64,
    /// Aggregate throughput, queries per second.
    pub queries_per_sec: f64,
    /// Total logical I/O over the batch (traversal + window queries).
    pub logical_io: u64,
    /// `logical_io` relative to the K = 1, 1-thread cell at the same
    /// pool budget (1.0 for that baseline itself).
    pub io_ratio_vs_unsharded: f64,
}

/// Everything the sharding experiment measured.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Dataset the index was built over.
    pub dataset: String,
    /// CPU cores available (`available_parallelism`) — the honesty
    /// field for the thread sweep.
    pub cores: usize,
    /// Queries per cell.
    pub queries: usize,
    /// All sweep cells, pool budget outermost.
    pub cells: Vec<ShardCell>,
}

fn thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1usize, max.min(4)];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Runs the experiment and renders the markdown table; also writes
/// `results/BENCH_shard.json` (write errors are reported on stderr, not
/// fatal).
pub fn shard(ctx: &ExperimentContext) -> String {
    let report = measure(ctx);
    let json = render_json(ctx, &report);
    let path = "results/BENCH_shard.json";
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(path, &json)) {
        Ok(()) => eprintln!("[shard] wrote {path}"),
        Err(e) => eprintln!("[shard] could not write {path}: {e}"),
    }
    render_markdown(&report)
}

/// The measurement itself, separated from rendering for tests.
pub fn measure(ctx: &ExperimentContext) -> ShardReport {
    let ds = ctx.dataset("CA");
    let queries: Vec<NwcQuery> = ctx
        .query_points()
        .iter()
        .map(|&q| NwcQuery::new(q, WindowSpec::square(200.0), 8))
        .collect();
    let scheme = Scheme::NWC_STAR;
    let scratch_dir = std::env::temp_dir().join(format!("nwc-bench-shard-{}", std::process::id()));

    let mut cells = Vec::new();
    for pool_capacity in [64usize, 512] {
        let mut baseline_io: Option<u64> = None;
        for shards_requested in [1usize, 2, 4] {
            // Build + persist this tiling once, reopen per thread count
            // so every cell starts on a cold pool.
            let built = ShardedNwcIndex::build(ds.points.clone(), shards_requested);
            let dir = scratch_dir.join(format!("cap{pool_capacity}-k{shards_requested}"));
            if let Err(e) = built.save_to_dir_writable(&dir) {
                eprintln!("[shard] skipping K={shards_requested}: save failed: {e}");
                continue;
            }
            for threads in thread_counts() {
                let opened = ShardedNwcIndex::open_dir(
                    &dir,
                    DiskIndexConfig {
                        pool_capacity: Some(pool_capacity),
                        ..DiskIndexConfig::default()
                    },
                );
                let index = match opened {
                    Ok(i) => i.with_threads(threads),
                    Err(e) => {
                        eprintln!("[shard] skipping K={shards_requested}/t{threads}: {e}");
                        continue;
                    }
                };
                let pool_split: Vec<usize> = index
                    .shards()
                    .iter()
                    .map(|s| {
                        s.tree()
                            .storage()
                            .map_or(0, |st| st.pool_stats().capacity)
                    })
                    .collect();
                let t = Instant::now();
                let mut total = SearchStats::default();
                let mut failed = 0usize;
                for q in &queries {
                    match index.try_nwc_full(q, scheme) {
                        Ok((result, stats)) => {
                            std::hint::black_box(&result);
                            total.accumulate(&stats);
                        }
                        Err(_) => failed += 1,
                    }
                }
                let wall_s = t.elapsed().as_secs_f64();
                if failed > 0 {
                    eprintln!(
                        "[shard] K={shards_requested}/t{threads}: {failed} queries failed"
                    );
                }
                if shards_requested == 1 && threads == 1 {
                    baseline_io = Some(total.io_total);
                }
                let ratio = match baseline_io {
                    Some(base) if base > 0 => total.io_total as f64 / base as f64,
                    _ => 1.0,
                };
                cells.push(ShardCell {
                    pool_capacity,
                    shards_requested,
                    shards: index.shard_count(),
                    pool_split,
                    threads,
                    wall_s,
                    queries_per_sec: queries.len() as f64 / wall_s.max(1e-9),
                    logical_io: total.io_total,
                    io_ratio_vs_unsharded: ratio,
                });
            }
        }
    }
    std::fs::remove_dir_all(&scratch_dir).ok();

    ShardReport {
        dataset: ds.name.clone(),
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        queries: queries.len(),
        cells,
    }
}

fn render_markdown(r: &ShardReport) -> String {
    let mut t = Table::new(
        "Spatial sharding scatter-gather",
        format!(
            "{} NWC* queries over {}; logical I/O vs the unsharded baseline at the same total \
             pool budget ({} core(s) available — thread speedup is bounded by that)",
            r.queries, r.dataset, r.cores
        ),
        vec![
            "pool frames",
            "shards",
            "split",
            "threads",
            "wall (s)",
            "queries/s",
            "logical I/O",
            "I/O vs K=1",
        ],
    );
    for c in &r.cells {
        let split = c
            .pool_split
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join("+");
        t.push_row(vec![
            c.pool_capacity.to_string(),
            c.shards.to_string(),
            split,
            c.threads.to_string(),
            format!("{:.3}", c.wall_s),
            format!("{:.0}", c.queries_per_sec),
            c.logical_io.to_string(),
            format!("{:.3}×", c.io_ratio_vs_unsharded),
        ]);
    }
    t.to_markdown()
}

/// Hand-rolled JSON (the workspace has no serde): stable field order,
/// numbers via `format!` so the file diffs cleanly between runs.
fn render_json(ctx: &ExperimentContext, r: &ShardReport) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"experiment\": \"shard\",\n");
    s.push_str(&format!("  \"dataset\": \"{}\",\n", r.dataset));
    s.push_str(&format!("  \"scale\": {},\n", ctx.scale));
    s.push_str(&format!("  \"seed\": {},\n", ctx.seed));
    s.push_str("  \"scheme\": \"NWC*\",\n");
    s.push_str(&format!("  \"cores\": {},\n", r.cores));
    s.push_str(&format!("  \"queries\": {},\n", r.queries));
    s.push_str("  \"cells\": [\n");
    for (i, c) in r.cells.iter().enumerate() {
        let split = c
            .pool_split
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        s.push_str(&format!(
            "    {{\"pool_capacity\": {}, \"shards_requested\": {}, \"shards\": {}, \
             \"pool_split\": [{}], \"threads\": {}, \"wall_s\": {:.6}, \
             \"queries_per_sec\": {:.2}, \"logical_io\": {}, \
             \"io_ratio_vs_unsharded\": {:.4}}}{}\n",
            c.pool_capacity,
            c.shards_requested,
            c.shards,
            split,
            c.threads,
            c.wall_s,
            c.queries_per_sec,
            c.logical_io,
            c.io_ratio_vs_unsharded,
            if i + 1 == r.cells.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_smoke_and_json_shape() {
        let ctx = ExperimentContext::tiny();
        let r = measure(&ctx);
        assert!(!r.cells.is_empty());
        // Baselines are exact 1.0; every cell records its split summing
        // to the budgeted total.
        for c in &r.cells {
            if c.shards_requested == 1 && c.threads == 1 {
                assert!((c.io_ratio_vs_unsharded - 1.0).abs() < 1e-12);
            }
            assert_eq!(c.pool_split.len(), c.shards);
            let total: usize = c.pool_split.iter().sum();
            assert_eq!(
                total,
                c.pool_capacity.max(c.shards),
                "split must budget exactly the total"
            );
        }
        // Sanity ceiling only: the tiny context (~100 points, height-1
        // trees, 2 queries) is fixed-cost dominated — one query on a
        // tile seam pays cross-shard root descents that never amortize.
        // The real ≤ 1.25× acceptance bar lives in
        // `acceptance_ratio_at_bench_scale` below and in the per-cell
        // `io_ratio_vs_unsharded` of `results/BENCH_shard.json`.
        for c in r.cells.iter().filter(|c| c.shards == 4 && c.threads == 1) {
            assert!(
                c.io_ratio_vs_unsharded <= 4.0,
                "K=4 logical I/O ratio {} exceeds even the tiny-regime ceiling",
                c.io_ratio_vs_unsharded
            );
        }
        let json = render_json(&ctx, &r);
        assert!(json.contains("\"experiment\": \"shard\""));
        assert!(json.contains("\"pool_split\""));
        assert!(json.contains("\"cores\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let md = render_markdown(&r);
        assert!(md.contains("I/O vs K=1"));
    }

    /// The acceptance bar itself, at bench scale (the regime the
    /// experiment reports): K = 4 single-threaded logical I/O within
    /// 1.25× of unsharded. Takes tens of seconds, so opt-in:
    /// `cargo test -p nwc-bench --release -- --ignored`.
    #[test]
    #[ignore = "bench-scale: run explicitly with -- --ignored"]
    fn acceptance_ratio_at_bench_scale() {
        let ctx = ExperimentContext {
            scale: 0.2,
            queries: 25,
            seed: 2016,
        };
        let r = measure(&ctx);
        let mut checked = 0;
        for c in r.cells.iter().filter(|c| c.shards == 4 && c.threads == 1) {
            assert!(
                c.io_ratio_vs_unsharded <= 1.25,
                "K=4 logical I/O ratio {} exceeds the 1.25× acceptance bar \
                 (pool {} frames)",
                c.io_ratio_vs_unsharded,
                c.pool_capacity
            );
            checked += 1;
        }
        assert!(checked > 0, "no K=4 single-thread cells measured");
    }
}
