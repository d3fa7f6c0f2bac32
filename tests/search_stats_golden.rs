//! Golden `SearchStats` totals: every counter of every search, summed
//! over a fixed seeded CA-like query set, must equal constants recorded
//! before the candidate scan was optimised (admissibility bounds,
//! borrowed group offers, two-pointer window walk, repeat skipping).
//! Those changes are CPU-only, so the counts — logical I/O, candidate
//! and qualified windows, best updates, pruning tallies — must stay
//! bit-identical, and so must the answers' distances.
//!
//! Each section covers one query family so a mismatch points at it:
//! every Table-3 scheme × all four measures (NWC), the three kNWC
//! selection variants, and the sharded planner at K = 1 and K = 4 (one
//! scatter thread, so the pruned sharded searches are deterministic).
//! On a mismatch the assertion prints the new totals in the same form
//! as the constants below.

use nwc::core::KnwcResult;
use nwc::prelude::*;

const POINTS: usize = 2_000;
const SEED: u64 = 2016;
const QUERIES: usize = 3;
const SIZES: [f64; 2] = [150.0, 300.0];
const N: usize = 8;
const K: usize = 4;
const M: usize = 3;

/// Per-field sums over a section, in `SearchStats` declaration order,
/// plus the number of answers and the sum of their distances' bits.
#[derive(Debug, Default, PartialEq, Eq)]
struct Totals {
    stats: [u64; 15],
    answers: u64,
    distance_bits: u64,
}

impl Totals {
    fn add(&mut self, s: &SearchStats) {
        // Destructured so a new counter cannot be left out silently.
        let SearchStats {
            io_total,
            io_traversal,
            io_window_queries,
            buffer_hits,
            objects_visited,
            window_queries,
            skipped_by_srr,
            skipped_by_dep,
            nodes_pruned_by_dip,
            nodes_pruned_by_dep,
            candidate_windows,
            qualified_windows,
            best_updates,
            retries,
            transient_errors,
        } = *s;
        let fields = [
            io_total,
            io_traversal,
            io_window_queries,
            buffer_hits,
            objects_visited,
            window_queries,
            skipped_by_srr,
            skipped_by_dep,
            nodes_pruned_by_dip,
            nodes_pruned_by_dep,
            candidate_windows,
            qualified_windows,
            best_updates,
            retries,
            transient_errors,
        ];
        for (sum, v) in self.stats.iter_mut().zip(fields) {
            *sum += v;
        }
    }

    fn answer(&mut self, distance: f64) {
        self.answers += 1;
        self.distance_bits = self.distance_bits.wrapping_add(distance.to_bits());
    }

    fn nwc(&mut self, (result, stats): (Option<NwcResult>, SearchStats)) {
        self.add(&stats);
        if let Some(r) = result {
            self.answer(r.distance);
        }
    }

    fn knwc(&mut self, r: KnwcResult) {
        self.add(&r.stats);
        for g in &r.groups {
            self.answer(g.distance);
        }
    }
}

fn points() -> Vec<Point> {
    Dataset::corridor_clustered(POINTS, 60, 25.0, 120.0, 0.20, SEED).points
}

/// Every (query point, window size) pair of the fixed query set.
fn queries() -> Vec<(Point, WindowSpec)> {
    let mut out = Vec::new();
    for q in Dataset::query_points(QUERIES, SEED) {
        for size in SIZES {
            out.push((q, WindowSpec::square(size)));
        }
    }
    out
}

fn knwc_query(q: Point, spec: WindowSpec, measure: DistanceMeasure) -> KnwcQuery {
    KnwcQuery::try_new(q, spec, N, K, M, measure).expect("valid kNWC query")
}

fn check(section: &str, got: &Totals, want: ([u64; 15], u64, u64)) {
    let want = Totals {
        stats: want.0,
        answers: want.1,
        distance_bits: want.2,
    };
    assert_eq!(
        got, &want,
        "{section}: totals changed; now ({:?}, {}, {:#x})",
        got.stats, got.answers, got.distance_bits
    );
}

#[test]
fn nwc_table3_schemes_all_measures() {
    let index = NwcIndex::build(points());
    let mut totals = Totals::default();
    for (q, spec) in queries() {
        for measure in DistanceMeasure::ALL {
            let query = NwcQuery::new(q, spec, N).with_measure(measure);
            for scheme in Scheme::TABLE3 {
                totals.nwc(index.nwc_full(&query, scheme));
            }
        }
    }
    check("NWC", &totals, GOLDEN_NWC);
}

#[test]
fn knwc_pruned_exact_and_paper_steps() {
    let index = NwcIndex::build(points());
    let mut pruned = Totals::default();
    let mut exact = Totals::default();
    let mut paper = Totals::default();
    for (q, spec) in queries() {
        let query = knwc_query(q, spec, DistanceMeasure::Max);
        for scheme in Scheme::TABLE3 {
            pruned.knwc(index.knwc(&query, scheme));
            exact.knwc(index.knwc_exact(&query, scheme));
            paper.knwc(index.knwc_paper_steps(&query, scheme));
        }
        for measure in DistanceMeasure::ALL {
            let query = knwc_query(q, spec, measure);
            pruned.knwc(index.knwc(&query, Scheme::NWC_STAR));
        }
    }
    check("kNWC pruned", &pruned, GOLDEN_KNWC_PRUNED);
    check("kNWC exact", &exact, GOLDEN_KNWC_EXACT);
    check("kNWC paper steps", &paper, GOLDEN_KNWC_PAPER);
}

#[test]
fn sharded_k1_and_k4() {
    for (shards, want) in [(1, GOLDEN_SHARDED_K1), (4, GOLDEN_SHARDED_K4)] {
        let index = ShardedNwcIndex::build(points(), shards).with_threads(1);
        let mut totals = Totals::default();
        for (q, spec) in queries() {
            for scheme in [Scheme::NWC_PLUS, Scheme::NWC_STAR] {
                for measure in DistanceMeasure::ALL {
                    let query = NwcQuery::new(q, spec, N).with_measure(measure);
                    totals.nwc(index.try_nwc_full(&query, scheme).expect("arena search"));
                }
                let query = knwc_query(q, spec, DistanceMeasure::Max);
                totals.knwc(index.try_knwc(&query, scheme).expect("arena search"));
                totals.knwc(index.try_knwc_exact(&query, scheme).expect("arena search"));
            }
        }
        check(&format!("sharded K = {shards}"), &totals, want);
    }
}

// Recorded with the candidate scan as it was before the optimisation.
const GOLDEN_NWC: ([u64; 15], u64, u64) = (
    [
        446194, 4545, 441649, 0, 208152, 139766, 53485, 14901, 2679, 0, 1400400, 1251203, 1757, 0,
        0,
    ],
    168,
    0x5b14c130aff17e91,
);
const GOLDEN_KNWC_PRUNED: ([u64; 15], u64, u64) = (
    [
        123370, 1350, 122020, 0, 61100, 38332, 18018, 4750, 1488, 0, 389896, 348135, 2757, 0, 0,
    ],
    264,
    0x9339bffe273199ec,
);
const GOLDEN_KNWC_EXACT: ([u64; 15], u64, u64) = (
    [
        247560, 1806, 245754, 0, 84000, 76936, 0, 7064, 0, 0, 773304, 691761, 92253, 0, 0,
    ],
    168,
    0x5e7ef0dc761ed847,
);
const GOLDEN_KNWC_PAPER: ([u64; 15], u64, u64) = (
    [
        117513, 1176, 116337, 0, 53994, 36666, 13536, 3792, 630, 0, 371257, 331840, 609, 0, 0,
    ],
    168,
    0x5e861a0b82296d8b,
);
const GOLDEN_SHARDED_K1: ([u64; 15], u64, u64) = (
    [
        80835, 890, 79945, 0, 38764, 24596, 9604, 4564, 2206, 0, 255016, 227710, 27366, 0, 0,
    ],
    144,
    0x5005531e2c9fc452,
);
const GOLDEN_SHARDED_K4: ([u64; 15], u64, u64) = (
    [
        82862, 1080, 81782, 0, 39200, 24655, 9950, 4595, 864, 0, 255194, 227776, 27350, 0, 0,
    ],
    144,
    0x5005531e2c9fc452,
);
