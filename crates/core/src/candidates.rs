//! Candidate-window enumeration for one visited object (paper §3.2,
//! Figure 2, and Algorithm 1 lines 16–26).
//!
//! Given the objects inside the (possibly reduced) search region of `p`,
//! the scan sorts them by `y` and walks the partner coordinates on the
//! quadrant-appropriate side of `p`. A candidate window spans the whole
//! x-extent of the search region, so its objects are one contiguous
//! slice of the y-sorted neighbors. The partner walk is monotone in `y`,
//! so both slice bounds are pointers that move one way only over the
//! whole scan: amortised `O(|SR|)` per object instead of two binary
//! searches per window (the equivalence is debug-asserted). For each
//! window:
//!
//! 1. the slice length decides whether it is qualified (`count ≥ n`);
//! 2. when qualified and closer than the sink's threshold, the `n`
//!    members nearest the query point are selected from a per-object
//!    distance ranking into a reused buffer, and the sink borrows that
//!    buffer in [`GroupSink::offer`], copying only a group it keeps.
//!
//! Two shortcuts skip work whose outcome is already known; neither
//! changes an answer or a [`SearchStats`] count:
//!
//! - **Admissibility bounds** ([`GroupSink::admits`]). Under
//!   [`DistanceMeasure::Max`] a group's score is at least each member's
//!   distance, and under [`DistanceMeasure::Min`] it is its first
//!   member's distance. So before ranking, an object whose `n`-th (or
//!   1st) smallest neighbor distance the sink does not admit can offer
//!   nothing: its windows are only walked and counted. During a
//!   selection, a member distance the sink does not admit abandons the
//!   window. `Avg` and `NearestWindow` scores have no such exact
//!   member-distance bound and are always scored.
//! - **Repeat skipping.** On a top-edge walk (quadrants I and II) each
//!   window sorts after the previous one in the canonical tie-break
//!   order, so re-offering the group just offered is a no-op for a sink
//!   that only this scan changes; it is skipped. Bottom-edge walks and
//!   shared sinks ([`GroupSink::SHARED`]) offer every window.

use crate::measure::DistanceMeasure;
use crate::result::SearchStats;
use nwc_geom::{window::candidate_window, window::WindowSpec, Point, Quadrant, Rect};
use nwc_rtree::Entry;
use std::cmp::Ordering;

/// Consumer of qualified object groups. NWC keeps the single best group;
/// kNWC maintains the top-k group list.
pub(crate) trait GroupSink {
    /// `true` for a sink that other searches change while a scan runs
    /// (the sharded planner's cross-shard sinks). The scan then applies
    /// neither admissibility bounds nor repeat skipping, because both
    /// rest on the sink changing only through the scan's own offers.
    const SHARED: bool = false;

    /// Candidate windows with `MINDIST ≥ threshold()` are skipped; the
    /// sink tightens this as results improve (`dist_best`, or the k-th
    /// group distance for kNWC).
    fn threshold(&self) -> f64;

    /// Whether an offer scoring `score` could change the sink in its
    /// current state. Must be exact (`false` only when such an offer
    /// would be a no-op) and monotone (`false` for `score` means `false`
    /// for every larger score). The default admits everything.
    fn admits(&self, _score: f64) -> bool {
        true
    }

    /// Offers a qualified group: `group` is ordered by ascending distance
    /// to the query point, `score` is its measure value, `window` the
    /// discovery window. The slice is the scan's reused buffer; a sink
    /// that keeps the group copies it.
    fn offer(&mut self, group: &[Entry], score: f64, window: Rect, stats: &mut SearchStats);
}

/// One neighbor in the per-object distance ranking.
#[derive(Clone, Copy, Debug)]
struct Ranked {
    /// Squared distance to the query point.
    d2: f64,
    entry: Entry,
}

impl Ranked {
    /// Ascending distance, ties by id: a total order (ids are unique
    /// within a search region), so an unstable sort is deterministic.
    fn order(a: &Ranked, b: &Ranked) -> Ordering {
        a.d2.total_cmp(&b.d2)
            .then_with(|| a.entry.id.cmp(&b.entry.id))
    }

    /// Distance to the query point, bit-identical to
    /// `entry.point.dist(q)`, which is how the measures compute it.
    fn dist(&self) -> f64 {
        self.d2.sqrt()
    }
}

/// Working memory of the candidate scan, kept in a
/// [`QueryScratch`](crate::QueryScratch) so a warm scan does not
/// allocate.
#[derive(Default)]
pub(crate) struct ScanBuffers {
    /// Distance ranking of the current object's neighbors.
    ranked: Vec<Ranked>,
    /// The group being selected for the current window.
    group: Vec<Entry>,
    /// The group last offered in the current scan (repeat skipping).
    last: Vec<Entry>,
}

impl ScanBuffers {
    /// Buffer slots retained across the three buffers.
    pub(crate) fn capacity(&self) -> usize {
        self.ranked.capacity() + self.group.capacity() + self.last.capacity()
    }
}

/// How many of a selected group's first members each bound its score
/// from below: all `n` for `Max`, the first for `Min`, none for the
/// measures whose score is not a member distance. The same count names
/// the per-object bound: the `bounded_members`-th smallest neighbor
/// distance.
fn bounded_members(measure: DistanceMeasure, n: usize) -> usize {
    match measure {
        DistanceMeasure::Max => n,
        DistanceMeasure::Min => 1,
        DistanceMeasure::Avg | DistanceMeasure::NearestWindow => 0,
    }
}

/// Lower bound on the score of every group of `n` objects drawn from
/// `ranked`, or `None` when the measure has no member-distance bound.
/// Partially reorders `ranked`.
fn object_bound(measure: DistanceMeasure, n: usize, ranked: &mut [Ranked]) -> Option<f64> {
    let k = bounded_members(measure, n);
    if k == 0 || ranked.len() < k {
        return None;
    }
    let (_, kth, _) = ranked.select_nth_unstable_by(k - 1, Ranked::order);
    Some(kth.dist())
}

/// Scans every candidate window generated by `p` against the search
/// region contents `neighbors` (which must contain `p` itself and every
/// object of the queried region). `bufs` is reused working memory, so
/// the scan is allocation-free when warm.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_candidates<S: GroupSink>(
    q: &Point,
    spec: &WindowSpec,
    n: usize,
    measure: DistanceMeasure,
    p: &Entry,
    quad: Quadrant,
    neighbors: &mut [Entry],
    bufs: &mut ScanBuffers,
    sink: &mut S,
    stats: &mut SearchStats,
) {
    if neighbors.len() < n {
        return;
    }
    // Sort by y once; all window counting and slicing works off this.
    neighbors.sort_unstable_by(|a, b| a.point.y.total_cmp(&b.point.y));
    let neighbors = &*neighbors;
    let ScanBuffers {
        ranked,
        group,
        last,
    } = bufs;
    // Rank neighbors by distance once per object: per-window group
    // selection then scans this ranking and keeps the first n members of
    // the window's y-slice, instead of re-sorting every slice.
    ranked.clear();
    ranked.extend(neighbors.iter().map(|&entry| Ranked {
        d2: entry.point.dist2(q),
        entry,
    }));
    let bounded = if S::SHARED {
        0
    } else {
        bounded_members(measure, n)
    };
    if bounded > 0 {
        if let Some(bound) = object_bound(measure, n, ranked) {
            if !sink.admits(bound) {
                // No window of p can offer a group the sink would act
                // on: count the windows and move on.
                walk_windows(p, quad, spec, neighbors, |lo, hi, _| {
                    stats.candidate_windows += 1;
                    stats.qualified_windows += u64::from(hi - lo >= n);
                });
                return;
            }
        }
    }
    ranked.sort_unstable_by(Ranked::order);

    let skip_repeats = !S::SHARED && quad.partner_on_top_edge();
    last.clear();
    // Windows whose y-slice is identical produce identical groups; skip
    // re-evaluating them once one has been offered.
    let mut last_slice: Option<(usize, usize)> = None;
    walk_windows(p, quad, spec, neighbors, |lo, hi, win| {
        stats.candidate_windows += 1;
        if hi - lo < n {
            return; // not qualified
        }
        stats.qualified_windows += 1;
        if win.mindist(q) >= sink.threshold() {
            return;
        }
        if last_slice == Some((lo, hi)) {
            return; // identical object set already offered through a twin window
        }
        last_slice = Some((lo, hi));
        debug_assert!(
            neighbors[lo..hi]
                .iter()
                .all(|e| win.contains_point(&e.point)),
            "window x-extent must cover the search region slice"
        );
        if !select_group(ranked, &win, n, bounded, &*sink, group) {
            return;
        }
        if skip_repeats && group.iter().map(|e| e.id).eq(last.iter().map(|e| e.id)) {
            return;
        }
        let score = measure.score(q, group, spec);
        sink.offer(group, score, win, stats);
        std::mem::swap(group, last);
    });
}

/// Walks `p`'s candidate windows in partner order, deduplicating equal
/// partner coordinates, and calls `visit(lo, hi, window)` with each
/// window and the bounds of its y-slice `neighbors[lo..hi]`
/// (`neighbors` sorted by `y`).
fn walk_windows(
    p: &Entry,
    quad: Quadrant,
    spec: &WindowSpec,
    neighbors: &[Entry],
    mut visit: impl FnMut(usize, usize, Rect),
) {
    let y = |i: usize| neighbors[i].point.y;
    let len = neighbors.len();
    let mut prev_y = f64::NAN;
    if quad.partner_on_top_edge() {
        // Partners at or above p (Algorithm 1 line 18 skips the rest),
        // walked upward: both slice bounds only rise.
        let start = neighbors.partition_point(|e| e.point.y < p.point.y);
        let (mut lo, mut hi) = (0, start);
        for idx in start..len {
            let partner_y = y(idx);
            if partner_y == prev_y {
                continue; // identical window already evaluated
            }
            prev_y = partner_y;
            let win = candidate_window(&p.point, partner_y, quad, spec);
            while lo < len && y(lo) < win.min.y {
                lo += 1;
            }
            while hi < len && y(hi) <= win.max.y {
                hi += 1;
            }
            debug_slice(neighbors, lo, hi, &win);
            visit(lo, hi, win);
        }
    } else {
        // Partners at or below p, walked downward: both slice bounds only
        // fall. The upper bound starts at the slice end, not at p: the
        // objects above p lie in the upper part of the first windows.
        let end = neighbors.partition_point(|e| e.point.y <= p.point.y);
        let (mut lo, mut hi) = (end, len);
        for idx in (0..end).rev() {
            let partner_y = y(idx);
            if partner_y == prev_y {
                continue;
            }
            prev_y = partner_y;
            let win = candidate_window(&p.point, partner_y, quad, spec);
            while lo > 0 && y(lo - 1) >= win.min.y {
                lo -= 1;
            }
            while hi > 0 && y(hi - 1) > win.max.y {
                hi -= 1;
            }
            debug_slice(neighbors, lo, hi, &win);
            visit(lo, hi, win);
        }
    }
}

/// The two-pointer slice must equal the binary-search one.
#[inline]
fn debug_slice(neighbors: &[Entry], lo: usize, hi: usize, win: &Rect) {
    debug_assert_eq!(lo, neighbors.partition_point(|e| e.point.y < win.min.y));
    debug_assert_eq!(hi, neighbors.partition_point(|e| e.point.y <= win.max.y));
}

/// Selects into `group` the `n` window members nearest the query point,
/// in ranking order. Each of the first `bounded` members' distances
/// bounds the score from below, so the selection gives up (`false`) at
/// the first such distance `sink` does not admit.
fn select_group<S: GroupSink>(
    ranked: &[Ranked],
    win: &Rect,
    n: usize,
    bounded: usize,
    sink: &S,
    group: &mut Vec<Entry>,
) -> bool {
    group.clear();
    for r in ranked {
        if !(win.min.y..=win.max.y).contains(&r.entry.point.y) {
            continue;
        }
        if group.len() < bounded && !sink.admits(r.dist()) {
            return false;
        }
        group.push(r.entry);
        if group.len() == n {
            return true;
        }
    }
    debug_assert!(false, "a qualified window holds n members");
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::BestSink;
    use crate::knwc::{GroupsCore, GroupsSink};
    use nwc_datagen::SplitMix64;
    use nwc_geom::pt;
    use nwc_geom::window::search_region;

    /// Records every offer; `SHARED_SINK` selects the scan's shared-sink
    /// behaviour (no repeat skipping).
    struct Collect<const SHARED_SINK: bool> {
        threshold: f64,
        offers: Vec<(Vec<u32>, f64, Rect)>,
    }

    impl<const SHARED_SINK: bool> Collect<SHARED_SINK> {
        fn new(threshold: f64) -> Self {
            Collect {
                threshold,
                offers: vec![],
            }
        }
    }

    impl<const SHARED_SINK: bool> GroupSink for Collect<SHARED_SINK> {
        const SHARED: bool = SHARED_SINK;
        fn threshold(&self) -> f64 {
            self.threshold
        }
        fn offer(&mut self, group: &[Entry], score: f64, w: Rect, _s: &mut SearchStats) {
            self.offers
                .push((group.iter().map(|e| e.id).collect(), score, w));
        }
    }

    /// The scan as it was before the two-pointer walk, admissibility
    /// bounds and repeat skipping: two binary searches per window, a
    /// fresh group per offer, every qualified window below the
    /// threshold offered. The new scan must match it.
    #[allow(clippy::too_many_arguments)]
    fn reference_scan<S: GroupSink>(
        q: &Point,
        spec: &WindowSpec,
        n: usize,
        measure: DistanceMeasure,
        p: &Entry,
        quad: Quadrant,
        neighbors: &mut [Entry],
        sink: &mut S,
        stats: &mut SearchStats,
    ) {
        if neighbors.len() < n {
            return;
        }
        neighbors.sort_by(|a, b| a.point.y.total_cmp(&b.point.y));
        let mut by_dist: Vec<(f64, u32, Entry)> = neighbors
            .iter()
            .map(|&e| (e.point.dist2(q), e.id, e))
            .collect();
        by_dist.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let mut last_offered: Option<(usize, usize)> = None;
        let partners: Vec<usize> = if quad.partner_on_top_edge() {
            let start = neighbors.partition_point(|e| e.point.y < p.point.y);
            (start..neighbors.len()).collect()
        } else {
            let end = neighbors.partition_point(|e| e.point.y <= p.point.y);
            (0..end).rev().collect()
        };
        let mut prev_y = f64::NAN;
        for idx in partners {
            let partner_y = neighbors[idx].point.y;
            if partner_y == prev_y {
                continue;
            }
            prev_y = partner_y;
            stats.candidate_windows += 1;
            let win = candidate_window(&p.point, partner_y, quad, spec);
            let lo = neighbors.partition_point(|e| e.point.y < win.min.y);
            let hi = neighbors.partition_point(|e| e.point.y <= win.max.y);
            if hi - lo < n {
                continue;
            }
            stats.qualified_windows += 1;
            if win.mindist(q) >= sink.threshold() || last_offered == Some((lo, hi)) {
                continue;
            }
            let mut group: Vec<Entry> = Vec::with_capacity(n);
            for &(_, _, e) in &by_dist {
                if e.point.y >= win.min.y && e.point.y <= win.max.y {
                    group.push(e);
                    if group.len() == n {
                        break;
                    }
                }
            }
            let score = measure.score(q, &group, spec);
            last_offered = Some((lo, hi));
            sink.offer(&group, score, win, stats);
        }
    }

    fn entries(pts: &[(f64, f64)]) -> Vec<Entry> {
        pts.iter()
            .enumerate()
            .map(|(i, &(x, y))| Entry::new(i as u32, pt(x, y)))
            .collect()
    }

    fn scan<S: GroupSink>(
        q: Point,
        spec: WindowSpec,
        n: usize,
        p: Entry,
        quad: Quadrant,
        neighbors: &mut [Entry],
        sink: &mut S,
    ) -> SearchStats {
        let mut stats = SearchStats::default();
        scan_candidates(
            &q,
            &spec,
            n,
            DistanceMeasure::Max,
            &p,
            quad,
            neighbors,
            &mut ScanBuffers::default(),
            sink,
            &mut stats,
        );
        stats
    }

    #[test]
    fn figure2_example() {
        // Recreates the paper's Figure 2 narrative: p5 in quadrant I,
        // partners p5, p6, p7 above it, p4 below (skipped as partner but
        // countable inside windows). n = 3.
        let q = pt(0.0, 0.0);
        let spec = WindowSpec::new(6.0, 4.0);
        let p4 = (9.0, 9.0);
        let p5 = (10.0, 10.0); // generator
        let p6 = (7.0, 12.0);
        let p7 = (6.0, 13.9);
        let mut neighbors = entries(&[p4, p5, p6, p7]);
        let p = neighbors[1];
        let mut sink = Collect::<false>::new(f64::INFINITY);
        let stats = scan(q, spec, 3, p, Quadrant::I, &mut neighbors, &mut sink);
        // Window with partner p5 holds {p4, p5} only (p6 is above): not
        // qualified. Partner p6 → window [4,10]×[8,12] holds {p4,p5,p6}:
        // qualified. Partner p7 → [4,10]×[9.9,13.9] holds {p5,p6,p7}.
        assert_eq!(stats.candidate_windows, 3);
        assert_eq!(stats.qualified_windows, 2);
        assert_eq!(sink.offers.len(), 2);
        let mut ids = sink.offers[0].0.clone();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]); // p4, p5, p6
    }

    #[test]
    fn threshold_suppresses_offers() {
        let q = pt(0.0, 0.0);
        let spec = WindowSpec::square(4.0);
        let mut neighbors = entries(&[(50.0, 50.0), (51.0, 51.0)]);
        let p = neighbors[0];
        // Windows near (50,50) are ~69 away.
        let mut sink = Collect::<false>::new(1.0);
        let stats = scan(q, spec, 2, p, Quadrant::I, &mut neighbors, &mut sink);
        assert!(stats.qualified_windows > 0);
        assert!(sink.offers.is_empty());
    }

    #[test]
    fn bottom_partner_quadrants() {
        // p in quadrant IV (below-right of q): partners at or below p.
        let q = pt(0.0, 100.0);
        let spec = WindowSpec::square(5.0);
        let mut neighbors = entries(&[(10.0, 10.0), (9.0, 8.0), (8.0, 7.0)]);
        let p = neighbors[0];
        let mut sink = Collect::<false>::new(f64::INFINITY);
        let stats = scan(q, spec, 3, p, Quadrant::IV, &mut neighbors, &mut sink);
        // Partners walked downward: y = 10 → window [5,10]×[10,15] holds
        // only p (not qualified); y = 8 → [5,10]×[8,13] holds {p, (9,8)};
        // y = 7 → [5,10]×[7,12] holds all three: the only offer.
        assert_eq!(stats.candidate_windows, 3);
        assert_eq!(stats.qualified_windows, 1);
        assert_eq!(sink.offers.len(), 1);
    }

    #[test]
    fn bottom_walk_counts_objects_above_p() {
        // p in quadrant III at y = 10 with a neighbor above it at y = 12:
        // the bottom-edge window [10,15]×[8,13] must count it, so the
        // slice's upper bound cannot start at p.
        let q = pt(100.0, 100.0);
        let spec = WindowSpec::square(5.0);
        let mut neighbors = entries(&[(10.0, 10.0), (11.0, 12.0), (12.0, 8.0)]);
        let p = neighbors[0];
        let mut sink = Collect::<false>::new(f64::INFINITY);
        let stats = scan(q, spec, 3, p, Quadrant::III, &mut neighbors, &mut sink);
        assert_eq!(stats.candidate_windows, 2);
        assert_eq!(stats.qualified_windows, 1);
        assert_eq!(sink.offers.len(), 1);
    }

    #[test]
    fn duplicate_partner_y_deduplicated() {
        let q = pt(0.0, 0.0);
        let spec = WindowSpec::square(10.0);
        let mut neighbors = entries(&[(5.0, 5.0), (4.0, 7.0), (3.0, 7.0)]);
        let p = neighbors[0];
        let mut sink = Collect::<false>::new(f64::INFINITY);
        let stats = scan(q, spec, 1, p, Quadrant::I, &mut neighbors, &mut sink);
        // Partners: y=5, y=7 (deduplicated from two objects).
        assert_eq!(stats.candidate_windows, 2);
    }

    #[test]
    fn group_is_sorted_by_distance() {
        let q = pt(0.0, 0.0);
        let spec = WindowSpec::square(20.0);
        let pts: [(f64, f64); 4] = [(10.0, 10.0), (3.0, 9.0), (8.0, 2.0), (9.0, 9.0)];
        let mut neighbors = entries(&pts);
        let p = neighbors[0];
        let mut sink = Collect::<false>::new(f64::INFINITY);
        scan(q, spec, 3, p, Quadrant::I, &mut neighbors, &mut sink);
        assert!(!sink.offers.is_empty());
        // For every offer the ids must be ordered by ascending distance.
        for (ids, _, _) in &sink.offers {
            let dists: Vec<f64> = ids
                .iter()
                .map(|&i| {
                    let (x, y) = pts[i as usize];
                    (x * x + y * y).sqrt()
                })
                .collect();
            assert!(dists.windows(2).all(|w| w[0] <= w[1]), "{dists:?}");
        }
    }

    /// One random scan input.
    struct Case {
        q: Point,
        spec: WindowSpec,
        p: Entry,
        quad: Quadrant,
        neighbors: Vec<Entry>,
    }

    /// A random search region around `q`: `p` in a random quadrant of
    /// `q`, neighbors inside `p`'s full search region. Their `y` values
    /// come from a coarse grid most of the time, so duplicate `y`s,
    /// partners at exactly `p.y` and objects on the region's edges are
    /// common. `q`, `p` and the window size are integers and every `y`
    /// is a multiple of 1/64, so window edges are exact; `x` values are
    /// arbitrary, so distances are not. Ids start at `first_id`.
    fn random_case(rng: &mut SplitMix64, q: Point, spec: WindowSpec, first_id: u32) -> Case {
        let quad = Quadrant::ALL[rng.next_usize(4)];
        let (sx, sy) = match quad {
            Quadrant::I => (1.0, 1.0),
            Quadrant::II => (-1.0, 1.0),
            Quadrant::III => (-1.0, -1.0),
            Quadrant::IV => (1.0, -1.0),
        };
        let ppt = pt(
            q.x + sx * (1 + rng.next_usize(40)) as f64,
            q.y + sy * (1 + rng.next_usize(40)) as f64,
        );
        let quad = Quadrant::of(&q, &ppt);
        let sr = search_region(&ppt, quad, &spec);
        let count = 1 + rng.next_usize(24);
        let mut neighbors = vec![Entry::new(first_id, ppt)];
        for i in 0..count {
            let x = match rng.next_usize(8) {
                0 => sr.min.x,
                1 => sr.max.x,
                _ => rng.uniform(sr.min.x, sr.max.x),
            };
            let steps = if rng.next_usize(4) == 0 { 8 } else { 1 };
            let offset = rng.next_usize(16 * steps + 1) as f64 / (8 * steps) as f64 - 1.0;
            let y = ppt.y + spec.w * offset;
            neighbors.push(Entry::new(first_id + 1 + i as u32, pt(x, y)));
        }
        // Window queries return neighbors in tree order, not sorted.
        for i in (1..neighbors.len()).rev() {
            neighbors.swap(i, rng.next_usize(i + 1));
        }
        let p = Entry::new(first_id, ppt);
        Case {
            q,
            spec,
            p,
            quad,
            neighbors,
        }
    }

    fn random_spec(rng: &mut SplitMix64) -> WindowSpec {
        let side = |rng: &mut SplitMix64| (4 + rng.next_usize(27)) as f64;
        WindowSpec::new(side(rng), side(rng))
    }

    fn run_new<S: GroupSink>(
        c: &Case,
        n: usize,
        measure: DistanceMeasure,
        bufs: &mut ScanBuffers,
        sink: &mut S,
        stats: &mut SearchStats,
    ) {
        let mut neighbors = c.neighbors.clone();
        scan_candidates(
            &c.q,
            &c.spec,
            n,
            measure,
            &c.p,
            c.quad,
            &mut neighbors,
            bufs,
            sink,
            stats,
        );
    }

    fn run_reference<S: GroupSink>(
        c: &Case,
        n: usize,
        measure: DistanceMeasure,
        sink: &mut S,
        stats: &mut SearchStats,
    ) {
        let mut neighbors = c.neighbors.clone();
        reference_scan(
            &c.q,
            &c.spec,
            n,
            measure,
            &c.p,
            c.quad,
            &mut neighbors,
            sink,
            stats,
        );
    }

    /// Offers compare by ids, score bits and window bits.
    fn offer_key(o: &(Vec<u32>, f64, Rect)) -> (Vec<u32>, u64, [u64; 4]) {
        let w = o.2;
        (
            o.0.clone(),
            o.1.to_bits(),
            [w.min.x, w.min.y, w.max.x, w.max.y].map(f64::to_bits),
        )
    }

    #[test]
    fn scan_offers_what_the_reference_offers_minus_repeats() {
        let mut rng = SplitMix64::new(0x5ca9);
        let mut bufs = ScanBuffers::default();
        for case in 0..600 {
            let q = pt(
                rng.next_usize(101) as f64 - 50.0,
                rng.next_usize(101) as f64 - 50.0,
            );
            let spec = random_spec(&mut rng);
            let c = random_case(&mut rng, q, spec, 0);
            let n = 1 + rng.next_usize(6);
            let threshold = if rng.next_usize(3) == 0 {
                rng.uniform(0.0, 60.0)
            } else {
                f64::INFINITY
            };
            for measure in DistanceMeasure::ALL {
                let ctx = format!("case {case}, {measure:?}, n {n}, {:?}", c.quad);
                let mut want = Collect::<false>::new(threshold);
                let mut want_stats = SearchStats::default();
                run_reference(&c, n, measure, &mut want, &mut want_stats);

                // A shared sink sees every reference offer.
                let mut shared = Collect::<true>::new(threshold);
                let mut stats = SearchStats::default();
                run_new(&c, n, measure, &mut bufs, &mut shared, &mut stats);
                assert_eq!(stats, want_stats, "{ctx}");
                let keys =
                    |v: &[(Vec<u32>, f64, Rect)]| v.iter().map(offer_key).collect::<Vec<_>>();
                assert_eq!(keys(&shared.offers), keys(&want.offers), "{ctx}");

                // A single-tree sink misses only top-edge repeats.
                let mut single = Collect::<false>::new(threshold);
                let mut stats = SearchStats::default();
                run_new(&c, n, measure, &mut bufs, &mut single, &mut stats);
                assert_eq!(stats, want_stats, "{ctx}");
                let mut expected = keys(&want.offers);
                if c.quad.partner_on_top_edge() {
                    expected.dedup_by(|b, a| a.0 == b.0);
                }
                assert_eq!(keys(&single.offers), expected, "{ctx}");

                // The per-object bound never exceeds a group's score.
                let mut ranked: Vec<Ranked> = c
                    .neighbors
                    .iter()
                    .map(|&entry| Ranked {
                        d2: entry.point.dist2(&c.q),
                        entry,
                    })
                    .collect();
                if let Some(bound) = object_bound(measure, n, &mut ranked) {
                    for (_, score, _) in &want.offers {
                        assert!(bound <= *score, "{ctx}: bound {bound} > score {score}");
                    }
                }
            }
        }
    }

    type BestState = (u64, Option<(Vec<u32>, Rect)>, Vec<u32>);

    fn best_state(s: &BestSink) -> BestState {
        (
            s.dist_best.to_bits(),
            s.best
                .as_ref()
                .map(|(g, w)| (g.iter().map(|e| e.id).collect(), *w)),
            s.best_ids.clone(),
        )
    }

    type GroupState = (Vec<(Vec<u32>, Vec<u32>, u64, Rect)>, Vec<usize>);

    fn groups_state(c: &GroupsCore) -> GroupState {
        (
            c.buffer
                .iter()
                .map(|g| {
                    (
                        g.ids.clone(),
                        g.entries.iter().map(|e| e.id).collect(),
                        g.score.to_bits(),
                        g.window,
                    )
                })
                .collect(),
            c.selected.clone(),
        )
    }

    #[test]
    fn sinks_end_in_the_reference_state() {
        // Several objects' scans into one sink, as a query runs them:
        // the bounds and repeat skips must leave the sink and the
        // counters exactly where the reference scan leaves them.
        let mut rng = SplitMix64::new(0xb0b);
        let mut bufs = ScanBuffers::default();
        for case in 0..300 {
            let q = pt(
                rng.next_usize(101) as f64 - 50.0,
                rng.next_usize(101) as f64 - 50.0,
            );
            let spec = random_spec(&mut rng);
            let scans: Vec<Case> = (0..1 + rng.next_usize(8))
                .map(|i| random_case(&mut rng, q, spec, 100 * i as u32))
                .collect();
            let n = 1 + rng.next_usize(5);
            let k = 1 + rng.next_usize(4);
            let m = rng.next_usize(n);
            let prune = rng.next_usize(4) != 0;
            for measure in DistanceMeasure::ALL {
                let ctx = format!("case {case}, {measure:?}, n {n}, k {k}, m {m}");

                let (mut want, mut got) = (BestSink::new(), BestSink::new());
                let (mut want_stats, mut stats) = (SearchStats::default(), SearchStats::default());
                for c in &scans {
                    run_reference(c, n, measure, &mut want, &mut want_stats);
                    run_new(c, n, measure, &mut bufs, &mut got, &mut stats);
                }
                assert_eq!(stats, want_stats, "NWC {ctx}");
                assert_eq!(best_state(&got), best_state(&want), "NWC {ctx}");

                let mk = || GroupsSink {
                    core: GroupsCore::new(k, m, prune),
                    idbuf: Vec::new(),
                };
                let (mut want, mut got) = (mk(), mk());
                let (mut want_stats, mut stats) = (SearchStats::default(), SearchStats::default());
                for c in &scans {
                    run_reference(c, n, measure, &mut want, &mut want_stats);
                    run_new(c, n, measure, &mut bufs, &mut got, &mut stats);
                }
                assert_eq!(stats, want_stats, "kNWC {ctx}");
                assert_eq!(
                    groups_state(&got.core),
                    groups_state(&want.core),
                    "kNWC {ctx}"
                );
            }
        }
    }
}
