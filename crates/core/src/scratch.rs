//! Reusable per-query working memory.
//!
//! A single NWC search allocates in four places: the best-first frontier
//! heap, the window-query neighbor buffer, the candidate scan's
//! per-object distance ranking and group selection buffers, and (for
//! kNWC) the sorted id buffer used to check group identity. All four are
//! sized by the data around the query, not by the answer, so across a
//! query workload the same few buffers are allocated and dropped
//! thousands of times.
//!
//! [`QueryScratch`] owns all of them. Thread one through the `*_with`
//! query variants ([`NwcIndex::nwc_with`](crate::NwcIndex::nwc_with),
//! [`NwcIndex::knwc_with`](crate::NwcIndex::knwc_with), …) and a *warm*
//! query — one whose buffers have reached their workload high-water mark
//! — performs no per-node or per-visited-object heap allocation; the
//! only remaining allocations build the returned result itself.
//!
//! Scratches are cheap to create but meant to live long: one per worker
//! thread (as the [`engine`](crate::engine) does), or one per query loop.
//! A scratch carries no query state between runs — reusing one never
//! changes results or I/O counts, which `tests/engine_equivalence.rs`
//! asserts across every scheme.

use crate::candidates::ScanBuffers;
use nwc_rtree::{BrowserScratch, Entry, ObjectId};

/// Reusable buffers for the NWC/kNWC query hot path. See the module
/// docs; obtain one with [`QueryScratch::new`] and pass it to the
/// `*_with` query variants.
#[derive(Default)]
pub struct QueryScratch {
    /// Best-first frontier heap storage (lives in `nwc-rtree`).
    pub(crate) browser: BrowserScratch,
    /// Window-query results for the object currently being scanned.
    pub(crate) neighbors: Vec<Entry>,
    /// The candidate scan's distance ranking and group buffers.
    pub(crate) scan: ScanBuffers,
    /// Sorted object-id buffer for group set-identity checks (kNWC).
    pub(crate) ids: Vec<ObjectId>,
}

impl QueryScratch {
    /// An empty scratch. The first query through it allocates; later
    /// queries reuse the grown buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total buffer slots currently retained across all buffers
    /// (diagnostics / tests; counts capacity, not live contents).
    pub fn retained_capacity(&self) -> usize {
        self.browser.heap_capacity()
            + self.neighbors.capacity()
            + self.scan.capacity()
            + self.ids.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_and_reports_capacity() {
        let mut s = QueryScratch::new();
        assert_eq!(s.retained_capacity(), 0);
        s.neighbors.reserve(16);
        assert!(s.retained_capacity() >= 16);
    }
}
