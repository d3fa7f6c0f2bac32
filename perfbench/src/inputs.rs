//! Seeded inputs. The generators are the benchmark's own code, so a
//! change to the crates under test never changes what they are fed.

/// Side of the paper's normalized object space.
pub const SPACE: f64 = 10_000.0;

/// The paper's CA cardinality (62,556) at bench scale 0.2.
pub const CA_POINTS: usize = 12_511;

/// Seed of the base dataset. It is fixed, so that every `--seed` runs
/// against the same tree; the seed chooses the operations.
pub const DATA_SEED: u64 = 2016;

/// SplitMix64: small, fast and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// Two independent standard normals (Box–Muller).
    fn gaussian_pair(&mut self) -> (f64, f64) {
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        (r * theta.cos(), r * theta.sin())
    }
}

fn clamp(v: f64) -> f64 {
    v.clamp(0.0, SPACE)
}

/// The CA-like point model: 60 Gaussian place clusters strung along
/// three diagonal corridors, with Zipf-like weights, over 20 % uniform
/// noise. This is the recipe of the repository's CA stand-in, kept here
/// so the benchmark's data cannot drift with the crates.
pub struct CaModel {
    /// `(center, spread, weight)` per cluster.
    clusters: Vec<((f64, f64), f64, f64)>,
    total_weight: f64,
}

impl CaModel {
    pub fn new(rng: &mut Rng) -> CaModel {
        let corridors = [
            ((500.0, 500.0), (4_000.0, 9_500.0)),
            ((2_500.0, 200.0), (9_500.0, 7_000.0)),
            ((6_000.0, 8_000.0), (9_800.0, 9_800.0)),
        ];
        let clusters: Vec<_> = (0..60)
            .map(|i| {
                let ((ax, ay), (bx, by)) = corridors[i % corridors.len()];
                let t = rng.next_f64();
                let jitter = rng.uniform(-400.0, 400.0);
                let c = (
                    clamp(ax + (bx - ax) * t + jitter),
                    clamp(ay + (by - ay) * t - jitter),
                );
                let spread = rng.uniform(25.0, 120.0);
                (c, spread, 1.0 / (i as f64 + 1.0).sqrt())
            })
            .collect();
        let total_weight = clusters.iter().map(|c| c.2).sum();
        CaModel {
            clusters,
            total_weight,
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> (f64, f64) {
        if rng.next_f64() < 0.20 {
            return (rng.uniform(0.0, SPACE), rng.uniform(0.0, SPACE));
        }
        let mut pick = rng.next_f64() * self.total_weight;
        let mut chosen = &self.clusters[0];
        for c in &self.clusters {
            pick -= c.2;
            if pick <= 0.0 {
                chosen = c;
                break;
            }
        }
        let ((cx, cy), spread, _) = *chosen;
        let (gx, gy) = rng.gaussian_pair();
        (clamp(cx + gx * spread), clamp(cy + gy * spread))
    }
}

/// The base dataset: `n` CA-like points from [`DATA_SEED`], and the
/// model they were drawn from (for churn inserts).
pub fn ca_like(n: usize) -> (CaModel, Vec<(f64, f64)>) {
    let mut rng = Rng::new(DATA_SEED);
    let model = CaModel::new(&mut rng);
    let points = (0..n).map(|_| model.sample(&mut rng)).collect();
    (model, points)
}

/// `count` uniform locations over the space, stratified: one per cell
/// of a jittered `g × g` grid (`g² ≥ count`, cells drawn without
/// replacement), returned in seeded random order. Each location is
/// uniform, as in paper §5, but every run covers the dense and the
/// empty parts of the space in the same proportion, which keeps
/// per-seed averages close.
pub fn stratified_points(count: usize, rng: &mut Rng) -> Vec<(f64, f64)> {
    let g = (count as f64).sqrt().ceil().max(1.0) as usize;
    let cell = SPACE / g as f64;
    let mut cells: Vec<usize> = (0..g * g).collect();
    rng.shuffle(&mut cells);
    cells.truncate(count);
    cells
        .into_iter()
        .map(|c| {
            let (cx, cy) = ((c % g) as f64, (c / g) as f64);
            (cell * (cx + rng.next_f64()), cell * (cy + rng.next_f64()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_seeded() {
        assert_eq!(ca_like(500).1, ca_like(500).1);
        let a = stratified_points(100, &mut Rng::new(3));
        assert_eq!(a, stratified_points(100, &mut Rng::new(3)));
        assert_eq!(a.len(), 100);
        assert!(a
            .iter()
            .all(|&(x, y)| (0.0..SPACE).contains(&x) && (0.0..SPACE).contains(&y)));
    }

    #[test]
    fn stratified_points_use_distinct_cells() {
        let pts = stratified_points(64, &mut Rng::new(9));
        let mut cells: Vec<(u64, u64)> = pts
            .iter()
            .map(|&(x, y)| ((x / 1250.0) as u64, (y / 1250.0) as u64))
            .collect();
        cells.sort_unstable();
        cells.dedup();
        assert_eq!(cells.len(), 64);
    }
}
