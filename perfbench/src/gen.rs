//! Seeded inputs: the kernel sets and request schedules of every workload.
//!
//! Everything the program under test receives is generated here from the
//! `--seed` argument: C-subset sources from the `fpfa_workloads` generator
//! families, and the order in which the serve workloads request them.  The
//! same seed yields byte-identical sources and schedules.

use fpfa_workloads::Kernel;

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream: `tag` separates the streams drawn
    /// from one seed, so adding a stream never shifts another.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut rng = Rng(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i);
            items.swap(i, j);
        }
    }
}

const STREAM_COMPILE: u64 = 1;
const STREAM_WARM_POOL: u64 = 2;
const STREAM_WARM_REQUESTS: u64 = 3;
const STREAM_COLD_FRESH: u64 = 4;
const STREAM_COLD_SCHEDULE: u64 = 5;

/// A generator family: the inclusive range of its primary size parameter
/// and, for two-parameter families, of its secondary one, each with the
/// width of the strata the `compile` set draws from.
#[derive(Clone, Copy, Debug)]
struct Family {
    primary: (usize, usize, usize),
    secondary: Option<(usize, usize, usize)>,
    make: fn(usize, usize) -> Kernel,
}

/// The `fpfa_workloads` generator families, sized up to the registry's
/// multi-tile kernels (`fir64`, `fft32`, `conv8x8`).
const FAMILIES: [Family; 11] = [
    Family {
        primary: (2, 64, 2),
        secondary: None,
        make: |taps, _| fpfa_workloads::fir(taps),
    },
    Family {
        primary: (2, 64, 2),
        secondary: None,
        make: |n, _| fpfa_workloads::dot_product(n),
    },
    Family {
        primary: (2, 32, 2),
        secondary: Some((2, 9, 8)),
        make: |n, alpha| {
            let mut kernel = fpfa_workloads::vector_scale_add(n, alpha as i64);
            kernel.name = format!("saxpy{n}a{alpha}");
            kernel
        },
    },
    Family {
        primary: (2, 24, 2),
        secondary: None,
        make: |samples, _| fpfa_workloads::iir_biquad(samples),
    },
    Family {
        primary: (5, 40, 2),
        secondary: None,
        make: |n, _| fpfa_workloads::moving_average(n),
    },
    Family {
        primary: (2, 12, 2),
        secondary: Some((1, 6, 2)),
        make: fpfa_workloads::horner,
    },
    Family {
        primary: (2, 24, 2),
        secondary: None,
        make: |n, _| fpfa_workloads::power_sum(n),
    },
    Family {
        primary: (1, 16, 2),
        secondary: None,
        make: |pairs, _| fpfa_workloads::fft_butterfly_stage(pairs),
    },
    Family {
        primary: (1, 4, 1),
        secondary: None,
        make: |blocks, _| fpfa_workloads::dct4(blocks),
    },
    Family {
        primary: (2, 4, 1),
        secondary: None,
        make: |n, _| fpfa_workloads::matmul(n),
    },
    Family {
        primary: (3, 8, 1),
        secondary: Some((3, 8, 2)),
        make: fpfa_workloads::conv2d_3x3,
    },
];

/// Kernels in the `serve_warm` pool: above the mapping cache's 256 entries
/// (L1) and below a shard's 4096 pre-encoded frames (L0).
const WARM_POOL: usize = 560;
/// Fresh kernels per `serve_cold` round: more than the 256-entry L1.
pub const COLD_FRESH: usize = 300;
/// Repeat requests per fresh kernel in a `serve_cold` round.
const COLD_REPEATS_PER_FRESH: usize = 3;
/// Share of `serve_cold` repeats that also ask for simulation, which sends
/// them through the worker pool (L1, or L2 after eviction) instead of the
/// shard's inline L0 answer.
const COLD_SIMULATE_SHARE: f64 = 0.3;

/// Every instance of every family, in a fixed order.
fn universe() -> Vec<Kernel> {
    let mut kernels = Vec::new();
    for family in &FAMILIES {
        let (lo2, hi2, _) = family.secondary.unwrap_or((0, 0, 1));
        for primary in family.primary.0..=family.primary.1 {
            for secondary in lo2..=hi2 {
                kernels.push((family.make)(primary, secondary));
            }
        }
    }
    dedup_by_source(kernels)
}

fn dedup_by_source(kernels: Vec<Kernel>) -> Vec<Kernel> {
    let mut seen = std::collections::HashSet::new();
    kernels
        .into_iter()
        .filter(|kernel| seen.insert(kernel.source.clone()))
        .collect()
}

/// The strata of an inclusive range: consecutive sub-ranges `width` wide.
fn strata((lo, hi, width): (usize, usize, usize)) -> impl Iterator<Item = (usize, usize)> {
    (lo..=hi)
        .step_by(width)
        .map(move |start| (start, (start + width - 1).min(hi)))
}

/// `count` positions evenly spread over `[0, 1)`, in seeded order.
fn balanced_positions(rng: &mut Rng, count: usize) -> Vec<f64> {
    let mut positions: Vec<f64> = (0..count)
        .map(|k| (k as f64 + 0.5) / count as f64)
        .collect();
    rng.shuffle(&mut positions);
    positions
}

/// The value at relative `position` within the inclusive range `lo..=hi`.
fn at(position: f64, (lo, hi): (usize, usize)) -> usize {
    (lo + (position * (hi - lo + 1) as f64) as usize).min(hi)
}

/// The `compile` set: the registry plus a stratified draw over every
/// family — one kernel from each cell of its size strata, so every seed
/// covers small, medium and large instances alike.  Within the cells the
/// draw is balanced: each seed uses the same spread of positions inside
/// the cells and shuffles which cell gets which, so seeds differ in the
/// exact sizes drawn but hardly in the set's total work.
pub fn compile_set(seed: u64) -> Vec<Kernel> {
    let mut rng = Rng::new(seed, STREAM_COMPILE);
    let mut kernels = fpfa_workloads::registry();
    for family in &FAMILIES {
        let primary: Vec<_> = strata(family.primary).collect();
        let secondary: Vec<_> = strata(family.secondary.unwrap_or((0, 0, 1))).collect();
        let cells = primary.len() * secondary.len();
        let along_primary = balanced_positions(&mut rng, cells);
        let along_secondary = balanced_positions(&mut rng, cells);
        for (cell, (p, s)) in along_primary.iter().zip(&along_secondary).enumerate() {
            let size = at(*p, primary[cell / secondary.len()]);
            let size2 = at(*s, secondary[cell % secondary.len()]);
            kernels.push((family.make)(size, size2));
        }
    }
    dedup_by_source(kernels)
}

/// A seeded draw of `count` kernels from the universe, skipping `exclude`,
/// in seeded order.  The draw is balanced: the universe (ordered by family
/// and size) is cut into `count` consecutive blocks and one kernel is drawn
/// from each, so every seed draws a different set of the same make-up.
fn draw(seed: u64, stream: u64, count: usize, exclude: &[Kernel]) -> Vec<Kernel> {
    let mut rng = Rng::new(seed, stream);
    let universe: Vec<Kernel> = universe()
        .into_iter()
        .filter(|kernel| !exclude.iter().any(|e| e.source == kernel.source))
        .collect();
    let count = count.min(universe.len());
    let mut drawn: Vec<Kernel> = (0..count)
        .map(|block| {
            let start = block * universe.len() / count;
            let end = (block + 1) * universe.len() / count;
            universe[rng.range(start, end - 1)].clone()
        })
        .collect();
    rng.shuffle(&mut drawn);
    drawn
}

/// The `serve_warm` pool: the registry plus a seeded draw, [`WARM_POOL`]
/// kernels in all.
pub fn warm_pool(seed: u64) -> Vec<Kernel> {
    let mut pool = fpfa_workloads::registry();
    let extra = WARM_POOL - pool.len();
    pool.extend(draw(seed, STREAM_WARM_POOL, extra, &pool.clone()));
    pool
}

/// The kernel index of every `serve_warm` request, in order.
pub fn warm_requests(seed: u64, pool: usize, count: usize) -> Vec<u32> {
    let mut rng = Rng::new(seed, STREAM_WARM_REQUESTS);
    (0..count).map(|_| rng.range(0, pool - 1) as u32).collect()
}

/// The fresh kernels of the `serve_cold` rounds: the registry plus a
/// seeded draw, [`COLD_FRESH`] kernels in all.  The registry holds the
/// costliest kernels of the universe, so every seed's latency tail is set
/// by the same heavy compiles.
pub fn cold_fresh(seed: u64) -> Vec<Kernel> {
    let registry = fpfa_workloads::registry();
    let mut fresh = draw(
        seed,
        STREAM_COLD_FRESH,
        COLD_FRESH - registry.len(),
        &registry,
    );
    fresh.extend(registry);
    fresh
}

/// One step of a `serve_cold` round, issued as a unit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ColdStep {
    /// A fresh kernel, requested on every connection back to back.
    Fresh(u32),
    /// A kernel served earlier in the round, on one connection.
    Repeat {
        /// Kernel index into [`cold_fresh`].
        kernel: u32,
        /// Connection index.
        conn: u8,
        /// Whether the request also asks for simulation.
        simulate: bool,
    },
}

/// The steps of round `round` of `serve_cold` over `connections`
/// connections: every fresh kernel once, interleaved with repeats of
/// kernels already requested.  Each round introduces the kernels in its
/// own order, so the median over rounds does not hang on which heavy
/// kernels one order happens to queue together.
pub fn cold_schedule(seed: u64, round: usize, connections: usize) -> Vec<ColdStep> {
    let mut rng = Rng::new(seed, STREAM_COLD_SCHEDULE ^ ((round as u64) << 16));
    let mut order: Vec<u32> = (0..COLD_FRESH as u32).collect();
    rng.shuffle(&mut order);
    let repeats = COLD_FRESH * COLD_REPEATS_PER_FRESH;
    let mut steps = Vec::with_capacity(COLD_FRESH + repeats);
    let (mut fresh, mut repeated) = (0usize, 0usize);
    while fresh < COLD_FRESH || repeated < repeats {
        let fresh_left = COLD_FRESH - fresh;
        let repeats_left = repeats - repeated;
        let take_fresh =
            fresh == 0 || (fresh_left > 0 && rng.range(1, fresh_left + repeats_left) <= fresh_left);
        if take_fresh {
            steps.push(ColdStep::Fresh(order[fresh]));
            fresh += 1;
        } else {
            steps.push(ColdStep::Repeat {
                kernel: order[rng.range(0, fresh - 1)],
                conn: rng.range(0, connections - 1) as u8,
                simulate: rng.chance(COLD_SIMULATE_SHARE),
            });
            repeated += 1;
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sources(kernels: &[Kernel]) -> Vec<&str> {
        kernels.iter().map(|k| k.source.as_str()).collect()
    }

    #[test]
    fn the_same_seed_gives_identical_inputs() {
        for seed in [0, 1, 77] {
            assert_eq!(sources(&compile_set(seed)), sources(&compile_set(seed)));
            assert_eq!(sources(&warm_pool(seed)), sources(&warm_pool(seed)));
            assert_eq!(sources(&cold_fresh(seed)), sources(&cold_fresh(seed)));
            assert_eq!(
                warm_requests(seed, 400, 1000),
                warm_requests(seed, 400, 1000)
            );
            assert_eq!(cold_schedule(seed, 3, 2), cold_schedule(seed, 3, 2));
        }
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        assert_ne!(sources(&compile_set(1)), sources(&compile_set(2)));
        assert_ne!(sources(&warm_pool(1)), sources(&warm_pool(2)));
        assert_ne!(sources(&cold_fresh(1)), sources(&cold_fresh(2)));
        assert_ne!(warm_requests(1, 400, 1000), warm_requests(2, 400, 1000));
        assert_ne!(cold_schedule(1, 0, 2), cold_schedule(2, 0, 2));
        assert_ne!(cold_schedule(1, 0, 2), cold_schedule(1, 1, 2));
    }

    #[test]
    fn pools_have_the_sizes_the_workloads_promise() {
        let pool = warm_pool(5);
        assert_eq!(pool.len(), WARM_POOL);
        assert_eq!(dedup_by_source(pool).len(), WARM_POOL);
        assert_eq!(dedup_by_source(cold_fresh(5)).len(), COLD_FRESH);
        assert!(compile_set(5).len() > fpfa_workloads::registry().len());
    }

    #[test]
    fn a_cold_round_requests_each_fresh_kernel_once_before_repeating_it() {
        let mut introduced = vec![false; COLD_FRESH];
        for step in cold_schedule(9, 4, 2) {
            match step {
                ColdStep::Fresh(k) => {
                    assert!(!introduced[k as usize], "kernel {k} introduced twice");
                    introduced[k as usize] = true;
                }
                ColdStep::Repeat { kernel, conn, .. } => {
                    assert!(introduced[kernel as usize]);
                    assert!(conn < 2);
                }
            }
        }
        assert!(introduced.iter().all(|&k| k));
    }
}
