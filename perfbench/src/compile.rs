//! The `compile_t1` and `compile_t4` workloads: cold one-shot compiles, the
//! paper's setting.  Every kernel of the set is mapped through a fresh
//! `Mapper` (no cache) in one thread, pass after pass.
//!
//! Untraced runs time `Mapper::map_source`.  Traced runs drive the same
//! kernels stage by stage through the public `Stage::run` calls, timing a
//! span around each, and must produce the same mapping digests.

use crate::gen;
use crate::report::{Metrics, Outcome};
use crate::stats::{self, micros};
use fpfa_core::cache::config_fingerprint;
use fpfa_core::flow::{
    AllocateStage, AllocatedKernel, ClusterStage, ExtractStage, FrontendStage, PartitionStage,
    ScheduleStage, SourceInput, TransformStage,
};
use fpfa_core::{FlowContext, MapError, Mapper, MappingReport, MappingResult, Stage};
use fpfa_server::program_digest;
use fpfa_sim::{check_against_cdfg, check_multi_against_cdfg, SimInputs};
use fpfa_verify::Verifier;
use fpfa_workloads::Kernel;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Measured passes per run, at least.
const MIN_PASSES: usize = 3;
/// The flow stages, in flow order (the daemon's span names).
pub const STAGES: [&str; 7] = [
    "frontend",
    "transform",
    "extract",
    "cluster",
    "partition",
    "schedule",
    "allocate",
];
/// Per-stage metric names, in [`STAGES`] order.
pub const STAGE_METRICS: [&str; 7] = [
    "frontend.us",
    "transform.us",
    "extract.us",
    "cluster.us",
    "partition.us",
    "schedule.us",
    "allocate.us",
];

/// Cold digests of the registry at 1 and 4 tiles, as recorded in
/// `BENCH_cold_map.json` when this benchmark was written.  A registry
/// mapping that differs counts towards `compile.digest_drift`, not as a
/// failure: a deliberate change of the flow's output stays measurable.
const REGISTRY_DIGESTS: [(&str, u64, u64); 15] = [
    ("fir5", 0x9947b296fddf38a3, 0xa97cfee15a591c01),
    ("fir16", 0x44173c8c1cecf5a8, 0xbb5419a4ce77c44f),
    ("dot8", 0x792b1e931e375bd7, 0xf9b8961b8ceeb1e9),
    ("saxpy8", 0x7f40f09a41a7ed06, 0xd71f321c213247ea),
    ("iir6", 0x8e4c10c2e5d7153f, 0x8d382f5c08475d66),
    ("mavg10", 0x3a7f66b3c68dacf6, 0xb9b0b8df403e0e53),
    ("horner6x4", 0xa385858d76158927, 0xf0f6bca9af080cac),
    ("powsum6", 0xccd63766eec388e6, 0x55ac3f34374365be),
    ("fft8", 0xea74b66a4fcd0d6a, 0xcc16921106c3f0fc),
    ("dct4x2", 0x8877611fcde28f7f, 0x6f5889b97215272f),
    ("matmul3", 0x9c5913995c889963, 0xe6060e65c78e82c9),
    ("conv5x5", 0xe45790d07d1fbbef, 0x216ad98695450bd1),
    ("fir64", 0xe4cbbfdfa6675368, 0x7b93bf2a559c6182),
    ("fft32", 0x757fc7539fc516ee, 0xe69b735af6a39133),
    ("conv8x8", 0xb3a48a4273fab870, 0x2bcdb0a0f4568f8e),
];

/// The kernel set with one reference mapping per kernel.
struct Prepared {
    tiles: usize,
    kernels: Vec<Kernel>,
    reference: Vec<MappingResult>,
    digests: Vec<u64>,
}

/// Set-up: generate the kernel set and warm the process with one cold
/// mapping of every kernel (kept as the reference the oracles check).
fn prepare(tiles: usize, seed: u64) -> Result<Prepared, String> {
    let kernels = gen::compile_set(seed);
    let mut reference = Vec::with_capacity(kernels.len());
    for kernel in &kernels {
        let mapping = Mapper::new()
            .with_tiles(tiles)
            .map_source(&kernel.source)
            .map_err(|e| format!("`{}` does not map on {tiles} tile(s): {e}", kernel.name))?;
        reference.push(mapping);
    }
    let digests = reference.iter().map(program_digest).collect();
    Ok(Prepared {
        tiles,
        kernels,
        reference,
        digests,
    })
}

/// Verdicts of the untimed oracles over the reference mappings.
struct Oracles {
    verify_denies: usize,
    sim_mismatches: usize,
    digest_drift: usize,
    /// Kernels whose mapping failed an oracle: every compile of them fails.
    bad: Vec<bool>,
}

/// The simulator inputs of a workload kernel under its mapped layout.
fn sim_inputs(kernel: &Kernel, mapping: &MappingResult) -> Option<SimInputs> {
    let mut inputs = SimInputs::new();
    for (name, values) in &kernel.arrays {
        let symbol = mapping.layout.array(name)?;
        inputs.statespace.store_array(symbol.base, values);
    }
    for (name, value) in &kernel.scalars {
        inputs.scalars.insert(name.clone(), *value);
    }
    Some(inputs)
}

/// Every mapping must pass the static verifier with zero denies and
/// simulate equal to the CDFG interpreter.
fn check_oracles(prepared: &Prepared) -> Oracles {
    let verifier = Verifier::for_mapper(&Mapper::new().with_tiles(prepared.tiles));
    let mut oracles = Oracles {
        verify_denies: 0,
        sim_mismatches: 0,
        digest_drift: 0,
        bad: vec![false; prepared.kernels.len()],
    };
    for (index, (kernel, mapping)) in prepared.kernels.iter().zip(&prepared.reference).enumerate() {
        let denies = verifier.verify(mapping).deny_count();
        oracles.verify_denies += denies;
        let equivalent = sim_inputs(kernel, mapping).is_some_and(|inputs| {
            match mapping.multi.as_deref() {
                Some(multi) => {
                    check_multi_against_cdfg(&mapping.simplified, &multi.program, &inputs)
                }
                None => check_against_cdfg(&mapping.simplified, &mapping.program, &inputs),
            }
            .is_ok_and(|report| report.is_equivalent())
        });
        if !equivalent {
            oracles.sim_mismatches += 1;
        }
        oracles.bad[index] = denies > 0 || !equivalent;
    }
    let registry = fpfa_workloads::registry();
    for (index, kernel) in registry.iter().enumerate() {
        let recorded = REGISTRY_DIGESTS
            .iter()
            .find(|(name, _, _)| *name == kernel.name)
            .and_then(|(_, t1, t4)| match prepared.tiles {
                1 => Some(*t1),
                4 => Some(*t4),
                _ => None,
            });
        let current = (prepared.kernels.get(index).map(|k| &k.source) == Some(&kernel.source))
            .then(|| prepared.digests[index]);
        if recorded.is_some() && recorded != current {
            oracles.digest_drift += 1;
        }
    }
    oracles
}

/// Compiles per kernel, and those whose digest differed from the
/// reference (or that failed).
struct Tally {
    compiles: Vec<u64>,
    wrong: Vec<u64>,
}

impl Tally {
    fn new(kernels: usize) -> Self {
        Tally {
            compiles: vec![0; kernels],
            wrong: vec![0; kernels],
        }
    }

    fn count(&mut self, index: usize, digest: Option<u64>, prepared: &Prepared) {
        self.compiles[index] += 1;
        if digest != Some(prepared.digests[index]) {
            self.wrong[index] += 1;
        }
    }

    fn attempted(&self) -> u64 {
        self.compiles.iter().sum()
    }

    /// A compile fails on an error, on a digest other than the reference's,
    /// or when the reference failed an oracle.
    fn failed(&self, bad: &[bool]) -> u64 {
        (0..self.compiles.len())
            .map(|k| {
                if bad[k] {
                    self.compiles[k]
                } else {
                    self.wrong[k]
                }
            })
            .sum()
    }
}

/// Timings of the measured passes.
#[derive(Default)]
struct Passes {
    pass_s: Vec<f64>,
    /// Per kernel, its compile time in every pass.
    kernel_us: Vec<Vec<f64>>,
}

impl Passes {
    fn median_pass_s(&self) -> f64 {
        stats::median(&self.pass_s)
    }

    /// Per kernel, its median compile time over the passes.
    fn kernel_medians(&self) -> Vec<f64> {
        self.kernel_us.iter().map(|us| stats::median(us)).collect()
    }
}

/// Runs passes until `seconds` have elapsed and at least [`MIN_PASSES`]
/// passes completed.  `compile` maps one kernel; only that call is timed.
fn run_passes(
    prepared: &Prepared,
    seconds: f64,
    tally: &mut Tally,
    mut compile: impl FnMut(&Kernel) -> Option<MappingResult>,
) -> Passes {
    let mut passes = Passes {
        kernel_us: vec![Vec::new(); prepared.kernels.len()],
        ..Passes::default()
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while passes.pass_s.len() < MIN_PASSES || Instant::now() < deadline {
        let mut pass_us = 0.0;
        for (index, kernel) in prepared.kernels.iter().enumerate() {
            let started = Instant::now();
            let mapping = compile(kernel);
            let us = micros(started.elapsed());
            pass_us += us;
            passes.kernel_us[index].push(us);
            tally.count(index, mapping.as_ref().map(program_digest), prepared);
        }
        passes.pass_s.push(pass_us / 1e6);
    }
    passes
}

/// One compile through the public one-call entry point.
fn compile_untraced(tiles: usize, kernel: &Kernel) -> Option<MappingResult> {
    let mapper = Mapper::new().with_tiles(tiles);
    black_box(mapper.map_source(black_box(&kernel.source))).ok()
}

/// Span totals and layer counts of the traced passes.
#[derive(Default)]
struct StageTotals {
    compiles: f64,
    stage_us: [f64; 7],
    frontend_nodes: f64,
    transform_rounds: f64,
    transform_visited: f64,
    transform_changes: f64,
    transform_nodes_out: f64,
    extract_ops: f64,
    clusters: f64,
    levels: f64,
    hit_rate_sum: f64,
    hit_rate_count: f64,
}

/// Runs `step` inside a span whose duration is added to `slot`.
fn span<T>(slot: &mut f64, step: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let value = step();
    *slot += micros(started.elapsed());
    value
}

/// One compile driven stage by stage through `Stage::run`, with a span
/// around every stage.
fn compile_traced(
    tiles: usize,
    kernel: &Kernel,
    totals: &mut StageTotals,
) -> Result<MappingResult, MapError> {
    let mapper = Mapper::new().with_tiles(tiles);
    let transform = TransformStage::standard();
    let mut cx = mapper.flow_context();
    let us = &mut totals.stage_us;
    let input = SourceInput::new(black_box(kernel.source.as_str()));
    let compiled = span(&mut us[0], || FrontendStage.run(input, &mut cx))?;
    totals.frontend_nodes += compiled.cdfg.node_count() as f64;
    let simplified = span(&mut us[1], || transform.run(compiled, &mut cx))?;
    if let Some(stats) = cx.transform_stats {
        totals.transform_rounds += stats.rounds as f64;
        totals.transform_visited += stats.visited_nodes as f64;
        totals.transform_changes += stats.changes as f64;
    }
    totals.transform_nodes_out += simplified.simplified.node_count() as f64;
    let extracted = span(&mut us[2], || ExtractStage.run(simplified, &mut cx))?;
    totals.extract_ops += extracted.graph.op_count() as f64;
    let clustered = span(&mut us[3], || ClusterStage.run(extracted, &mut cx))?;
    totals.clusters += clustered.clustered.len() as f64;
    let partitioned = span(&mut us[4], || PartitionStage.run(clustered, &mut cx))?;
    let scheduled = span(&mut us[5], || ScheduleStage.run(partitioned, &mut cx))?;
    totals.levels += scheduled.multi_schedule.level_count() as f64;
    let allocated = span(&mut us[6], || AllocateStage.run(scheduled, &mut cx))?;
    let mapping = assemble(allocated, cx);
    if let Some(rate) = mapping.report.register_hit_rate() {
        totals.hit_rate_sum += rate;
        totals.hit_rate_count += 1.0;
    }
    totals.compiles += 1.0;
    Ok(mapping)
}

/// Builds the `MappingResult` the one-call entry point returns from the
/// stage outputs, so the traced compile can be digested like the untraced
/// one.
fn assemble(allocated: AllocatedKernel, cx: FlowContext) -> MappingResult {
    let AllocatedKernel {
        simplified,
        layout,
        graph,
        clustered,
        schedule,
        program,
        multi,
    } = allocated;
    let mut report = MappingReport {
        kernel: graph.name.clone(),
        operations: graph.op_count(),
        clusters: clustered.len(),
        critical_path: clustered.critical_path(),
        levels: schedule.level_count(),
        tiles: 1,
        ..MappingReport::default()
    };
    if let Some(stats) = cx.transform_stats {
        report.transform_rounds = stats.rounds;
        report.transform_visited_nodes = stats.visited_nodes;
        report.transform_peak_graph_nodes = stats.peak_graph_nodes;
    }
    match &multi {
        Some(multi) => {
            report.levels = multi.schedule.level_count();
            report.absorb_multi_program(&multi.program);
        }
        None => report.absorb_program(&program),
    }
    let config_fingerprint = config_fingerprint(&cx.config, &cx.array, &cx.toggles);
    MappingResult {
        simplified: Arc::new(simplified),
        mapping_graph: Arc::new(graph),
        clustered: Arc::new(clustered),
        schedule: Arc::new(schedule),
        program: Arc::new(program),
        multi: multi.map(Arc::new),
        report,
        layout,
        trace: cx.into_trace(),
        config_fingerprint,
    }
}

/// Times one set-up of a compile workload on `tiles` tiles.
///
/// # Errors
/// When a kernel of the set does not map.
pub fn setup_only(tiles: usize, seed: u64) -> Result<f64, String> {
    stats::timed(|| prepare(tiles, seed)).map(|(_, seconds)| seconds)
}

/// Runs a compile workload on `tiles` tiles.
///
/// # Errors
/// When a kernel of the set does not map during set-up.
pub fn run(tiles: usize, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let (prepared, setup_s) = stats::timed(|| prepare(tiles, seed))?;
    let mut tally = Tally::new(prepared.kernels.len());
    let mut outcome = Outcome {
        invariants_hold: true,
        ..Outcome::default()
    };
    let mut metrics = Metrics::default();
    let kernels = prepared.kernels.len() as f64;

    if trace {
        let untraced = run_passes(&prepared, seconds / 2.0, &mut tally, |kernel| {
            compile_untraced(tiles, kernel)
        });
        // Traced digests are checked against the untraced reference by
        // `Tally::count`: any difference is a failed compile.
        let mut totals = StageTotals::default();
        let traced = run_passes(&prepared, seconds / 2.0, &mut tally, |kernel| {
            compile_traced(tiles, kernel, &mut totals).ok()
        });
        let per = |total: f64| stats::ratio(total, totals.compiles);
        for (name, total) in STAGE_METRICS.iter().zip(totals.stage_us) {
            metrics.set(name, per(total));
        }
        metrics.set("frontend.nodes", per(totals.frontend_nodes));
        metrics.set("transform.rounds", per(totals.transform_rounds));
        metrics.set("transform.visited_nodes", per(totals.transform_visited));
        metrics.set("transform.changes", per(totals.transform_changes));
        metrics.set("transform.nodes_out", per(totals.transform_nodes_out));
        metrics.set("extract.ops", per(totals.extract_ops));
        metrics.set("cluster.clusters", per(totals.clusters));
        metrics.set("schedule.levels", per(totals.levels));
        metrics.set(
            "allocate.register_hit_rate",
            stats::ratio(totals.hit_rate_sum, totals.hit_rate_count),
        );
        let transfers: usize = prepared
            .reference
            .iter()
            .map(|mapping| mapping.report.inter_tile_transfers)
            .sum();
        metrics.set("partition.inter_tile_transfers", transfers as f64);
        let overhead = (traced.median_pass_s() / untraced.median_pass_s() - 1.0) * 100.0;
        metrics.set("bench.trace_overhead_pct", overhead);
        outcome.notes.push(format!(
            "traced {} passes, untraced {} passes; median pass {:.3} ms traced vs {:.3} ms untraced",
            traced.pass_s.len(),
            untraced.pass_s.len(),
            traced.median_pass_s() * 1e3,
            untraced.median_pass_s() * 1e3
        ));
    } else {
        let passes = run_passes(&prepared, seconds, &mut tally, |kernel| {
            compile_untraced(tiles, kernel)
        });
        metrics.set("peak_rss_mb", stats::peak_rss_mb());
        let medians = passes.kernel_medians();
        let (worst, worst_us) = medians
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(index, us)| (prepared.kernels[index].name.as_str(), *us))
            .unwrap_or(("-", 0.0));
        outcome.setup_s = Some(setup_s);
        metrics.set("throughput_per_s", kernels / passes.median_pass_s());
        metrics.set("p50_us", stats::smoothed_median(&medians));
        metrics.set("tail_us", worst_us);
        metrics.set(
            "cycles_geomean",
            stats::geomean(prepared.reference.iter().map(|m| m.report.cycles as f64)),
        );
        outcome.notes.push(format!(
            "{} kernels x {} passes on {tiles} tile(s); median pass {:.3} ms; \
             p50 = smoothed median of {} kernel medians; tail = slowest kernel `{worst}`",
            prepared.kernels.len(),
            passes.pass_s.len(),
            passes.median_pass_s() * 1e3,
            medians.len(),
        ));
    }

    // The oracles run after the measured phase, outside every timing.
    let oracles = check_oracles(&prepared);
    outcome.notes.push(format!(
        "oracles: {} verify denies, {} sim mismatches, {} registry digest drift(s)",
        oracles.verify_denies, oracles.sim_mismatches, oracles.digest_drift
    ));
    metrics.set("verify.denies", oracles.verify_denies as f64);
    metrics.set("sim.mismatches", oracles.sim_mismatches as f64);
    metrics.set("compile.digest_drift", oracles.digest_drift as f64);
    outcome.attempted = tally.attempted();
    outcome.failed = tally.failed(&oracles.bad);
    metrics.set(
        "bench.failed_share",
        stats::ratio(outcome.failed as f64, outcome.attempted as f64),
    );
    outcome.metrics = metrics;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_and_untraced_compiles_give_the_same_digests() {
        for tiles in [1, 4] {
            let mut totals = StageTotals::default();
            for kernel in gen::compile_set(3).iter().step_by(4) {
                let untraced = compile_untraced(tiles, kernel).expect("maps untraced");
                let traced = compile_traced(tiles, kernel, &mut totals).expect("maps traced");
                assert_eq!(
                    program_digest(&traced),
                    program_digest(&untraced),
                    "`{}`",
                    kernel.name
                );
            }
            assert!(totals.compiles > 0.0);
            assert!(totals.stage_us.iter().all(|us| *us > 0.0));
        }
    }
}
