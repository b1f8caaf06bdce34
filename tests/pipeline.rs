//! End-to-end pipeline tests: profile → store to disk → reload → analyze
//! → calibrate → correct.

use rlscope::core::prelude::*;
use rlscope::core::store::{for_each_decoded_chunk_columns, TraceWriter};
use rlscope::prelude::*;
use rlscope::workloads::{run_correction_ablation, validate_correction, ScaleConfig};

fn spec(algo: AlgoKind, env: &str, steps: usize) -> TrainSpec {
    TrainSpec {
        scale: ScaleConfig { hidden: 8, batch: 4, freq_div: 25, ppo: None },
        ..TrainSpec::new(algo, env, STABLE_BASELINES, steps)
    }
}

#[test]
fn trace_survives_disk_round_trip() {
    let out = spec(AlgoKind::Ddpg, "Walker2D", 60).run(Some(Toggles::all()));
    let trace = out.trace.unwrap();

    let dir = std::env::temp_dir().join(format!("rlscope_pipeline_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let writer = TraceWriter::create(&dir, 64 * 1024).unwrap();
    for chunk in trace.events.chunks(500) {
        writer.write(chunk.to_vec());
    }
    let files = writer.finish().unwrap();
    assert!(!files.is_empty());

    let mut events = Vec::new();
    for_each_decoded_chunk_columns(&files, |cols| {
        events.extend(cols.to_events()?);
        Ok(())
    })
    .unwrap();
    assert_eq!(events, trace.events);
    // The directory produces the identical breakdown.
    assert_eq!(Analysis::from_chunk_dir(&dir).table().unwrap(), trace.breakdown());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn breakdown_total_bounded_by_wall_time() {
    let out = spec(AlgoKind::Ppo2, "Hopper", 80).run(Some(Toggles::all()));
    let trace = out.trace.unwrap();
    let table = trace.breakdown();
    assert!(table.total() <= trace.wall_time());
    // An RL workload keeps the CPU almost always busy: the instrumented
    // intervals should cover most of the wall time.
    assert!(
        table.total().ratio(trace.wall_time()) > 0.8,
        "only {:.0}% of wall time attributed",
        100.0 * table.total().ratio(trace.wall_time())
    );
}

#[test]
fn correction_bias_within_16_percent_across_workloads() {
    for (algo, env) in
        [(AlgoKind::Ddpg, "Walker2D"), (AlgoKind::Ppo2, "Pong"), (AlgoKind::Sac, "Hopper")]
    {
        let row = validate_correction(&spec(algo, env, 80), format!("{algo}/{env}"));
        assert!(
            row.bias_percent.abs() <= 16.0,
            "{}: bias {:.1}% (paper bound: ±16%)",
            row.label,
            row.bias_percent
        );
    }
}

#[test]
fn skipping_correction_inflates_cuda_over_gpu_ratio() {
    // §C.4: without correction, CPU-side inflation exaggerates how
    // CUDA-API-bound the workload looks.
    let s = spec(AlgoKind::Ddpg, "Walker2D", 80);
    let (corrected, raw) = run_correction_ablation(&s);
    let ratio = |p: &CorrectedProfile| {
        p.table.cpu_category_total(CpuCategory::CudaApi).ratio(p.table.gpu_total())
    };
    assert!(
        ratio(&raw) > ratio(&corrected),
        "uncorrected {:.2}x vs corrected {:.2}x",
        ratio(&raw),
        ratio(&corrected)
    );
    // And total training time is overstated.
    assert!(raw.corrected_total > corrected.corrected_total);
}

#[test]
fn operations_partition_attributed_time() {
    let out = spec(AlgoKind::A2c, "Walker2D", 60).run(Some(Toggles::all()));
    let trace = out.trace.unwrap();
    let table = trace.breakdown();
    let sum: rlscope::sim::time::DurationNs = ["inference", "simulation", "backpropagation"]
        .iter()
        .map(|op| table.operation_total(op))
        .sum();
    let untracked = table.operation_total(BucketKey::UNTRACKED);
    assert_eq!(sum + untracked, table.total());
}
