//! The annotated RL training loop: the code a user of RL-Scope writes.
//!
//! Every iteration follows the structure of the paper's Figure 1b —
//! inference → simulation → (periodically) backpropagation — with each
//! stage wrapped in the corresponding `rls.operation(...)` annotation.

use crate::adapter::ContinuousAdapter;
use crate::frameworks::{CollectCosts, FrameworkConfig};
use crate::stack::Stack;
use rlscope_core::profiler::{EventSink, Profiler, Toggles};
use rlscope_core::store::{TraceIoError, TraceWriter};
use rlscope_core::trace::Trace;
use rlscope_envs::{AirLearning, Environment, Locomotion, LocomotionTask, Pong};
use rlscope_rl::{
    A2c, A2cConfig, Agent, AlgoKind, Ddpg, DdpgConfig, Dqn, DqnConfig, Ppo, PpoConfig, Sac,
    SacConfig, Td3, Td3Config, Transition,
};
use rlscope_sim::ids::ProcessId;
use rlscope_sim::time::DurationNs;
use serde::{Deserialize, Serialize};

/// Scales down the paper's hyperparameters so experiments finish quickly
/// while preserving every ratio the findings depend on (e.g. DDPG's
/// `train_freq` stays 10× smaller than TD3's).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaleConfig {
    /// Hidden layer width.
    pub hidden: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Divisor applied to `train_freq` / `gradient_steps` / rollout sizes.
    pub freq_div: usize,
    /// Optional PPO-specific override `(n_steps, epochs, minibatch)` —
    /// the per-environment tuned hyperparameters of the simulator survey
    /// (paper Appendix B.1 notes the (PPO, Pong) configuration performs
    /// few gradient updates per simulator invocation).
    pub ppo: Option<(usize, usize, usize)>,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig { hidden: 32, batch: 16, freq_div: 10, ppo: None }
    }
}

/// Builds an environment by survey name, adapted to a continuous action
/// space when `continuous` is set (for non-DQN algorithms on Pong).
///
/// `AirLearning` renders on the stack's GPU.
///
/// # Panics
///
/// Panics on unknown environment names.
pub fn make_env(name: &str, stack: &Stack, seed: u64, continuous: bool) -> Box<dyn Environment> {
    let clock = stack.clock.clone();
    match name {
        "Pong" if continuous => Box::new(ContinuousAdapter::new(Pong::new(clock, seed))),
        "Pong" => Box::new(Pong::new(clock, seed)),
        "Walker2D" => Box::new(Locomotion::new(LocomotionTask::Walker2d, clock, seed)),
        "Hopper" => Box::new(Locomotion::new(LocomotionTask::Hopper, clock, seed)),
        "HalfCheetah" => Box::new(Locomotion::new(LocomotionTask::HalfCheetah, clock, seed)),
        "Ant" => Box::new(Locomotion::new(LocomotionTask::Ant, clock, seed)),
        "AirLearning" => {
            Box::new(AirLearning::new(clock, Some((stack.cuda.clone(), stack.stream)), seed))
        }
        other => panic!("unknown environment {other}"),
    }
}

/// Builds an agent for an algorithm under a framework configuration.
///
/// Framework-specific quirks applied here:
/// * stable-baselines DDPG uses the MPI-friendly CPU-round-trip Adam
///   (finding F.4); every other configuration uses in-backend Adam.
/// * DDPG keeps `train_freq` 10× smaller than TD3 (finding F.5).
pub fn make_agent(
    algo: AlgoKind,
    framework: FrameworkConfig,
    obs_dim: usize,
    act_dim: usize,
    seed: u64,
    scale: ScaleConfig,
) -> Box<dyn Agent> {
    let div = scale.freq_div.max(1);
    match algo {
        AlgoKind::Dqn => Box::new(Dqn::new(
            obs_dim,
            act_dim,
            DqnConfig {
                hidden: vec![scale.hidden, scale.hidden],
                batch_size: scale.batch,
                warmup: scale.batch * 2,
                ..DqnConfig::default()
            },
            seed,
        )),
        AlgoKind::Ddpg => Box::new(Ddpg::new(
            obs_dim,
            act_dim,
            DdpgConfig {
                hidden: scale.hidden,
                batch_size: scale.batch,
                warmup: scale.batch * 2,
                train_freq: (100 / div).max(1),
                gradient_steps: (350 / div).max(1),
                use_mpi_adam: framework == crate::frameworks::STABLE_BASELINES,
                ..DdpgConfig::default()
            },
            seed,
        )),
        AlgoKind::Td3 => Box::new(Td3::new(
            obs_dim,
            act_dim,
            Td3Config {
                hidden: scale.hidden,
                batch_size: scale.batch,
                warmup: scale.batch * 2,
                train_freq: (1000 / div).max(1),
                gradient_steps: (500 / div).max(1),
                ..Td3Config::default()
            },
            seed,
        )),
        AlgoKind::Sac => Box::new(Sac::new(
            obs_dim,
            act_dim,
            SacConfig {
                hidden: scale.hidden,
                batch_size: scale.batch,
                warmup: scale.batch * 2,
                train_freq: (64 / div).max(1),
                gradient_steps: (160 / div).max(1),
                ..SacConfig::default()
            },
            seed,
        )),
        AlgoKind::A2c => Box::new(A2c::new(
            obs_dim,
            act_dim,
            A2cConfig { hidden: scale.hidden, n_steps: 5, ..A2cConfig::default() },
            seed,
        )),
        AlgoKind::Ppo2 => {
            let (n_steps, epochs, minibatch) =
                scale.ppo.unwrap_or(((128 / div).max(4), 4, scale.batch.min((128 / div).max(4))));
            Box::new(Ppo::new(
                obs_dim,
                act_dim,
                PpoConfig {
                    hidden: scale.hidden,
                    n_steps,
                    minibatch,
                    epochs,
                    ..PpoConfig::default()
                },
                seed,
            ))
        }
    }
}

/// Outcome of one training run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Total wall-clock (virtual) training time.
    pub wall: DurationNs,
    /// The trace, when a profiler was attached.
    pub trace: Option<Trace>,
    /// Episodes completed.
    pub episodes: u64,
    /// Sum of rewards (sanity signal that learning actually ran).
    pub reward_sum: f64,
}

/// Runs `steps` environment steps of the annotated training loop.
pub fn run_annotated_loop(
    stack: &Stack,
    env: &mut dyn Environment,
    agent: &mut dyn Agent,
    profiler: Option<&Profiler>,
    steps: usize,
    collect: CollectCosts,
) -> RunOutcome {
    let start = stack.clock.now();
    let exec = &stack.exec;
    let op = |name: &str| profiler.map(|p| p.operation(name));
    if let Some(p) = profiler {
        p.set_phase("training");
    }

    let mut obs = {
        let _g = op("simulation");
        exec.call_simulator(|| env.reset())
    };
    exec.python(collect.loop_entry_python);

    let mut episodes = 0u64;
    let mut reward_sum = 0.0f64;
    for _ in 0..steps {
        let action = {
            let _g = op("inference");
            agent.act(exec, &obs, true)
        };
        let result = {
            let _g = op("simulation");
            exec.python(collect.per_step_python);
            exec.call_simulator(|| env.step(&action))
        };
        reward_sum += result.reward as f64;
        agent.observe(Transition {
            obs: std::mem::take(&mut obs),
            action,
            reward: result.reward,
            next_obs: result.obs.clone(),
            done: result.done,
        });
        obs = if result.done {
            episodes += 1;
            agent.episode_end();
            let _g = op("simulation");
            exec.call_simulator(|| env.reset())
        } else {
            result.obs
        };
        if agent.ready_to_update() {
            {
                let _g = op("backpropagation");
                agent.update(exec);
            }
            // Autograph re-enters its in-graph collect loop after each
            // update phase (the F.5 entry cost).
            exec.python(collect.loop_entry_python);
        }
        if let Some(p) = profiler {
            p.mark_iteration();
        }
    }
    exec.sync();

    RunOutcome { wall: stack.clock.now() - start, trace: None, episodes, reward_sum }
}

/// A complete, reproducible training-workload specification.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrainSpec {
    /// The RL algorithm.
    pub algo: AlgoKind,
    /// Environment survey name.
    pub env: String,
    /// Framework configuration (Table 1 row).
    pub framework: FrameworkConfig,
    /// Environment steps to run.
    pub steps: usize,
    /// Seed for all stochastic components.
    pub seed: u64,
    /// Hyperparameter scaling.
    pub scale: ScaleConfig,
}

impl TrainSpec {
    /// A spec with default scaling.
    pub fn new(algo: AlgoKind, env: &str, framework: FrameworkConfig, steps: usize) -> Self {
        TrainSpec {
            algo,
            env: env.to_string(),
            framework,
            steps,
            seed: 42,
            scale: ScaleConfig::default(),
        }
    }

    /// Executes the workload. With `toggles = None` the run is
    /// uninstrumented (no profiler attached at all); otherwise a profiler
    /// with those toggles is attached and the outcome carries its trace.
    pub fn run(&self, toggles: Option<Toggles>) -> RunOutcome {
        self.run_inner(toggles, None)
    }

    /// Executes the workload profiled while **streaming** its events to
    /// `sink` in batches of `flush_every` — the live-collection form of
    /// [`TrainSpec::run`]: attach an [`EventSink`] (e.g. the collector
    /// daemon's session client) and the trace flows out while the
    /// workload runs, instead of being written to files afterwards. The
    /// returned outcome still carries the complete trace (streaming adds
    /// delivery, not ownership — see
    /// [`Profiler::stream_to`](rlscope_core::profiler::Profiler::stream_to)),
    /// so callers can cross-check the live analysis against the local
    /// one.
    pub fn run_streamed(
        &self,
        toggles: Toggles,
        sink: std::sync::Arc<dyn EventSink>,
        flush_every: usize,
    ) -> RunOutcome {
        self.run_inner(Some(toggles), Some((sink, flush_every)))
    }

    fn run_inner(
        &self,
        toggles: Option<Toggles>,
        sink: Option<(std::sync::Arc<dyn EventSink>, usize)>,
    ) -> RunOutcome {
        let stack = Stack::new(self.framework.backend, self.framework.model);
        let continuous = self.algo != AlgoKind::Dqn;
        let mut env = make_env(&self.env, &stack, self.seed, continuous);
        let act_dim = match (self.algo, env.action_space()) {
            (AlgoKind::Dqn, rlscope_envs::ActionSpace::Discrete(n)) => n,
            (_, space) => space.dim(),
        };
        let mut agent =
            make_agent(self.algo, self.framework, env.obs_dim(), act_dim, self.seed, self.scale);
        let profiler = toggles.map(|t| stack.profile(ProcessId(0), t));
        if let (Some(p), Some((sink, flush_every))) = (&profiler, sink) {
            p.stream_to(sink, flush_every);
        }
        let collect = CollectCosts::for_model(self.framework.model);
        let mut outcome = run_annotated_loop(
            &stack,
            env.as_mut(),
            agent.as_mut(),
            profiler.as_ref(),
            self.steps,
            collect,
        );
        outcome.trace = profiler.map(|p| p.finish());
        outcome
    }

    /// Executes the workload profiled and stores the trace as a rotated
    /// chunk directory under `dir`, the on-disk form the streaming
    /// analysis pipeline consumes
    /// ([`rlscope_core::analysis::Analysis::from_chunk_dir`]).
    /// Chunk files already in `dir` are **deleted** first
    /// ([`TraceWriter::create`]'s stale-chunk purge), so a reused
    /// directory holds exactly this run. Returns the run outcome (its
    /// `trace` still attached, for callers that want to cross-check the
    /// streamed analysis) and the chunk files written.
    ///
    /// # Errors
    ///
    /// Propagates chunk-writer I/O errors.
    pub fn run_to_chunk_dir(
        &self,
        toggles: Toggles,
        dir: &std::path::Path,
        chunk_bytes: usize,
    ) -> Result<(RunOutcome, Vec<std::path::PathBuf>), TraceIoError> {
        let outcome = self.run(Some(toggles));
        let trace = outcome.trace.as_ref().expect("profiled run always carries a trace");
        let writer = TraceWriter::create(dir, chunk_bytes)?;
        for chunk in trace.events.chunks(1024) {
            writer.write(chunk.to_vec());
        }
        let files = writer.finish()?;
        Ok((outcome, files))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frameworks::{REAGENT, STABLE_BASELINES, TF_AGENTS_AUTOGRAPH};
    use rlscope_core::event::EventKind;

    fn spec(algo: AlgoKind, env: &str) -> TrainSpec {
        TrainSpec {
            scale: ScaleConfig { hidden: 8, batch: 4, freq_div: 25, ppo: None },
            ..TrainSpec::new(algo, env, STABLE_BASELINES, 60)
        }
    }

    #[test]
    fn uninstrumented_run_produces_no_trace() {
        let out = spec(AlgoKind::Ppo2, "Walker2D").run(None);
        assert!(out.trace.is_none());
        assert!(!out.wall.is_zero());
    }

    #[test]
    fn profiled_run_records_all_three_operations() {
        let out = spec(AlgoKind::Ddpg, "Walker2D").run(Some(Toggles::all()));
        let trace = out.trace.unwrap();
        let names = trace.operation_names();
        let names: Vec<&str> = names.iter().map(|n| &**n).collect();
        assert!(names.contains(&"inference"), "{names:?}");
        assert!(names.contains(&"simulation"), "{names:?}");
        assert!(names.contains(&"backpropagation"), "{names:?}");
        assert_eq!(trace.iterations, 60);
    }

    #[test]
    fn deterministic_given_same_spec() {
        let a = spec(AlgoKind::Sac, "Hopper").run(Some(Toggles::all()));
        let b = spec(AlgoKind::Sac, "Hopper").run(Some(Toggles::all()));
        assert_eq!(a.wall, b.wall);
        assert_eq!(a.trace.unwrap().events.len(), b.trace.unwrap().events.len());
    }

    #[test]
    fn zero_toggles_run_matches_uninstrumented_timing() {
        // Recording with zero injected cost must not perturb the timeline:
        // this is the property that makes calibration exact.
        let bare = spec(AlgoKind::A2c, "Walker2D").run(None);
        let observed = spec(AlgoKind::A2c, "Walker2D").run(Some(Toggles::none()));
        assert_eq!(bare.wall, observed.wall);
    }

    #[test]
    fn full_profiling_inflates_wall_time() {
        let bare = spec(AlgoKind::Ddpg, "Walker2D").run(None);
        let full = spec(AlgoKind::Ddpg, "Walker2D").run(Some(Toggles::all()));
        assert!(full.wall > bare.wall, "profiling added no overhead");
    }

    #[test]
    fn dqn_runs_on_discrete_pong() {
        let out = spec(AlgoKind::Dqn, "Pong").run(Some(Toggles::all()));
        let trace = out.trace.unwrap();
        assert!(trace.counts.simulator_transitions > 0);
    }

    #[test]
    fn ppo_runs_on_pong_via_adapter() {
        let out = spec(AlgoKind::Ppo2, "Pong").run(Some(Toggles::all()));
        assert!(out.trace.is_some());
    }

    #[test]
    fn chunked_run_streams_to_identical_breakdowns() {
        use rlscope_core::analysis::{Analysis, Dim};

        let dir =
            std::env::temp_dir().join(format!("rlscope_runner_chunks_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (out, files) = spec(AlgoKind::Ddpg, "Walker2D")
            .run_to_chunk_dir(Toggles::all(), &dir, 16 * 1024)
            .unwrap();
        assert!(!files.is_empty());
        let trace = out.trace.unwrap();
        // The streamed chunk-dir analysis reproduces the in-memory
        // per-process analysis exactly, table for table — real profiler
        // streams are end-ordered, so the sweeps take them in any order.
        let streamed = Analysis::from_chunk_dir(&dir).group_by([Dim::Process]).tables().unwrap();
        assert_eq!(streamed, Analysis::of(&trace).group_by([Dim::Process]).tables().unwrap());
        // The per-phase streamed query also matches the in-memory one —
        // the training loop runs a single "training" phase.
        let streamed_phases = Analysis::from_chunk_dir(&dir).group_by([Dim::Phase]).tables();
        let batch_phases = Analysis::of(&trace).group_by([Dim::Phase]).tables().unwrap();
        assert_eq!(streamed_phases.unwrap(), batch_phases);
        assert!(batch_phases.iter().any(|(k, _)| k.phase.as_deref() == Some("training")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Streaming a run delivers exactly the trace's event stream to the
    /// sink, in order — the property the live collector path builds on.
    #[test]
    fn streamed_run_delivers_the_full_trace_to_the_sink() {
        use rlscope_core::event::Event;
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct VecSink(Mutex<Vec<Event>>);
        impl EventSink for VecSink {
            fn emit(&self, events: Vec<Event>) {
                self.0.lock().unwrap().extend(events);
            }
        }

        let sink = Arc::new(VecSink::default());
        let out = spec(AlgoKind::Ddpg, "Walker2D").run_streamed(Toggles::all(), sink.clone(), 256);
        let trace = out.trace.unwrap();
        assert!(!trace.events.is_empty());
        assert_eq!(*sink.0.lock().unwrap(), trace.events);
        // And the streamed run is byte-identical to a plain run.
        let plain = spec(AlgoKind::Ddpg, "Walker2D").run(Some(Toggles::all()));
        assert_eq!(plain.trace.unwrap(), trace);
    }

    #[test]
    fn airlearning_renders_on_gpu_inside_simulation_op() {
        let out = spec(AlgoKind::Ppo2, "AirLearning").run(Some(Toggles::all()));
        let trace = out.trace.unwrap();
        let has_render = trace
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Gpu(_)) && &*e.name == "render_frame");
        assert!(has_render, "no render kernels recorded");
    }

    #[test]
    fn eager_framework_runs() {
        let out = TrainSpec {
            scale: ScaleConfig { hidden: 8, batch: 4, freq_div: 25, ppo: None },
            ..TrainSpec::new(AlgoKind::Td3, "Walker2D", REAGENT, 30)
        }
        .run(Some(Toggles::all()));
        assert!(out.trace.unwrap().counts.backend_transitions > 30);
    }

    #[test]
    fn autograph_pays_collect_entry_cost() {
        let graph = spec(AlgoKind::Ddpg, "Walker2D").run(None).wall;
        let autograph = TrainSpec {
            scale: ScaleConfig { hidden: 8, batch: 4, freq_div: 25, ppo: None },
            ..TrainSpec::new(AlgoKind::Ddpg, "Walker2D", TF_AGENTS_AUTOGRAPH, 60)
        }
        .run(None)
        .wall;
        // Not asserting which is faster overall (inference anomaly vs
        // entry cost interact); just that both complete and differ.
        assert_ne!(graph, autograph);
    }
}
