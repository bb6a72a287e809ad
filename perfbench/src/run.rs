//! One benchmark run: set-up, a measured phase of interleaved rounds,
//! and the metric report.
//!
//! A run is a sequence of *rounds* until `--seconds` have elapsed. Each
//! round runs the workload's cells in a fixed proportion, so every
//! host-time metric is a statistic over many short windows spread across
//! the whole run rather than one contiguous block:
//!
//! | workload      | per round                                  |
//! |---------------|--------------------------------------------|
//! | `batch-kws6`  | 250 ms of serve windows, 1 flow pass       |
//! | `stream-kws6` | 250 ms of `Front` replays, 1 flow pass     |
//! | `flow-mnist`  | 2 flow passes, 60 ms of serve windows      |
//!
//! Set-up runs once before the measured phase and again at evenly spaced
//! points through it. Every host-time figure, `setup_s` included,
//! reports the fast 5% quantile of its windows (see [`FAST`]).
//!
//! With `--trace 1` every round also runs the cells the workload does
//! not exercise (one serve window, one replay, one cycle-engine batch),
//! so the per-layer ledger is complete for every workload's design.
//! Recording is on in even rounds and off in odd ones; the difference
//! between their primary figures is the tracing overhead.

use crate::host::{self, CpuSnapshot};
use crate::ledger::{median, quantile, Ledger};
use crate::workload::*;
use matador_serve::{percentile_per_mille, FlushTrigger, Front, FrontOptions, ShardPool};
use matador_sim::{SimEngine, TurboEngine, DEFAULT_CHUNK_THRESHOLD};
use std::time::{Duration, Instant};
use tsetlin::{BitVec, Sample};

/// Serve calls per timed window in the closed-loop cells.
const SERVES_PER_WINDOW: usize = 4;

/// Timed windows per pool before it is rebuilt.
const WINDOWS_PER_POOL: usize = 16;

/// Quantile of window times reported for host-time figures: the fast
/// 5%. Host noise only ever slows a window down — on a 2-vCPU host a
/// busy sibling hyperthread slows this process ~1.8× for seconds to tens
/// of seconds at a time — so a fast quantile tracks the code's own cost
/// as long as some 5% of the run saw a quiet host, while a median lands
/// in whichever speed regime held most of the run.
const FAST: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::from_name(&value).ok_or_else(|| {
                        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload '{value}' (one of {})", names.join(", "))
                    })?);
                }
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("--seed '{value}' is not an unsigned integer"))?,
                    );
                }
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| s.is_finite() && *s > 0.0)
                            .ok_or_else(|| format!("--seconds '{value}' is not positive"))?,
                    );
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace '{value}' is not 0 or 1")),
                    };
                }
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
        })
    }
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Whether the figure is a pure function of code and seed (a count
    /// or a virtual-time quantity) rather than a host timing.
    pub deterministic: bool,
}

/// Everything a run reports.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Host-noise record and run metadata, as one JSON object.
    pub host: String,
    /// Recorded spans as JSON lines (empty without `--trace 1`).
    pub spans: String,
}

impl Outcome {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Full-precision JSON number; non-finite values (a metric with no
/// samples) become `null`.
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Operation counts behind `attempted`, `failed` and `correct`.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Wrong answers and broken determinism: any of these fails the run.
    wrong: u64,
}

/// Virtual-time results of one replay of the main trace.
#[derive(Debug, Clone, PartialEq)]
struct ReplayFigures {
    latencies: Vec<u64>,
    in_slo: usize,
    triggers: [usize; 4],
}

struct Bench<'s> {
    args: Args,
    led: Ledger,
    tally: Tally,
    setup: &'s Setup,
    inputs: Vec<BitVec>,
    reference: Vec<usize>,
    verify_samples: Vec<Sample>,
    trace: Vec<Arrival>,
    trace_inputs: Vec<BitVec>,
    slo: u64,
    next_batch: usize,
    /// Primary throughput windows (inferences or replies per second),
    /// tagged with whether recording was on.
    rates: Vec<(bool, f64)>,
    flow_s: Vec<(bool, f64)>,
    setup_s: Vec<f64>,
    served: u64,
    offered: u64,
    batch_latencies: Option<Vec<u64>>,
    flow_ref: Option<FlowResult>,
    replay_ref: Option<ReplayFigures>,
}

impl Bench<'_> {
    fn fail(&mut self, what: &str, n: u64, wrong: bool) {
        eprintln!("[perfbench] {what}");
        self.tally.failed += n;
        if wrong {
            self.tally.wrong += n.max(1);
        }
    }

    fn batch(&mut self) -> std::ops::Range<usize> {
        let batches = self.inputs.len() / BATCH;
        let k = self.next_batch % batches;
        self.next_batch += 1;
        k * BATCH..(k + 1) * BATCH
    }

    /// Closed-loop serve windows for at least `budget` and at least one
    /// window.
    fn serve_cell(&mut self, budget: Duration) {
        let start = Instant::now();
        while self.serve_pool_lifetime(start, budget) {}
    }

    /// Closed-loop serve windows on one fresh, warmed 1-shard pool:
    /// [`WINDOWS_PER_POOL`] windows, or fewer once `budget` has passed
    /// since `start` (at least one). Pools are rebuilt so the result
    /// logs they keep stay small. While recording, each serve call is
    /// paired with a bare turbo-engine run of the same batch, so the
    /// pool's own cost is the difference. Returns whether budget is left.
    fn serve_pool_lifetime(&mut self, start: Instant, budget: Duration) -> bool {
        let setup = self.setup;
        let accel = &setup.accel;
        let mut pool = match ShardPool::with_options(accel, serve_options(1)) {
            Ok(pool) => pool,
            Err(e) => {
                self.fail(&format!("pool: {e}"), BATCH as u64, false);
                return false;
            }
        };
        let mut turbo = self.led.recording().then(|| {
            let mut engine = TurboEngine::new(accel);
            engine.set_chunk_threads(Some(THREADS));
            engine.set_chunk_threshold(DEFAULT_CHUNK_THRESHOLD);
            engine
        });
        let mut results = Vec::with_capacity(BATCH);
        // Warm-up: scratch arenas grow to size on the first call.
        let range = self.batch();
        self.check_serve(pool.serve(&self.inputs[range.clone()]), range.clone(), true);
        if let Some(engine) = turbo.as_mut() {
            let _ = engine.run_datapoints_into(&self.inputs[range], &mut results);
        }
        for _ in 0..WINDOWS_PER_POOL {
            let mut busy = 0.0;
            for _ in 0..SERVES_PER_WINDOW {
                let range = self.batch();
                let span = self.led.enter("serve.pool");
                let served = pool.serve(&self.inputs[range.clone()]);
                let secs = self.led.exit(span);
                busy += secs;
                self.check_serve(served, range.clone(), false);
                if let Some(engine) = turbo.as_mut() {
                    results.clear();
                    let span = self.led.enter("sim.turbo");
                    let run = engine.run_datapoints_into(&self.inputs[range.clone()], &mut results);
                    let engine_secs = self.led.exit(span);
                    let wrong = match run {
                        Ok(()) => mismatches(
                            results.iter().map(|r| r.winner),
                            self.reference[range].iter().copied(),
                        ),
                        Err(_) => BATCH,
                    };
                    if wrong > 0 {
                        self.fail("turbo engine disagrees with predict", wrong as u64, true);
                    }
                    self.led
                        .sample("serve.pool_self", (secs - engine_secs) / BATCH as f64);
                }
            }
            let recording = self.led.recording();
            self.rates
                .push((recording, (SERVES_PER_WINDOW * BATCH) as f64 / busy));
            if start.elapsed() >= budget {
                return false;
            }
        }
        true
    }

    fn check_serve(
        &mut self,
        served: Result<Vec<matador_serve::Prediction>, matador_serve::ServeError>,
        range: std::ops::Range<usize>,
        first_of_pool: bool,
    ) {
        let n = range.len() as u64;
        self.tally.attempted += n;
        self.offered += n;
        let predictions = match served {
            Ok(p) => p,
            Err(e) => return self.fail(&format!("serve: {e}"), n, false),
        };
        let wrong = mismatches(
            predictions.iter().map(|p| p.winner),
            self.reference[range].iter().copied(),
        );
        if wrong > 0 {
            self.fail("served winner differs from predict", wrong as u64, true);
        }
        self.served += predictions.len() as u64;
        if first_of_pool {
            // A fresh pool's clock starts at 0 when the batch is handed
            // over, so completion stamps are submission → result times.
            let mut latencies: Vec<u64> =
                predictions.iter().map(|p| p.completed_at_cycle).collect();
            latencies.sort_unstable();
            match &self.batch_latencies {
                None => self.batch_latencies = Some(latencies),
                Some(first) if *first != latencies => {
                    self.fail("pool latencies changed between serves", 1, true)
                }
                Some(_) => {}
            }
        }
    }

    /// Open-loop replays of the main trace, each on a fresh 4-shard
    /// `Front`, for at least `budget` and at least one replay. While
    /// recording, each replay is paired with the same batch-size
    /// sequence pushed through a bare pool, so the `Front`'s own cost is
    /// the difference.
    fn front_cell(&mut self, budget: Duration) {
        let setup = self.setup;
        let accel = &setup.accel;
        let n = self.trace.len();
        let start = Instant::now();
        loop {
            let front = ShardPool::with_options(accel, serve_options(FRONT_SHARDS))
                .and_then(|pool| Front::new(pool, FrontOptions::new()));
            let mut front = match front {
                Ok(front) => front,
                Err(e) => return self.fail(&format!("front: {e}"), n as u64, false),
            };
            let span = self.led.enter("serve.front");
            let replayed = replay(&mut front, &self.trace, &self.inputs, self.slo);
            let secs = self.led.exit(span);
            self.tally.attempted += n as u64;
            let replay = match replayed {
                Ok(r) => r,
                Err(e) => return self.fail(&format!("replay: {e}"), n as u64, false),
            };
            let recording = self.led.recording();
            if self.args.workload == Workload::StreamKws6 {
                self.rates
                    .push((recording, replay.replies.len() as f64 / secs));
            }
            self.check_replay(&replay);
            if recording {
                self.bare_pool_replay(&replay, secs);
            }
            if start.elapsed() >= budget {
                break;
            }
        }
    }

    fn check_replay(&mut self, replay: &Replay) {
        let lost = replay.admitted_total().abs_diff(replay.replies.len());
        let refused = replay.rejected as usize + lost;
        if refused > 0 {
            self.fail(
                &format!(
                    "{} refused, {lost} admitted but not delivered",
                    replay.rejected
                ),
                refused as u64,
                lost > 0,
            );
        }
        let wrong = replay.wrong(&self.reference);
        if wrong > 0 {
            self.fail("delivered winner differs from predict", wrong as u64, true);
        }
        let figures = ReplayFigures {
            latencies: replay.sorted_latencies(),
            in_slo: replay.in_slo(),
            triggers: trigger_counts(replay),
        };
        match &self.replay_ref {
            None => self.replay_ref = Some(figures),
            Some(first) if *first != figures => self.fail("replay is not deterministic", 1, true),
            Some(_) => {}
        }
    }

    fn bare_pool_replay(&mut self, replay: &Replay, front_secs: f64) {
        let mut pool = match ShardPool::with_options(&self.setup.accel, serve_options(FRONT_SHARDS))
        {
            Ok(pool) => pool,
            Err(e) => return self.fail(&format!("pool: {e}"), 0, false),
        };
        let span = self.led.enter("serve.bare_pool");
        let mut cursor = 0;
        for batch in &replay.batches {
            let end = (cursor + batch.size).min(self.trace_inputs.len());
            if pool.serve(&self.trace_inputs[cursor..end]).is_err() {
                self.fail("bare pool serve failed", 0, false);
            }
            cursor = end;
        }
        let bare_secs = self.led.exit(span);
        self.led.sample(
            "serve.front_self",
            (front_secs - bare_secs) / replay.replies.len().max(1) as f64,
        );
    }

    fn flow_cell(&mut self) {
        let kind = self.args.workload.dataset();
        self.tally.attempted += 1;
        let pass = flow_pass(
            &self.setup.model,
            &design_config(kind),
            &self.verify_samples,
            self.args.seed,
            &mut self.led,
        );
        let (result, secs) = match pass {
            Ok(pass) => pass,
            Err(e) => return self.fail(&format!("flow: {e}"), 1, false),
        };
        self.flow_s.push((self.led.recording(), secs));
        if !result.passed {
            self.fail("generated design failed verification", 1, true);
        }
        match self.flow_ref {
            None => self.flow_ref = Some(result),
            Some(first) if first != result => self.fail("flow is not deterministic", 1, true),
            Some(_) => {}
        }
    }

    /// Cycle-accurate engine on the verification inputs (traced runs).
    fn cycle_cell(&mut self) {
        let inputs = &self.inputs[..VERIFY_SAMPLES];
        let mut sim = SimEngine::new(&self.setup.accel);
        let span = self.led.enter("sim.cycle");
        let run = sim.run_datapoints(inputs);
        let secs = self.led.exit(span);
        let wrong = match run {
            Ok(results) => mismatches(
                results.iter().map(|r| r.winner),
                self.reference[..VERIFY_SAMPLES].iter().copied(),
            ),
            Err(_) => VERIFY_SAMPLES,
        };
        self.led
            .sample("sim.cycle_per_inf", secs / VERIFY_SAMPLES as f64);
        self.tally.attempted += VERIFY_SAMPLES as u64;
        if wrong > 0 {
            self.fail("cycle engine disagrees with predict", wrong as u64, true);
        }
    }

    fn setup_cell(&mut self) {
        self.tally.attempted += 1;
        match set_up(self.args.workload, &mut self.led) {
            Ok((again, secs)) => {
                self.setup_s.push(secs);
                if again.model != self.setup.model || again.stats != self.setup.stats {
                    self.fail("set-up is not deterministic", 1, true);
                }
            }
            Err(e) => self.fail(&format!("set-up: {e}"), 1, false),
        }
    }

    fn round(&mut self, round: usize) {
        let traced = self.args.trace;
        self.led.set_recording(traced && round.is_multiple_of(2));
        let ms = Duration::from_millis;
        match self.args.workload {
            Workload::BatchKws6 => {
                self.serve_cell(ms(250));
                self.flow_cell();
                if traced {
                    self.front_cell(Duration::ZERO);
                }
            }
            Workload::StreamKws6 => {
                self.front_cell(ms(250));
                self.flow_cell();
                if traced {
                    self.serve_cell(Duration::ZERO);
                }
            }
            Workload::FlowMnist => {
                self.flow_cell();
                self.flow_cell();
                self.serve_cell(ms(60));
                if traced {
                    self.front_cell(Duration::ZERO);
                }
            }
        }
        if traced {
            self.cycle_cell();
        }
    }

    /// Highest fixed offered load whose replay delivers everything with
    /// p99.9 within the SLO and nothing refused (virtual time, so a pure
    /// function of design and seed).
    fn max_load_pct(&mut self) -> u64 {
        let mut best = 0;
        for load in SWEEP_LOADS_PCT {
            let front = ShardPool::with_options(&self.setup.accel, serve_options(FRONT_SHARDS))
                .and_then(|pool| Front::new(pool, FrontOptions::new()));
            let Ok(mut front) = front else {
                self.fail("front construction failed", 0, false);
                continue;
            };
            let trace = poisson_trace(
                TRACE_REQUESTS,
                mean_gap(&front, load),
                self.inputs.len(),
                self.args.seed,
            );
            let Ok(replay) = replay(&mut front, &trace, &self.inputs, self.slo) else {
                continue;
            };
            let wrong = replay.wrong(&self.reference);
            if wrong > 0 {
                self.fail("delivered winner differs from predict", wrong as u64, true);
            }
            let p999 = percentile_per_mille(&replay.sorted_latencies(), 999);
            if replay.rejected == 0 && replay.replies.len() == trace.len() && p999 <= self.slo {
                best = load;
            }
        }
        best
    }
}

fn trigger_counts(replay: &Replay) -> [usize; 4] {
    let count = |want: FlushTrigger| replay.batches.iter().filter(|b| b.trigger == want).count();
    [
        count(FlushTrigger::LaneBlockFull),
        count(FlushTrigger::DeadlinePressure),
        count(FlushTrigger::IdleTick),
        count(FlushTrigger::Drain),
    ]
}

/// Runs the benchmark with `setup_reps` set-up passes spread through
/// the measured phase.
pub fn run(args: Args, setup_reps: usize) -> Outcome {
    // Belt and braces for code paths that still consult the defaults:
    // every call below passes its thread count explicitly as well.
    std::env::set_var("MATADOR_THREADS", THREADS.to_string());
    matador_obs::set_enabled(true);
    let calib_start = host::calibrate_ns(9);
    let cpu_start = CpuSnapshot::take();

    let mut led = Ledger::new();
    led.set_recording(args.trace);
    let mut tally = Tally {
        attempted: 1,
        ..Tally::default()
    };
    let (setup, first_setup_s) = match set_up(args.workload, &mut led) {
        Ok(setup) => setup,
        Err(e) => {
            eprintln!("[perfbench] set-up failed: {e}");
            tally.failed = 1;
            return Outcome {
                correct: false,
                attempted: tally.attempted,
                failed: tally.failed,
                metrics: Vec::new(),
                host: String::new(),
                spans: String::new(),
            };
        }
    };

    let inputs = make_inputs(&setup.data.test, INPUT_POOL, args.seed);
    let reference: Vec<usize> = inputs.iter().map(|x| setup.model.predict(x)).collect();
    let verify_samples: Vec<Sample> = inputs[..VERIFY_SAMPLES]
        .iter()
        .zip(&reference)
        .map(|(x, &label)| Sample::new(x.clone(), label))
        .collect();
    let (trace, slo) = {
        let front = ShardPool::with_options(&setup.accel, serve_options(FRONT_SHARDS))
            .and_then(|pool| Front::new(pool, FrontOptions::new()))
            .expect("default front options are valid");
        let trace = poisson_trace(
            TRACE_REQUESTS,
            mean_gap(&front, STREAM_LOAD_PCT),
            inputs.len(),
            args.seed,
        );
        (trace, slo_cycles(&front))
    };
    let trace_inputs = trace
        .iter()
        .map(|a| inputs[a.input as usize].clone())
        .collect();

    let mut bench = Bench {
        args,
        led,
        tally,
        setup: &setup,
        inputs,
        reference,
        verify_samples,
        trace,
        trace_inputs,
        slo,
        next_batch: 0,
        rates: Vec::new(),
        flow_s: Vec::new(),
        setup_s: vec![first_setup_s],
        served: 0,
        offered: 0,
        batch_latencies: None,
        flow_ref: None,
        replay_ref: None,
    };

    let budget = Duration::from_secs_f64(args.seconds);
    let marks: Vec<Duration> = (1..setup_reps)
        .map(|k| budget.mul_f64(k as f64 / setup_reps as f64))
        .collect();
    let start = Instant::now();
    let mut round = 0;
    while start.elapsed() < budget {
        if bench.setup_s.len() <= marks.len() && start.elapsed() >= marks[bench.setup_s.len() - 1] {
            bench.led.set_recording(args.trace);
            bench.setup_cell();
        }
        bench.round(round);
        round += 1;
    }
    while bench.setup_s.len() < setup_reps {
        bench.setup_cell();
    }
    bench.led.set_recording(false);
    let max_load = if args.trace { 0 } else { bench.max_load_pct() };

    let calib_end = host::calibrate_ns(9);
    let other_busy = cpu_start.other_busy_frac(&CpuSnapshot::take());
    let host = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"threads\": {THREADS}, \
         \"rounds\": {round}, \"cpu\": \"{}\", \"nproc\": {}, \"git_rev\": \"{}\", \
         \"calib_ns_start\": {calib_start}, \"calib_ns_end\": {calib_end}, \
         \"other_cpu_busy_frac\": {other_busy:.4}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        host::cpu_model().replace('"', "'"),
        host::nproc(),
        host::git_rev(),
    );
    let metrics = if args.trace {
        per_layer_metrics(&bench, [calib_start, calib_end, other_busy])
    } else {
        end_to_end_metrics(&bench, max_load)
    };
    Outcome {
        correct: bench.tally.wrong == 0,
        attempted: bench.tally.attempted,
        failed: bench.tally.failed,
        metrics,
        host,
        spans: if args.trace {
            bench.led.spans_json()
        } else {
            String::new()
        },
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str, deterministic: bool) -> Metric {
    Metric {
        name,
        value,
        unit,
        deterministic,
    }
}

fn end_to_end_metrics(bench: &Bench<'_>, max_load: u64) -> Vec<Metric> {
    let rates: Vec<f64> = bench.rates.iter().map(|r| r.1).collect();
    let flow: Vec<f64> = bench.flow_s.iter().map(|f| f.1).collect();
    let (latencies, goodput) = match (bench.args.workload, &bench.replay_ref) {
        (Workload::StreamKws6, Some(replay)) => (
            replay.latencies.clone(),
            replay.in_slo as f64 / bench.trace.len() as f64,
        ),
        _ => (
            bench.batch_latencies.clone().unwrap_or_default(),
            bench.served as f64 / bench.offered.max(1) as f64,
        ),
    };
    let flow_ref = bench.flow_ref.unwrap_or_default();
    let tally = &bench.tally;
    vec![
        metric("setup_s", quantile(&bench.setup_s, FAST), "s", false),
        metric("infer_per_s", quantile(&rates, 1.0 - FAST), "1/s", false),
        metric("flow_s", quantile(&flow, FAST), "s", false),
        metric(
            "latency_p50_cycles",
            percentile_per_mille(&latencies, 500) as f64,
            "cycles",
            true,
        ),
        metric(
            "latency_p999_cycles",
            percentile_per_mille(&latencies, 999) as f64,
            "cycles",
            true,
        ),
        metric("goodput", goodput, "frac", true),
        metric("max_load_pct", max_load as f64, "%", true),
        metric("design_luts", flow_ref.luts as f64, "count", true),
        metric("design_registers", flow_ref.registers as f64, "count", true),
        metric(
            "test_accuracy",
            bench.setup.model.accuracy(&bench.setup.data.test),
            "frac",
            true,
        ),
        metric(
            "ok_frac",
            (tally.attempted - tally.failed.min(tally.attempted)) as f64 / tally.attempted as f64,
            "frac",
            false,
        ),
        metric("peak_rss_mb", host::peak_rss_mb(), "MB", false),
    ]
}

fn per_layer_metrics(bench: &Bench<'_>, host_figures: [f64; 3]) -> Vec<Metric> {
    let led = &bench.led;
    let secs = |name: &str| quantile(led.samples(name), FAST);
    let ns = |name: &str| quantile(led.samples(name), FAST) * 1e9;
    // Paired differences: adjacent calls share a speed regime, so their
    // median needs no fast-quantile filtering.
    let self_ns = |name: &str| median(led.samples(name)) * 1e9;
    let flow = bench.flow_ref.unwrap_or_default();
    let (batches, triggers) = bench.replay_ref.as_ref().map_or((0, [0; 4]), |r| {
        (r.triggers.iter().sum::<usize>(), r.triggers)
    });
    // Tracing overhead: primary figure with recording off over the same
    // figure with it on, as a fractional slowdown.
    let split = |samples: &[(bool, f64)], on: bool| -> Vec<f64> {
        samples.iter().filter(|s| s.0 == on).map(|s| s.1).collect()
    };
    let overhead = match bench.args.workload {
        Workload::FlowMnist => {
            quantile(&split(&bench.flow_s, true), FAST)
                / quantile(&split(&bench.flow_s, false), FAST)
                - 1.0
        }
        _ => {
            quantile(&split(&bench.rates, false), 1.0 - FAST)
                / quantile(&split(&bench.rates, true), 1.0 - FAST)
                - 1.0
        }
    };
    let pool_calls_us: Vec<f64> = led.samples("serve.pool").iter().map(|s| s * 1e6).collect();
    let [calib_start, calib_end, other_busy] = host_figures;
    vec![
        metric("datasets.generate_s", secs("datasets.generate"), "s", false),
        metric("tsetlin.fit_s", secs("tsetlin.fit"), "s", false),
        metric("design.generate_s", secs("design.generate"), "s", false),
        metric("design.and2_gates", flow.and2_gates as f64, "count", true),
        metric("design.inverters", flow.inverters as f64, "count", true),
        metric("synth.implement_s", secs("synth.implement"), "s", false),
        metric("rtl.emit_verilog_s", secs("rtl.emit_verilog"), "s", false),
        metric("rtl.verilog_bytes", flow.verilog_bytes as f64, "B", true),
        metric("verify.s", secs("verify"), "s", false),
        metric("verify.vectors", flow.vectors as f64, "count", true),
        metric("sim.cycle_ns_per_inf", ns("sim.cycle_per_inf"), "ns", false),
        metric("sim.compile_s", secs("sim.compile"), "s", false),
        metric(
            "sim.tape_instructions",
            bench.setup.stats.tape_after as f64,
            "count",
            true,
        ),
        metric(
            "sim.cse_dedup_hits",
            bench.setup.stats.cse_dedup_hits as f64,
            "count",
            true,
        ),
        metric(
            "sim.turbo_ns_per_inf",
            ns("sim.turbo") / BATCH as f64,
            "ns",
            false,
        ),
        metric(
            "serve.pool_ns_per_inf",
            self_ns("serve.pool_self"),
            "ns",
            false,
        ),
        metric(
            "serve.call_ns_per_inf",
            ns("serve.pool") / BATCH as f64,
            "ns",
            false,
        ),
        metric(
            "serve.pool_us_p99",
            quantile(&pool_calls_us, 0.99),
            "us",
            false,
        ),
        metric("serve.build_s", secs("serve.build"), "s", false),
        metric(
            "serve.front_ns_per_req",
            self_ns("serve.front_self"),
            "ns",
            false,
        ),
        metric("serve.front_batches", batches as f64, "count", true),
        metric(
            "serve.front_mean_batch",
            bench.trace.len() as f64 / batches.max(1) as f64,
            "count",
            true,
        ),
        metric(
            "serve.front_batches_fill",
            triggers[0] as f64,
            "count",
            true,
        ),
        metric(
            "serve.front_batches_pressure",
            triggers[1] as f64,
            "count",
            true,
        ),
        metric(
            "serve.front_batches_idle",
            triggers[2] as f64,
            "count",
            true,
        ),
        metric(
            "serve.front_batches_drain",
            triggers[3] as f64,
            "count",
            true,
        ),
        metric("host.calib_ns", calib_start, "ns", false),
        metric("host.calib_end_ns", calib_end, "ns", false),
        metric("host.other_cpu_busy_frac", other_busy, "frac", false),
        metric("host.nproc", host::nproc() as f64, "count", false),
        metric("bench.threads", THREADS as f64, "count", true),
        metric("trace.overhead_frac", overhead, "frac", false),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = Args::parse(strings(&[
            "--workload",
            "stream-kws6",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(args.workload, Workload::StreamKws6);
        assert_eq!(args.seed, 3);
        assert_eq!(args.seconds, 10.0);
        assert!(args.trace);
        for bad in [
            &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
            &["--workload", "batch-kws6", "--seed", "x", "--seconds", "1"],
            &["--workload", "batch-kws6", "--seed", "1", "--seconds", "0"],
            &["--workload", "batch-kws6", "--seed", "1"],
            &[
                "--workload",
                "batch-kws6",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--bogus", "1"],
            &["--seed"],
        ] {
            assert!(Args::parse(strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                metric("a_s", 0.123456789012, "s", false),
                metric("b", 42.0, "count", true),
                metric("c", f64::NAN, "ns", false),
            ],
            host: String::new(),
            spans: String::new(),
        };
        assert_eq!(
            outcome.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"a_s\": {\"value\": 0.123456789012, \"unit\": \"s\"}, \
             \"b\": {\"value\": 42, \"unit\": \"count\"}, \
             \"c\": {\"value\": null, \"unit\": \"ns\"}}}"
        );
    }
}
