//! The cycle-accurate engine: controller FSM, HCB register chain, class
//! sum and argmax pipeline stages, driven by an AXI4-Stream master.
//!
//! Cycle semantics mirror the generated RTL exactly: all registers update
//! at the end of a cycle from values computed during it, so the measured
//! latencies are the paper's (Fig 7): a `P`-packet datapoint accepted
//! back-to-back produces its classification `P + 3` cycles after the first
//! packet (HCB chain fill + class-sum + argmax + output register), and the
//! steady-state initiation interval is `P` cycles.
//!
//! The HCB logic itself is the design's [`TurboProgram`], the one
//! lowering the turbo backend also runs: each accepted beat evaluates its
//! window's folded AND tape (`crate::tape`) on a single lane. Engines
//! built from one `Arc<TurboProgram>` share it, so a pool of shards
//! lowers its design once.

use crate::accel::CompiledAccelerator;
use crate::compile::{CompileOptions, CompilePipeline};
use crate::turbo::TurboProgram;
use matador_axi::stream::{AxiStreamMaster, Beat, StreamMonitor};
use std::fmt;
use std::sync::Arc;
use tsetlin::bits::BitVec;
use tsetlin::tm::argmax;

/// Typed failure of a simulation engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The design failed to drain within the cycle bound — a hang, which
    /// on the board is exactly what the auto-debug ILA flow would be
    /// deployed to find.
    DrainBoundExceeded {
        /// The cycle budget that was exhausted.
        max_cycles: u64,
        /// Whether backpressure (`stall`) was asserted when the bound
        /// tripped — the common benign cause.
        stalled: bool,
        /// AXI beats still queued in the stream master.
        pending_beats: usize,
    },
    /// A datapoint's width differs from the design's feature count. Both
    /// engines check a whole batch before they run any of it.
    InputWidth {
        /// Position of the first offending datapoint in the batch.
        index: usize,
        /// The design's feature count.
        expected: usize,
        /// The datapoint's width.
        got: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DrainBoundExceeded {
                max_cycles,
                stalled,
                pending_beats,
            } => {
                write!(
                    f,
                    "simulation did not drain within {max_cycles} cycles \
                     ({pending_beats} beats pending, stall {})",
                    if *stalled { "asserted" } else { "deasserted" }
                )
            }
            SimError::InputWidth {
                index,
                expected,
                got,
            } => write!(
                f,
                "input width mismatch: datapoint {index} has {got} bits, the design takes {expected}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// One classification result leaving the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SimResult {
    /// Winning class index.
    pub winner: usize,
    /// Cycle at which `result_valid` asserted.
    pub cycle: u64,
}

/// Per-cycle observable activity, for the Fig 7 timing diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CycleTrace {
    /// Simulation cycle.
    pub cycle: u64,
    /// Packet accepted this cycle (HCB index), if any.
    pub hcb_en: Option<usize>,
    /// Class-sum stage enabled.
    pub sum_en: bool,
    /// Argmax stage enabled.
    pub argmax_en: bool,
    /// Result register valid.
    pub result_valid: bool,
}

/// The cycle-accurate accelerator simulator.
///
/// # Examples
///
/// See `matador-sim`'s crate-level documentation; the engine is normally
/// driven through [`SimEngine::run_datapoints`].
#[derive(Debug)]
pub struct SimEngine {
    /// The lowered design, shared by every engine built from the same
    /// `Arc`.
    program: Arc<TurboProgram>,
    master: AxiStreamMaster,
    monitor: StreamMonitor,
    /// Registered partial-clause words per HCB (bit `c % 64` of word
    /// `c / 64` is clause `c`).
    hcb_regs: Vec<Vec<u64>>,
    /// Controller packet counter.
    pkt: usize,
    /// Optional extra pipeline stage: registered partial popcounts when
    /// class-sum pipelining is enabled (one more latency cycle).
    sum_stage_pre: Option<Vec<i32>>,
    /// Pipeline: class sums latched last cycle (awaiting argmax).
    sum_stage: Option<Vec<i32>>,
    /// Pipeline: winner latched last cycle (awaiting result register).
    argmax_stage: Option<usize>,
    /// Events scheduled by register writes this cycle.
    sum_en_next: bool,
    cycle: u64,
    stall: bool,
    results: Vec<SimResult>,
    trace: Vec<CycleTrace>,
    trace_enabled: bool,
    /// Two-stage class-sum pipeline (the paper's optional adder pipelining).
    pipelined_sum: bool,
    /// Optional capture of the class sums behind each result (the serving
    /// runtime's determinism proofs compare these bit-for-bit).
    capture_sums: bool,
    /// Pipeline: class sums travelling with [`SimEngine::argmax_stage`]
    /// when capture is enabled.
    sums_stage: Option<Vec<i32>>,
    /// Captured class sums, aligned with [`SimEngine::results`] entries
    /// produced while capture was enabled.
    sums_log: Vec<Vec<i32>>,
    /// Reusable single-lane slot values; a beat writes only its
    /// window's area.
    values: Vec<u64>,
    /// Next value of the written HCB register, swapped in at end of cycle.
    reg_scratch: Vec<u64>,
    /// Recycled class-sum buffers (the pipeline holds at most three).
    sum_free: Vec<Vec<i32>>,
    /// Sum of result-to-result gaps observed within runs, in cycles.
    ii_cycles: u64,
    /// Number of gaps behind [`SimEngine::observed_ii_cycles`].
    ii_samples: u64,
    /// Cycle of the previous result in the current run, if any.
    ii_anchor: Option<u64>,
}

impl SimEngine {
    /// Lowers `accel` to a [`TurboProgram`] without CSE (lower → fold,
    /// the [`CompileOptions::none`] pipeline) and creates an engine in
    /// the post-reset state over it. Pools and other drivers standing up
    /// several engines over one design should compile once and use
    /// [`SimEngine::from_program`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the bus is wider than 64 bits.
    pub fn new(accel: &CompiledAccelerator) -> Self {
        Self::from_program(
            CompilePipeline::new(CompileOptions::none())
                .compile(accel)
                .program,
        )
    }

    /// Creates an engine in the post-reset state over an already-compiled
    /// program, as [`TurboEngine::from_program`](crate::TurboEngine::from_program)
    /// does. The program is immutable, so engines built from one `Arc`
    /// share a single copy and nothing observable changes.
    pub fn from_program(program: impl Into<Arc<TurboProgram>>) -> Self {
        let program: Arc<TurboProgram> = program.into();
        let shape = *program.shape();
        let words = shape.total_clauses().div_ceil(64);
        SimEngine {
            master: AxiStreamMaster::new(),
            monitor: StreamMonitor::new(),
            hcb_regs: vec![vec![0; words]; shape.num_packets()],
            pkt: 0,
            sum_stage_pre: None,
            sum_stage: None,
            argmax_stage: None,
            sum_en_next: false,
            cycle: 0,
            stall: false,
            results: Vec::new(),
            trace: Vec::new(),
            trace_enabled: false,
            pipelined_sum: false,
            capture_sums: false,
            sums_stage: None,
            sums_log: Vec::new(),
            values: program.lane_scratch(),
            reg_scratch: vec![0; words],
            program,
            sum_free: Vec::new(),
            ii_cycles: 0,
            ii_samples: 0,
            ii_anchor: None,
        }
    }

    /// The lowered design this engine runs.
    pub fn program(&self) -> &TurboProgram {
        &self.program
    }

    /// Enables the two-stage (pipelined) class-sum model — one extra cycle
    /// of initial latency, matching designs generated with
    /// `pipeline_class_sum`.
    pub fn set_pipelined_sum(&mut self, pipelined: bool) {
        self.pipelined_sum = pipelined;
    }

    /// Enables per-cycle trace capture (Fig 7).
    pub fn enable_trace(&mut self) {
        self.trace_enabled = true;
    }

    /// Enables capture of the class sums behind every subsequent result
    /// (see [`SimEngine::class_sums_log`]). Enable before streaming — sums
    /// captured mid-pipeline would misalign with their results.
    pub fn set_capture_class_sums(&mut self, capture: bool) {
        self.capture_sums = capture;
    }

    /// Class sums captured for each result produced while
    /// [`SimEngine::set_capture_class_sums`] was enabled, in result order.
    pub fn class_sums_log(&self) -> &[Vec<i32>] {
        &self.sums_log
    }

    /// Queues one datapoint (feature vector) for streaming.
    ///
    /// # Panics
    ///
    /// Panics if the width differs from the accelerator's feature count.
    pub fn queue_datapoint(&mut self, input: &BitVec) {
        let shape = *self.program.shape();
        assert_eq!(input.len(), shape.features, "datapoint width mismatch");
        let p = shape.num_packets();
        for k in 0..p {
            self.master.queue_beat(Beat {
                tdata: input.extract_word(k * shape.bus_width, shape.bus_width),
                tlast: k + 1 == p,
            });
        }
    }

    /// Asserts or releases backpressure (the controller's `stall` input).
    pub fn set_stall(&mut self, stall: bool) {
        self.stall = stall;
    }

    /// Advances one clock cycle.
    ///
    /// An accepted beat's HCB logic runs the window's folded AND tape
    /// from the engine's [`TurboProgram`] on a single lane: the `2W + 2`
    /// prefix slots of the window's area are filled from `tdata`, the
    /// window's AND pairs run branch-free, and the partial-clause words
    /// start from the window's constant-1 mask and gather only the
    /// non-constant outputs.
    ///
    /// The hot path is allocation-free once warmed: window evaluation,
    /// the HCB chain AND and the class-sum computation all reuse engine
    /// scratch, and retired class-sum buffers are recycled through a
    /// small free list (`crates/sim/tests/no_alloc.rs` locks this in
    /// with a counting allocator).
    pub fn step(&mut self) {
        let p = self.program.shape().num_packets();

        // --- combinational phase -----------------------------------------
        let tready = !self.stall;
        let transferred = self.master.advance(tready);
        let mut hcb_en = None;
        let mut new_reg: Option<usize> = None;
        let mut tlast = false;
        if let Some(beat) = transferred {
            self.monitor.capture(self.cycle, beat);
            let k = self.pkt;
            hcb_en = Some(k);
            self.program
                .eval_lane(k, beat.tdata, &mut self.values, &mut self.reg_scratch);
            if k > 0 {
                for (reg, prev) in self.reg_scratch.iter_mut().zip(&self.hcb_regs[k - 1]) {
                    *reg &= prev;
                }
            }
            new_reg = Some(k);
            tlast = beat.tlast;
        }
        // Stage enables derived from last cycle's register writes.
        let sum_en = self.sum_en_next;
        let sums_now = if sum_en {
            let mut sums = self.sum_free.pop().unwrap_or_default();
            self.class_sums_from_regs_into(&mut sums);
            Some(sums)
        } else {
            None
        };
        let argmax_en = self.sum_stage.is_some();
        let winner_now = self.sum_stage.as_ref().map(|s| argmax(s));
        let result_valid = self.argmax_stage.is_some();

        if self.trace_enabled {
            self.trace.push(CycleTrace {
                cycle: self.cycle,
                hcb_en,
                sum_en,
                argmax_en,
                result_valid,
            });
        }
        if let Some(winner) = self.argmax_stage.take() {
            if let Some(sums) = self.sums_stage.take() {
                self.sums_log.push(sums);
            }
            if let Some(prev) = self.ii_anchor {
                self.ii_cycles += self.cycle - prev;
                self.ii_samples += 1;
            }
            self.ii_anchor = Some(self.cycle);
            self.results.push(SimResult {
                winner,
                cycle: self.cycle,
            });
        }

        // --- register update phase (end of cycle) ------------------------
        self.argmax_stage = winner_now;
        // The class sums that fed this cycle's argmax are consumed: they
        // either travel alongside the winner toward the capture log, or
        // return to the free list. Either way no clone is made.
        let consumed = if self.pipelined_sum {
            // Two-stage class sum: popcounts register first, subtract next.
            let pre = self.sum_stage_pre.take();
            self.sum_stage_pre = sums_now;
            std::mem::replace(&mut self.sum_stage, pre)
        } else {
            std::mem::replace(&mut self.sum_stage, sums_now)
        };
        if let Some(sums) = consumed {
            if self.capture_sums {
                self.sums_stage = Some(sums);
            } else if self.sum_free.len() < 4 {
                self.sum_free.push(sums);
            }
        }
        self.sum_en_next = false;
        if let Some(k) = new_reg {
            std::mem::swap(&mut self.hcb_regs[k], &mut self.reg_scratch);
            if tlast {
                assert_eq!(k, p - 1, "TLAST on a non-final packet");
                self.sum_en_next = true;
                self.pkt = 0;
            } else {
                self.pkt = (self.pkt + 1) % p;
            }
        }
        self.cycle += 1;
    }

    /// Whether the stream has drained and every pipeline stage is empty.
    fn drained(&self) -> bool {
        self.master.is_idle()
            && self.sum_stage.is_none()
            && self.sum_stage_pre.is_none()
            && self.argmax_stage.is_none()
            && !self.sum_en_next
    }

    /// Runs until the stream drains and the pipeline empties, with a
    /// safety bound of `max_cycles`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DrainBoundExceeded`] if the design fails to
    /// drain within `max_cycles` (a hang — exactly what the auto-debug
    /// ILA flow would be used to find — or backpressure left asserted).
    pub fn try_run_to_completion(&mut self, max_cycles: u64) -> Result<(), SimError> {
        let start = self.cycle;
        while !self.drained() {
            if self.cycle - start >= max_cycles {
                return Err(SimError::DrainBoundExceeded {
                    max_cycles,
                    stalled: self.stall,
                    pending_beats: self.master.pending(),
                });
            }
            self.step();
        }
        Ok(())
    }

    /// The exact cycle budget needed to stream `datapoints` back-to-back
    /// from the current engine state and drain the pipeline, plus one
    /// cycle of slack.
    ///
    /// Derived from the architecture rather than guessed: `P` cycles per
    /// datapoint (one per AXI packet, including any beats already queued),
    /// then the drain latency of the class-sum (`+1` when pipelined),
    /// argmax and output-register stages. Anything beyond this bound is a
    /// hang by construction.
    pub fn drain_bound(&self, datapoints: usize) -> u64 {
        let p = self.program.shape().num_packets() as u64;
        let queued_beats = self.master.pending() as u64;
        let stream_cycles = datapoints as u64 * p + queued_beats;
        let drain_latency = 3 + u64::from(self.pipelined_sum);
        stream_cycles + drain_latency + 1
    }

    /// Streams `inputs` back-to-back and returns the classifications in
    /// arrival order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InputWidth`] for the first input whose width
    /// differs from the design's features — checked for the whole batch
    /// before any of it is queued, so the engine is left untouched — and
    /// [`SimError::DrainBoundExceeded`] if the design fails to drain
    /// within [`SimEngine::drain_bound`] cycles — e.g. when backpressure
    /// is left asserted via [`SimEngine::set_stall`].
    pub fn run_datapoints(&mut self, inputs: &[BitVec]) -> Result<Vec<SimResult>, SimError> {
        let features = self.program.shape().features;
        if let Some(index) = inputs.iter().position(|x| x.len() != features) {
            return Err(SimError::InputWidth {
                index,
                expected: features,
                got: inputs[index].len(),
            });
        }
        let bound = self.drain_bound(inputs.len());
        let before = self.results.len();
        // Observed-II gaps are measured within a run only; the idle gap
        // between runs says nothing about shard throughput.
        self.ii_anchor = None;
        for x in inputs {
            self.queue_datapoint(x);
        }
        self.try_run_to_completion(bound)?;
        Ok(self.results[before..].to_vec())
    }

    /// All results so far.
    pub fn results(&self) -> &[SimResult] {
        &self.results
    }

    /// Captured per-cycle trace (requires [`SimEngine::enable_trace`]).
    pub fn trace(&self) -> &[CycleTrace] {
        &self.trace
    }

    /// The stream monitor (ILA model).
    pub fn monitor(&self) -> &StreamMonitor {
        &self.monitor
    }

    /// AXI beats still queued in the stream master.
    pub fn pending_beats(&self) -> usize {
        self.master.pending()
    }

    /// Cycles the stream master spent stalled (TVALID high, TREADY low).
    pub fn stream_stall_cycles(&self) -> u64 {
        self.master.stall_cycles()
    }

    /// Completed AXI transfers since construction.
    pub fn stream_transfers(&self) -> u64 {
        self.master.transfers()
    }

    /// Current cycle counter.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Advances the cycle counter by `n` without streaming anything —
    /// the engine sits idle (no beats accepted, no results produced).
    /// Models externally imposed dead time on the shard clock: an
    /// upstream queue delay before a slice starts streaming, or a fault
    /// injector stalling the engine for a scheduled number of cycles.
    /// Subsequent runs start (and stamp results) from the advanced
    /// clock; observed-II statistics are untouched because gaps are only
    /// ever measured within a run.
    pub fn inject_idle_cycles(&mut self, n: u64) {
        self.cycle += n;
    }

    /// Sum of result-to-result gaps observed within runs, in cycles —
    /// `ii_cycles / ii_samples` is the shard's measured steady-state II
    /// (equal to packets/datapoint when streaming unstalled, larger under
    /// backpressure). The latency-aware dispatcher consumes this.
    pub fn observed_ii_cycles(&self) -> u64 {
        self.ii_cycles
    }

    /// Number of gaps behind [`SimEngine::observed_ii_cycles`].
    pub fn observed_ii_samples(&self) -> u64 {
        self.ii_samples
    }

    fn class_sums_from_regs_into(&self, out: &mut Vec<i32>) {
        let shape = self.program.shape();
        let final_regs = &self.hcb_regs[shape.num_packets() - 1];
        shape.sums_from_clause_words_into(final_regs, out);
    }
}

/// Latency/throughput characterization of a simulated run.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LatencyReport {
    /// Cycles from first packet acceptance to first `result_valid`,
    /// inclusive (the paper's "Latency" column, in cycles).
    pub initial_latency_cycles: u64,
    /// Steady-state initiation interval in cycles (= packets/datapoint
    /// when unstalled).
    pub steady_ii_cycles: f64,
}

impl LatencyReport {
    /// Derives the report from a result stream.
    ///
    /// # Panics
    ///
    /// Panics if `results` is empty.
    pub fn from_results(results: &[SimResult], first_packet_cycle: u64) -> LatencyReport {
        assert!(!results.is_empty(), "no results to characterize");
        let initial = results[0].cycle - first_packet_cycle + 1;
        let ii = if results.len() > 1 {
            (results[results.len() - 1].cycle - results[0].cycle) as f64
                / (results.len() - 1) as f64
        } else {
            initial as f64
        };
        LatencyReport {
            initial_latency_cycles: initial,
            steady_ii_cycles: ii,
        }
    }

    /// Latency in microseconds at `clock_mhz`.
    pub fn latency_us(&self, clock_mhz: f64) -> f64 {
        self.initial_latency_cycles as f64 / clock_mhz
    }

    /// Throughput in inferences/second at `clock_mhz`.
    pub fn throughput_inf_s(&self, clock_mhz: f64) -> f64 {
        clock_mhz * 1.0e6 / self.steady_ii_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::AccelShape;
    use matador_logic::cube::{Cube, Lit};
    use matador_logic::dag::Sharing;

    /// 8-feature, 2-window accelerator: class0 votes for x0, class1 for x4.
    fn accel() -> CompiledAccelerator {
        let shape = AccelShape {
            bus_width: 4,
            features: 8,
            classes: 2,
            clauses_per_class: 2,
        };
        let w0 = vec![
            Cube::from_lits([Lit::pos(0)]),
            Cube::from_lits([Lit::pos(1)]),
            Cube::from_lits([Lit::pos(2)]),
            Cube::from_lits([Lit::pos(3)]),
        ];
        let w1 = vec![
            Cube::one(),
            Cube::one(),
            Cube::from_lits([Lit::pos(0)]),
            Cube::one(),
        ];
        CompiledAccelerator::from_window_cubes(shape, &[w0, w1], Sharing::Enabled)
    }

    #[test]
    fn latency_is_packets_plus_three() {
        let a = accel();
        let mut sim = SimEngine::new(&a);
        sim.enable_trace();
        let x = BitVec::from_indices(8, &[0]);
        let results = sim.run_datapoints(&[x]).expect("drains within bound");
        assert_eq!(results.len(), 1);
        // 2 packets + sum + argmax + output register = 5 cycles.
        let report = LatencyReport::from_results(&results, 0);
        assert_eq!(report.initial_latency_cycles, 2 + 3);
    }

    #[test]
    fn steady_state_ii_equals_packet_count() {
        let a = accel();
        let mut sim = SimEngine::new(&a);
        let x = BitVec::from_indices(8, &[0]);
        let inputs = vec![x; 10];
        let results = sim.run_datapoints(&inputs).expect("drains within bound");
        assert_eq!(results.len(), 10);
        let report = LatencyReport::from_results(&results, 0);
        assert!((report.steady_ii_cycles - 2.0).abs() < 1e-9);
    }

    #[test]
    fn classification_matches_reference() {
        let a = accel();
        let mut sim = SimEngine::new(&a);
        let xs = vec![
            BitVec::from_indices(8, &[0]),
            BitVec::from_indices(8, &[2, 4]),
            BitVec::from_indices(8, &[1, 3]),
        ];
        let results = sim.run_datapoints(&xs).expect("drains within bound");
        for (x, r) in xs.iter().zip(&results) {
            let sums = a.reference_class_sums(x);
            let expect = argmax(&sums);
            assert_eq!(r.winner, expect, "input {x}");
        }
    }

    #[test]
    fn stall_blocks_acceptance() {
        let a = accel();
        let mut sim = SimEngine::new(&a);
        sim.queue_datapoint(&BitVec::from_indices(8, &[0]));
        sim.set_stall(true);
        for _ in 0..5 {
            sim.step();
        }
        assert_eq!(sim.results().len(), 0);
        assert_eq!(sim.monitor().records().len(), 0);
        sim.set_stall(false);
        sim.try_run_to_completion(100)
            .expect("drains after stall release");
        assert_eq!(sim.results().len(), 1);
    }

    #[test]
    fn trace_records_pipeline_stages() {
        let a = accel();
        let mut sim = SimEngine::new(&a);
        sim.enable_trace();
        sim.run_datapoints(&[BitVec::from_indices(8, &[0])])
            .expect("drains within bound");
        let trace = sim.trace();
        assert_eq!(trace[0].hcb_en, Some(0));
        assert_eq!(trace[1].hcb_en, Some(1));
        assert!(trace[2].sum_en);
        assert!(trace[3].argmax_en);
        assert!(trace[4].result_valid);
    }

    #[test]
    fn throughput_formula() {
        let report = LatencyReport {
            initial_latency_cycles: 16,
            steady_ii_cycles: 13.0,
        };
        // Paper's MNIST row: 13-packet II at 50 MHz → 3,846,153 inf/s,
        // 0.32 µs initial latency.
        assert!((report.throughput_inf_s(50.0) - 3_846_153.8).abs() < 10.0);
        assert!((report.latency_us(50.0) - 0.32).abs() < 1e-9);
    }

    #[test]
    fn pipelined_sum_adds_one_cycle() {
        let a = accel();
        let mut sim = SimEngine::new(&a);
        sim.set_pipelined_sum(true);
        let x = BitVec::from_indices(8, &[0]);
        let results = sim
            .run_datapoints(&[x.clone(), x.clone(), x])
            .expect("drains within bound");
        let report = LatencyReport::from_results(&results, 0);
        // 2 packets + popcount stage + subtract stage + argmax + output.
        assert_eq!(report.initial_latency_cycles, 2 + 4);
        // Throughput (II) is unchanged: still bandwidth-bound.
        assert!((report.steady_ii_cycles - 2.0).abs() < 1e-9);
        // Classifications are unaffected, just later.
        for r in &results {
            assert_eq!(r.winner, 0);
        }
    }

    #[test]
    fn captured_class_sums_match_reference() {
        let a = accel();
        for pipelined in [false, true] {
            let mut sim = SimEngine::new(&a);
            sim.set_pipelined_sum(pipelined);
            sim.set_capture_class_sums(true);
            let xs = vec![
                BitVec::from_indices(8, &[0]),
                BitVec::from_indices(8, &[2, 4]),
                BitVec::from_indices(8, &[1, 3]),
            ];
            let results = sim.run_datapoints(&xs).expect("drains within bound");
            let log = sim.class_sums_log();
            assert_eq!(log.len(), results.len(), "pipelined={pipelined}");
            for ((x, r), sums) in xs.iter().zip(&results).zip(log) {
                assert_eq!(sums, &a.reference_class_sums(x), "input {x}");
                assert_eq!(r.winner, argmax(sums));
            }
        }
        // Capture off: the log stays empty.
        let mut plain = SimEngine::new(&a);
        plain
            .run_datapoints(&[BitVec::zeros(8)])
            .expect("drains within bound");
        assert!(plain.class_sums_log().is_empty());
    }

    #[test]
    fn observed_ii_measures_within_run_gaps_only() {
        let a = accel(); // 2 packets
        let mut sim = SimEngine::new(&a);
        let x = BitVec::from_indices(8, &[0]);
        // 4 back-to-back datapoints: 3 gaps of exactly P cycles.
        sim.run_datapoints(&vec![x.clone(); 4]).expect("drains");
        assert_eq!(sim.observed_ii_samples(), 3);
        assert_eq!(sim.observed_ii_cycles(), 3 * 2);
        // A second run adds its own gaps but no cross-run gap.
        sim.run_datapoints(&vec![x.clone(); 2]).expect("drains");
        assert_eq!(sim.observed_ii_samples(), 4);
        assert_eq!(sim.observed_ii_cycles(), 4 * 2);
        // Single-datapoint runs contribute no samples.
        sim.run_datapoints(&[x]).expect("drains");
        assert_eq!(sim.observed_ii_samples(), 4);
    }

    #[test]
    fn monitor_sees_all_packets() {
        let a = accel();
        let mut sim = SimEngine::new(&a);
        sim.run_datapoints(&[BitVec::zeros(8), BitVec::zeros(8)])
            .expect("drains within bound");
        assert_eq!(sim.monitor().records().len(), 4);
        assert_eq!(sim.monitor().datapoints(), 2);
    }

    #[test]
    fn drain_bound_derives_from_pipeline_depth() {
        let a = accel(); // 2 packets
        let mut sim = SimEngine::new(&a);
        // n*P packets + 3 drain stages + 1 slack.
        assert_eq!(sim.drain_bound(1), 2 + 3 + 1);
        assert_eq!(sim.drain_bound(10), 20 + 3 + 1);
        sim.set_pipelined_sum(true);
        assert_eq!(sim.drain_bound(1), 2 + 4 + 1);
        // Beats already queued extend the bound.
        sim.set_pipelined_sum(false);
        sim.queue_datapoint(&BitVec::zeros(8));
        assert_eq!(sim.drain_bound(1), 2 + 2 + 3 + 1);
    }

    #[test]
    fn stalled_run_returns_typed_error_instead_of_panicking() {
        let a = accel();
        let mut sim = SimEngine::new(&a);
        sim.set_stall(true);
        let err = sim
            .run_datapoints(&[BitVec::from_indices(8, &[0])])
            .expect_err("stalled stream cannot drain");
        assert!(matches!(
            err,
            SimError::DrainBoundExceeded {
                stalled: true,
                pending_beats: 2,
                ..
            }
        ));
        assert!(err.to_string().contains("did not drain"));
        // Releasing backpressure lets the same engine finish the stream.
        sim.set_stall(false);
        sim.try_run_to_completion(sim.drain_bound(0))
            .expect("drains after stall release");
        assert_eq!(sim.results().len(), 1);
    }

    #[test]
    fn wrong_width_batch_is_rejected_before_anything_streams() {
        let a = accel();
        let mut sim = SimEngine::new(&a);
        let batch = [BitVec::zeros(8), BitVec::zeros(8), BitVec::zeros(7)];
        assert_eq!(
            sim.run_datapoints(&batch),
            Err(SimError::InputWidth {
                index: 2,
                expected: 8,
                got: 7,
            })
        );
        assert_eq!(sim.pending_beats(), 0);
        assert_eq!(sim.cycle(), 0);
        assert!(sim.results().is_empty());
        // The engine is still usable for a well-formed batch.
        let ok = sim.run_datapoints(&batch[..2]).expect("drains");
        assert_eq!(ok.len(), 2);
    }
}
