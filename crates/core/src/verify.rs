//! Automated design verification — the dark-pink path of Fig 6.
//!
//! Two independent checks, mirroring what the paper's auto-debug flow
//! (auto-generated testbench + ILA cores) establishes on the board:
//!
//! 1. **Gate-level equivalence**: every window's emitted netlist is
//!    simulated against the clause cubes on directed + random vectors.
//! 2. **System-level equivalence**: the full design is run through the
//!    cycle-accurate simulator on real datapoints and every streamed
//!    classification is compared with software inference.
//!
//! The software oracle of check 2 is [`tsetlin::TrainedModel::predict_batch`]:
//! it fires each clause from the list of literals it includes, bit-sliced
//! over 64 samples per pass, straight from the trained model. It shares no
//! code with the window DAGs, the netlists or the simulator's tape, so it
//! stays an independent reference for the hardware it checks.

use crate::design::AcceleratorDesign;
use matador_logic::cube::Cube;
use matador_rtl::Netlist;
use matador_sim::{CompiledAccelerator, SimEngine, SimError, SimResult};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tsetlin::bits::BitVec;
use tsetlin::Sample;

/// Outcome of the verification flow.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct VerificationReport {
    /// Random + directed gate-level vectors checked per window.
    pub gate_vectors: usize,
    /// Gate-level mismatches (must be 0).
    pub gate_mismatches: usize,
    /// Datapoints streamed through the cycle simulator.
    pub system_vectors: usize,
    /// Cycle-sim vs software mismatches (must be 0).
    pub system_mismatches: usize,
    /// AXI beats observed by the ILA monitor.
    pub beats_observed: usize,
}

impl VerificationReport {
    /// Whether the design passed both checks.
    pub fn passed(&self) -> bool {
        self.gate_mismatches == 0 && self.system_mismatches == 0
    }
}

/// Verifies `design` against its own model on `samples`.
///
/// `gate_vectors_per_window` random vectors (plus all-zeros/all-ones) are
/// applied to every window netlist, 64 vectors per machine word; all
/// `samples` are streamed through the cycle-accurate simulator.
///
/// # Errors
///
/// Returns [`SimError::InputWidth`] if a sample's width differs from the
/// model's feature count (nothing is streamed then), and
/// [`SimError::DrainBoundExceeded`] if the cycle simulator fails to drain
/// the streamed samples (impossible for generated designs under no
/// backpressure, but surfaced as a typed error rather than a panic).
pub fn verify_design(
    design: &AcceleratorDesign,
    samples: &[Sample],
    gate_vectors_per_window: usize,
    seed: u64,
) -> Result<VerificationReport, SimError> {
    let accel = design.compile_for_sim();
    verify_compiled(design, &accel, samples, gate_vectors_per_window, seed)
        .map(|verified| verified.report)
}

/// What [`verify_compiled`] observed besides its report, so the flow
/// reads its latency and accuracy from the same runs.
pub(crate) struct Verified {
    /// The verification report.
    pub(crate) report: VerificationReport,
    /// The cycle engine's result per sample, streamed back-to-back from
    /// cycle 0 on a fresh engine.
    pub(crate) results: Vec<SimResult>,
    /// Software inference's prediction per sample, from the model's
    /// literal-list, bit-sliced oracle (independent of the DAGs and the
    /// tape).
    pub(crate) predictions: Vec<usize>,
}

/// [`verify_design`] on an accelerator already compiled from `design`,
/// so a caller that also simulates the design compiles it once.
pub(crate) fn verify_compiled(
    design: &AcceleratorDesign,
    accel: &CompiledAccelerator,
    samples: &[Sample],
    gate_vectors_per_window: usize,
    seed: u64,
) -> Result<Verified, SimError> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5645_5249_4659); // "VERIFY"
    let w = design.config().bus_width();

    // 1. Gate-level equivalence per window. Each vector is one word
    //    (bus widths are at most 64 bits), drawn one bit at a time.
    let mut gate_vectors = 0usize;
    let mut gate_mismatches = 0usize;
    for (wi, cubes) in design.windows().iter().enumerate() {
        let random = (0..gate_vectors_per_window)
            .map(|_| (0..w).fold(0u64, |word, bit| word | u64::from(rng.gen::<bool>()) << bit));
        let vectors: Vec<u64> = [0, u64::MAX >> (64 - w)]
            .into_iter()
            .chain(random)
            .collect();
        gate_vectors += vectors.len();
        gate_mismatches += window_mismatches(design.window_netlist(wi), cubes, &vectors);
    }

    // 2. System-level equivalence through the cycle simulator.
    let mut sim = SimEngine::new(accel);
    sim.set_pipelined_sum(design.config().pipeline_class_sum());
    let inputs: Vec<BitVec> = samples.iter().map(|s| s.input.clone()).collect();
    // The cycle run checks every sample's width, so a wrong-width sample
    // returns a typed error before the oracle sees it.
    let results = sim.run_datapoints(&inputs)?;
    let predictions = design.model().predict_batch(&inputs);
    let system_mismatches = predictions
        .iter()
        .zip(&results)
        .filter(|(&p, r)| p != r.winner)
        .count();

    let report = VerificationReport {
        gate_vectors,
        gate_mismatches,
        system_vectors: samples.len(),
        system_mismatches,
        beats_observed: sim.monitor().records().len(),
    };
    Ok(Verified {
        report,
        results,
        predictions,
    })
}

/// Counts `(vector, clause)` pairs where `netlist`'s output differs from
/// its clause cube, over `vectors` (bit `b` of a vector is input port
/// `b`). Runs 64 vectors per pass: each chunk is transposed to one lane
/// word per input port, the netlist is evaluated once over the lanes,
/// each cube's expected output is the AND of its literals' lane words,
/// and only the lanes holding a vector are counted.
fn window_mismatches(netlist: &Netlist, cubes: &[Cube], vectors: &[u64]) -> usize {
    let width = netlist.inputs().len();
    let mut lanes = vec![0u64; width];
    let mut mismatches = 0usize;
    for chunk in vectors.chunks(64) {
        lanes.fill(0);
        for (j, &vector) in chunk.iter().enumerate() {
            for (b, lane) in lanes.iter_mut().enumerate() {
                *lane |= ((vector >> b) & 1) << j;
            }
        }
        let valid = if chunk.len() == 64 {
            !0
        } else {
            (1u64 << chunk.len()) - 1
        };
        let outs = netlist.eval_lanes(&lanes);
        for (out, cube) in outs.iter().zip(cubes) {
            // A contradictory cube (`x & ¬x`) ANDs to zero in every lane.
            let expect = cube.lits().iter().fold(!0u64, |acc, lit| {
                let lane = lanes[lit.bit() as usize];
                acc & if lit.is_negated() { !lane } else { lane }
            });
            mismatches += ((out ^ expect) & valid).count_ones() as usize;
        }
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatadorConfig;
    use matador_logic::dag::Sharing;
    use matador_rtl::Gate;
    use std::collections::HashMap;
    use tsetlin::model::{IncludeMask, TrainedModel};

    fn model() -> TrainedModel {
        let f = 8;
        let mk = |pos: &[usize], neg: &[usize]| IncludeMask {
            pos: BitVec::from_indices(f, pos),
            neg: BitVec::from_indices(f, neg),
        };
        TrainedModel::from_masks(
            f,
            2,
            2,
            vec![mk(&[0], &[4]), mk(&[], &[]), mk(&[4], &[0]), mk(&[6], &[])],
        )
    }

    fn samples() -> Vec<Sample> {
        (0..16u32)
            .map(|v| {
                let x = BitVec::from_bools((0..8).map(|b| (v >> b) & 1 == 1));
                Sample::new(x, (v % 2) as usize)
            })
            .collect()
    }

    #[test]
    fn clean_design_verifies() {
        let config = MatadorConfig::builder()
            .bus_width(4)
            .build()
            .expect("valid");
        let design = AcceleratorDesign::generate(model(), config);
        let report = verify_design(&design, &samples(), 16, 1).expect("drains");
        assert!(report.passed(), "{report:?}");
        assert_eq!(report.system_vectors, 16);
        // 2 windows × (16 random + 2 directed).
        assert_eq!(report.gate_vectors, 36);
        assert_eq!(report.beats_observed, 32); // 16 datapoints × 2 packets
    }

    #[test]
    fn dont_touch_design_also_verifies() {
        let config = MatadorConfig::builder()
            .bus_width(4)
            .sharing(Sharing::DontTouch)
            .build()
            .expect("valid");
        let design = AcceleratorDesign::generate(model(), config);
        let report = verify_design(&design, &samples(), 8, 2).expect("drains");
        assert!(report.passed(), "{report:?}");
    }

    /// The per-vector check the lane check replaces: one `Netlist::eval`
    /// and one scalar cube evaluation per vector.
    fn per_vector_mismatches(netlist: &Netlist, cubes: &[Cube], vectors: &[u64]) -> usize {
        let w = netlist.inputs().len();
        vectors
            .iter()
            .map(|&v| {
                let input = BitVec::from_word(w, v);
                let outs = netlist.eval(&input);
                cubes
                    .iter()
                    .enumerate()
                    .filter(|&(c, cube)| outs[c] != (!cube.is_contradictory() && cube.eval(&input)))
                    .count()
            })
            .sum()
    }

    /// A copy of `netlist` whose AND gate number `target` (in gate order)
    /// drives its net through an inverter.
    fn with_inverted_and(netlist: &Netlist, target: usize) -> Netlist {
        let mut out = Netlist::new("faulty");
        let mut net = HashMap::new();
        for &i in netlist.inputs() {
            net.insert(i, out.add_input(netlist.net_name(i)));
        }
        for (gi, gate) in netlist.gates().iter().enumerate() {
            let y = match *gate {
                Gate::And2 { a, b, y } => {
                    let and = out.and2(net[&a], net[&b], netlist.net_name(y));
                    if gi == target {
                        out.not(and, "fault")
                    } else {
                        and
                    }
                }
                Gate::Not { a, y } => out.not(net[&a], netlist.net_name(y)),
                Gate::Const { value, y } => out.constant(value, netlist.net_name(y)),
            };
            net.insert(gate.output(), y);
        }
        for o in netlist.outputs() {
            out.add_output(net[o]);
        }
        out
    }

    #[test]
    fn lane_check_counts_injected_faults_like_the_per_vector_check() {
        let config = MatadorConfig::builder()
            .bus_width(4)
            .build()
            .expect("valid");
        let design = AcceleratorDesign::generate(model(), config);
        let mut rng = SmallRng::seed_from_u64(9);
        // 2 directed + 100 random vectors: one full chunk of 64 and a
        // last chunk of 38 with 26 unused lanes.
        let mut vectors = vec![0, 0b1111];
        vectors.extend((0..100).map(|_| rng.gen::<u64>() & 0b1111));
        assert_eq!(vectors.len(), 102);

        let mut caught = 0;
        for window in 0..design.num_hcbs() {
            let netlist = design.window_netlist(window);
            let cubes = &design.windows()[window];
            assert_eq!(window_mismatches(netlist, cubes, &vectors), 0);
            let ands: Vec<usize> = (netlist.gates().iter().enumerate())
                .filter(|(_, g)| matches!(g, Gate::And2 { .. }))
                .map(|(gi, _)| gi)
                .collect();
            for gi in ands {
                let faulty = with_inverted_and(netlist, gi);
                faulty.validate().expect("valid netlist");
                let lanes = window_mismatches(&faulty, cubes, &vectors);
                assert_eq!(
                    lanes,
                    per_vector_mismatches(&faulty, cubes, &vectors),
                    "window {window} gate {gi}"
                );
                caught += usize::from(lanes > 0);
            }
            // Inverting an output's port buffer makes that output wrong on
            // every vector: exactly 102 mismatches, none from tail lanes.
            let last = netlist.gates().len() - 1;
            let faulty = with_inverted_and(netlist, last);
            assert_eq!(window_mismatches(&faulty, cubes, &vectors), 102);
        }
        assert!(caught > 0, "no injected fault was caught");
    }

    #[test]
    fn report_passed_logic() {
        let mut r = VerificationReport {
            gate_vectors: 1,
            gate_mismatches: 0,
            system_vectors: 1,
            system_mismatches: 0,
            beats_observed: 1,
        };
        assert!(r.passed());
        r.system_mismatches = 1;
        assert!(!r.passed());
    }
}
