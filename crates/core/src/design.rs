//! The generated accelerator design: bandwidth-driven partitioning of a
//! trained model into HCBs, plus implementation, simulation-compilation
//! and RTL emission views of it.
//!
//! This is the artifact at the centre of the MATADOR flow (Fig 5/Fig 6):
//! everything downstream — Verilog, resource/timing/power reports, the
//! cycle-accurate simulation, the auto-debug testbench — is derived from
//! one `AcceleratorDesign`. The design owns each window's gate-level
//! netlist: built on first use, once per design, and borrowed by both
//! verification and Verilog emission.

use crate::config::MatadorConfig;
use matador_logic::cube::contradictory;
use matador_logic::dag::{LogicDag, Sharing};
use matador_logic::share::{optimize_window, WindowLits};
use matador_rtl::gen::{self, DesignParams, TestVector};
use matador_rtl::verilog::{emit_netlist, EmitOptions};
use matador_rtl::Netlist;
use matador_sim::{AccelShape, CompiledAccelerator};
use matador_synth::mapper::{map_dag, LUT_K};
use matador_synth::power::PowerModel;
use matador_synth::report::ImplementationReport;
use matador_synth::resources::{estimate_design, ArchParams, HcbLogic};
use matador_synth::timing::{matador_paths, TimingModel};
use std::sync::{Arc, OnceLock};
use tsetlin::bits::BitVec;
use tsetlin::model::TrainedModel;
use tsetlin::Sample;

/// One generated Verilog source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerilogFile {
    /// Suggested file name, e.g. `"hcb_3.v"`.
    pub name: String,
    /// File contents.
    pub contents: String,
}

/// A fully partitioned accelerator design for one trained model.
#[derive(Debug, Clone)]
pub struct AcceleratorDesign {
    config: MatadorConfig,
    model: TrainedModel,
    /// One cube per clause per window, class-major, listed once from the
    /// model's masks: the optimizer's input and verification's oracle.
    windows: WindowLits,
    /// Optimized (or DON'T TOUCH) DAG per window, shared with every
    /// [`CompiledAccelerator`] compiled from the design.
    dags: Arc<[LogicDag]>,
    /// Gate-level netlist per window, `hcb_{k}_logic`, lowered from `dags`
    /// on first use (a design that is never verified or emitted, such as
    /// one only compiled for serving, never pays for them).
    netlists: Vec<OnceLock<Netlist>>,
    /// Per-window mapped-logic measurements.
    hcb_logic: Vec<HcbLogic>,
    /// Max LUT depth over all windows.
    hcb_depth: u32,
}

impl AcceleratorDesign {
    /// Partitions `model` per `config` and technology-maps every window.
    ///
    /// Window optimization and LUT mapping are independent per window, so
    /// they run on [`matador_par::configured_threads`] worker threads;
    /// results are collected in window order, making the generated design
    /// identical at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if the model has no clauses (never produced by training).
    pub fn generate(model: TrainedModel, config: MatadorConfig) -> Self {
        Self::generate_with_threads(model, config, matador_par::configured_threads())
    }

    /// [`AcceleratorDesign::generate`] with an explicit worker-thread
    /// count (`1` forces the sequential in-caller path). The generated
    /// design never depends on `threads`.
    pub fn generate_with_threads(
        model: TrainedModel,
        config: MatadorConfig,
        threads: usize,
    ) -> Self {
        let windows = WindowLits::new(&model, config.bus_width());
        let sharing = config.sharing();

        let prefix_regs = match sharing {
            Sharing::Enabled => windows.prefix_register_counts(),
            Sharing::DontTouch => vec![model.total_clauses(); windows.num_windows()],
        };

        // Per-window logic optimization + LUT mapping, the generation hot
        // path: each window is independent, so fan out across workers.
        let window_ids: Vec<usize> = (0..windows.num_windows()).collect();
        let per_window: Vec<(LogicDag, HcbLogic, u32)> =
            matador_par::par_map_with(threads, &window_ids, |&k| {
                let cubes = windows.window(k);
                let dag = optimize_window(config.bus_width(), cubes, sharing);
                let mapping = map_dag(&dag, LUT_K);
                let depth = mapping.depth;
                let regs = prefix_regs[k];
                let logic = match sharing {
                    Sharing::Enabled => {
                        // The AND with the incoming partial-clause bit is
                        // absorbed into the root LUT when the root cut
                        // leaves a spare input.
                        let chain_and_luts = mapping
                            .output_cut_widths
                            .iter()
                            .filter(|&&w| w >= LUT_K)
                            .count();
                        HcbLogic {
                            luts: mapping.lut_count(),
                            registers: regs,
                            chain_and_luts,
                        }
                    }
                    Sharing::DontTouch => {
                        // DON'T TOUCH pins every emitted net, so technology
                        // mapping cannot pack cones: every AND2 and inverter
                        // becomes its own LUT, and each non-trivial clause
                        // keeps a dedicated clause-chain AND (Fig 8's
                        // measured behaviour).
                        let nontrivial = cubes
                            .iter()
                            .filter(|c| !c.is_empty() && !contradictory(c))
                            .count();
                        HcbLogic {
                            luts: dag.and2_count() + dag.inverter_count(),
                            registers: regs,
                            chain_and_luts: nontrivial,
                        }
                    }
                };
                (dag, logic, depth)
            });

        let mut dags = Vec::with_capacity(per_window.len());
        let mut hcb_logic = Vec::with_capacity(per_window.len());
        let mut hcb_depth = 0u32;
        for (dag, logic, depth) in per_window {
            hcb_depth = hcb_depth.max(depth);
            dags.push(dag);
            hcb_logic.push(logic);
        }
        let netlists = dags.iter().map(|_| OnceLock::new()).collect();

        AcceleratorDesign {
            config,
            model,
            windows,
            dags: dags.into(),
            netlists,
            hcb_logic,
            hcb_depth,
        }
    }

    /// The configuration the design was generated with.
    pub fn config(&self) -> &MatadorConfig {
        &self.config
    }

    /// The trained model the design implements.
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// HCB count (= packets per datapoint).
    pub fn num_hcbs(&self) -> usize {
        self.windows.num_windows()
    }

    /// Per-window mapped-logic measurements (Fig 8's per-HCB series).
    pub fn hcb_logic(&self) -> &[HcbLogic] {
        &self.hcb_logic
    }

    /// Maximum LUT depth over the HCB windows.
    pub fn hcb_depth(&self) -> u32 {
        self.hcb_depth
    }

    /// The architectural parameter block shared with the estimators.
    pub fn arch_params(&self) -> ArchParams {
        ArchParams {
            bus_width: self.config.bus_width(),
            num_packets: self.num_hcbs(),
            classes: self.model.num_classes(),
            clauses_per_class: self.model.clauses_per_class(),
        }
    }

    /// RTL generation parameters.
    pub fn design_params(&self) -> DesignParams {
        DesignParams {
            name: self.config.design_name().to_string(),
            bus_width: self.config.bus_width(),
            num_packets: self.num_hcbs(),
            num_clauses: self.model.total_clauses(),
            classes: self.model.num_classes(),
            clauses_per_class: self.model.clauses_per_class(),
            pipeline_class_sum: self.config.pipeline_class_sum(),
        }
    }

    /// Runs "implementation": resources, timing and power at the resolved
    /// operating clock — the Vivado-report stand-in.
    pub fn implement(&self) -> ImplementationReport {
        let arch = self.arch_params();
        let mut resources = estimate_design(&arch, &self.hcb_logic);
        let pipelined = self.config.pipeline_class_sum();
        if pipelined {
            // Stage registers for the split popcounts (2 per class).
            resources.registers += 2 * arch.classes * arch.sum_width() + 1;
        }
        let timing_model = TimingModel::default();
        let mut paths = matador_paths(
            &timing_model,
            self.hcb_depth,
            arch.clauses_per_class,
            arch.classes,
            arch.sum_width(),
        );
        if pipelined {
            // The popcount tree and subtractor now sit in separate
            // register-to-register paths; halve the class-sum path.
            for p in &mut paths {
                if p.name == "class sum" {
                    p.delay_ns =
                        timing_model.overhead_ns + (p.delay_ns - timing_model.overhead_ns) / 2.0;
                }
            }
        }
        let fmax = timing_model.fmax_mhz(&paths);
        let clock = self.config.resolve_clock_mhz(fmax);
        let power = PowerModel::default().estimate(self.config.device(), &resources, clock);
        ImplementationReport {
            design: self.config.design_name().to_string(),
            device: self.config.device().name.clone(),
            resources,
            fmax_mhz: fmax,
            clock_mhz: clock,
            power,
            paths,
        }
    }

    /// Compiles the design for the cycle-accurate simulator from its
    /// generated window DAGs, which the accelerator shares (no window is
    /// optimized or copied twice).
    pub fn compile_for_sim(&self) -> CompiledAccelerator {
        CompiledAccelerator::from_shape_windows(self.accel_shape(), Arc::clone(&self.dags))
    }

    /// The simulator's view of the design's architecture.
    fn accel_shape(&self) -> AccelShape {
        AccelShape {
            bus_width: self.config.bus_width(),
            features: self.model.num_features(),
            classes: self.model.num_classes(),
            clauses_per_class: self.model.clauses_per_class(),
        }
    }

    /// Emits the complete Verilog file set: one HCB per window, class sum,
    /// argmax, controller and top level.
    ///
    /// # Errors
    ///
    /// Returns [`matador_rtl::GenError`] if a window netlist's shape does
    /// not match the design parameters (impossible for designs produced by
    /// [`AcceleratorDesign::generate`], but surfaced as a typed error for
    /// hand-assembled designs).
    pub fn emit_verilog(&self) -> Result<Vec<VerilogFile>, matador_rtl::GenError> {
        let params = self.design_params();
        let dont_touch = self.config.sharing() == Sharing::DontTouch;
        let mut files: Vec<VerilogFile> = (0..self.num_hcbs())
            .map(|k| {
                Ok(VerilogFile {
                    name: format!("hcb_{k}.v"),
                    contents: gen::hcb_module(k, &params, self.window_netlist(k), dont_touch)?,
                })
            })
            .collect::<Result<_, matador_rtl::GenError>>()?;
        files.push(VerilogFile {
            name: "class_sum.v".into(),
            contents: gen::class_sum_module(&params),
        });
        files.push(VerilogFile {
            name: "argmax.v".into(),
            contents: gen::argmax_module(&params),
        });
        files.push(VerilogFile {
            name: "controller.v".into(),
            contents: gen::controller_module(&params),
        });
        files.push(VerilogFile {
            name: format!("{}.v", params.name),
            contents: gen::top_module(&params),
        });
        Ok(files)
    }

    /// Emits the auto-debug testbench for `samples` (expected outputs come
    /// from software inference, [`TrainedModel::predict_batch`] — Fig 6's
    /// dark-pink verification path).
    ///
    /// # Errors
    ///
    /// Returns [`matador_rtl::GenError`] if packetization produces a
    /// packet count that disagrees with the design parameters.
    pub fn emit_testbench(&self, samples: &[Sample]) -> Result<VerilogFile, matador_rtl::GenError> {
        let params = self.design_params();
        let packetizer =
            matador_axi::Packetizer::new(self.model.num_features(), self.config.bus_width());
        let inputs: Vec<BitVec> = samples.iter().map(|s| s.input.clone()).collect();
        let vectors: Vec<TestVector> = inputs
            .iter()
            .zip(self.model.predict_batch(&inputs))
            .map(|(x, expected)| TestVector {
                packets: packetizer.packetize(x),
                expected,
            })
            .collect();
        Ok(VerilogFile {
            name: format!("tb_{}.v", params.name),
            contents: gen::testbench_module(&params, &vectors)?,
        })
    }

    /// Gate-level netlist of one window's clause logic, `hcb_{window}_logic`
    /// (the logic [`AcceleratorDesign::emit_verilog`] embeds in HCB
    /// `window`, and what verification checks gate by gate). Lowered from
    /// the window DAG on the first call and kept, so a design builds each
    /// netlist at most once.
    ///
    /// # Panics
    ///
    /// Panics if `window` is out of range.
    pub fn window_netlist(&self, window: usize) -> &Netlist {
        self.netlists[window]
            .get_or_init(|| Netlist::from_dag(format!("hcb_{window}_logic"), &self.dags[window]))
    }

    /// Structural Verilog of one window's clause logic.
    pub fn window_verilog(&self, window: usize) -> String {
        emit_netlist(
            self.window_netlist(window),
            EmitOptions {
                dont_touch: self.config.sharing() == Sharing::DontTouch,
            },
        )
    }

    /// The per-window cubes (class-major clause order), as listed from
    /// the model ([`WindowLits::to_cubes`] gives them as values).
    pub fn windows(&self) -> &WindowLits {
        &self.windows
    }

    /// The optimized window DAGs.
    pub fn dags(&self) -> &[LogicDag] {
        &self.dags
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsetlin::model::IncludeMask;

    fn small_model() -> TrainedModel {
        let f = 12;
        let mk = |pos: &[usize], neg: &[usize]| IncludeMask {
            pos: BitVec::from_indices(f, pos),
            neg: BitVec::from_indices(f, neg),
        };
        TrainedModel::from_masks(
            f,
            2,
            4,
            vec![
                mk(&[0, 1], &[]),
                mk(&[], &[5]),
                mk(&[0, 1], &[8]),
                mk(&[], &[]),
                mk(&[2], &[3]),
                mk(&[9, 10], &[]),
                mk(&[0, 1], &[]),
                mk(&[11], &[0]),
            ],
        )
    }

    fn config(bus: usize) -> MatadorConfig {
        MatadorConfig::builder()
            .bus_width(bus)
            .design_name("unit_top")
            .build()
            .expect("valid config")
    }

    #[test]
    fn partitioning_counts() {
        let d = AcceleratorDesign::generate(small_model(), config(4));
        assert_eq!(d.num_hcbs(), 3); // 12 features / 4 bits
        assert_eq!(d.windows().window(0).len(), 8); // one cube per clause
        assert_eq!(d.design_params().num_clauses, 8);
    }

    #[test]
    fn implement_produces_coherent_report() {
        let d = AcceleratorDesign::generate(small_model(), config(4));
        let r = d.implement();
        assert!(r.resources.luts() > 0);
        assert!(r.fmax_mhz > 0.0);
        assert!(r.clock_mhz <= 50.0); // Auto policy floors at 50
        assert!(r.meets_timing());
        assert!(r.power.total_w() > r.power.dynamic_w());
    }

    #[test]
    fn dont_touch_design_is_larger() {
        let opt = AcceleratorDesign::generate(small_model(), config(4));
        let dt_config = MatadorConfig::builder()
            .bus_width(4)
            .sharing(Sharing::DontTouch)
            .build()
            .expect("valid");
        let dt = AcceleratorDesign::generate(small_model(), dt_config);
        let opt_luts: usize = opt.hcb_logic().iter().map(|h| h.luts).sum();
        let dt_luts: usize = dt.hcb_logic().iter().map(|h| h.luts).sum();
        assert!(dt_luts > opt_luts, "dt {dt_luts} !> opt {opt_luts}");
        let opt_regs: usize = opt.hcb_logic().iter().map(|h| h.registers).sum();
        let dt_regs: usize = dt.hcb_logic().iter().map(|h| h.registers).sum();
        assert!(dt_regs > opt_regs);
    }

    #[test]
    fn pipelined_class_sum_trades_registers_for_fmax() {
        let plain = AcceleratorDesign::generate(small_model(), config(4)).implement();
        let pipelined_config = MatadorConfig::builder()
            .bus_width(4)
            .pipeline_class_sum(true)
            .build()
            .expect("valid");
        let pipelined = AcceleratorDesign::generate(small_model(), pipelined_config).implement();
        assert!(pipelined.resources.registers > plain.resources.registers);
        assert!(pipelined.fmax_mhz >= plain.fmax_mhz);
    }

    #[test]
    fn emitted_fileset_is_complete() {
        let d = AcceleratorDesign::generate(small_model(), config(4));
        let files = d
            .emit_verilog()
            .expect("generated designs have valid shapes");
        let names: Vec<&str> = files.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "hcb_0.v",
                "hcb_1.v",
                "hcb_2.v",
                "class_sum.v",
                "argmax.v",
                "controller.v",
                "unit_top.v"
            ]
        );
        for f in &files {
            assert!(f.contents.contains("module "), "{} empty", f.name);
        }
    }

    #[test]
    fn sim_compilation_matches_model_inference() {
        let model = small_model();
        let d = AcceleratorDesign::generate(model.clone(), config(4));
        let accel = d.compile_for_sim();
        for bits in [vec![0usize, 1], vec![5, 9, 10], vec![2, 11]] {
            let x = BitVec::from_indices(12, &bits);
            assert_eq!(
                accel.reference_class_sums(&x),
                model.class_sums(&x),
                "divergence on {bits:?}"
            );
        }
    }

    #[test]
    fn compile_for_sim_reuses_the_generated_windows() {
        let model = small_model();
        for (bus, sharing) in [
            (4, Sharing::Enabled),
            (4, Sharing::DontTouch),
            (5, Sharing::Enabled),
            (5, Sharing::DontTouch),
        ] {
            let cfg = MatadorConfig::builder()
                .bus_width(bus)
                .sharing(sharing)
                .build()
                .expect("valid");
            let design = AcceleratorDesign::generate(model.clone(), cfg);
            let reference = CompiledAccelerator::from_window_cubes(
                design.accel_shape(),
                &design.windows().to_cubes(),
                sharing,
            );
            let accel = design.compile_for_sim();
            // The accelerator shares the design's DAGs; it copies none.
            assert!(std::ptr::eq(accel.windows(), design.dags()));
            assert_eq!(accel.shape(), reference.shape());
            assert_eq!(accel.windows().len(), reference.windows().len());
            for (got, want) in accel.windows().iter().zip(reference.windows()) {
                assert_eq!(got.nodes(), want.nodes(), "W {bus} {sharing:?}");
                assert_eq!(got.outputs(), want.outputs(), "W {bus} {sharing:?}");
                assert_eq!(got.width(), want.width());
            }
            for bits in [vec![], vec![0usize, 1], vec![5, 9, 10], vec![2, 3, 11]] {
                let x = BitVec::from_indices(12, &bits);
                assert_eq!(
                    accel.reference_class_sums(&x),
                    reference.reference_class_sums(&x)
                );
            }
        }
    }

    #[test]
    fn testbench_embeds_expected_labels() {
        let model = small_model();
        let d = AcceleratorDesign::generate(model.clone(), config(4));
        let sample = Sample::new(BitVec::from_indices(12, &[0, 1]), 0);
        let tb = d
            .emit_testbench(&[sample])
            .expect("generated designs have valid shapes");
        assert!(tb.name.starts_with("tb_"));
        assert!(tb.contents.contains("send_packet"));
    }

    #[test]
    fn testbench_expects_the_scalar_predictions() {
        let model = small_model();
        let d = AcceleratorDesign::generate(model.clone(), config(4));
        // 130 inputs: two full 64-lane passes and a tail of two.
        let samples: Vec<Sample> = (0..130u32)
            .map(|v| {
                let x = BitVec::from_bools(
                    (0..12).map(|b| (v.wrapping_mul(2_654_435_761) >> b) & 1 == 1),
                );
                Sample::new(x, 0)
            })
            .collect();
        let packetizer = matador_axi::Packetizer::new(12, 4);
        let vectors: Vec<TestVector> = samples
            .iter()
            .map(|s| TestVector {
                packets: packetizer.packetize(&s.input),
                expected: model.predict(&s.input),
            })
            .collect();
        let want = gen::testbench_module(&d.design_params(), &vectors).expect("valid shapes");
        let tb = d.emit_testbench(&samples).expect("valid shapes");
        assert_eq!(tb.contents, want);
    }

    #[test]
    fn window_netlists_equal_fresh_lowerings() {
        for sharing in [Sharing::Enabled, Sharing::DontTouch] {
            let cfg = MatadorConfig::builder()
                .bus_width(5)
                .sharing(sharing)
                .build()
                .expect("valid");
            let d = AcceleratorDesign::generate(small_model(), cfg);
            for (w, dag) in d.dags().iter().enumerate() {
                let fresh = Netlist::from_dag(format!("hcb_{w}_logic"), dag);
                let got = d.window_netlist(w);
                // Built once: every call borrows the same netlist.
                assert!(std::ptr::eq(got, d.window_netlist(w)));
                // Name, gates, ports and every net name.
                assert_eq!(got, &fresh, "window {w} {sharing:?}");
            }
        }
    }

    #[test]
    fn window_netlist_validates_and_evaluates() {
        let d = AcceleratorDesign::generate(small_model(), config(4));
        for w in 0..d.num_hcbs() {
            let nl = d.window_netlist(w);
            nl.validate().expect("valid netlist");
            // Gate-level equivalence vs cube semantics on all 16 inputs.
            for v in 0..16u32 {
                let input = BitVec::from_bools((0..4).map(|b| (v >> b) & 1 == 1));
                let gate_outs = nl.eval(&input);
                for (c, cube) in d.windows().window(w).to_cubes().iter().enumerate() {
                    let expect = !cube.is_contradictory() && cube.eval(&input);
                    assert_eq!(gate_outs[c], expect, "w{w} clause{c} v{v:04b}");
                }
            }
        }
    }
}
