//! Per-shard design specification for heterogeneous pools.
//!
//! MATADOR's premise is that every model compiles to a bespoke
//! accelerator whose bus width and II the design-space wizard picks per
//! workload — so a realistic edge deployment serves *several different*
//! generated designs at once. A [`ShardSpec`] describes one shard of such
//! a deployment: the compiled design it runs, the execution backend
//! simulating it, and a static dispatch weight. A `Vec<ShardSpec>` stands
//! up a mixed pool via [`crate::ShardPool::heterogeneous`].

use crate::error::ServeError;
use matador_sim::{CompiledAccelerator, EngineBackend, PartitionPlan};

/// One shard of a heterogeneous pool: its own compiled design, engine
/// backend and dispatch weight.
///
/// # Examples
///
/// ```
/// use matador_logic::cube::{Cube, Lit};
/// use matador_logic::dag::Sharing;
/// use matador_serve::ShardSpec;
/// use matador_sim::{AccelShape, CompiledAccelerator, EngineBackend};
///
/// let shape = AccelShape { bus_width: 4, features: 4, classes: 2, clauses_per_class: 2 };
/// let cubes = vec![vec![
///     Cube::from_lits([Lit::pos(0)]),
///     Cube::one(),
///     Cube::from_lits([Lit::pos(1)]),
///     Cube::one(),
/// ]];
/// let accel = CompiledAccelerator::from_window_cubes(shape, &cubes, Sharing::Enabled);
/// let spec = ShardSpec::new(accel).backend(EngineBackend::Turbo).weight(2);
/// assert_eq!(spec.width(), 4);
/// assert_eq!(spec.beats_per_request(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// The compiled design this shard executes.
    pub design: CompiledAccelerator,
    /// Execution engine behind this shard ([`EngineBackend::Turbo`] is
    /// bit-identical to [`EngineBackend::CycleAccurate`], only faster on
    /// the host).
    pub backend: EngineBackend,
    /// Static dispatch weight (≥ 1): the stateful policies count this
    /// shard's load as `1/weight` of nominal, so a weight-2 shard absorbs
    /// roughly twice the requests of a weight-1 peer with equal load.
    pub weight: u32,
    /// Whether the shard's engine models the two-stage (pipelined) class
    /// sum — per design, since pipelining is a generation-time choice.
    pub pipelined_sum: bool,
    /// `Some(group)` marks this shard as one member of a partition
    /// group: its design is one slice of a clause-partitioned model (see
    /// [`matador_sim::CompilePipeline::partition`]) and the pool must
    /// execute every request of the group on *all* members, merging
    /// their partial class sums into the final winner. `None` (the
    /// default) is an ordinary standalone shard.
    pub partition_group: Option<u32>,
}

impl ShardSpec {
    /// A weight-1, cycle-accurate, non-pipelined spec for `design`.
    pub fn new(design: CompiledAccelerator) -> Self {
        ShardSpec {
            design,
            backend: EngineBackend::CycleAccurate,
            weight: 1,
            pipelined_sum: false,
            partition_group: None,
        }
    }

    /// One spec per part of a [`PartitionPlan`], all members of partition
    /// `group`: the spec-list fragment that maps one clause-partitioned
    /// design onto as many shards as the plan has parts. Adjust backends
    /// or weights with the builder methods before pooling:
    ///
    /// ```
    /// use matador_logic::cube::{Cube, Lit};
    /// use matador_logic::dag::Sharing;
    /// use matador_serve::ShardSpec;
    /// use matador_sim::{AccelShape, CompiledAccelerator, CompileOptions, CompilePipeline};
    ///
    /// let shape = AccelShape { bus_width: 4, features: 4, classes: 2, clauses_per_class: 4 };
    /// let cubes = vec![vec![
    ///     Cube::from_lits([Lit::pos(0)]), Cube::one(),
    ///     Cube::from_lits([Lit::pos(1)]), Cube::one(),
    ///     Cube::from_lits([Lit::pos(2)]), Cube::one(),
    ///     Cube::from_lits([Lit::pos(3)]), Cube::one(),
    /// ]];
    /// let accel = CompiledAccelerator::from_window_cubes(shape, &cubes, Sharing::Enabled);
    /// let plan = CompilePipeline::new(CompileOptions::default().with_partitions(2)).partition(&accel);
    /// let specs = ShardSpec::partitioned(plan, 0);
    /// assert_eq!(specs.len(), 2);
    /// assert!(specs.iter().all(|s| s.partition_group == Some(0)));
    /// ```
    pub fn partitioned(plan: PartitionPlan, group: u32) -> Vec<ShardSpec> {
        plan.into_parts()
            .into_iter()
            .map(|part| ShardSpec::new(part).partition_group(Some(group)))
            .collect()
    }

    /// Sets the execution backend.
    #[must_use]
    pub fn backend(mut self, backend: EngineBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the static dispatch weight.
    #[must_use]
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Sets whether the shard models the pipelined class sum.
    #[must_use]
    pub fn pipelined_sum(mut self, pipelined: bool) -> Self {
        self.pipelined_sum = pipelined;
        self
    }

    /// Sets (or clears) this shard's partition-group membership.
    #[must_use]
    pub fn partition_group(mut self, group: Option<u32>) -> Self {
        self.partition_group = group;
        self
    }

    /// Feature width (booleanized input bits) this shard accepts.
    pub fn width(&self) -> usize {
        self.design.shape().features
    }

    /// Bus beats one datapoint costs on this shard.
    pub fn beats_per_request(&self) -> u64 {
        self.design.shape().num_packets() as u64
    }

    /// Validates a whole spec list, as [`crate::ShardPool::heterogeneous`]
    /// does before building any engine.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ZeroShards`] for an empty list,
    /// [`ServeError::ZeroWeight`] for a spec with dispatch weight zero
    /// and [`ServeError::PartitionWidthMismatch`] when the members of one
    /// partition group admit different feature widths (the lowest
    /// offending group is named).
    pub fn validate_all(specs: &[ShardSpec]) -> Result<(), ServeError> {
        if specs.is_empty() {
            return Err(ServeError::ZeroShards);
        }
        if let Some(shard) = specs.iter().position(|s| s.weight == 0) {
            return Err(ServeError::ZeroWeight { shard });
        }
        let mut group_widths: std::collections::BTreeMap<u32, Vec<usize>> =
            std::collections::BTreeMap::new();
        for spec in specs {
            if let Some(group) = spec.partition_group {
                group_widths.entry(group).or_default().push(spec.width());
            }
        }
        for (group, mut widths) in group_widths {
            widths.sort_unstable();
            widths.dedup();
            if widths.len() > 1 {
                return Err(ServeError::PartitionWidthMismatch { group, widths });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matador_logic::cube::{Cube, Lit};
    use matador_logic::dag::Sharing;
    use matador_sim::AccelShape;

    fn accel(bus_width: usize, features: usize) -> CompiledAccelerator {
        let shape = AccelShape {
            bus_width,
            features,
            classes: 2,
            clauses_per_class: 1,
        };
        let window = vec![Cube::from_lits([Lit::pos(0)]), Cube::one()];
        let windows = vec![window; shape.num_packets()];
        CompiledAccelerator::from_window_cubes(shape, &windows, Sharing::Enabled)
    }

    #[test]
    fn spec_exposes_design_geometry() {
        let spec = ShardSpec::new(accel(4, 12));
        assert_eq!(spec.width(), 12);
        assert_eq!(spec.beats_per_request(), 3);
        assert_eq!(spec.weight, 1);
        assert_eq!(spec.backend, EngineBackend::CycleAccurate);
        assert!(!spec.pipelined_sum);
    }

    #[test]
    fn builder_methods_chain() {
        let spec = ShardSpec::new(accel(4, 8))
            .backend(EngineBackend::Turbo)
            .weight(3)
            .pipelined_sum(true);
        assert_eq!(spec.backend, EngineBackend::Turbo);
        assert_eq!(spec.weight, 3);
        assert!(spec.pipelined_sum);
    }

    #[test]
    fn validation_catches_degenerate_lists() {
        assert!(matches!(
            ShardSpec::validate_all(&[]).unwrap_err(),
            ServeError::ZeroShards
        ));
        let specs = vec![
            ShardSpec::new(accel(4, 8)),
            ShardSpec::new(accel(4, 8)).weight(0),
        ];
        assert_eq!(
            ShardSpec::validate_all(&specs).unwrap_err(),
            ServeError::ZeroWeight { shard: 1 }
        );
        assert!(ShardSpec::validate_all(&specs[..1]).is_ok());
    }

    #[test]
    fn partition_group_width_mismatch_is_typed_and_names_the_group() {
        // Group 0 is consistent; group 1 mixes widths 8 and 12 and is the
        // one the error must name, with its widths sorted ascending.
        let specs = vec![
            ShardSpec::new(accel(4, 8)).partition_group(Some(0)),
            ShardSpec::new(accel(4, 8)).partition_group(Some(0)),
            ShardSpec::new(accel(4, 12)).partition_group(Some(1)),
            ShardSpec::new(accel(4, 8)).partition_group(Some(1)),
        ];
        assert_eq!(
            ShardSpec::validate_all(&specs).unwrap_err(),
            ServeError::PartitionWidthMismatch {
                group: 1,
                widths: vec![8, 12],
            }
        );
        // Ungrouped shards may mix widths freely — only groups are bound.
        let specs = vec![
            ShardSpec::new(accel(4, 8)),
            ShardSpec::new(accel(4, 12)),
            ShardSpec::new(accel(4, 8)).partition_group(Some(0)),
            ShardSpec::new(accel(4, 8)).partition_group(Some(0)),
        ];
        assert!(ShardSpec::validate_all(&specs).is_ok());
    }

    #[test]
    fn partitioned_specs_cover_the_plan() {
        use matador_sim::{CompileOptions, CompilePipeline};
        let design = accel(4, 8); // clauses_per_class = 1 → 1 part max
        let plan =
            CompilePipeline::new(CompileOptions::default().with_partitions(4)).partition(&design);
        let specs = ShardSpec::partitioned(plan, 7);
        assert!(!specs.is_empty());
        for spec in &specs {
            assert_eq!(spec.partition_group, Some(7));
            assert_eq!(spec.width(), 8);
            assert_eq!(spec.weight, 1);
        }
    }
}
