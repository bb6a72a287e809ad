//! Fixtures shared by the `Front` integration tests.

use matador_logic::cube::{Cube, Lit};
use matador_logic::dag::Sharing;
use matador_sim::{AccelShape, CompiledAccelerator};

/// A 12-feature, 3-class design (three 4-bit packets per datapoint)
/// with shared logic across its three windows.
pub fn accel() -> CompiledAccelerator {
    let shape = AccelShape {
        bus_width: 4,
        features: 12,
        classes: 3,
        clauses_per_class: 4,
    };
    let window = |k: usize| -> Vec<Cube> {
        (0..12)
            .map(|c| match (c + k) % 4 {
                0 => Cube::from_lits([Lit::pos(0), Lit::neg(1)]),
                1 => Cube::from_lits([Lit::pos(2)]),
                2 => Cube::from_lits([Lit::neg(3), Lit::pos(1), Lit::pos(0)]),
                _ => Cube::one(),
            })
            .collect()
    };
    CompiledAccelerator::from_window_cubes(
        shape,
        &[window(0), window(1), window(2)],
        Sharing::Enabled,
    )
}
