//! Quantized MLP training — the Brevitas/Theano stand-in that produces the
//! baseline accuracy column of Table I.
//!
//! Training is BinaryNet-style: straight-through-estimator SGD on the
//! quantized network with per-neuron running batch normalization (the
//! normalization FINN folds into its threshold memories — without it every
//! neuron of a layer saturates the same way and the net collapses to a
//! constant class). An optional float pretraining phase (tanh hidden
//! units) is available via [`TrainConfig::float_fraction`]. **Reported
//! accuracy always uses the fully quantized forward pass** — the network
//! exactly as the FINN hardware would execute it — so the accuracy column
//! is deployed accuracy, not a float proxy.

use crate::topology::Topology;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tsetlin::bits::BitVec;
use tsetlin::Sample;

/// A trainable quantized MLP.
#[derive(Debug, Clone)]
pub struct QuantMlp {
    topology: Topology,
    /// Real-valued (shadow) weights per layer, row-major `[out][in]`.
    weights: Vec<Vec<f32>>,
    /// Per-neuron bias / threshold.
    biases: Vec<Vec<f32>>,
    /// Per-neuron running mean of hidden pre-activations (batch norm).
    bn_mean: Vec<Vec<f32>>,
    /// Per-neuron running variance of hidden pre-activations (batch norm).
    bn_var: Vec<Vec<f32>>,
}

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrainConfig {
    /// SGD learning rate for the float phase (the quantized fine-tune uses
    /// a third of it).
    pub learning_rate: f32,
    /// Total epochs, split between float pretraining and quantized
    /// fine-tuning per `float_fraction`.
    pub epochs: usize,
    /// Fraction of epochs spent in float pretraining (0.0 = pure STE).
    pub float_fraction: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            learning_rate: 0.03,
            epochs: 8,
            float_fraction: 0.0,
        }
    }
}

/// Symmetric quantizer to `bits` levels in [-1, 1].
fn quantize(v: f32, bits: u8) -> f32 {
    if bits == 1 {
        return if v >= 0.0 { 1.0 } else { -1.0 };
    }
    let levels = (1u32 << bits) - 1; // e.g. 3 steps for 2 bits
    let clamped = v.clamp(-1.0, 1.0);
    let step = 2.0 / levels as f32;
    ((clamped + 1.0) / step).round() * step - 1.0
}

const BN_EPS: f32 = 1.0e-3;
const BN_MOMENTUM: f32 = 0.95;

impl QuantMlp {
    /// Initializes with small random shadow weights.
    pub fn new(topology: Topology, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x424e_4e31);
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for l in 0..topology.num_weight_layers() {
            let (m, n) = topology.layer_shape(l);
            let scale = (1.0 / n as f32).sqrt();
            weights.push(
                (0..m * n)
                    .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
                    .collect(),
            );
            biases.push(vec![0.0; m]);
        }
        let bn_mean = (0..topology.num_weight_layers())
            .map(|l| vec![0.0; topology.layer_shape(l).0])
            .collect();
        let bn_var = (0..topology.num_weight_layers())
            .map(|l| vec![1.0; topology.layer_shape(l).0])
            .collect();
        QuantMlp {
            topology,
            weights,
            biases,
            bn_mean,
            bn_var,
        }
    }

    /// The topology this network implements.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Deployed forward pass: quantized weights and activations, exactly
    /// as the streamed FINN dataflow executes. Returns output scores.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the input layer width.
    pub fn forward(&self, input: &BitVec) -> Vec<f32> {
        assert_eq!(input.len(), self.topology.layers[0], "input width mismatch");
        let wb = self.topology.quant.weight_bits;
        let ab = self.topology.quant.activation_bits;
        let mut act: Vec<f32> = input.iter().map(|b| if b { 1.0 } else { -1.0 }).collect();
        let last = self.topology.num_weight_layers() - 1;
        for l in 0..=last {
            let (m, n) = self.topology.layer_shape(l);
            let w = &self.weights[l];
            let mut next = vec![0.0f32; m];
            for (o, out) in next.iter_mut().enumerate() {
                let row = &w[o * n..(o + 1) * n];
                let mut acc = self.biases[l][o];
                for (wi, ai) in row.iter().zip(&act) {
                    acc += quantize(*wi, wb) * ai;
                }
                *out = acc;
            }
            if l != last {
                for (o, v) in next.iter_mut().enumerate() {
                    let u = (*v - self.bn_mean[l][o]) / (self.bn_var[l][o] + BN_EPS).sqrt();
                    *v = quantize(u, ab);
                }
            }
            act = next;
        }
        act
    }

    /// Predicted class under the deployed (quantized) forward pass.
    pub fn predict(&self, input: &BitVec) -> usize {
        let scores = self.forward(input);
        let mut best = 0;
        for (i, &s) in scores.iter().enumerate().skip(1) {
            if s > scores[best] {
                best = i;
            }
        }
        best
    }

    /// Fraction of samples classified correctly (quantized forward).
    pub fn accuracy(&self, samples: &[Sample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let ok = samples
            .iter()
            .filter(|s| self.predict(&s.input) == s.label)
            .count();
        ok as f64 / samples.len() as f64
    }

    /// Quantization-aware training: float pretraining (≈¾ of the epochs)
    /// followed by STE fine-tuning of the quantized network.
    pub fn train(&mut self, data: &[Sample], config: TrainConfig, seed: u64) {
        let float_epochs =
            ((config.epochs as f32) * config.float_fraction.clamp(0.0, 1.0)).round() as usize;
        let float_epochs = float_epochs.min(config.epochs);
        let ft_epochs = config.epochs - float_epochs;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0053_5445);
        let mut order: Vec<usize> = (0..data.len()).collect();
        for _ in 0..float_epochs {
            shuffle(&mut order, &mut rng);
            for &idx in &order {
                self.sgd_step(&data[idx], config.learning_rate, false);
            }
        }
        for _ in 0..ft_epochs {
            shuffle(&mut order, &mut rng);
            for &idx in &order {
                self.sgd_step(&data[idx], config.learning_rate / 3.0, true);
            }
        }
    }

    /// One SGD step on the squared-hinge one-vs-all loss. In quantized
    /// mode the forward uses quantized weights/activations and gradients
    /// flow through the straight-through estimator.
    fn sgd_step(&mut self, sample: &Sample, lr: f32, quantized: bool) {
        let wb = self.topology.quant.weight_bits;
        let ab = self.topology.quant.activation_bits;
        let last = self.topology.num_weight_layers() - 1;
        let classes = self.topology.layers[last + 1];

        // Forward, keeping (activations, pre-activations) per layer.
        let mut acts: Vec<Vec<f32>> = Vec::with_capacity(last + 2);
        acts.push(
            sample
                .input
                .iter()
                .map(|b| if b { 1.0 } else { -1.0 })
                .collect(),
        );
        let mut pres: Vec<Vec<f32>> = Vec::with_capacity(last + 1);
        for l in 0..=last {
            let (m, n) = self.topology.layer_shape(l);
            let w = &self.weights[l];
            let mut pre = vec![0.0f32; m];
            for (o, p) in pre.iter_mut().enumerate() {
                let row = &w[o * n..(o + 1) * n];
                let mut acc = self.biases[l][o];
                if quantized {
                    for (wi, ai) in row.iter().zip(&acts[l]) {
                        acc += quantize(*wi, wb) * ai;
                    }
                } else {
                    for (wi, ai) in row.iter().zip(&acts[l]) {
                        acc += *wi * ai;
                    }
                }
                *p = acc;
            }
            let out: Vec<f32> = if l != last {
                pre.iter()
                    .enumerate()
                    .map(|(o, &v)| {
                        let mean = &mut self.bn_mean[l][o];
                        *mean = BN_MOMENTUM * *mean + (1.0 - BN_MOMENTUM) * v;
                        let dev = v - *mean;
                        let var = &mut self.bn_var[l][o];
                        *var = BN_MOMENTUM * *var + (1.0 - BN_MOMENTUM) * dev * dev;
                        let u = dev / (*var + BN_EPS).sqrt();
                        if quantized {
                            quantize(u, ab)
                        } else {
                            u.tanh()
                        }
                    })
                    .collect()
            } else {
                pre.clone()
            };
            pres.push(pre);
            acts.push(out);
        }

        // Output deltas: squared hinge, one-vs-all with margin 1, scores
        // normalized by the output fan-in.
        let out_n = (self.topology.layers[last] as f32).sqrt();
        let scores = &acts[last + 1];
        let mut delta: Vec<f32> = (0..classes)
            .map(|c| {
                let t = if c == sample.label { 1.0 } else { -1.0 };
                let margin = 1.0 - t * scores[c] / out_n;
                if margin > 0.0 {
                    -t * margin
                } else {
                    0.0
                }
            })
            .collect();

        // Backward.
        for l in (0..=last).rev() {
            let (m, n) = self.topology.layer_shape(l);
            let mut prev_delta = vec![0.0f32; n];
            for (o, dv) in delta.iter().enumerate().take(m) {
                let d = dv.clamp(-2.0, 2.0);
                if d == 0.0 {
                    continue;
                }
                let row = &mut self.weights[l][o * n..(o + 1) * n];
                for (i, wi) in row.iter_mut().enumerate() {
                    prev_delta[i] += d * if quantized { quantize(*wi, wb) } else { *wi };
                    // Shadow-weight step; clipping to [-1,1] keeps the
                    // quantizer meaningful (BinaryNet update rule).
                    *wi = (*wi - lr * d * acts[l][i]).clamp(-1.0, 1.0);
                }
                self.biases[l][o] = (self.biases[l][o] - lr * d).clamp(-8.0, 8.0);
            }
            if l > 0 {
                for (i, pd) in prev_delta.iter_mut().enumerate() {
                    let sd = (self.bn_var[l - 1][i] + BN_EPS).sqrt();
                    let u = (pres[l - 1][i] - self.bn_mean[l - 1][i]) / sd;
                    let gate = if quantized {
                        // STE: unit gradient inside the quantizer range.
                        if u.abs() <= 1.0 {
                            1.0
                        } else {
                            0.0
                        }
                    } else {
                        // tanh'(u) = 1 − tanh²(u).
                        let t = u.tanh();
                        1.0 - t * t
                    };
                    *pd = (*pd * gate / sd).clamp(-2.0, 2.0);
                }
                delta = prev_delta;
            }
        }
    }
}

fn shuffle(order: &mut [usize], rng: &mut SmallRng) {
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Quantization;

    fn toy_topology() -> Topology {
        Topology::new(
            "toy",
            vec![8, 16, 2],
            Quantization {
                weight_bits: 1,
                activation_bits: 1,
            },
        )
    }

    fn toy_data() -> Vec<Sample> {
        let mut data = Vec::new();
        for v in 0..16u32 {
            let mut low = vec![false; 8];
            let mut high = vec![false; 8];
            for b in 0..4 {
                low[b] = (v >> b) & 1 == 1 || b == 0;
                high[4 + b] = (v >> b) & 1 == 1 || b == 0;
            }
            data.push(Sample::new(BitVec::from_bools(low), 0));
            data.push(Sample::new(BitVec::from_bools(high), 1));
        }
        data
    }

    #[test]
    fn quantizer_levels() {
        assert_eq!(quantize(0.3, 1), 1.0);
        assert_eq!(quantize(-0.3, 1), -1.0);
        // 2-bit symmetric: {-1, -1/3, 1/3, 1}.
        let q = quantize(0.2, 2);
        assert!((q - 1.0 / 3.0).abs() < 1e-6, "{q}");
        assert_eq!(quantize(5.0, 2), 1.0);
    }

    #[test]
    fn untrained_forward_has_right_shape() {
        let net = QuantMlp::new(toy_topology(), 1);
        assert_eq!(net.forward(&BitVec::zeros(8)).len(), 2);
    }

    #[test]
    fn learns_separable_toy_task() {
        let mut net = QuantMlp::new(toy_topology(), 7);
        let data = toy_data();
        net.train(
            &data,
            TrainConfig {
                learning_rate: 0.05,
                epochs: 40,
                float_fraction: 0.25,
            },
            3,
        );
        let acc = net.accuracy(&data);
        assert!(acc >= 0.9, "accuracy {acc}");
    }

    #[test]
    fn two_bit_variant_also_learns() {
        let topo = Topology::new(
            "toy2",
            vec![8, 16, 2],
            Quantization {
                weight_bits: 2,
                activation_bits: 2,
            },
        );
        let mut net = QuantMlp::new(topo, 9);
        let data = toy_data();
        net.train(
            &data,
            TrainConfig {
                learning_rate: 0.05,
                epochs: 40,
                float_fraction: 0.25,
            },
            4,
        );
        assert!(net.accuracy(&data) >= 0.9);
    }

    #[test]
    fn accuracy_of_empty_set_is_zero() {
        let net = QuantMlp::new(toy_topology(), 1);
        assert_eq!(net.accuracy(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn forward_validates_width() {
        QuantMlp::new(toy_topology(), 1).forward(&BitVec::zeros(9));
    }
}
