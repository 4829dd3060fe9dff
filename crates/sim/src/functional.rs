//! End-to-end functional training through the in-DRAM update path.
//!
//! A small host-computed MLP is trained on a synthetic two-class task with
//! *all parameter updates executed by GradPIM kernels inside the simulated
//! DRAM*: the host (standing in for the NPU) computes forward/backward in
//! the NPU's low precision using the quantized weights `Q(θ)` it reads from
//! DRAM, writes quantized gradients `Q(g)` back, and triggers the §IV-D
//! update procedure. Each layer is one parameter group of a
//! [`GradPimMemory`] built by [`GradPimMemory::stacked`], quantized under
//! its own scale, and one [`GradPimMemory::step`] updates every layer. This
//! validates the whole stack — placement, kernels, scaler approximation,
//! quantization registers — on an actual learning problem.

use gradpim_core::{GradPimError, GradPimMemory};
use gradpim_dram::DramConfig;
use gradpim_optim::{HyperParams, OptimizerKind, PrecisionMix};

/// A 2-layer MLP (`in → hidden → 2`) whose weights live in GradPIM memory —
/// one stacked parameter group per layer, with per-layer quantization
/// scales.
#[derive(Debug)]
pub struct PimTrainer {
    mem: GradPimMemory,
    input: usize,
    hidden: usize,
    classes: usize,
}

/// Synthetic two-moons-style dataset: two noisy interleaved arcs.
pub fn synthetic_dataset(n: usize, seed: u64) -> (Vec<[f32; 2]>, Vec<usize>) {
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    let mut state = seed.max(1);
    let mut rng = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32
    };
    for i in 0..n {
        let class = i % 2;
        let t = rng() * std::f32::consts::PI;
        let (mut x, mut y) = (t.cos(), t.sin());
        if class == 1 {
            x = 1.0 - x;
            y = 0.5 - y;
        }
        xs.push([x + (rng() - 0.5) * 0.2, y + (rng() - 0.5) * 0.2]);
        ys.push(class);
    }
    (xs, ys)
}

impl PimTrainer {
    /// Builds a trainer whose two weight matrices live as stacked parameter
    /// groups in a GradPIM-equipped DDR4-2133 memory.
    ///
    /// # Errors
    ///
    /// Propagates placement/kernel errors from [`GradPimMemory::stacked`].
    pub fn new(
        input: usize,
        hidden: usize,
        mix: PrecisionMix,
        hyper: HyperParams,
    ) -> Result<Self, GradPimError> {
        let classes = 2;
        let layers = [input * hidden, hidden * classes];
        let mut mem = GradPimMemory::stacked(
            DramConfig::ddr4_2133(),
            OptimizerKind::MomentumSgd,
            mix,
            hyper,
            &layers,
        )?;
        // Deterministic small init, per layer.
        let init = |n: usize, salt: usize| -> Vec<f32> {
            (0..n)
                .map(|i| ((((i + salt) * 2654435761) % 1000) as f32 / 1000.0 - 0.5) * 0.4)
                .collect()
        };
        mem.load_theta(&[init(layers[0], 0), init(layers[1], 131)].concat());
        Ok(Self { mem, input, hidden, classes })
    }

    /// The underlying GradPIM memory (stats inspection).
    pub fn memory(&self) -> &GradPimMemory {
        &self.mem
    }

    fn forward(&self, w: &[f32], x: &[f32; 2]) -> (Vec<f32>, Vec<f32>) {
        let (w1, w2) = w.split_at(self.input * self.hidden);
        let mut h = vec![0.0f32; self.hidden];
        for j in 0..self.hidden {
            let mut s = 0.0;
            for i in 0..self.input {
                s += w1[j * self.input + i] * x[i];
            }
            h[j] = s.max(0.0); // ReLU
        }
        let mut o = vec![0.0f32; self.classes];
        for k in 0..self.classes {
            let mut s = 0.0;
            for j in 0..self.hidden {
                s += w2[k * self.hidden + j] * h[j];
            }
            o[k] = s;
        }
        (h, o)
    }

    /// Runs one epoch over the dataset: host forward/backward on the
    /// quantized weights, in-DRAM parameter update. Returns the mean
    /// cross-entropy loss of the epoch.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures from the update step.
    pub fn train_epoch(&mut self, xs: &[[f32; 2]], ys: &[usize]) -> Result<f32, GradPimError> {
        // The NPU sees Q(θ) — the quantized weights (§IV-D3), both layers
        // concatenated.
        let w = self.mem.quantized_theta();
        let n_params = w.len();
        let mut grads = vec![0.0f32; n_params];
        let mut loss_sum = 0.0f32;
        for (x, &y) in xs.iter().zip(ys) {
            let (h, o) = self.forward(&w, x);
            // Softmax cross-entropy.
            let m = o.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = o.iter().map(|v| (v - m).exp()).collect();
            let z: f32 = exps.iter().sum();
            let p: Vec<f32> = exps.iter().map(|e| e / z).collect();
            loss_sum += -(p[y].max(1e-9)).ln();
            // Backward.
            let (w1_len, _) = (self.input * self.hidden, ());
            let w2 = &w[w1_len..];
            let mut dout = p;
            dout[y] -= 1.0;
            for k in 0..self.classes {
                for j in 0..self.hidden {
                    grads[w1_len + k * self.hidden + j] += dout[k] * h[j];
                }
            }
            for j in 0..self.hidden {
                if h[j] > 0.0 {
                    let mut dh = 0.0;
                    for k in 0..self.classes {
                        dh += dout[k] * w2[k * self.hidden + j];
                    }
                    for i in 0..self.input {
                        grads[j * self.input + i] += dh * x[i];
                    }
                }
            }
        }
        let scale = 1.0 / xs.len() as f32;
        for g in &mut grads {
            *g *= scale;
        }
        // NPU writes Q(g) per layer (own scale); GradPIM updates in-DRAM.
        self.mem.write_gradients(&grads);
        self.mem.step()?;
        Ok(loss_sum / xs.len() as f32)
    }

    /// Classification accuracy with the current quantized weights.
    pub fn accuracy(&self, xs: &[[f32; 2]], ys: &[usize]) -> f32 {
        let w = self.mem.quantized_theta();
        let correct = xs
            .iter()
            .zip(ys)
            .filter(|(x, &y)| {
                let (_, o) = self.forward(&w, x);
                let pred = if o[1] > o[0] { 1 } else { 0 };
                pred == y
            })
            .count();
        correct as f32 / xs.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_is_balanced_and_deterministic() {
        let (xs, ys) = synthetic_dataset(200, 42);
        assert_eq!(xs.len(), 200);
        assert_eq!(ys.iter().filter(|&&y| y == 1).count(), 100);
        let (xs2, _) = synthetic_dataset(200, 42);
        assert_eq!(xs, xs2);
    }

    #[test]
    fn in_dram_training_converges_mixed_precision() {
        // The headline functional result: 8/32 mixed-precision training
        // with every update executed by GradPIM kernels inside the DRAM
        // simulator learns the task.
        let hyper =
            HyperParams { lr: 0.125, momentum: 0.5, weight_decay: 0.0, ..Default::default() };
        let mut t = PimTrainer::new(2, 16, PrecisionMix::MIXED_8_32, hyper).unwrap();
        let (xs, ys) = synthetic_dataset(128, 7);
        let first = t.train_epoch(&xs, &ys).unwrap();
        let mut last = first;
        for _ in 0..39 {
            last = t.train_epoch(&xs, &ys).unwrap();
        }
        assert!(last < first * 0.75, "loss did not drop: {first} → {last}");
        let acc = t.accuracy(&xs, &ys);
        assert!(acc > 0.8, "accuracy {acc}");
        // And every update stayed inside the DRAM.
        assert_eq!(t.memory().memory().stats().external_bytes(), 0);
    }
}
