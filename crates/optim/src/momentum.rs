//! SGD with momentum and weight decay — the paper's running example
//! (Eq. 2–4, Fig. 5 middle).

use crate::optimizer::{Optimizer, OptimizerKind};

/// Momentum SGD exactly as formulated in the paper:
///
/// ```text
/// v_t     = α·v_{t-1} − η·(β·θ_t + g_t)      (Eq. 4; β = 0 gives Eq. 2)
/// θ_{t+1} = θ_t + v_t                         (Eq. 3)
/// ```
///
/// This sign convention (velocity accumulates the *negative* scaled
/// gradient and is *added* to the weights) is what the GradPIM kernel in
/// `gradpim-core` compiles to scaled reads with negative scaler slots, so
/// the reference must use the identical algebra.
#[derive(Debug, Clone)]
pub struct MomentumSgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<f32>,
    steps: u64,
}

impl MomentumSgd {
    /// Creates a momentum-SGD optimizer for `len` parameters.
    ///
    /// `lr` is η, `momentum` is α, `weight_decay` is β of Eq. 4.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32, len: usize) -> Self {
        Self { lr, momentum, weight_decay, velocity: vec![0.0; len], steps: 0 }
    }

    /// The current velocity (momentum) array v.
    pub fn velocity(&self) -> &[f32] {
        &self.velocity
    }

    /// The learning rate η.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Replaces the learning rate (the §VIII learning-rate-scheduling hook).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

impl Optimizer for MomentumSgd {
    fn kind(&self) -> OptimizerKind {
        OptimizerKind::MomentumSgd
    }

    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        assert_eq!(params.len(), self.velocity.len(), "params/state length mismatch");
        for ((p, &g), v) in params.iter_mut().zip(grads).zip(&mut self.velocity) {
            *v = self.momentum * *v - self.lr * (self.weight_decay * *p + g);
            *p += *v;
        }
        self.steps += 1;
    }

    fn state(&self, i: usize) -> Option<&[f32]> {
        (i == 0).then_some(self.velocity.as_slice())
    }

    fn steps(&self) -> u64 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sgd::Sgd;

    #[test]
    fn matches_eq4_eq3_by_hand() {
        let mut opt = MomentumSgd::new(0.1, 0.9, 0.01, 1);
        let mut p = vec![2.0_f32];
        opt.step(&mut p, &[0.5]);
        // v1 = 0.9*0 - 0.1*(0.01*2 + 0.5) = -0.052; θ = 2 - 0.052
        assert!((opt.velocity()[0] + 0.052).abs() < 1e-6);
        assert!((p[0] - 1.948).abs() < 1e-6);

        opt.step(&mut p, &[0.3]);
        // v2 = 0.9*(-0.052) - 0.1*(0.01*1.948 + 0.3) = -0.0467 - 0.0319...
        let v2 = 0.9_f32 * -0.052 - 0.1 * (0.01 * 1.948 + 0.3);
        assert!((opt.velocity()[0] - v2).abs() < 1e-6);
        assert!((p[0] - (1.948 + v2)).abs() < 1e-6);
    }

    #[test]
    fn converges_faster_than_plain_sgd_on_ill_conditioned_bowl() {
        // f(x, y) = 0.5*(x² + 50·y²): momentum damps the oscillation along y.
        let loss = |p: &[f32]| 0.5 * (p[0] * p[0] + 50.0 * p[1] * p[1]);
        let grad = |p: &[f32]| vec![p[0], 50.0 * p[1]];

        let mut mom = MomentumSgd::new(0.015, 0.9, 0.0, 2);
        let mut sgd = Sgd::new(0.015, 0.0);
        let mut pm = vec![1.0_f32, 1.0];
        let mut ps = vec![1.0_f32, 1.0];
        for _ in 0..60 {
            let gm = grad(&pm);
            mom.step(&mut pm, &gm);
            let gs = grad(&ps);
            sgd.step(&mut ps, &gs);
        }
        assert!(loss(&pm) < loss(&ps), "momentum {} vs sgd {}", loss(&pm), loss(&ps));
    }

    #[test]
    fn zero_momentum_equals_sgd() {
        let mut mom = MomentumSgd::new(0.05, 0.0, 0.0, 3);
        let mut sgd = Sgd::new(0.05, 0.0);
        let mut pm = vec![1.0_f32, -2.0, 0.5];
        let mut ps = pm.clone();
        for step in 0..10 {
            let g: Vec<f32> = pm.iter().map(|&x| x * (step as f32 + 1.0) * 0.1).collect();
            mom.step(&mut pm, &g);
            let gs: Vec<f32> = ps.iter().map(|&x| x * (step as f32 + 1.0) * 0.1).collect();
            sgd.step(&mut ps, &gs);
        }
        for (a, b) in pm.iter().zip(&ps) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn velocity_bounded_by_geometric_series() {
        // |v_t| <= lr * g_max / (1 - alpha) for bounded gradients.
        let (lr, alpha, gmax) = (0.1f32, 0.9f32, 2.0f32);
        let mut opt = MomentumSgd::new(lr, alpha, 0.0, 1);
        let mut p = vec![0.0f32];
        let bound = lr * gmax / (1.0 - alpha) + 1e-4;
        for i in 0..500 {
            let g = if i % 2 == 0 { gmax } else { -gmax * 0.5 };
            opt.step(&mut p, &[g]);
            assert!(opt.velocity()[0].abs() <= bound, "step {i}: {}", opt.velocity()[0]);
        }
    }

    #[test]
    fn exposes_one_state_array() {
        let opt = MomentumSgd::new(0.1, 0.9, 0.0, 4);
        assert_eq!(opt.state(0).unwrap().len(), 4);
        assert!(opt.state(1).is_none());
    }
}
