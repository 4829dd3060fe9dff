//! A coarse per-point cost model used to seed longest-first dispatch.
//!
//! The estimate only has to get the *ordering* of a batch roughly right —
//! it never touches simulation results (dispatch order is invisible; see
//! [`super`]). A sweep point's wall-clock is dominated by how many DRAM
//! commands the simulated training step issues, which scales with the
//! model's parameter count and the number of streamed activations per
//! step (batch), and is spread across the memory system's channels.
//! Anything finer (timing-parameter differences,
//! PIM-mode command mix) moves points by small factors, not the orders of
//! magnitude that separate an MLP from resnet50 — so the model stops
//! here.

/// Estimated drain cycles for one sweep point: a workload of `params`
/// trainable parameters, streaming `batch` activation sets per step,
/// simulated over `channels` DRAM channels. Monotone in `params` and
/// `batch`, antitone in `channels`; the absolute scale is meaningless.
pub fn sweep_point_cycles(params: u64, batch: usize, channels: usize) -> u64 {
    let channels = channels.max(1) as u64;
    // Every parameter is touched once per step regardless of batch, and
    // the streamed activations add a per-batch term well below the
    // parameter traffic; 4 streamed elements per parameter-kilobyte is a
    // stand-in ratio, not a measurement.
    let per_step = params.saturating_add((params / 256).saturating_mul(batch as u64));
    per_step.div_ceil(channels).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_in_params() {
        assert!(sweep_point_cycles(25_000_000, 16, 1) > sweep_point_cycles(1_000_000, 16, 1));
        assert!(sweep_point_cycles(1_000_000, 16, 1) > sweep_point_cycles(10_000, 16, 1));
    }

    #[test]
    fn monotone_in_batch() {
        assert!(sweep_point_cycles(1_000_000, 256, 1) > sweep_point_cycles(1_000_000, 1, 1));
    }

    #[test]
    fn antitone_in_channels() {
        assert!(sweep_point_cycles(1_000_000, 16, 1) > sweep_point_cycles(1_000_000, 16, 8));
    }

    #[test]
    fn never_zero_and_never_overflows() {
        assert_eq!(sweep_point_cycles(0, 0, 0), 1);
        let huge = sweep_point_cycles(u64::MAX, usize::MAX, 1);
        assert!(huge > 0);
    }
}
