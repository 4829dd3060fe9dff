//! The paper's evaluation networks (§VI-A): ResNet-18/50, MobileNetV2, an
//! MLP, and AlphaGo Zero, with Fig. 2-style layer names and Fig. 9 block
//! groupings.

use crate::layer::{Layer, LayerKind, Network};

#[expect(
    clippy::too_many_arguments,
    reason = "mirrors the (in, out, k, stride, pad, hw) conv shorthand"
)]
fn conv(
    name: &str,
    block: &str,
    in_ch: usize,
    out_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    hw: usize,
) -> Layer {
    Layer {
        name: name.into(),
        block: block.into(),
        kind: LayerKind::Conv2d { in_ch, out_ch, k, stride, pad },
        in_h: hw,
        in_w: hw,
    }
}

fn linear(name: &str, block: &str, in_f: usize, out_f: usize) -> Layer {
    Layer {
        name: name.into(),
        block: block.into(),
        kind: LayerKind::Linear { in_f, out_f },
        in_h: 1,
        in_w: 1,
    }
}

/// ResNet-18 for 224×224 ImageNet (He et al.), grouped into the Fig. 9
/// blocks `Block0` (stem) … `Block4` (conv5 stage) and `FC`.
pub fn resnet18() -> Network {
    let mut layers = vec![
        conv("conv0", "Block0", 3, 64, 7, 2, 3, 224),
        Layer {
            name: "maxpool1".into(),
            block: "Block0".into(),
            kind: LayerKind::Pool { k: 3, stride: 2, pad: 1 },
            in_h: 112,
            in_w: 112,
        },
    ];
    // Stage 2: 64 ch @ 56², two basic blocks (4 convs).
    for i in 0..4 {
        layers.push(conv(&format!("conv2m_{i}"), "Block1", 64, 64, 3, 1, 1, 56));
    }
    // Stage 3: 128 ch @ 28², first conv strided + 1×1 projection.
    layers.push(conv("conv3s", "Block2", 64, 128, 3, 2, 1, 56));
    layers.push(conv("conv3p", "Block2", 64, 128, 1, 2, 0, 56));
    for i in 0..3 {
        layers.push(conv(&format!("conv3m_{i}"), "Block2", 128, 128, 3, 1, 1, 28));
    }
    // Stage 4: 256 ch @ 14².
    layers.push(conv("conv4s", "Block3", 128, 256, 3, 2, 1, 28));
    layers.push(conv("conv4p", "Block3", 128, 256, 1, 2, 0, 28));
    for i in 0..3 {
        layers.push(conv(&format!("conv4m_{i}"), "Block3", 256, 256, 3, 1, 1, 14));
    }
    // Stage 5: 512 ch @ 7².
    layers.push(conv("conv5s", "Block4", 256, 512, 3, 2, 1, 14));
    layers.push(conv("conv5p", "Block4", 256, 512, 1, 2, 0, 14));
    for i in 0..3 {
        layers.push(conv(&format!("conv5m_{i}"), "Block4", 512, 512, 3, 1, 1, 7));
    }
    layers.push(linear("fc7", "FC", 512, 1000));
    Network { name: "ResNet18".into(), layers, default_batch: 32 }
}

/// ResNet-50: bottleneck blocks [3, 4, 6, 3].
pub fn resnet50() -> Network {
    let mut layers = vec![
        conv("conv0", "Block0", 3, 64, 7, 2, 3, 224),
        Layer {
            name: "maxpool1".into(),
            block: "Block0".into(),
            kind: LayerKind::Pool { k: 3, stride: 2, pad: 1 },
            in_h: 112,
            in_w: 112,
        },
    ];
    let stages: [(usize, usize, usize, usize, &str); 4] = [
        // (blocks, width, in_ch, spatial, block label)
        (3, 64, 64, 56, "Block1"),
        (4, 128, 256, 56, "Block2"),
        (6, 256, 512, 28, "Block3"),
        (3, 512, 1024, 14, "Block4"),
    ];
    for (si, (blocks, width, stage_in, mut hw, label)) in stages.into_iter().enumerate() {
        let mut in_ch = stage_in;
        for b in 0..blocks {
            let stride = if si > 0 && b == 0 { 2 } else { 1 };
            let tag = format!("conv{}b{}", si + 2, b);
            layers.push(conv(&format!("{tag}_1x1a"), label, in_ch, width, 1, 1, 0, hw));
            let mid_hw = hw;
            layers.push(conv(&format!("{tag}_3x3"), label, width, width, 3, stride, 1, mid_hw));
            let out_hw = if stride == 2 { hw / 2 } else { hw };
            layers.push(conv(&format!("{tag}_1x1b"), label, width, width * 4, 1, 1, 0, out_hw));
            if b == 0 {
                layers.push(conv(
                    &format!("{tag}_proj"),
                    label,
                    in_ch,
                    width * 4,
                    1,
                    stride,
                    0,
                    hw,
                ));
            }
            if b == 0 && stride == 2 {
                hw /= 2;
            }
            in_ch = width * 4;
        }
    }
    layers.push(linear("fc", "FC", 2048, 1000));
    Network { name: "ResNet50".into(), layers, default_batch: 32 }
}

/// MobileNetV2 (Sandler et al.): inverted residual bottlenecks.
pub fn mobilenet_v2() -> Network {
    let mut layers = vec![conv("conv0", "Block0", 3, 32, 3, 2, 1, 224)];
    // (expansion t, out channels c, repeats n, stride s) per the paper.
    let cfg: [(usize, usize, usize, usize); 7] = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    let mut in_ch = 32;
    let mut hw = 112;
    for (bi, (t, c, n, s)) in cfg.into_iter().enumerate() {
        let label = match bi {
            0 => "Block0",
            1 | 2 => "Block1",
            3 => "Block2",
            4 => "Block3",
            _ => "Block4",
        };
        for r in 0..n {
            let stride = if r == 0 { s } else { 1 };
            let hidden = in_ch * t;
            let tag = format!("ir{bi}_{r}");
            if t != 1 {
                layers.push(conv(&format!("{tag}_expand"), label, in_ch, hidden, 1, 1, 0, hw));
            }
            layers.push(Layer {
                name: format!("{tag}_dw"),
                block: label.into(),
                kind: LayerKind::DwConv2d { ch: hidden, k: 3, stride, pad: 1 },
                in_h: hw,
                in_w: hw,
            });
            let out_hw = if stride == 2 { hw / 2 } else { hw };
            layers.push(conv(&format!("{tag}_project"), label, hidden, c, 1, 1, 0, out_hw));
            if stride == 2 {
                hw /= 2;
            }
            in_ch = c;
        }
    }
    layers.push(conv("conv_last", "Block4", 320, 1280, 1, 1, 0, 7));
    layers.push(linear("fc", "FC", 1280, 1000));
    Network { name: "MobileNet".into(), layers, default_batch: 32 }
}

/// The MLP workload ("MLP1", LeCun et al. \[62\] family): MNIST-scale input,
/// two wide hidden layers. Fig. 9 groups it as Input / H1 / H2 / Output.
pub fn mlp() -> Network {
    let layers = vec![
        linear("input", "Input", 784, 2048),
        linear("h1", "H1", 2048, 2048),
        linear("h2", "H2", 2048, 2048),
        linear("output", "Output", 2048, 10),
    ];
    Network { name: "MLP1".into(), layers, default_batch: 128 }
}

/// AlphaGo Zero (Silver et al.): 19×19×17 input, 256-channel residual tower
/// (19 blocks), policy and value heads. Fig. 9 groups: Conv (stem),
/// Residual, PolicyHead, ValueHead.
pub fn alphago_zero() -> Network {
    let mut layers = vec![{
        let mut l = conv("stem", "Conv", 17, 256, 3, 1, 1, 19);
        l.in_h = 19;
        l.in_w = 19;
        l
    }];
    for b in 0..19 {
        layers.push(conv(&format!("res{b}_a"), "Residual", 256, 256, 3, 1, 1, 19));
        layers.push(conv(&format!("res{b}_b"), "Residual", 256, 256, 3, 1, 1, 19));
    }
    // Policy head: 1×1 conv to 2 planes + FC to 362 moves.
    layers.push(conv("policy_conv", "PolicyHead", 256, 2, 1, 1, 0, 19));
    layers.push(linear("policy_fc", "PolicyHead", 2 * 19 * 19, 362));
    // Value head: 1×1 conv to 1 plane + 256-wide FC + scalar.
    layers.push(conv("value_conv", "ValueHead", 256, 1, 1, 1, 0, 19));
    layers.push(linear("value_fc1", "ValueHead", 19 * 19, 256));
    layers.push(linear("value_fc2", "ValueHead", 256, 1));
    Network { name: "AlphaGoZero".into(), layers, default_batch: 32 }
}

/// All five evaluation networks in the paper's plotting order.
pub fn all_networks() -> Vec<Network> {
    vec![resnet18(), resnet50(), mobilenet_v2(), mlp(), alphago_zero()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet18_param_count() {
        // Conv + FC params of ResNet-18 ≈ 11.2 M (BN omitted, projections
        // included).
        let n = resnet18();
        let p = n.total_params();
        assert!((10_500_000..12_500_000).contains(&p), "ResNet-18 params {p}");
    }

    #[test]
    fn resnet18_macs() {
        // ≈ 1.8 GMACs per 224² sample.
        let n = resnet18();
        let m = n.total_macs();
        assert!((1_600_000_000..2_100_000_000).contains(&m), "MACs {m}");
    }

    #[test]
    fn resnet50_param_count() {
        // ≈ 25.5 M params; conv+fc only lands near 23–26 M.
        let n = resnet50();
        let p = n.total_params();
        assert!((22_000_000..27_000_000).contains(&p), "ResNet-50 params {p}");
    }

    #[test]
    fn resnet50_macs() {
        // ≈ 4.1 GMACs per sample.
        let m = resnet50().total_macs();
        assert!((3_500_000_000..4_500_000_000).contains(&m), "MACs {m}");
    }

    #[test]
    fn mobilenet_param_count() {
        // ≈ 3.4 M params (2.2 M in the backbone + 1.3 M classifier).
        let p = mobilenet_v2().total_params();
        assert!((2_800_000..3_900_000).contains(&p), "MobileNet params {p}");
    }

    #[test]
    fn mobilenet_macs() {
        // ≈ 300 MMACs per sample.
        let m = mobilenet_v2().total_macs();
        assert!((250_000_000..400_000_000).contains(&m), "MACs {m}");
    }

    #[test]
    fn alphago_zero_structure() {
        let n = alphago_zero();
        // 19 residual blocks × 2 convs + stem + 2 heads-worth of layers.
        assert_eq!(n.layers.iter().filter(|l| l.block == "Residual").count(), 38);
        // Residual tower dominates parameters.
        let tower: usize = n.block_layers("Residual").iter().map(|l| l.params()).sum();
        assert!(tower as f64 / n.total_params() as f64 > 0.9);
        // AlphaGo Zero convs have very high weight/activation ratios
        // (19×19 boards are tiny) — the Fig. 13 "great opportunities" case.
        let stem_ratio = n.layers[1].weight_activation_ratio();
        assert!(stem_ratio > 3.0, "ratio {stem_ratio}");
    }

    #[test]
    fn mlp_blocks_match_fig9() {
        let n = mlp();
        assert_eq!(n.blocks(), vec!["Input", "H1", "H2", "Output"]);
        assert_eq!(n.default_batch, 128);
    }

    #[test]
    fn resnet18_blocks_match_fig9() {
        let n = resnet18();
        assert_eq!(n.blocks(), vec!["Block0", "Block1", "Block2", "Block3", "Block4", "FC"]);
    }

    #[test]
    fn spatial_dims_stay_consistent() {
        // Walk ResNet-18 ensuring each conv's input dims match the previous
        // output dims within a stage chain (projections branch, so only
        // check the main path names).
        let n = resnet18();
        let l50 = n.layers.iter().find(|l| l.name == "conv5m_0").unwrap();
        assert_eq!(l50.in_h, 7);
        let (oh, ow) = l50.out_dims();
        assert_eq!((oh, ow), (7, 7));
    }

    #[test]
    fn all_networks_have_params_and_blocks() {
        for net in all_networks() {
            assert!(net.total_params() > 0, "{}", net.name);
            assert!(!net.blocks().is_empty());
            assert!(net.default_batch > 0);
        }
    }
}
