//! Fig 10 reproduction: power traces, total energy (J), and Gflops/W of
//! full-FP64 Cholesky vs the adaptive mixed-precision approach (STC) for
//! the three applications, on one V100 / A100 / H100.
//!
//! The per-application precision maps come from the sampled-norm estimator
//! at each GPU's Fig 10 matrix size (V100: 61,440 — the largest FP64
//! matrix that fits; A100/H100: 122,880 — capped by Haxane's host memory).
//!
//! Run: `cargo run --release -p mixedp-bench --bin fig10_power \
//!       [--nb=2048] [--bins=30] [--scale=1]`

use mixedp_bench::{approx_precision_map, App, Args};
use mixedp_core::{simulate_cholesky, uniform_map, CholeskySimOptions, WirePolicy};
use mixedp_fp::Precision;
use mixedp_gpusim::{ClusterSpec, GpuGeneration, NodeSpec, SimReport};

fn sparkline(vals: &[f64], max: f64) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    vals.iter()
        .map(|&v| BARS[((v / max).clamp(0.0, 1.0) * 7.0).round() as usize])
        .collect()
}

fn report_line(label: &str, rep: &SimReport, tdp: f64, bins: usize) {
    let watts = rep.power[0].sampled_watts(rep.makespan_s, bins);
    println!(
        "{label:<14} {:>7.1}s {:>9.0} J {:>7.2} Gflops/W  {}",
        rep.makespan_s,
        rep.energy_joules(),
        rep.gflops_per_watt(),
        sparkline(&watts, tdp)
    );
}

fn main() {
    let args = Args::parse();
    let nb = args.get_usize("nb", 2048);
    let bins = args.get_usize("bins", 30);
    // scale > 1 shrinks the matrix for quick runs
    let scale = args.get_usize("scale", 1).max(1);

    for g in GpuGeneration::ALL {
        let (node, n) = match g {
            GpuGeneration::V100 => (NodeSpec::summit().single_gpu(), 61_440 / scale),
            GpuGeneration::A100 => {
                let mut nd = NodeSpec::guyot();
                nd.gpus = 1;
                (nd, 122_880 / scale)
            }
            GpuGeneration::H100 => (NodeSpec::haxane(), 122_880 / scale),
        };
        let cluster = ClusterSpec::new(node, 1);
        let nt = n / nb;
        let spec = g.spec();
        println!(
            "=== Fig 10, one {} (matrix {n}, TDP {:.0} W — bar scale) ===",
            g.label(),
            spec.tdp_watts
        );

        let opts = CholeskySimOptions {
            nb,
            strategy: WirePolicy::Auto,
        };
        let fp64 = simulate_cholesky(&uniform_map(nt, Precision::Fp64), &cluster, opts);
        report_line("FP64", &fp64, spec.tdp_watts, bins);
        for app in App::ALL {
            let pmap = approx_precision_map(app, nt * nb, nb, app.accuracy(), 8, 11);
            let rep = simulate_cholesky(&pmap, &cluster, opts);
            report_line(app.label(), &rep, spec.tdp_watts, bins);
            let saving = 100.0 * (1.0 - rep.energy_joules() / fp64.energy_joules());
            println!("{:<14} energy saving vs FP64: {saving:.0}%", "");
        }
        println!();
    }
    println!("paper shape: MP shortens the trace at similar draw => large energy");
    println!("savings; savings are biggest on V100 and smaller on A100/H100 (FP64");
    println!("tensor cores match FP32 peak there), smallest for 3D-sqexp whose map");
    println!("keeps most tiles in FP64/FP32; H100 stays below max TDP throughout.");
}
