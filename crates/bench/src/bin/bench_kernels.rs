//! Kernel performance snapshot: emits `BENCH_kernels.json` so successive
//! changes can track the perf trajectory of the dense data path.
//!
//! Measures, on raw row-major buffers:
//!   * lane-wide `gemm_nt_f64` vs the naive `reference_gemm_nt_f64`
//!     (GFLOP/s each, plus the speedup ratio),
//!   * lane-wide `syrk_ln_f64` vs its reference,
//!   * blocked `potrf_blocked_f64`,
//!
//! and, on the tile path, the steady-state workspace reallocation count per
//! task (the allocation-free invariant: must be 0 after warmup), plus tile
//! GEMM GFLOP/s for every kernel precision and tile TRSM GFLOP/s for FP64 and
//! FP32 at nb ∈ {128, 256} (operands in their storage format, quantized
//! inside the call, serial kernel), and covariance-tile generation in
//! Melem/s — the tile kernel (`covariance_block`) against one
//! `covariance_entry` call per element — for Matérn ν = ½ and the squared
//! exponential at nb ∈ {128, 256}, and the likelihood tail on the factor
//! (`tile_loglik_tail`: tile log-det + forward solve against
//! `to_dense_lower` + the dense solve) at (n, nb) ∈ {(2048, 256),
//! (1024, 128)}. The file is stamped with the host fingerprint (CPU model,
//! SIMD flags, nproc, rustc, git revision).
//!
//! Run: `cargo run --release -p mixedp-bench --bin bench_kernels`
//! Options: `--n=256 --reps=7 --out=BENCH_kernels.json`

use mixedp_bench::timing::{host_fingerprint_json, median_secs, pseudo};
use mixedp_bench::Args;
use mixedp_core::wire::{pack_tile_into, quantize_through_wire, reference_through_wire, Packing};
use mixedp_fp::{storage_precision_of, CommPrecision, Precision, StoragePrecision};
use mixedp_geostats::covariance::{covariance_block, covariance_entry};
use mixedp_geostats::{gen_locations_2d, CovarianceModel, Matern2d, SqExp};
use mixedp_kernels::{
    blas, forward_solve_in_place, forward_solve_tiled, gemm_tile_ws, log_det_tiled,
    potrf_blocked_f64, potrf_tile_ws, reference_gemm_nt_f64, reference_potrf_f64,
    reference_syrk_ln_f64, trsm_tile_ws, Workspace,
};
use mixedp_tile::{SymmTileMatrix, Tile};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Entry {
    name: &'static str,
    gflops: f64,
    secs: f64,
}

fn main() {
    let args = Args::parse();
    let n = args.get_usize("n", 256);
    let reps = args.get_usize("reps", 7);
    let out = args.get_str("out", "BENCH_kernels.json");

    let a = pseudo(n * n, 1);
    let b = pseudo(n * n, 2);
    let c0 = pseudo(n * n, 3);
    let mut c = c0.clone();

    let mut entries: Vec<Entry> = Vec::new();
    let mut push = |name, flops: f64, secs: f64| {
        let gflops = flops / secs / 1e9;
        println!("{name:<24} {secs:>10.6} s   {gflops:>8.2} GFLOP/s");
        entries.push(Entry { name, gflops, secs });
    };

    let gemm_flops = 2.0 * (n * n * n) as f64;
    let t = median_secs(reps, || {
        c.copy_from_slice(&c0);
        blas::gemm_nt_f64_p(&a, &b, &mut c, n, n, n, false);
    });
    push("gemm_nt_f64_blocked", gemm_flops, t);
    let t_blk = t;

    let t = median_secs(reps, || {
        c.copy_from_slice(&c0);
        reference_gemm_nt_f64(&a, &b, &mut c, n, n, n);
    });
    push("gemm_nt_f64_reference", gemm_flops, t);
    let gemm_speedup = t / t_blk;

    let syrk_flops = (n * (n + 1) * n) as f64;
    let t = median_secs(reps, || {
        c.copy_from_slice(&c0);
        blas::syrk_ln_f64_p(&a, n, n, &mut c, false);
    });
    push("syrk_ln_f64_blocked", syrk_flops, t);
    let t_syrk = t;
    let t = median_secs(reps, || {
        c.copy_from_slice(&c0);
        reference_syrk_ln_f64(&a, n, n, &mut c);
    });
    push("syrk_ln_f64_reference", syrk_flops, t);
    let syrk_speedup = t / t_syrk;

    // SPD matrix for the factorizations.
    let mut spd = pseudo(n * n, 4);
    for i in 0..n {
        for j in 0..i {
            let v = 0.5 * (spd[i * n + j] + spd[j * n + i]);
            spd[i * n + j] = v;
            spd[j * n + i] = v;
        }
        spd[i * n + i] += n as f64;
    }
    let potrf_flops = (n * n * n) as f64 / 3.0;
    let mut w = spd.clone();
    let t = median_secs(reps, || {
        w.copy_from_slice(&spd);
        potrf_blocked_f64(&mut w, n, 64).unwrap();
    });
    push("potrf_f64_blocked", potrf_flops, t);
    let t = median_secs(reps, || {
        w.copy_from_slice(&spd);
        reference_potrf_f64(&mut w, n).unwrap();
    });
    push("potrf_f64_reference", potrf_flops, t);

    // Allocation-free steady state: workspace grow events per task after the
    // first (warmup) task of each shape, on the tile GEMM path.
    let ta = Tile::from_f64(n, n, &a, StoragePrecision::F64);
    let tb = Tile::from_f64(n, n, &b, StoragePrecision::F64);
    let mut ws = Workspace::new();
    let mut tc = Tile::from_f64(n, n, &c0, StoragePrecision::F64);
    gemm_tile_ws(Precision::Fp32, &ta, &tb, &mut tc, &mut ws, false);
    let warm = ws.grow_events();
    let tasks = 32u64;
    for _ in 0..tasks {
        gemm_tile_ws(Precision::Fp32, &ta, &tb, &mut tc, &mut ws, false);
    }
    let allocs_per_task = (ws.grow_events() - warm) as f64 / tasks as f64;
    println!("steady-state workspace reallocations per task: {allocs_per_task}");
    println!("gemm blocked-vs-reference speedup: {gemm_speedup:.2}x");
    println!("syrk blocked-vs-reference speedup: {syrk_speedup:.2}x");

    // Tile GEMM per kernel precision, on tiles stored as the precision map
    // stores them (FP16-class tiles in FP32).
    let mut tile_rows: Vec<(Precision, usize, f64)> = Vec::new();
    for nb in [128, 256] {
        for p in Precision::ALL {
            let sp = storage_precision_of(p);
            let ta = Tile::from_f64(nb, nb, &pseudo(nb * nb, 5), sp);
            let tb = Tile::from_f64(nb, nb, &pseudo(nb * nb, 6), sp);
            let c_init = pseudo(nb * nb, 7);
            let mut tc = Tile::from_f64(nb, nb, &c_init, sp);
            let t = median_secs(reps, || {
                tc.store_f64(&c_init);
                gemm_tile_ws(p, &ta, &tb, &mut tc, &mut ws, false);
            });
            let gflops = 2.0 * (nb * nb * nb) as f64 / t / 1e9;
            println!(
                "tile gemm {:<8} nb={nb:<4} {gflops:>8.2} GFLOP/s",
                p.label()
            );
            tile_rows.push((p, nb, gflops));
        }
    }

    // Tile TRSM (`X Lᵀ = B`) at the two precisions it executes in; L is the
    // factor of a diagonally dominant tile, both tiles in storage format.
    let mut trsm_rows: Vec<(Precision, usize, f64)> = Vec::new();
    for nb in [128, 256] {
        let mut d = pseudo(nb * nb, 8);
        for i in 0..nb {
            for j in 0..i {
                d[j * nb + i] = d[i * nb + j];
            }
            d[i * nb + i] += nb as f64;
        }
        let mut l = Tile::from_f64(nb, nb, &d, StoragePrecision::F64);
        potrf_tile_ws(&mut l, &mut ws, false).expect("diagonally dominant tile is SPD");
        for p in [Precision::Fp64, Precision::Fp32] {
            let sp = storage_precision_of(p);
            let lp = Tile::from_f64(nb, nb, &l.to_f64(), sp);
            let b_init = pseudo(nb * nb, 9);
            let mut tb = Tile::from_f64(nb, nb, &b_init, sp);
            let t = median_secs(reps, || {
                tb.store_f64(&b_init);
                trsm_tile_ws(p, &lp, &mut tb, &mut ws, false);
            });
            let gflops = (nb * nb * nb) as f64 / t / 1e9;
            println!(
                "tile trsm {:<8} nb={nb:<4} {gflops:>8.2} GFLOP/s",
                p.label()
            );
            trsm_rows.push((p, nb, gflops));
        }
    }

    // Covariance-tile generation: the off-diagonal tile between two
    // neighbouring tile-rows of a Morton-ordered location set (the
    // loglik workloads' geometry), θ as in those workloads.
    let cov_locs = gen_locations_2d(1024, &mut StdRng::seed_from_u64(1));
    let cov_models: [(&str, &dyn CovarianceModel, &[f64]); 2] = [
        ("matern_nu0.5", &Matern2d, &[1.0, 0.1, 0.5]),
        ("sqexp", &SqExp::new2d(), &[1.0, 0.1]),
    ];
    let mut cov_rows: Vec<(&str, usize, f64, f64)> = Vec::new();
    for nb in [128, 256] {
        for &(name, model, theta) in &cov_models {
            let (cols, rows) = cov_locs[..2 * nb].split_at(nb);
            let mut out = vec![0.0; nb * nb];
            let t_tile = median_secs(reps, || {
                covariance_block(model, rows, cols, theta, false, &mut out);
            });
            let t_entry = median_secs(reps, || {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = covariance_entry(model, &cov_locs, nb + i / nb, i % nb, theta);
                }
            });
            let melems = |t: f64| (nb * nb) as f64 / t / 1e6;
            println!(
                "tile cov  {name:<12} nb={nb:<4} {:>8.2} Melem/s (per-entry {:.2})",
                melems(t_tile),
                melems(t_entry)
            );
            cov_rows.push((name, nb, melems(t_tile), melems(t_entry)));
        }
    }

    // Conversion / pack throughput: the wire engine's fused one-pass
    // quantization vs the old two-pass (narrow Tile then widen) route, plus
    // the fused convert-and-pack itself, per wire precision.
    let elems = (n * n) as f64;
    let conv_src = Tile::from_f64(n, n, &a, StoragePrecision::F64);
    let mut conv_rows: Vec<(&'static str, f64, f64, f64)> = Vec::new();
    for (wname, wire) in [
        ("fp16", CommPrecision::Fp16),
        ("fp32", CommPrecision::Fp32),
        ("fp64", CommPrecision::Fp64),
    ] {
        let mut sink = Tile::zeros(1, 1, StoragePrecision::F64);
        let t_fused = median_secs(reps, || {
            sink = quantize_through_wire(&conv_src, wire);
        });
        let t_two = median_secs(reps, || {
            sink = reference_through_wire(&conv_src, wire);
        });
        let mut buf = Vec::new();
        let t_pack = median_secs(reps, || {
            buf.clear();
            pack_tile_into(&conv_src, wire, Packing::Full, &mut buf);
        });
        let row = (
            wname,
            elems / t_fused / 1e6,
            elems / t_two / 1e6,
            elems / t_pack / 1e6,
        );
        println!(
            "convert {wname}: fused {:.1} Melem/s, two-pass {:.1} Melem/s, pack {:.1} Melem/s",
            row.1, row.2, row.3
        );
        conv_rows.push(row);
    }

    // The tail of a likelihood evaluation on the factor: log-det and
    // forward solve on the tiles, against the dense route (an n × n
    // `to_dense_lower` copy, then the ln-sum and `forward_solve_in_place`).
    // Same bits either way; F64 tiles, as on the near-FP64 map.
    let mut tail_rows: Vec<(usize, usize, f64, f64)> = Vec::new();
    for (tn, nb) in [(2048, 256), (1024, 128)] {
        let off = pseudo(tn * tn, 10);
        let l = SymmTileMatrix::from_fn(
            tn,
            nb,
            |i, j| {
                if i == j {
                    1.0 + off[i * tn + i].abs()
                } else {
                    off[i * tn + j] / tn as f64
                }
            },
            |_, _| StoragePrecision::F64,
        );
        let z = pseudo(tn, 11);
        let mut v = z.clone();
        let mut ll_tile = 0.0;
        let t_tile = median_secs(reps, || {
            v.copy_from_slice(&z);
            let ld = log_det_tiled(&l).unwrap();
            forward_solve_tiled(&l, &mut v);
            ll_tile = ld + v[tn - 1];
        });
        let mut ll_dense = 0.0;
        let t_dense = median_secs(reps, || {
            let d = l.to_dense_lower();
            let ld = (0..tn).fold(0.0, |s, i| s + d.data()[i * tn + i].ln());
            v.copy_from_slice(&z);
            forward_solve_in_place(d.data(), tn, &mut v);
            ll_dense = ld + v[tn - 1];
        });
        assert_eq!(
            ll_tile.to_bits(),
            ll_dense.to_bits(),
            "tile and dense tails differ"
        );
        println!(
            "loglik tail n={tn:<5} nb={nb:<4} tile {:.3} ms, dense {:.3} ms ({:.2}x)",
            t_tile * 1e3,
            t_dense * 1e3,
            t_dense / t_tile
        );
        tail_rows.push((tn, nb, t_tile, t_dense));
    }

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host\": {},\n", host_fingerprint_json()));
    json.push_str(&format!("  \"n\": {n},\n  \"reps\": {reps},\n"));
    json.push_str("  \"kernels\": {\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{}\": {{\"gflops\": {:.4}, \"seconds\": {:.6}}}{}\n",
            e.name, e.gflops, e.secs, comma
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"gemm_speedup_vs_reference\": {gemm_speedup:.3},\n"
    ));
    json.push_str(&format!(
        "  \"syrk_speedup_vs_reference\": {syrk_speedup:.3},\n"
    ));
    json.push_str(&format!(
        "  \"workspace_reallocs_per_task\": {allocs_per_task},\n"
    ));
    json.push_str("  \"tile_gemm_gflops\": {\n");
    for (i, (p, nb, gflops)) in tile_rows.iter().enumerate() {
        let comma = if i + 1 == tile_rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{}_nb{nb}\": {gflops:.4}{comma}\n",
            p.label()
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"tile_trsm_gflops\": {\n");
    for (i, (p, nb, gflops)) in trsm_rows.iter().enumerate() {
        let comma = if i + 1 == trsm_rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{}_nb{nb}\": {gflops:.4}{comma}\n",
            p.label()
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"tile_cov_melems\": {\n");
    for (i, (name, nb, tile, entry)) in cov_rows.iter().enumerate() {
        let comma = if i + 1 == cov_rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{name}_nb{nb}\": {{\"tile\": {tile:.3}, \"per_entry\": {entry:.3}}}{comma}\n"
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"tile_loglik_tail\": {\n");
    for (i, (tn, nb, tile, dense)) in tail_rows.iter().enumerate() {
        let comma = if i + 1 == tail_rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"n{tn}_nb{nb}\": {{\"tile_s\": {tile:.6}, \"dense_s\": {dense:.6}, \"speedup\": {:.3}}}{comma}\n",
            dense / tile
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"conversion\": {\n");
    for (i, (wname, fused, two, pack)) in conv_rows.iter().enumerate() {
        let comma = if i + 1 == conv_rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{wname}\": {{\"fused_melems\": {fused:.2}, \"two_pass_melems\": {two:.2}, \"pack_melems\": {pack:.2}}}{comma}\n"
        ));
    }
    json.push_str("  }\n");
    json.push_str("}\n");
    std::fs::write(&out, json).expect("write BENCH_kernels.json");
    println!("wrote {out}");
}
