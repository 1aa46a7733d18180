//! Criterion bench: raw interpreter block throughput, scalar vs warp tier,
//! sequential vs block-parallel.
//!
//! A compute-heavy 32-block Mandelbrot-style kernel is launched through the
//! interpreter on every (tier, workers) combination: `workers = 1` is the
//! sequential grid loop, `workers = 4` the persistent worker pool with
//! deterministic merge; [`Tier::Scalar`] is the per-thread reference
//! interpreter and [`Tier::Warp`] the 32-lane lockstep engine over the
//! pre-decoded op stream. On a multi-core host the parallel rows should
//! approach the core count; on a single core they bound the parallel
//! engine's overhead instead. Warp rows should beat their scalar
//! counterparts outright — that is the tier's whole claim.
//!
//! The `nbody` rows launch the suite's all-pairs N-body kernel on the warp
//! tier: F32 loads, `sqrt`, `div` and fused `mad` over all-float register
//! rows, so the tier's F32 lane loops have a standing microbench.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sigmavp_sptx::asm;
use sigmavp_sptx::interp::{Interpreter, LaunchConfig, Memory, ParamValue};
use sigmavp_sptx::Tier;
use sigmavp_workloads::kernels;

/// An iteration-heavy kernel: every thread runs a 64-trip escape loop over
/// its own f64 cell, then stores the iteration count — compute-dominated,
/// race-free, block-independent.
const KERNEL: &str = r#".kernel escape
entry:
    rs r0, gtid
    ldp r1, 0
    mov r2, 8
    mul.i64 r2, r0, r2
    add.i64 r2, r2, r1
    ld.f64 r3, [r2]
    mov.f64 r4, 0.0
    mov r5, 0
    mov r6, 1
    mov r7, 64
    bra loop
loop:
    mul.f64 r4, r4, r4
    add.f64 r4, r4, r3
    add.i64 r5, r5, r6
    setp.lt.i64 p0, r5, r7
    @p0 bra loop, done
done:
    st.i64 [r2], r5
    ret
"#;

fn bench_interp(c: &mut Criterion) {
    let program = asm::parse(KERNEL).expect("kernel parses");
    let (grid, block) = (32u32, 64u32);
    let bytes = u64::from(grid) * u64::from(block) * 8;
    let cfg = LaunchConfig::linear(grid, block);
    let mut g = c.benchmark_group("interp");
    g.sample_size(10);
    for (tier, tier_name) in [(Tier::Scalar, "scalar"), (Tier::Warp, "warp")] {
        for workers in [1u32, 4] {
            let interp = Interpreter::new().with_tier(tier).with_workers(workers);
            g.bench_function(format!("escape_32x64_{tier_name}_workers_{workers}"), |b| {
                let mut mem = Memory::new(bytes as usize);
                for t in 0..(grid * block) as u64 {
                    mem.write_f64(t * 8, -0.1 - (t as f64) * 1e-6).unwrap();
                }
                b.iter(|| {
                    interp
                        .run(&program, &cfg, black_box(&[ParamValue::Ptr(0)]), &mut mem)
                        .expect("launch succeeds")
                })
            });
        }
    }
    g.finish();
}

fn bench_nbody(c: &mut Criterion) {
    // 256 bodies: two 128-thread CTAs, each body looping over all 256.
    let program = kernels::nbody();
    let n = 256u64;
    let cfg = LaunchConfig::linear((n / 128) as u32, 128);
    let (px, py, ax, ay) = (0, n * 4, 2 * n * 4, 3 * n * 4);
    let params = [
        ParamValue::Ptr(px),
        ParamValue::Ptr(py),
        ParamValue::Ptr(ax),
        ParamValue::Ptr(ay),
        ParamValue::I64(n as i64),
        ParamValue::F32(0.5),
    ];
    let mut g = c.benchmark_group("interp");
    g.sample_size(10);
    for workers in [1u32, 4] {
        let interp = Interpreter::new().with_tier(Tier::Warp).with_workers(workers);
        g.bench_function(format!("nbody_256_warp_workers_{workers}"), |b| {
            let mut mem = Memory::new((4 * n * 4) as usize);
            for i in 0..n {
                mem.write_f32(px + i * 4, (i % 16) as f32 * 0.75).unwrap();
                mem.write_f32(py + i * 4, (i / 16) as f32 * 0.75).unwrap();
            }
            b.iter(|| {
                interp.run(&program, &cfg, black_box(&params), &mut mem).expect("launch succeeds")
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_interp, bench_nbody);
criterion_main!(benches);
