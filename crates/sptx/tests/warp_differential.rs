//! Differential property testing of the warp-lockstep tier: for random
//! programs, launch shapes and parameters, warp execution
//! ([`Tier::Warp`], workers ∈ {1, 4}) must be observationally identical to
//! the scalar reference interpreter ([`Tier::Scalar`]) — same
//! [`ExecutionProfile`] (class counts, per-block iteration counts, memory
//! trace, unique segments), same final memory bytes, same error value —
//! across success, divergence-heavy, faulting, intra-warp-hazard and
//! budget-exhaustion outcomes, and on registers whose lanes hold different
//! kinds (f64 in some, i64 in others) after divergent paths reconverge.

use proptest::prelude::*;

use sigmavp_sptx::builder::{for_loop, ProgramBuilder};
use sigmavp_sptx::counters::ExecutionProfile;
use sigmavp_sptx::interp::{Interpreter, LaunchConfig, Memory, ParamValue};
use sigmavp_sptx::isa::{BinOp, CmpOp, Reg, ScalarType, Special, UnaryOp};
use sigmavp_sptx::{KernelProgram, SptxError, Tier};

const NREGS: usize = 5;
const WORKER_COUNTS: [u32; 2] = [1, 4];

/// One randomly chosen fault-free operation over the scratch register file.
#[derive(Debug, Clone)]
enum RandomOp {
    Bin { op: usize, ty: usize, dst: usize, a: usize, b: usize },
    Un { op: usize, ty: usize, dst: usize, a: usize },
    Mad { ty: usize, dst: usize, a: usize, b: usize, c: usize },
    Cvt { to: usize, dst: usize, src: usize },
}

fn arb_op() -> impl Strategy<Value = RandomOp> {
    let r = 0usize..NREGS;
    prop_oneof![
        (0usize..10, 0usize..3, r.clone(), r.clone(), r.clone())
            .prop_map(|(op, ty, dst, a, b)| RandomOp::Bin { op, ty, dst, a, b }),
        (0usize..8, 0usize..3, r.clone(), r.clone()).prop_map(|(op, ty, dst, a)| RandomOp::Un {
            op,
            ty,
            dst,
            a
        }),
        (0usize..3, r.clone(), r.clone(), r.clone(), r.clone())
            .prop_map(|(ty, dst, a, b, c)| RandomOp::Mad { ty, dst, a, b, c }),
        (0usize..3, r.clone(), r).prop_map(|(to, dst, src)| RandomOp::Cvt { to, dst, src }),
    ]
}

fn ty_of(sel: usize) -> ScalarType {
    [ScalarType::F32, ScalarType::F64, ScalarType::I64][sel % 3]
}

fn bin_of(sel: usize) -> BinOp {
    // Div/Rem excluded here: faults are exercised by the dedicated
    // divergent-fault property below.
    [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Min,
        BinOp::Max,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
    ][sel % 10]
}

fn un_of(sel: usize) -> UnaryOp {
    [
        UnaryOp::Neg,
        UnaryOp::Abs,
        UnaryOp::Sqrt,
        UnaryOp::Exp,
        UnaryOp::Log,
        UnaryOp::Sin,
        UnaryOp::Cos,
        UnaryOp::Not,
    ][sel % 8]
}

fn emit(b: &mut ProgramBuilder, regs: &[Reg], ops: &[RandomOp]) {
    for op in ops {
        match op {
            RandomOp::Bin { op, ty, dst, a, b: rb } => {
                b.binop(bin_of(*op), ty_of(*ty), regs[*dst], regs[*a], regs[*rb]);
            }
            RandomOp::Un { op, ty, dst, a } => {
                b.unop(un_of(*op), ty_of(*ty), regs[*dst], regs[*a]);
            }
            RandomOp::Mad { ty, dst, a, b: rb, c } => {
                b.mad(ty_of(*ty), regs[*dst], regs[*a], regs[*rb], regs[*c]);
            }
            RandomOp::Cvt { to, dst, src } => {
                b.cvt(ty_of(*to), ScalarType::F64, regs[*dst], regs[*src]);
            }
        }
    }
}

/// A divergence-heavy random kernel: every thread reads `input[gtid]`, takes a
/// data-dependent branch (threads whose `tid & mask` is non-zero run `then_ops`
/// inside a *per-thread-variable* counted loop, the rest run `else_ops`
/// straight-line), then both sides reconverge and store all scratch registers
/// to the thread's private output slot. Warps see every shape of divergence —
/// full, partial, and none — depending on the mask and block size.
fn build_divergent_kernel(
    seed_i: i64,
    seed_f: f64,
    then_ops: &[RandomOp],
    else_ops: &[RandomOp],
    mask: i64,
) -> KernelProgram {
    let mut b = ProgramBuilder::new("warp_diff");
    let gtid = b.reg();
    let tid = b.reg();
    b.read_special(gtid, Special::GlobalTid).read_special(tid, Special::TidX);
    let regs: Vec<Reg> = (0..NREGS).map(|_| b.reg()).collect();
    let inbase = b.reg();
    b.ld_param(inbase, 0)
        .ld_indexed(ScalarType::F64, regs[0], inbase, gtid, 0)
        .mov(regs[1], gtid)
        .mov_imm_i(regs[2], seed_i)
        .mov_imm_f(regs[3], seed_f)
        .mov(regs[4], tid);

    // sel = tid & mask; diverge on sel != 0.
    let (selr, zero) = (b.reg(), b.reg());
    let p = b.pred();
    b.mov_imm_i(selr, mask)
        .binop(BinOp::And, ScalarType::I64, selr, tid, selr)
        .mov_imm_i(zero, 0)
        .setp(CmpOp::Ne, ScalarType::I64, p, selr, zero);
    let then_blk = b.declare_block();
    let else_blk = b.declare_block();
    let merge = b.declare_block();
    b.cond_bra(p, then_blk, else_blk);

    // Then side: a loop whose trip count varies per thread (sel ∈ 1..=mask),
    // so lanes fall out of the loop at different iterations.
    b.switch_to(then_blk);
    let (ctr, one) = (b.reg(), b.reg());
    let ploop = b.pred();
    b.mov(ctr, selr).mov_imm_i(one, 1);
    let header = b.declare_block();
    let body = b.declare_block();
    b.bra(header);
    b.switch_to(header);
    b.setp(CmpOp::Gt, ScalarType::I64, ploop, ctr, zero).cond_bra(ploop, body, merge);
    b.switch_to(body);
    emit(&mut b, &regs, then_ops);
    b.binop(BinOp::Sub, ScalarType::I64, ctr, ctr, one).bra(header);

    // Else side: straight-line.
    b.switch_to(else_blk);
    emit(&mut b, &regs, else_ops);
    b.bra(merge);

    b.switch_to(merge);
    let (outbase, stride, addr) = (b.reg(), b.reg(), b.reg());
    b.ld_param(outbase, 1)
        .mov_imm_i(stride, (NREGS * 8) as i64)
        .binop(BinOp::Mul, ScalarType::I64, addr, gtid, stride)
        .binop(BinOp::Add, ScalarType::I64, addr, addr, outbase);
    for (i, r) in regs.iter().enumerate() {
        b.st(ScalarType::F64, addr, (i * 8) as i64, *r);
    }
    b.ret();
    b.build().expect("generated kernel is structurally valid")
}

/// A kernel whose scratch registers reach the merge block holding different
/// kinds per lane: a divergent branch on `tid & mask` writes register `i`
/// as an f64 on one side and as an i64 on the other (`then_floats` bit `i`
/// picks which), with per-lane values. The mixed rows then feed `ops` and an
/// I64 `setp` whose divergent branch runs a `mov` plus `yes_ops`, or
/// `no_ops`, before every register is stored (even ones as f64, odd ones as
/// i64, so both conversions reach memory).
#[allow(clippy::too_many_arguments)]
fn build_mixed_kind_kernel(
    then_floats: u32,
    mask: i64,
    ops: &[RandomOp],
    mov: (usize, usize),
    cmp: (usize, usize),
    yes_ops: &[RandomOp],
    no_ops: &[RandomOp],
    scale: f64,
) -> KernelProgram {
    let mut b = ProgramBuilder::new("warp_mixed");
    let (gtid, tid) = (b.reg(), b.reg());
    b.read_special(gtid, Special::GlobalTid).read_special(tid, Special::TidX);
    let regs: Vec<Reg> = (0..NREGS).map(|_| b.reg()).collect();
    let (selr, zero, k) = (b.reg(), b.reg(), b.reg());
    let p = b.pred();
    b.mov_imm_i(selr, mask)
        .binop(BinOp::And, ScalarType::I64, selr, tid, selr)
        .mov_imm_i(zero, 0)
        .setp(CmpOp::Ne, ScalarType::I64, p, selr, zero);
    let then_blk = b.declare_block();
    let else_blk = b.declare_block();
    let merge = b.declare_block();
    b.cond_bra(p, then_blk, else_blk);

    // Register i = gtid * (i + 2) - 7 as an i64, or the same scaled into an
    // f64, so every lane holds a different value of the side's kind.
    let write_side = |b: &mut ProgramBuilder, floats: u32| {
        for (i, r) in regs.iter().enumerate() {
            b.mov_imm_i(k, i as i64 + 2)
                .binop(BinOp::Mul, ScalarType::I64, *r, gtid, k)
                .mov_imm_i(k, -7)
                .binop(BinOp::Add, ScalarType::I64, *r, *r, k);
            if floats >> i & 1 != 0 {
                b.cvt(ScalarType::F64, ScalarType::I64, *r, *r).mov_imm_f(k, scale).binop(
                    BinOp::Mul,
                    ScalarType::F64,
                    *r,
                    *r,
                    k,
                );
            }
        }
    };
    b.switch_to(then_blk);
    write_side(&mut b, then_floats);
    b.bra(merge);
    b.switch_to(else_blk);
    write_side(&mut b, !then_floats);
    b.bra(merge);

    b.switch_to(merge);
    emit(&mut b, &regs, ops);
    let q = b.pred();
    let yes = b.declare_block();
    let no = b.declare_block();
    let store = b.declare_block();
    b.setp(CmpOp::Lt, ScalarType::I64, q, regs[cmp.0], regs[cmp.1]).cond_bra(q, yes, no);
    b.switch_to(yes);
    // Under a partial mask, so the copy must keep the inactive lanes' kinds.
    b.mov(regs[mov.0], regs[mov.1]);
    emit(&mut b, &regs, yes_ops);
    b.bra(store);
    b.switch_to(no);
    emit(&mut b, &regs, no_ops);
    b.bra(store);

    b.switch_to(store);
    let (outbase, stride, addr) = (b.reg(), b.reg(), b.reg());
    b.ld_param(outbase, 1)
        .mov_imm_i(stride, (NREGS * 8) as i64)
        .binop(BinOp::Mul, ScalarType::I64, addr, gtid, stride)
        .binop(BinOp::Add, ScalarType::I64, addr, addr, outbase);
    for (i, r) in regs.iter().enumerate() {
        let ty = if i % 2 == 0 { ScalarType::F64 } else { ScalarType::I64 };
        b.st(ty, addr, (i * 8) as i64, *r);
    }
    b.ret();
    b.build().expect("generated kernel is structurally valid")
}

/// Run `program` at the given tier and worker count on a fresh memory image
/// (input region seeded deterministically), returning the outcome and the
/// final memory bytes.
fn run_tier(
    program: &KernelProgram,
    cfg: &LaunchConfig,
    tier: Tier,
    workers: u32,
    budget: Option<u64>,
) -> (Result<ExecutionProfile, SptxError>, Vec<u8>) {
    let threads = cfg.total_threads() as usize;
    let out_base = threads * 8;
    let mut mem = Memory::new(out_base + threads * NREGS * 8);
    for t in 0..threads {
        mem.write_f64(t as u64 * 8, (t as f64).mul_add(-3.25, 1000.5)).unwrap();
    }
    let mut interp = Interpreter::new().with_tier(tier).with_workers(workers);
    if let Some(budget) = budget {
        interp = interp.with_budget(budget);
    }
    let params = [ParamValue::Ptr(0), ParamValue::Ptr(out_base as u64)];
    let result = interp.run(program, cfg, &params, &mut mem);
    (result, mem.as_bytes().to_vec())
}

/// Assert warp execution at every worker count is observationally identical to
/// the scalar reference on the same launch.
fn assert_tiers_agree(
    program: &KernelProgram,
    cfg: &LaunchConfig,
    budget: Option<u64>,
    what: &str,
) {
    let (scalar, scalar_mem) = run_tier(program, cfg, Tier::Scalar, 1, budget);
    for workers in WORKER_COUNTS {
        let (warp, warp_mem) = run_tier(program, cfg, Tier::Warp, workers, budget);
        match (&scalar, &warp) {
            (Ok(s), Ok(w)) => assert_eq!(s, w, "{what}: profile diverged at workers={workers}"),
            (Err(s), Err(w)) => assert_eq!(s, w, "{what}: error diverged at workers={workers}"),
            _ => panic!(
                "{what}: outcome diverged at workers={workers}: scalar={scalar:?} warp={warp:?}"
            ),
        }
        assert_eq!(scalar_mem, warp_mem, "{what}: memory diverged at workers={workers}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn warp_matches_scalar_under_divergence(
        seed_i in -1_000_000i64..1_000_000,
        seed_f in -1.0e6f64..1.0e6,
        then_ops in proptest::collection::vec(arb_op(), 0..12),
        else_ops in proptest::collection::vec(arb_op(), 0..12),
        grid in 1u32..7,
        block in 1u32..70,
        mask in 0i64..8,
    ) {
        let program = build_divergent_kernel(seed_i, seed_f, &then_ops, &else_ops, mask);
        let cfg = LaunchConfig::linear(grid, block);
        let (scalar, scalar_mem) = run_tier(&program, &cfg, Tier::Scalar, 1, None);
        let scalar = scalar.expect("race-free random kernel executes");
        for workers in WORKER_COUNTS {
            let (warp, warp_mem) = run_tier(&program, &cfg, Tier::Warp, workers, None);
            let warp = warp.expect("warp execution of the same kernel succeeds");
            prop_assert_eq!(&scalar, &warp, "profile diverged at workers={}", workers);
            prop_assert_eq!(&scalar_mem, &warp_mem, "memory diverged at workers={}", workers);
        }
    }

    #[test]
    fn divergent_fault_matches_scalar(
        grid in 1u32..6,
        block in 1u32..70,
        fault_thread in 0u32..512,
    ) {
        // Exactly one (ctaid, tid) divides by zero, on the taken side of a
        // divergent branch. The warp tier must surface the identical error —
        // first fault in (ctaid, tid) order — and the identical partial
        // memory image (stores by earlier threads committed, later ones not).
        let fault_gtid = i64::from(fault_thread % (grid * block));
        let mut b = ProgramBuilder::new("warp_fault");
        let (gtid, outbase, k, one) = (b.reg(), b.reg(), b.reg(), b.reg());
        let p = b.pred();
        b.read_special(gtid, Special::GlobalTid)
            .ld_param(outbase, 0)
            .st_indexed(ScalarType::I64, outbase, gtid, 0, gtid)
            .mov_imm_i(k, fault_gtid)
            .setp(CmpOp::Eq, ScalarType::I64, p, gtid, k);
        let boom = b.declare_block();
        let done = b.declare_block();
        b.cond_bra(p, boom, done);
        b.switch_to(boom);
        b.binop(BinOp::Sub, ScalarType::I64, k, gtid, k)
            .mov_imm_i(one, 1)
            .binop(BinOp::Div, ScalarType::I64, one, one, k)
            .bra(done);
        b.switch_to(done);
        b.ret();
        let program = b.build().unwrap();
        let cfg = LaunchConfig::linear(grid, block);

        let (scalar, scalar_mem) = run_tier(&program, &cfg, Tier::Scalar, 1, None);
        let scalar_err = scalar.expect_err("the chosen thread divides by zero");
        let is_div_by_zero = matches!(scalar_err, SptxError::DivisionByZero { .. });
        prop_assert!(is_div_by_zero);
        for workers in WORKER_COUNTS {
            let (warp, warp_mem) = run_tier(&program, &cfg, Tier::Warp, workers, None);
            let warp_err = warp.expect_err("warp run faults identically");
            prop_assert_eq!(&scalar_err, &warp_err, "error diverged at workers={}", workers);
            prop_assert_eq!(&scalar_mem, &warp_mem, "partial memory diverged at workers={}",
                workers);
        }
    }

    #[test]
    fn intra_warp_hazards_fall_back_identically(
        grid in 1u32..5,
        block in 2u32..70,
    ) {
        // Every thread stores its gtid to slot `gtid & !1` (so lane pairs
        // write the same address — a write-write race inside the warp), then
        // loads the shared slot back. The warp tier cannot replay this in
        // lane order, so it must detect the hazard, roll back and rerun the
        // CTA scalar — producing exactly the sequential (ctaid, tid)-order
        // result.
        let mut b = ProgramBuilder::new("warp_hazard");
        let (gtid, outbase, slot, m, got, resbase) =
            (b.reg(), b.reg(), b.reg(), b.reg(), b.reg(), b.reg());
        b.read_special(gtid, Special::GlobalTid)
            .ld_param(outbase, 0)
            .mov_imm_i(m, !1)
            .binop(BinOp::And, ScalarType::I64, slot, gtid, m)
            .st_indexed(ScalarType::I64, outbase, slot, 0, gtid)
            .ld_indexed(ScalarType::I64, got, outbase, slot, 0)
            .ld_param(resbase, 1)
            .st_indexed(ScalarType::I64, resbase, gtid, 0, got)
            .ret();
        let program = b.build().unwrap();
        let cfg = LaunchConfig::linear(grid, block);
        assert_tiers_agree(&program, &cfg, None, "intra-warp hazard");
    }

    #[test]
    fn mixed_kind_rows_match_scalar(
        then_floats in 0u32..(1 << NREGS),
        mask in 1i64..8,
        ops in proptest::collection::vec(arb_op(), 0..10),
        mov in (0usize..NREGS, 0usize..NREGS),
        cmp in (0usize..NREGS, 0usize..NREGS),
        yes_ops in proptest::collection::vec(arb_op(), 0..4),
        no_ops in proptest::collection::vec(arb_op(), 0..4),
        scale in prop_oneof![Just(0.5f64), Just(-1.0e19), Just(3.0e-3)],
        grid in 1u32..5,
        block in 1u32..70,
    ) {
        // The branch on `tid & mask` splits every warp with a lane where it
        // is zero and one where it is not, so the merge block sees rows with
        // both kinds. `scale` reaches f64 values past the i64 range, so the
        // saturating f64 -> i64 conversion is exercised too.
        let program = build_mixed_kind_kernel(
            then_floats, mask, &ops, mov, cmp, &yes_ops, &no_ops, scale,
        );
        let cfg = LaunchConfig::linear(grid, block);
        let (scalar, scalar_mem) = run_tier(&program, &cfg, Tier::Scalar, 1, None);
        let scalar = scalar.expect("race-free random kernel executes");
        for workers in WORKER_COUNTS {
            let (warp, warp_mem) = run_tier(&program, &cfg, Tier::Warp, workers, None);
            let warp = warp.expect("warp execution of the same kernel succeeds");
            prop_assert_eq!(&scalar, &warp, "profile diverged at workers={}", workers);
            prop_assert_eq!(&scalar_mem, &warp_mem, "memory diverged at workers={}", workers);
        }
    }
}

/// A kernel whose per-thread instruction count varies with `tid` (divergent
/// loop trip counts), used to sweep the cumulative budget across warp and
/// block boundaries.
fn variable_cost_kernel() -> KernelProgram {
    let mut b = ProgramBuilder::new("warp_budget");
    let (gtid, tid, outbase, acc, one, zero, ctr, m) =
        (b.reg(), b.reg(), b.reg(), b.reg(), b.reg(), b.reg(), b.reg(), b.reg());
    let p = b.pred();
    b.read_special(gtid, Special::GlobalTid)
        .read_special(tid, Special::TidX)
        .ld_param(outbase, 0)
        .mov_imm_i(acc, 0)
        .mov_imm_i(one, 1)
        .mov_imm_i(zero, 0)
        .mov_imm_i(m, 3)
        .binop(BinOp::And, ScalarType::I64, ctr, tid, m);
    let header = b.declare_block();
    let body = b.declare_block();
    let exit = b.declare_block();
    b.bra(header);
    b.switch_to(header);
    b.setp(CmpOp::Gt, ScalarType::I64, p, ctr, zero).cond_bra(p, body, exit);
    b.switch_to(body);
    b.binop(BinOp::Add, ScalarType::I64, acc, acc, one)
        .binop(BinOp::Sub, ScalarType::I64, ctr, ctr, one)
        .bra(header);
    b.switch_to(exit);
    b.st_indexed(ScalarType::I64, outbase, gtid, 0, acc).ret();
    b.build().unwrap()
}

#[test]
fn budget_exhaustion_matches_scalar_at_every_boundary() {
    let program = variable_cost_kernel();
    let cfg = LaunchConfig::linear(3, 50);
    let (full, _) = run_tier(&program, &cfg, Tier::Scalar, 1, None);
    let total = full.unwrap().counts.total();

    // Sweep budgets through: plenty, exactly enough, one short, mid-grid,
    // mid-warp, and nearly nothing. Wherever the budget lands, the warp tier
    // must report the same exhaustion point (or completion) as the scalar
    // reference.
    let mut budgets = vec![total + 10, total, total - 1, total / 2, total / 3 + 1, total / 5, 9, 1];
    budgets.extend((0..16).map(|i| total * (i + 1) / 17));
    for budget in budgets {
        assert_tiers_agree(&program, &cfg, Some(budget), &format!("budget {budget}"));
    }
}

#[test]
fn uniform_and_consecutive_loads_match_scalar() {
    // One kernel with both a warp-uniform load (same address in every lane)
    // and a consecutive load (addr = base + gtid*width): the wide-op fast
    // paths must leave profile, trace and results untouched.
    let mut b = ProgramBuilder::new("warp_wide");
    let (gtid, zero, inbase, shared, own, sum, outbase) =
        (b.reg(), b.reg(), b.reg(), b.reg(), b.reg(), b.reg(), b.reg());
    b.read_special(gtid, Special::GlobalTid)
        .mov_imm_i(zero, 0)
        .ld_param(inbase, 0)
        .ld_indexed(ScalarType::F64, shared, inbase, zero, 0)
        .ld_indexed(ScalarType::F64, own, inbase, gtid, 0)
        .binop(BinOp::Add, ScalarType::F64, sum, shared, own)
        .ld_param(outbase, 1)
        .st_indexed(ScalarType::F64, outbase, gtid, 0, sum)
        .ret();
    let program = b.build().unwrap();
    for (grid, block) in [(1, 32), (2, 48), (1, 7), (3, 33)] {
        let cfg = LaunchConfig::linear(grid, block);
        assert_tiers_agree(&program, &cfg, None, "wide loads");
    }
}

#[test]
fn fixed_trip_loops_match_scalar() {
    // Convergent control flow (all lanes take the same branches): the warp
    // scheduler must still count block iterations and branch instructions
    // exactly like the scalar walk.
    let mut b = ProgramBuilder::new("warp_loop");
    let (gtid, outbase, acc, one) = (b.reg(), b.reg(), b.reg(), b.reg());
    b.read_special(gtid, Special::GlobalTid)
        .ld_param(outbase, 0)
        .mov_imm_i(acc, 0)
        .mov_imm_i(one, 1);
    for_loop(&mut b, 7, |b, _| {
        b.binop(BinOp::Add, ScalarType::I64, acc, acc, one);
    });
    b.st_indexed(ScalarType::I64, outbase, gtid, 0, acc).ret();
    let program = b.build().unwrap();
    for (grid, block) in [(1, 1), (1, 32), (2, 33), (4, 64), (2, 100)] {
        let cfg = LaunchConfig::linear(grid, block);
        assert_tiers_agree(&program, &cfg, None, "fixed-trip loop");
    }
}

#[test]
fn consecutive_load_reads_an_earlier_warps_stores() {
    // Each CTA owns `block + 32` f64 slots. Thread `tid` loads slot `tid`
    // (consecutive across the warp) and stores twice that plus one to slot
    // `tid + 32`, so every warp after the first loads exactly the slots the
    // warp before it stored. On the block-parallel path those loads must see
    // the CTA's own overlay, not the launch-entry base memory.
    let mut b = ProgramBuilder::new("warp_overlay");
    let (tid, cta, ntid, idx, k, base, v) =
        (b.reg(), b.reg(), b.reg(), b.reg(), b.reg(), b.reg(), b.reg());
    b.read_special(tid, Special::TidX)
        .read_special(cta, Special::CtaIdX)
        .read_special(ntid, Special::NTidX)
        .mov_imm_i(k, 32)
        .binop(BinOp::Add, ScalarType::I64, idx, ntid, k)
        .binop(BinOp::Mul, ScalarType::I64, idx, idx, cta)
        .binop(BinOp::Add, ScalarType::I64, idx, idx, tid)
        .ld_param(base, 0)
        .ld_indexed(ScalarType::F64, v, base, idx, 0)
        .mov_imm_f(k, 2.0)
        .mad(ScalarType::F64, v, v, k, k)
        .st_indexed(ScalarType::F64, base, idx, 32 * 8, v)
        .ret();
    let program = b.build().unwrap();
    for (grid, block) in [(2, 64), (3, 96), (2, 40), (4, 33)] {
        let cfg = LaunchConfig::linear(grid, block);
        assert_tiers_agree(&program, &cfg, None, "overlay read");
    }
}
