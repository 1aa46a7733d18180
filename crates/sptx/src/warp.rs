//! Stage 2 of the tiered interpreter: warp-lockstep execution.
//!
//! The warp tier runs all 32 threads of a warp in lockstep over the decoded
//! op stream from [`crate::decode`]. Registers live in untagged SoA banks:
//! each register is one `[u64; 32]` row of raw lane bits plus a `u32` kind
//! mask (bit `l` set: lane `l` holds an `f64`; clear: an `i64`). Every op but
//! `mov` writes one kind to all its active lanes, so a row's kinds are uniform
//! except where divergent paths that wrote different kinds reconverge. An op
//! tests `kinds & mask` once per operand: all-float and all-int rows take
//! plain fixed-width `f64`/`i64` lane loops with no per-lane tag branch, and
//! only mixed rows convert lane by lane (exactly as [`Value::as_f64`] and
//! [`Value::as_i64`] do, saturating `f64 as i64` included). Predicates are
//! one `u32` lane mask each. Control flow uses a SIMT divergence stack with
//! reconvergence at each branch's immediate post-dominator, and wide memory
//! ops detect uniform/consecutive lane addresses so a coalesced access
//! bounds-checks and touches the [`SegmentSet`] per segment instead of per
//! lane. Dispatch, class accounting, and the budget check are paid once per
//! op (or once per block) instead of once per lane, and the lane loops
//! themselves carry no per-lane type tag.
//!
//! # Byte-identity with the scalar tier
//!
//! The scalar interpreter runs threads strictly sequentially: tid `t`
//! completes before tid `t + 1` starts. Lockstep reorders instructions
//! *between* lanes of a warp, which is observable only through memory.
//! The tier therefore keeps the following contract:
//!
//! * **Warps commit in tid order.** A CTA's warps run one after another
//!   against the CTA's memory view, so any cross-warp dependence is exactly
//!   sequential.
//! * **Intra-warp hazards abort.** Every store records its 4-byte slots in a
//!   per-warp map; a load or store touching a slot written by a *different*
//!   lane aborts the CTA. (Same-lane program order is preserved by lockstep,
//!   so own-slot traffic is exact.)
//! * **Any abort falls back to the scalar tier for the whole CTA.** The
//!   CTA's writes are rolled back, its counter deltas discarded, and the CTA
//!   is re-run thread-by-thread via [`Interpreter::run_thread`] — so faults,
//!   partial writes, and budget exhaustion land at the exact `(ctaid, tid)`
//!   and instruction the scalar tier would produce. Lane faults, hazards,
//!   and budget crossings all take this path.
//! * **Counters are additive and order-insensitive.** Class counts and λ
//!   block iterations advance by the active-lane count per op/visit, and the
//!   memory trace by the active-lane count per access, so the aggregate
//!   equals the scalar tier's per-thread sum. `SegmentSet` is an unordered
//!   union.
//!
//! Budget accounting is block-granular: each visit charges every active lane
//! the block's cost. Since per-lane counts are non-negative, the sequential
//! prefix sum over tids crosses the budget iff the total does — so one
//! total-crossing check per visit both detects exhaustion exactly and bounds
//! runaway loops (the scalar rerun then reproduces the precise abort point).

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use crate::counters::{ExecutionProfile, MemoryTraceSummary, SegmentSet};
use crate::decode::{DOp, DTerm, DecodedProgram, EXIT, NO_INDEX};
use crate::error::SptxError;
use crate::interp::{
    DataSpace, Interpreter, LaunchConfig, Memory, ParamValue, Value, MEMORY_SEGMENT_BYTES,
};
use crate::isa::{BlockId, InstrClass, ScalarType, Special};
use crate::parallel::SlotHasher;
use crate::program::KernelProgram;

/// Lanes per warp, matching the CUDA warp size the paper assumes.
pub(crate) const WARP_WIDTH: usize = 32;

const BRANCH_CLASS: usize = 4; // InstrClass::Branch.index(), asserted in tests

/// Iterate the set lane indices of `mask`; the full-mask case takes the
/// unmasked fixed loop, which the compiler unrolls.
macro_rules! for_lanes {
    ($mask:expr, $l:ident, $body:block) => {
        if $mask == u32::MAX {
            for $l in 0..WARP_WIDTH {
                $body
            }
        } else {
            let mut bits = $mask;
            while bits != 0 {
                let $l = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                $body
            }
        }
    };
}

/// One SIMT stack frame: `mask` lanes execute from block `next` until control
/// reaches block `reconv`, where they park and the frame below resumes them.
#[derive(Debug, Clone, Copy)]
struct Frame {
    next: u32,
    mask: u32,
    reconv: u32,
}

/// Per-CTA counter deltas, kept separate from the launch accumulators so an
/// aborted CTA can be discarded wholesale before the scalar rerun.
#[derive(Debug)]
pub(crate) struct CtaCounters {
    /// Dynamic instruction counts by class index.
    pub class_counts: [u64; 7],
    /// Per-block visit counts (λ), weighted by active lanes.
    pub block_iters: Vec<u64>,
    /// 128-byte segments touched.
    pub segments: SegmentSet,
    /// Load/store byte and access totals.
    pub trace: MemoryTraceSummary,
    /// Total dynamic instructions executed by the CTA.
    pub instrs: u64,
    /// Warps run.
    pub warps: u64,
    /// Warp-wide loads where every active lane read the same address.
    pub uniform_loads: u64,
    /// Conditional branches where the warp's lanes took both sides.
    pub divergent_branches: u64,
}

impl CtaCounters {
    pub(crate) fn new(nblocks: usize) -> Self {
        Self {
            class_counts: [0; 7],
            block_iters: vec![0; nblocks],
            segments: SegmentSet::new(),
            trace: MemoryTraceSummary::default(),
            instrs: 0,
            warps: 0,
            uniform_loads: 0,
            divergent_branches: 0,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.class_counts = [0; 7];
        self.block_iters.iter_mut().for_each(|b| *b = 0);
        self.segments = SegmentSet::new();
        self.trace = MemoryTraceSummary::default();
        self.instrs = 0;
        self.warps = 0;
        self.uniform_loads = 0;
        self.divergent_branches = 0;
    }
}

/// Launch-level warp statistics, merged from successful CTAs and emitted as
/// `sptx.warp.*` telemetry by the drivers.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WarpStats {
    pub warps: u64,
    pub uniform_loads: u64,
    pub divergent_branches: u64,
    /// CTAs that aborted lockstep and re-ran on the scalar tier.
    pub fallback_ctas: u64,
}

impl WarpStats {
    pub(crate) fn merge_cta(&mut self, cta: &CtaCounters) {
        self.warps += cta.warps;
        self.uniform_loads += cta.uniform_loads;
        self.divergent_branches += cta.divergent_branches;
    }

    pub(crate) fn absorb(&mut self, other: &WarpStats) {
        self.warps += other.warps;
        self.uniform_loads += other.uniform_loads;
        self.divergent_branches += other.divergent_branches;
        self.fallback_ctas += other.fallback_ctas;
    }

    pub(crate) fn emit(&self) {
        let r = sigmavp_telemetry::recorder();
        if r.enabled() {
            r.count("sptx.warp.warps", self.warps);
            r.count("sptx.warp.uniform_loads", self.uniform_loads);
            r.count("sptx.warp.divergent_branches", self.divergent_branches);
            if self.fallback_ctas > 0 {
                r.count("sptx.warp.fallback_ctas", self.fallback_ctas);
            }
        }
    }
}

/// One register's lanes as raw bits: `f64::to_bits` where the register's
/// kind bit is set, the `i64` two's-complement pattern where it is clear.
type Row = [u64; WARP_WIDTH];

/// The warp's register file: one raw row and one kind mask per register.
struct Bank {
    rows: Vec<Row>,
    /// Bit `l` of `kinds[r]` set: lane `l` of register `r` holds an `f64`.
    kinds: Vec<u32>,
}

impl Bank {
    fn reset(&mut self) {
        self.rows.iter_mut().for_each(|r| *r = [0; WARP_WIDTH]);
        self.kinds.iter_mut().for_each(|k| *k = 0);
    }

    /// Register `r` as floats over `mask`, each lane converted as
    /// [`Value::as_f64`] would. Inactive lanes hold don't-care values.
    #[inline(always)]
    fn f(&self, r: usize, mask: u32) -> [f64; WARP_WIDTH] {
        let (row, kinds) = (&self.rows[r], self.kinds[r]);
        let mut out = [0.0; WARP_WIDTH];
        if kinds & mask == mask {
            for l in 0..WARP_WIDTH {
                out[l] = f64::from_bits(row[l]);
            }
        } else if kinds & mask == 0 {
            for l in 0..WARP_WIDTH {
                out[l] = row[l] as i64 as f64;
            }
        } else {
            for l in 0..WARP_WIDTH {
                out[l] =
                    if kinds >> l & 1 != 0 { f64::from_bits(row[l]) } else { row[l] as i64 as f64 };
            }
        }
        out
    }

    /// Register `r` as integers over `mask`, each lane converted as
    /// [`Value::as_i64`] would (float lanes saturate).
    #[inline(always)]
    fn i(&self, r: usize, mask: u32) -> [i64; WARP_WIDTH] {
        let (row, kinds) = (&self.rows[r], self.kinds[r]);
        let mut out = [0; WARP_WIDTH];
        if kinds & mask == 0 {
            for l in 0..WARP_WIDTH {
                out[l] = row[l] as i64;
            }
        } else if kinds & mask == mask {
            for l in 0..WARP_WIDTH {
                out[l] = f64::from_bits(row[l]) as i64;
            }
        } else {
            for l in 0..WARP_WIDTH {
                out[l] =
                    if kinds >> l & 1 != 0 { f64::from_bits(row[l]) as i64 } else { row[l] as i64 };
            }
        }
        out
    }

    /// Write `bits(l)` to every active lane of register `d` and mark those
    /// lanes `float` or int. Only active lanes run `bits`, so it may read
    /// memory or divide with operands that are stale on inactive lanes.
    #[inline(always)]
    fn put(&mut self, d: usize, mask: u32, float: bool, bits: impl Fn(usize) -> u64) {
        let row = &mut self.rows[d];
        for_lanes!(mask, l, {
            row[l] = bits(l);
        });
        if float {
            self.kinds[d] |= mask;
        } else {
            self.kinds[d] &= !mask;
        }
    }

    #[inline(always)]
    fn put_f(&mut self, d: usize, mask: u32, f: impl Fn(usize) -> f64) {
        self.put(d, mask, true, |l| f(l).to_bits());
    }

    #[inline(always)]
    fn put_i(&mut self, d: usize, mask: u32, f: impl Fn(usize) -> i64) {
        self.put(d, mask, false, |l| f(l) as u64);
    }

    /// Copy register `s` into `d` lane by lane, kinds included (`mov` is the
    /// only op whose result kind can differ between lanes).
    fn copy(&mut self, d: usize, s: usize, mask: u32) {
        let src = self.rows[s];
        self.put(d, mask, false, |l| src[l]);
        self.kinds[d] = (self.kinds[d] & !mask) | (self.kinds[s] & mask);
    }
}

/// Reusable warp-execution state: the register bank, predicate masks, the
/// SIMT stack, the per-warp store-slot map, and the lane address buffer. One
/// of these lives per sequential launch or per parallel worker.
pub(crate) struct WarpExec {
    bank: Bank,
    /// Bit `l` of `preds[p]`: lane `l`'s predicate `p`.
    preds: Vec<u32>,
    stack: Vec<Frame>,
    store_map: HashMap<u64, u8, BuildHasherDefault<SlotHasher>>,
    addrs: [u64; WARP_WIDTH],
}

impl WarpExec {
    pub(crate) fn new(dec: &DecodedProgram) -> Self {
        let nregs = dec.num_regs as usize;
        Self {
            bank: Bank { rows: vec![[0; WARP_WIDTH]; nregs], kinds: vec![0; nregs] },
            preds: vec![0; dec.num_preds as usize],
            stack: Vec::with_capacity(8),
            store_map: HashMap::default(),
            addrs: [0; WARP_WIDTH],
        }
    }
}

/// Outcome of one lockstep CTA attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CtaOutcome {
    /// The CTA completed; `cta.instrs` instructions were executed and its
    /// memory writes are in place.
    Done,
    /// Lockstep hit a hazard, lane fault, or budget crossing. The caller must
    /// roll back the CTA's writes, discard its counters, and re-run it on
    /// the scalar tier.
    Abort,
}

/// Run one CTA (all its warps, in tid order) in lockstep. `executed_before`
/// is the launch's dynamic instruction count when this CTA starts, used for
/// the budget-crossing check.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_cta<M: DataSpace>(
    exec: &mut WarpExec,
    dec: &DecodedProgram,
    cfg: &LaunchConfig,
    params: &[ParamValue],
    mem: &mut M,
    ctaid: u32,
    budget: u64,
    executed_before: u64,
    cta: &mut CtaCounters,
) -> CtaOutcome {
    let nwarps = (cfg.block_dim as usize).div_ceil(WARP_WIDTH);
    for w in 0..nwarps {
        let base_tid = (w * WARP_WIDTH) as u32;
        let lanes = ((cfg.block_dim - base_tid) as usize).min(WARP_WIDTH);
        let full: u32 = if lanes == WARP_WIDTH { u32::MAX } else { (1u32 << lanes) - 1 };
        cta.warps += 1;
        if run_warp(
            exec,
            dec,
            cfg,
            params,
            mem,
            ctaid,
            base_tid,
            full,
            budget,
            executed_before,
            cta,
        )
        .is_err()
        {
            return CtaOutcome::Abort;
        }
    }
    CtaOutcome::Done
}

#[allow(clippy::too_many_arguments)]
fn run_warp<M: DataSpace>(
    exec: &mut WarpExec,
    dec: &DecodedProgram,
    cfg: &LaunchConfig,
    params: &[ParamValue],
    mem: &mut M,
    ctaid: u32,
    base_tid: u32,
    full_mask: u32,
    budget: u64,
    executed_before: u64,
    cta: &mut CtaCounters,
) -> Result<(), ()> {
    exec.bank.reset();
    exec.preds.iter_mut().for_each(|p| *p = 0);
    exec.store_map.clear();
    exec.stack.clear();
    exec.stack.push(Frame { next: 0, mask: full_mask, reconv: EXIT });

    loop {
        let Some(&Frame { next, mask, reconv }) = exec.stack.last() else {
            return Ok(());
        };
        if mask == 0 || next == reconv || next == EXIT {
            debug_assert!(next != EXIT || mask == 0 || next == reconv);
            exec.stack.pop();
            continue;
        }
        let bi = next as usize;
        let blk = dec.blocks[bi];
        let active = mask.count_ones() as u64;

        cta.block_iters[bi] += active;
        cta.instrs += blk.cost * active;
        // One total-crossing check per visit detects exact budget exhaustion
        // (see module docs) and bounds runaway loops.
        if executed_before + cta.instrs > budget {
            return Err(());
        }

        for dop in &dec.ops[blk.start as usize..(blk.start + blk.len) as usize] {
            cta.class_counts[dop.class as usize] += active;
            exec_op(
                &dop.op,
                &mut exec.bank,
                &mut exec.preds,
                &mut exec.store_map,
                &mut exec.addrs,
                cta,
                mem,
                cfg,
                params,
                ctaid,
                base_tid,
                mask,
            )?;
        }

        match blk.term {
            DTerm::Ret => {
                for f in exec.stack.iter_mut() {
                    f.mask &= !mask;
                }
            }
            DTerm::Bra(t) => {
                cta.class_counts[BRANCH_CLASS] += active;
                exec.stack.last_mut().expect("frame present").next = t;
            }
            DTerm::CondBra { pred, if_true, if_false } => {
                cta.class_counts[BRANCH_CLASS] += active;
                let taken = exec.preds[pred as usize] & mask;
                let top = exec.stack.last_mut().expect("frame present");
                if taken == mask {
                    top.next = if_true;
                } else if taken == 0 {
                    top.next = if_false;
                } else {
                    cta.divergent_branches += 1;
                    let r = blk.reconv;
                    // The current frame parks at the reconvergence point with
                    // the pre-divergence mask; each side that is not already
                    // the reconvergence block gets its own frame.
                    top.next = r;
                    let not_taken = mask & !taken;
                    if if_false != r {
                        exec.stack.push(Frame { next: if_false, mask: not_taken, reconv: r });
                    }
                    if if_true != r {
                        exec.stack.push(Frame { next: if_true, mask: taken, reconv: r });
                    }
                }
            }
        }
    }
}

/// `dst = f(a, b)` over the float view of two registers. The op/type
/// dispatch happens once per warp-op at the call site; the lane loop only
/// touches values.
#[inline(always)]
fn bin_f(bank: &mut Bank, mask: u32, d: usize, a: usize, b: usize, f: impl Fn(f64, f64) -> f64) {
    let (x, y) = (bank.f(a, mask), bank.f(b, mask));
    bank.put_f(d, mask, |l| f(x[l], y[l]));
}

/// Integer-view counterpart of [`bin_f`].
#[inline(always)]
fn bin_i(bank: &mut Bank, mask: u32, d: usize, a: usize, b: usize, f: impl Fn(i64, i64) -> i64) {
    let (x, y) = (bank.i(a, mask), bank.i(b, mask));
    bank.put_i(d, mask, |l| f(x[l], y[l]));
}

/// Unary float op over one register; `f` already folds in any F32
/// round-tripping.
#[inline(always)]
fn un_f(bank: &mut Bank, mask: u32, d: usize, a: usize, f: impl Fn(f64) -> f64) {
    let x = bank.f(a, mask);
    bank.put_f(d, mask, |l| f(x[l]));
}

/// Set predicate `p` on the active lanes to `f(x[l], y[l])`.
#[inline(always)]
fn setp<T: Copy>(
    preds: &mut [u32],
    p: usize,
    mask: u32,
    x: &[T; WARP_WIDTH],
    y: &[T; WARP_WIDTH],
    f: impl Fn(T, T) -> bool,
) {
    let mut bits = 0u32;
    for l in 0..WARP_WIDTH {
        bits |= u32::from(f(x[l], y[l])) << l;
    }
    preds[p] = (preds[p] & !mask) | (bits & mask);
}

#[allow(clippy::too_many_arguments)]
fn exec_op<M: DataSpace>(
    op: &DOp,
    bank: &mut Bank,
    preds: &mut [u32],
    store_map: &mut HashMap<u64, u8, BuildHasherDefault<SlotHasher>>,
    addrs: &mut [u64; WARP_WIDTH],
    cta: &mut CtaCounters,
    mem: &mut M,
    cfg: &LaunchConfig,
    params: &[ParamValue],
    ctaid: u32,
    base_tid: u32,
    mask: u32,
) -> Result<(), ()> {
    match *op {
        DOp::Bin { op, ty, dst, a, b } => {
            let (d, a, b) = (dst as usize, a as usize, b as usize);
            use crate::isa::BinOp as B;
            if op.is_bitwise() || ty == ScalarType::I64 {
                match op {
                    B::Add => bin_i(bank, mask, d, a, b, |x, y| x.wrapping_add(y)),
                    B::Sub => bin_i(bank, mask, d, a, b, |x, y| x.wrapping_sub(y)),
                    B::Mul => bin_i(bank, mask, d, a, b, |x, y| x.wrapping_mul(y)),
                    B::Min => bin_i(bank, mask, d, a, b, i64::min),
                    B::Max => bin_i(bank, mask, d, a, b, i64::max),
                    B::And => bin_i(bank, mask, d, a, b, |x, y| x & y),
                    B::Or => bin_i(bank, mask, d, a, b, |x, y| x | y),
                    B::Xor => bin_i(bank, mask, d, a, b, |x, y| x ^ y),
                    B::Shl => bin_i(bank, mask, d, a, b, |x, y| x.wrapping_shl(y as u32 & 63)),
                    B::Shr => bin_i(bank, mask, d, a, b, |x, y| x.wrapping_shr(y as u32 & 63)),
                    B::Div | B::Rem => {
                        // Fault-capable: a zero divisor in any active lane
                        // aborts the CTA; the scalar rerun reproduces the
                        // exact error. Inactive lanes are never divided.
                        let (x, y) = (bank.i(a, mask), bank.i(b, mask));
                        for_lanes!(mask, l, {
                            if y[l] == 0 {
                                return Err(());
                            }
                        });
                        if matches!(op, B::Div) {
                            bank.put(d, mask, false, |l| x[l].wrapping_div(y[l]) as u64);
                        } else {
                            bank.put(d, mask, false, |l| x[l].wrapping_rem(y[l]) as u64);
                        }
                    }
                }
            } else if ty == ScalarType::F32 {
                match op {
                    B::Add => bin_f(bank, mask, d, a, b, |x, y| ((x as f32) + (y as f32)) as f64),
                    B::Sub => bin_f(bank, mask, d, a, b, |x, y| ((x as f32) - (y as f32)) as f64),
                    B::Mul => bin_f(bank, mask, d, a, b, |x, y| ((x as f32) * (y as f32)) as f64),
                    B::Div => bin_f(bank, mask, d, a, b, |x, y| ((x as f32) / (y as f32)) as f64),
                    B::Rem => bin_f(bank, mask, d, a, b, |x, y| ((x as f32) % (y as f32)) as f64),
                    B::Min => bin_f(bank, mask, d, a, b, |x, y| (x as f32).min(y as f32) as f64),
                    B::Max => bin_f(bank, mask, d, a, b, |x, y| (x as f32).max(y as f32) as f64),
                    _ => unreachable!("bitwise handled above"),
                }
            } else {
                match op {
                    B::Add => bin_f(bank, mask, d, a, b, |x, y| x + y),
                    B::Sub => bin_f(bank, mask, d, a, b, |x, y| x - y),
                    B::Mul => bin_f(bank, mask, d, a, b, |x, y| x * y),
                    B::Div => bin_f(bank, mask, d, a, b, |x, y| x / y),
                    B::Rem => bin_f(bank, mask, d, a, b, |x, y| x % y),
                    B::Min => bin_f(bank, mask, d, a, b, f64::min),
                    B::Max => bin_f(bank, mask, d, a, b, f64::max),
                    _ => unreachable!("bitwise handled above"),
                }
            }
        }
        DOp::Un { op, ty, dst, a } => {
            let (d, a) = (dst as usize, a as usize);
            use crate::isa::UnaryOp as U;
            // F32 folds its round-trip (input and result through f32) into
            // the hoisted closure, matching `eval_un` exactly.
            macro_rules! un_float {
                ($f:expr) => {{
                    if ty == ScalarType::F32 {
                        un_f(bank, mask, d, a, |x| {
                            let v: f64 = $f(x as f32 as f64);
                            v as f32 as f64
                        })
                    } else {
                        un_f(bank, mask, d, a, $f)
                    }
                }};
            }
            if op.is_bitwise() {
                let x = bank.i(a, mask);
                bank.put_i(d, mask, |l| !x[l]);
            } else if ty == ScalarType::I64 && matches!(op, U::Neg | U::Abs) {
                let x = bank.i(a, mask);
                if matches!(op, U::Neg) {
                    bank.put_i(d, mask, |l| x[l].wrapping_neg());
                } else {
                    bank.put_i(d, mask, |l| x[l].wrapping_abs());
                }
            } else {
                match op {
                    U::Neg => un_float!(|x: f64| -x),
                    U::Abs => un_float!(|x: f64| x.abs()),
                    U::Sqrt => un_float!(|x: f64| x.sqrt()),
                    U::Exp => un_float!(|x: f64| x.exp()),
                    U::Log => un_float!(|x: f64| x.ln()),
                    U::Sin => un_float!(|x: f64| x.sin()),
                    U::Cos => un_float!(|x: f64| x.cos()),
                    U::Not => unreachable!("bitwise handled above"),
                }
            }
        }
        DOp::Mad { ty, dst, a, b, c } => {
            let (d, a, b, c) = (dst as usize, a as usize, b as usize, c as usize);
            match ty {
                ScalarType::F32 => {
                    // GPU mad fuses with a single rounding, like the scalar
                    // tier's `f32::mul_add`.
                    let (x, y, z) = (bank.f(a, mask), bank.f(b, mask), bank.f(c, mask));
                    bank.put_f(d, mask, |l| (x[l] as f32).mul_add(y[l] as f32, z[l] as f32) as f64);
                }
                ScalarType::F64 => {
                    let (x, y, z) = (bank.f(a, mask), bank.f(b, mask), bank.f(c, mask));
                    bank.put_f(d, mask, |l| x[l] * y[l] + z[l]);
                }
                ScalarType::I64 => {
                    let (x, y, z) = (bank.i(a, mask), bank.i(b, mask), bank.i(c, mask));
                    bank.put_i(d, mask, |l| x[l].wrapping_mul(y[l]).wrapping_add(z[l]));
                }
            }
        }
        DOp::MovImm { dst, bits, float } => bank.put(dst as usize, mask, float, |_| bits),
        DOp::Mov { dst, src } => {
            if dst != src {
                bank.copy(dst as usize, src as usize, mask);
            }
        }
        DOp::Cvt { to, from, dst, src } => {
            let (d, s) = (dst as usize, src as usize);
            match (from, to) {
                (_, ScalarType::I64) => {
                    let x = bank.i(s, mask);
                    bank.put_i(d, mask, |l| x[l]);
                }
                (ScalarType::I64, ScalarType::F32) => {
                    let x = bank.i(s, mask);
                    bank.put_f(d, mask, |l| x[l] as f32 as f64);
                }
                (ScalarType::I64, ScalarType::F64) => {
                    let x = bank.i(s, mask);
                    bank.put_f(d, mask, |l| x[l] as f64);
                }
                (_, ScalarType::F32) => {
                    let x = bank.f(s, mask);
                    bank.put_f(d, mask, |l| x[l] as f32 as f64);
                }
                (_, ScalarType::F64) => {
                    let x = bank.f(s, mask);
                    bank.put_f(d, mask, |l| x[l]);
                }
            }
        }
        DOp::Setp { cmp, ty, pred, a, b } => {
            let (p, a, b) = (pred as usize, a as usize, b as usize);
            use crate::isa::CmpOp as C;
            match ty {
                ScalarType::I64 => {
                    let (x, y) = (bank.i(a, mask), bank.i(b, mask));
                    match cmp {
                        C::Eq => setp(preds, p, mask, &x, &y, |x, y| x == y),
                        C::Ne => setp(preds, p, mask, &x, &y, |x, y| x != y),
                        C::Lt => setp(preds, p, mask, &x, &y, |x, y| x < y),
                        C::Le => setp(preds, p, mask, &x, &y, |x, y| x <= y),
                        C::Gt => setp(preds, p, mask, &x, &y, |x, y| x > y),
                        C::Ge => setp(preds, p, mask, &x, &y, |x, y| x >= y),
                    }
                }
                ScalarType::F32 | ScalarType::F64 => {
                    let (mut x, mut y) = (bank.f(a, mask), bank.f(b, mask));
                    if ty == ScalarType::F32 {
                        // F32 compares the values after a round-trip through f32.
                        for l in 0..WARP_WIDTH {
                            x[l] = x[l] as f32 as f64;
                            y[l] = y[l] as f32 as f64;
                        }
                    }
                    match cmp {
                        C::Eq => setp(preds, p, mask, &x, &y, |x, y| x == y),
                        C::Ne => setp(preds, p, mask, &x, &y, |x, y| x != y),
                        C::Lt => setp(preds, p, mask, &x, &y, |x, y| x < y),
                        C::Le => setp(preds, p, mask, &x, &y, |x, y| x <= y),
                        C::Gt => setp(preds, p, mask, &x, &y, |x, y| x > y),
                        C::Ge => setp(preds, p, mask, &x, &y, |x, y| x >= y),
                    }
                }
            }
        }
        DOp::ReadSpecial { dst, special } => {
            let dst = dst as usize;
            match special {
                Special::TidX => bank.put_i(dst, mask, |l| base_tid as i64 + l as i64),
                Special::GlobalTid => {
                    let base = ctaid as i64 * cfg.block_dim as i64 + base_tid as i64;
                    bank.put_i(dst, mask, |l| base + l as i64);
                }
                Special::NTidX | Special::CtaIdX | Special::NCtaIdX => {
                    let v = match special {
                        Special::NTidX => cfg.block_dim as i64,
                        Special::CtaIdX => ctaid as i64,
                        _ => cfg.grid_dim as i64,
                    };
                    bank.put_i(dst, mask, |_| v);
                }
            }
        }
        DOp::LdParam { dst, index } => {
            let Some(p) = params.get(index as usize) else {
                return Err(());
            };
            let (bits, float) = match *p {
                ParamValue::Ptr(a) => (a, false),
                ParamValue::F64(v) => (v.to_bits(), true),
                ParamValue::F32(v) => ((v as f64).to_bits(), true),
                ParamValue::I64(v) => (v as u64, false),
            };
            bank.put(dst as usize, mask, float, |_| bits);
        }
        DOp::Ld { ty, dst, base, index, offset } => {
            let dst = dst as usize;
            let w = ty.width();
            let float = ty != ScalarType::I64;
            let (uniform, consec, first) = lane_addrs(bank, addrs, base, index, offset, w, mask);
            let active = mask.count_ones() as u64;
            cta.trace.accesses += active;
            cta.trace.load_bytes += w * active;
            if !store_map.is_empty() {
                check_load_hazards(store_map, addrs, w, mask)?;
            }
            if uniform {
                cta.uniform_loads += 1;
                cta.segments.insert(first / MEMORY_SEGMENT_BYTES);
                let bits = load_bits(mem, ty, first).map_err(drop)?;
                bank.put(dst, mask, float, |_| bits);
            } else if consec {
                // One bounds check covers the whole coalesced span. Lane
                // addresses step by at most 8 bytes, so every segment from
                // the first lane's to the last lane's holds some lane's
                // address. The type dispatch is hoisted out of the lane loop.
                let len = active * w;
                mem.check_span(first, len).map_err(drop)?;
                let last = first + (active - 1) * w;
                for s in first / MEMORY_SEGMENT_BYTES..=last / MEMORY_SEGMENT_BYTES {
                    cta.segments.insert(s);
                }
                let m: &M = mem;
                match ty {
                    ScalarType::F32 => bank.put(dst, mask, true, |l| {
                        (m.read_f32_unchecked(addrs[l]) as f64).to_bits()
                    }),
                    ScalarType::F64 => {
                        bank.put(dst, mask, true, |l| m.read_f64_unchecked(addrs[l]).to_bits())
                    }
                    ScalarType::I64 => {
                        bank.put(dst, mask, false, |l| m.read_i64_unchecked(addrs[l]) as u64)
                    }
                }
            } else {
                let mut vals = [0u64; WARP_WIDTH];
                for_lanes!(mask, l, {
                    cta.segments.insert(addrs[l] / MEMORY_SEGMENT_BYTES);
                    vals[l] = load_bits(mem, ty, addrs[l]).map_err(drop)?;
                });
                bank.put(dst, mask, float, |l| vals[l]);
            }
        }
        DOp::St { ty, base, index, offset, src } => {
            let src = src as usize;
            let w = ty.width();
            let (_, _, _) = lane_addrs(bank, addrs, base, index, offset, w, mask);
            let active = mask.count_ones() as u64;
            cta.trace.accesses += active;
            cta.trace.store_bytes += w * active;
            // Record slots first: a cross-lane overlap is a hazard even if
            // the write itself would fault.
            for_lanes!(mask, l, {
                let a0 = addrs[l] >> 2;
                let a1 = addrs[l].wrapping_add(w - 1) >> 2;
                let mut s = a0;
                while s <= a1 {
                    if let Some(prev) = store_map.insert(s, l as u8) {
                        if prev != l as u8 {
                            return Err(());
                        }
                    }
                    s += 1;
                }
            });
            match ty {
                ScalarType::F32 | ScalarType::F64 => {
                    let v = bank.f(src, mask);
                    for_lanes!(mask, l, {
                        cta.segments.insert(addrs[l] / MEMORY_SEGMENT_BYTES);
                        if ty == ScalarType::F32 {
                            mem.write_f32(addrs[l], v[l] as f32)
                        } else {
                            mem.write_f64(addrs[l], v[l])
                        }
                        .map_err(drop)?;
                    });
                }
                ScalarType::I64 => {
                    let v = bank.i(src, mask);
                    for_lanes!(mask, l, {
                        cta.segments.insert(addrs[l] / MEMORY_SEGMENT_BYTES);
                        mem.write_i64(addrs[l], v[l]).map_err(drop)?;
                    });
                }
            }
        }
    }
    Ok(())
}

/// Compute every active lane's effective address into `addrs`, returning
/// `(uniform, consecutive, first_addr)` — `consecutive` meaning each active
/// lane's address follows the previous active lane's by exactly the access
/// width.
#[inline]
fn lane_addrs(
    bank: &Bank,
    addrs: &mut [u64; WARP_WIDTH],
    base: u16,
    index: u16,
    offset: i64,
    width: u64,
    mask: u32,
) -> (bool, bool, u64) {
    let bv = bank.i(base as usize, mask);
    let iv = if index != NO_INDEX { bank.i(index as usize, mask) } else { [0; WARP_WIDTH] };
    let mut first = 0u64;
    let mut prev = 0u64;
    let mut started = false;
    let mut uniform = true;
    let mut consec = true;
    for_lanes!(mask, l, {
        let addr = bv[l].wrapping_add(iv[l].wrapping_mul(width as i64)).wrapping_add(offset) as u64;
        addrs[l] = addr;
        if started {
            uniform &= addr == first;
            consec &= addr == prev.wrapping_add(width);
        } else {
            started = true;
            first = addr;
        }
        prev = addr;
    });
    (uniform, consec && !uniform, first)
}

/// Abort if any active lane loads a slot another lane has stored this warp.
fn check_load_hazards(
    store_map: &HashMap<u64, u8, BuildHasherDefault<SlotHasher>>,
    addrs: &[u64; WARP_WIDTH],
    width: u64,
    mask: u32,
) -> Result<(), ()> {
    for_lanes!(mask, l, {
        let a0 = addrs[l] >> 2;
        let a1 = addrs[l].wrapping_add(width - 1) >> 2;
        let mut s = a0;
        while s <= a1 {
            if let Some(&lane) = store_map.get(&s) {
                if lane != l as u8 {
                    return Err(());
                }
            }
            s += 1;
        }
    });
    Ok(())
}

/// One checked load as raw lane bits of the kind `ty` loads into.
fn load_bits<M: DataSpace>(mem: &M, ty: ScalarType, addr: u64) -> Result<u64, SptxError> {
    Ok(match ty {
        ScalarType::F32 => (mem.read_f32(addr)? as f64).to_bits(),
        ScalarType::F64 => mem.read_f64(addr)?.to_bits(),
        ScalarType::I64 => mem.read_i64(addr)? as u64,
    })
}

/// Direct-to-[`Memory`] data space for the sequential warp path, with an undo
/// journal so an aborted CTA's writes can be rolled back before the scalar
/// rerun. Reads pay no overlay cost — they hit `Memory` straight.
pub(crate) struct DirectMem<'a> {
    mem: &'a mut Memory,
    undo: Vec<(u64, [u8; 8], u8)>,
}

impl<'a> DirectMem<'a> {
    pub(crate) fn new(mem: &'a mut Memory) -> Self {
        Self { mem, undo: Vec::new() }
    }

    /// Keep the CTA's writes; the undo log is discarded.
    pub(crate) fn commit(self) {}

    /// Restore every byte this CTA wrote, newest first.
    pub(crate) fn rollback(self) {
        let DirectMem { mem, undo } = self;
        for (addr, old, width) in undo.into_iter().rev() {
            let o = addr as usize;
            mem.as_bytes_mut()[o..o + width as usize].copy_from_slice(&old[..width as usize]);
        }
    }

    fn record(&mut self, addr: u64, width: usize) -> Result<(), SptxError> {
        let o = self.mem.check(addr, width as u64)?;
        let mut old = [0u8; 8];
        old[..width].copy_from_slice(&self.mem.as_bytes()[o..o + width]);
        self.undo.push((addr, old, width as u8));
        Ok(())
    }
}

impl DataSpace for DirectMem<'_> {
    fn read_f32(&self, addr: u64) -> Result<f32, SptxError> {
        self.mem.read_f32(addr)
    }
    fn read_f64(&self, addr: u64) -> Result<f64, SptxError> {
        self.mem.read_f64(addr)
    }
    fn read_i64(&self, addr: u64) -> Result<i64, SptxError> {
        self.mem.read_i64(addr)
    }
    fn write_f32(&mut self, addr: u64, v: f32) -> Result<(), SptxError> {
        self.record(addr, 4)?;
        self.mem.write_f32(addr, v)
    }
    fn write_f64(&mut self, addr: u64, v: f64) -> Result<(), SptxError> {
        self.record(addr, 8)?;
        self.mem.write_f64(addr, v)
    }
    fn write_i64(&mut self, addr: u64, v: i64) -> Result<(), SptxError> {
        self.record(addr, 8)?;
        self.mem.write_i64(addr, v)
    }
    fn check_span(&self, addr: u64, len: u64) -> Result<(), SptxError> {
        self.mem.check(addr, len).map(|_| ())
    }
    fn read_f32_unchecked(&self, addr: u64) -> f32 {
        self.mem.read_f32_unchecked(addr)
    }
    fn read_f64_unchecked(&self, addr: u64) -> f64 {
        self.mem.read_f64_unchecked(addr)
    }
    fn read_i64_unchecked(&self, addr: u64) -> i64 {
        self.mem.read_i64_unchecked(addr)
    }
}

/// Sequential (single-worker) warp-tier driver: CTAs run one at a time in
/// ctaid order directly against `mem`, so cross-CTA visibility matches the
/// scalar sequential path exactly. Aborted CTAs roll back and re-run on the
/// scalar tier.
pub(crate) fn run_sequential(
    interp: &Interpreter,
    program: &KernelProgram,
    dec: &DecodedProgram,
    cfg: &LaunchConfig,
    params: &[ParamValue],
    mem: &mut Memory,
) -> Result<ExecutionProfile, SptxError> {
    let nblocks = program.blocks().len();
    let mut class_counts = [0u64; 7];
    let mut block_iters = vec![0u64; nblocks];
    let mut segments = SegmentSet::new();
    let mut trace = MemoryTraceSummary::default();
    let mut executed: u64 = 0;
    let mut stats = WarpStats::default();

    let mut exec = WarpExec::new(dec);
    let mut cta = CtaCounters::new(nblocks);
    let mut scalar_regs = vec![Value::I(0); program.num_regs() as usize];
    let mut scalar_preds = vec![false; program.num_preds() as usize];

    for ctaid in 0..cfg.grid_dim {
        cta.reset();
        let mut dmem = DirectMem::new(mem);
        let outcome = run_cta(
            &mut exec,
            dec,
            cfg,
            params,
            &mut dmem,
            ctaid,
            interp.budget,
            executed,
            &mut cta,
        );
        match outcome {
            CtaOutcome::Done => {
                dmem.commit();
                executed += cta.instrs;
                for (g, c) in class_counts.iter_mut().zip(cta.class_counts) {
                    *g += c;
                }
                for (g, c) in block_iters.iter_mut().zip(&cta.block_iters) {
                    *g += c;
                }
                segments.absorb(std::mem::take(&mut cta.segments));
                trace.accesses += cta.trace.accesses;
                trace.load_bytes += cta.trace.load_bytes;
                trace.store_bytes += cta.trace.store_bytes;
                stats.merge_cta(&cta);
            }
            CtaOutcome::Abort => {
                dmem.rollback();
                stats.fallback_ctas += 1;
                for tid in 0..cfg.block_dim {
                    scalar_regs.iter_mut().for_each(|r| *r = Value::I(0));
                    scalar_preds.iter_mut().for_each(|p| *p = false);
                    interp.run_thread(
                        program,
                        cfg,
                        params,
                        mem,
                        ctaid,
                        tid,
                        &mut scalar_regs,
                        &mut scalar_preds,
                        &mut class_counts,
                        &mut block_iters,
                        &mut segments,
                        &mut trace,
                        &mut executed,
                    )?;
                }
            }
        }
    }

    let mut profile = ExecutionProfile::new();
    for (c, n) in InstrClass::ALL.iter().zip(class_counts.iter()) {
        profile.counts.add(*c, *n);
    }
    for (i, n) in block_iters.iter().enumerate() {
        if *n > 0 {
            profile.block_iterations.insert(BlockId(i as u32), *n);
        }
    }
    trace.unique_segments = segments.distinct();
    profile.memory = trace;
    profile.threads = cfg.total_threads();
    let r = sigmavp_telemetry::recorder();
    if r.enabled() {
        r.count("sptx.launches", 1);
        r.count("sptx.instructions_executed", executed);
    }
    stats.emit();
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_class_index_matches_isa() {
        assert_eq!(BRANCH_CLASS, InstrClass::Branch.index());
    }
}
