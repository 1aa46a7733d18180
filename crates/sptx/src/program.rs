//! Kernel programs: basic blocks, static per-block instruction statistics and
//! structural queries.

use std::collections::HashMap;

use crate::isa::{BlockId, Instr, InstrClass, Terminator};

/// A straight-line sequence of instructions ended by a single [`Terminator`].
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    /// The block's instructions, executed in order.
    pub instrs: Vec<Instr>,
    /// Control transfer out of the block.
    pub terminator: Terminator,
    /// Optional label carried over from the assembler, for diagnostics.
    pub label: Option<String>,
}

impl BasicBlock {
    /// Static instruction counts of this block by class — the paper's μ\{b,T\}
    /// (per-block, per-class static instruction counts after compilation for a target
    /// architecture).
    ///
    /// The terminator contributes one `Branch` unless it is a `Ret`.
    pub fn static_mix(&self) -> ClassCounts {
        let mut counts = ClassCounts::default();
        for i in &self.instrs {
            counts.add(i.class(), 1);
        }
        if self.terminator.is_branch() {
            counts.add(InstrClass::Branch, 1);
        }
        counts
    }
}

/// Per-class instruction counts, the unit of currency of all profiling and
/// estimation in ΣVP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct ClassCounts {
    counts: [u64; 7],
}

impl ClassCounts {
    /// An all-zero count vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` instructions of class `class`.
    pub fn add(&mut self, class: InstrClass, n: u64) {
        self.counts[class.index()] += n;
    }

    /// Count for one class.
    pub fn get(&self, class: InstrClass) -> u64 {
        self.counts[class.index()]
    }

    /// Total instructions across all classes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Element-wise sum.
    pub fn merged(&self, other: &ClassCounts) -> ClassCounts {
        let mut out = *self;
        for c in InstrClass::ALL {
            out.add(c, other.get(c));
        }
        out
    }

    /// Element-wise scale by an integer factor (e.g. number of threads that executed
    /// a block).
    pub fn scaled(&self, factor: u64) -> ClassCounts {
        let mut out = ClassCounts::default();
        for c in InstrClass::ALL {
            out.add(c, self.get(c) * factor);
        }
        out
    }

    /// Iterate `(class, count)` pairs in the canonical class order.
    pub fn iter(&self) -> impl Iterator<Item = (InstrClass, u64)> + '_ {
        InstrClass::ALL.iter().map(move |&c| (c, self.get(c)))
    }
}

impl std::ops::Index<InstrClass> for ClassCounts {
    type Output = u64;

    fn index(&self, class: InstrClass) -> &u64 {
        &self.counts[class.index()]
    }
}

impl std::iter::FromIterator<(InstrClass, u64)> for ClassCounts {
    fn from_iter<I: IntoIterator<Item = (InstrClass, u64)>>(iter: I) -> Self {
        let mut out = ClassCounts::default();
        for (c, n) in iter {
            out.add(c, n);
        }
        out
    }
}

/// A complete SPTX kernel: an entry block plus the rest of the control-flow graph.
///
/// Construct via [`ProgramBuilder`](crate::builder::ProgramBuilder) or the text
/// [`assembler`](crate::asm::parse); both run the
/// [`validator`](crate::validate::validate) so a `KernelProgram` in hand is always
/// structurally sound.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProgram {
    name: String,
    blocks: Vec<BasicBlock>,
    num_regs: u16,
    num_preds: u8,
    num_params: usize,
}

impl KernelProgram {
    /// Assembles the parts of a program. Intended for use by the builder and
    /// assembler; prefer those entry points.
    pub(crate) fn from_parts(
        name: String,
        blocks: Vec<BasicBlock>,
        num_regs: u16,
        num_preds: u8,
        num_params: usize,
    ) -> Self {
        Self { name, blocks, num_regs, num_preds, num_params }
    }

    /// The kernel's name (used for kernel matching in coalescing).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The basic blocks, indexed by [`BlockId`].
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// Block lookup.
    pub fn block(&self, id: BlockId) -> Option<&BasicBlock> {
        self.blocks.get(id.0 as usize)
    }

    /// Number of virtual registers used.
    pub fn num_regs(&self) -> u16 {
        self.num_regs
    }

    /// Number of predicate registers used.
    pub fn num_preds(&self) -> u8 {
        self.num_preds
    }

    /// Number of kernel parameters the program expects.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// Total static instruction count (including branch terminators).
    pub fn static_size(&self) -> u64 {
        self.static_mix().total()
    }

    /// Whole-program static instruction mix: the sum of every block's
    /// [`BasicBlock::static_mix`].
    pub fn static_mix(&self) -> ClassCounts {
        self.blocks
            .iter()
            .map(|b| b.static_mix())
            .fold(ClassCounts::default(), |acc, m| acc.merged(&m))
    }

    /// Per-block static mixes keyed by block id — the μ table consumed by
    /// σ-derivation (Eq. 1 of the paper).
    pub fn block_mixes(&self) -> HashMap<BlockId, ClassCounts> {
        self.blocks.iter().enumerate().map(|(i, b)| (BlockId(i as u32), b.static_mix())).collect()
    }

    /// A structural fingerprint of the program: name plus static mix. Two launches
    /// are *coalescible* in ΣVP when their fingerprints match (the paper's "identical
    /// kernel" test performed by the Kernel Match module).
    pub fn fingerprint(&self) -> ProgramFingerprint {
        ProgramFingerprint {
            name: self.name.clone(),
            mix: self.static_mix(),
            blocks: self.blocks.len(),
        }
    }
}

/// Identity of a kernel for coalescing purposes. See
/// [`KernelProgram::fingerprint`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProgramFingerprint {
    /// Kernel name.
    pub name: String,
    /// Whole-program static instruction mix.
    pub mix: ClassCounts,
    /// Number of basic blocks.
    pub blocks: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::isa::{BinOp, ScalarType};

    fn tiny_program() -> KernelProgram {
        let mut b = ProgramBuilder::new("tiny");
        let (x, y, z) = (b.reg(), b.reg(), b.reg());
        b.mov_imm_i(x, 1).mov_imm_i(y, 2).binop(BinOp::Add, ScalarType::I64, z, x, y).ret();
        b.build().expect("tiny program is valid")
    }

    #[test]
    fn static_mix_counts_classes() {
        let p = tiny_program();
        let mix = p.static_mix();
        assert_eq!(mix.get(InstrClass::Bit), 2); // two mov-imm
        assert_eq!(mix.get(InstrClass::Int), 1); // one add
        assert_eq!(mix.get(InstrClass::Branch), 0); // ret is free
        assert_eq!(mix.total(), 3);
    }

    #[test]
    fn class_counts_merge_and_scale() {
        let mut a = ClassCounts::new();
        a.add(InstrClass::Fp32, 3);
        a.add(InstrClass::Ld, 1);
        let mut b = ClassCounts::new();
        b.add(InstrClass::Fp32, 2);
        let m = a.merged(&b);
        assert_eq!(m.get(InstrClass::Fp32), 5);
        assert_eq!(m.get(InstrClass::Ld), 1);
        let s = m.scaled(10);
        assert_eq!(s.get(InstrClass::Fp32), 50);
        assert_eq!(s.total(), 60);
    }

    #[test]
    fn fingerprints_distinguish_kernels() {
        let p = tiny_program();
        let mut b = ProgramBuilder::new("other");
        let r = b.reg();
        b.mov_imm_i(r, 7).ret();
        let q = b.build().unwrap();
        assert_ne!(p.fingerprint(), q.fingerprint());
        assert_eq!(p.fingerprint(), tiny_program().fingerprint());
    }

    #[test]
    fn from_iterator_collects_counts() {
        let c: ClassCounts =
            [(InstrClass::Int, 4), (InstrClass::Int, 1), (InstrClass::St, 2)].into_iter().collect();
        assert_eq!(c.get(InstrClass::Int), 5);
        assert_eq!(c[InstrClass::St], 2);
    }

    #[test]
    fn block_mixes_cover_all_blocks() {
        let p = tiny_program();
        let mixes = p.block_mixes();
        assert_eq!(mixes.len(), p.blocks().len());
        assert!(mixes.contains_key(&BlockId(0)));
    }
}
