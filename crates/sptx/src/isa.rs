//! The SPTX instruction set: registers, scalar types, operations and instruction
//! classes.
//!
//! The classification into [`InstrClass`] mirrors the instruction-type set used by the
//! ΣVP paper's estimation equations: `i ∈ {FP32, FP64, Int, Bit, B, Ld, St}`.

use std::fmt;

/// A virtual general-purpose register.
///
/// SPTX is an infinite-register IR (like PTX before register allocation); registers
/// are identified by a dense `u16` index assigned by the
/// [`ProgramBuilder`](crate::builder::ProgramBuilder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u16);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A predicate (boolean) register, written by [`Instr::Setp`] and consumed by
/// conditional branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pred(pub u8);

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifier of a basic block within a [`KernelProgram`](crate::program::KernelProgram).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Scalar data types supported by SPTX arithmetic and memory instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarType {
    /// 32-bit IEEE-754 float.
    F32,
    /// 64-bit IEEE-754 float.
    F64,
    /// 64-bit signed integer (SPTX's only integer width; narrower loads/stores
    /// sign-extend).
    I64,
}

impl ScalarType {
    /// Width of a value of this type in bytes when loaded from or stored to memory.
    pub fn width(self) -> u64 {
        match self {
            ScalarType::F32 => 4,
            ScalarType::F64 => 8,
            ScalarType::I64 => 8,
        }
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarType::F32 => write!(f, "f32"),
            ScalarType::F64 => write!(f, "f64"),
            ScalarType::I64 => write!(f, "i64"),
        }
    }
}

/// Instruction classes used for profiling and for the paper's per-class estimation
/// models (σ, τ, power components).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InstrClass {
    /// Single-precision floating point arithmetic.
    Fp32,
    /// Double-precision floating point arithmetic.
    Fp64,
    /// Integer arithmetic (including address arithmetic).
    Int,
    /// Bitwise / logical operations and data movement between registers.
    Bit,
    /// Control flow (branches, the paper's class `B`).
    Branch,
    /// Global-memory loads.
    Ld,
    /// Global-memory stores.
    St,
}

impl InstrClass {
    /// All classes in a fixed order, matching the paper's enumeration.
    pub const ALL: [InstrClass; 7] = [
        InstrClass::Fp32,
        InstrClass::Fp64,
        InstrClass::Int,
        InstrClass::Bit,
        InstrClass::Branch,
        InstrClass::Ld,
        InstrClass::St,
    ];

    /// Dense index of this class, suitable for indexing per-class arrays.
    pub fn index(self) -> usize {
        match self {
            InstrClass::Fp32 => 0,
            InstrClass::Fp64 => 1,
            InstrClass::Int => 2,
            InstrClass::Bit => 3,
            InstrClass::Branch => 4,
            InstrClass::Ld => 5,
            InstrClass::St => 6,
        }
    }
}

impl fmt::Display for InstrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstrClass::Fp32 => write!(f, "fp32"),
            InstrClass::Fp64 => write!(f, "fp64"),
            InstrClass::Int => write!(f, "int"),
            InstrClass::Bit => write!(f, "bit"),
            InstrClass::Branch => write!(f, "branch"),
            InstrClass::Ld => write!(f, "ld"),
            InstrClass::St => write!(f, "st"),
        }
    }
}

/// Binary arithmetic operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division. Integer division by zero is a runtime error.
    Div,
    /// Remainder (integer types only behave like `%`; float uses `rem_euclid`).
    Rem,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Bitwise and (integer; classified as [`InstrClass::Bit`]).
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
}

impl BinOp {
    /// Whether this operation belongs to the bitwise class regardless of type.
    pub fn is_bitwise(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr)
    }
}

/// Unary arithmetic operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Square root (float types only; integer operands are converted).
    Sqrt,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Bitwise not (classified as [`InstrClass::Bit`]).
    Not,
}

impl UnaryOp {
    /// Whether this operation belongs to the bitwise class.
    pub fn is_bitwise(self) -> bool {
        matches!(self, UnaryOp::Not)
    }
}

/// Comparison operators for [`Instr::Setp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// Special (read-only) per-thread registers, mirroring PTX's `%tid`, `%ntid`,
/// `%ctaid`, `%nctaid` along the x dimension plus a flattened global thread id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Special {
    /// Thread index within its block (`threadIdx.x`).
    TidX,
    /// Threads per block (`blockDim.x`).
    NTidX,
    /// Block index within the grid (`blockIdx.x`).
    CtaIdX,
    /// Blocks per grid (`gridDim.x`).
    NCtaIdX,
    /// Flattened global thread index (`blockIdx.x * blockDim.x + threadIdx.x`).
    GlobalTid,
}

/// An immediate operand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Imm {
    /// Floating-point immediate (used for both f32 and f64 destinations).
    F(f64),
    /// Integer immediate.
    I(i64),
}

/// A non-terminator SPTX instruction.
///
/// Every instruction is classified into exactly one [`InstrClass`] by
/// [`Instr::class`]; the classification drives profiling, timing and power models.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = a <op> b` with operands interpreted as `ty`.
    Bin {
        /// The operation.
        op: BinOp,
        /// Operand interpretation type.
        ty: ScalarType,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst = <op> a` with the operand interpreted as `ty`.
    Un {
        /// The operation.
        op: UnaryOp,
        /// Operand interpretation type.
        ty: ScalarType,
        /// Destination register.
        dst: Reg,
        /// Operand.
        a: Reg,
    },
    /// Fused multiply-add `dst = a * b + c` (counts as one instruction of the float
    /// class, like PTX `mad`/`fma`).
    Mad {
        /// Operand interpretation type.
        ty: ScalarType,
        /// Destination register.
        dst: Reg,
        /// Multiplicand.
        a: Reg,
        /// Multiplier.
        b: Reg,
        /// Addend.
        c: Reg,
    },
    /// Load an immediate into a register.
    MovImm {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: Imm,
    },
    /// Copy one register to another (classified as [`InstrClass::Bit`], like PTX
    /// `mov`).
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Convert between scalar types: `dst = (to) src`.
    Cvt {
        /// Destination type.
        to: ScalarType,
        /// Source type.
        from: ScalarType,
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Set a predicate from a typed comparison: `p = a <cmp> b`.
    Setp {
        /// Comparison operator.
        cmp: CmpOp,
        /// Operand interpretation type.
        ty: ScalarType,
        /// Destination predicate.
        pred: Pred,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// Read a special register.
    ReadSpecial {
        /// Destination register.
        dst: Reg,
        /// The special register to read.
        special: Special,
    },
    /// Load kernel parameter `index` into a register. Pointer parameters load the
    /// base byte address; scalar parameters load the value.
    LdParam {
        /// Destination register.
        dst: Reg,
        /// Parameter slot.
        index: usize,
    },
    /// Global-memory load: `dst = *(ty*)(base + index * ty.width() + offset)`.
    ///
    /// `index` may be [`None`] for a direct `base + offset` access.
    Ld {
        /// Element type (determines access width).
        ty: ScalarType,
        /// Destination register.
        dst: Reg,
        /// Register holding the base byte address.
        base: Reg,
        /// Optional element index register (scaled by the type width).
        index: Option<Reg>,
        /// Constant byte offset.
        offset: i64,
    },
    /// Global-memory store: `*(ty*)(base + index * ty.width() + offset) = src`.
    St {
        /// Element type (determines access width).
        ty: ScalarType,
        /// Register holding the base byte address.
        base: Reg,
        /// Optional element index register (scaled by the type width).
        index: Option<Reg>,
        /// Constant byte offset.
        offset: i64,
        /// Value register to store.
        src: Reg,
    },
}

impl Instr {
    /// The paper's instruction class of this instruction.
    pub fn class(&self) -> InstrClass {
        match self {
            Instr::Bin { op, ty, .. } => {
                if op.is_bitwise() {
                    InstrClass::Bit
                } else {
                    class_of_type(*ty)
                }
            }
            Instr::Un { op, ty, .. } => {
                if op.is_bitwise() {
                    InstrClass::Bit
                } else {
                    class_of_type(*ty)
                }
            }
            Instr::Mad { ty, .. } => class_of_type(*ty),
            Instr::MovImm { .. } | Instr::Mov { .. } => InstrClass::Bit,
            Instr::Cvt { to, .. } => class_of_type(*to),
            Instr::Setp { ty, .. } => class_of_type(*ty),
            Instr::ReadSpecial { .. } => InstrClass::Int,
            Instr::LdParam { .. } => InstrClass::Bit,
            Instr::Ld { .. } => InstrClass::Ld,
            Instr::St { .. } => InstrClass::St,
        }
    }

    /// Registers read by this instruction.
    pub fn uses(&self) -> Vec<Reg> {
        match self {
            Instr::Bin { a, b, .. } => vec![*a, *b],
            Instr::Un { a, .. } => vec![*a],
            Instr::Mad { a, b, c, .. } => vec![*a, *b, *c],
            Instr::MovImm { .. } => vec![],
            Instr::Mov { src, .. } => vec![*src],
            Instr::Cvt { src, .. } => vec![*src],
            Instr::Setp { a, b, .. } => vec![*a, *b],
            Instr::ReadSpecial { .. } | Instr::LdParam { .. } => vec![],
            Instr::Ld { base, index, .. } => {
                let mut v = vec![*base];
                v.extend(index.iter().copied());
                v
            }
            Instr::St { base, index, src, .. } => {
                let mut v = vec![*base, *src];
                v.extend(index.iter().copied());
                v
            }
        }
    }

    /// The register written by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Instr::Bin { dst, .. }
            | Instr::Un { dst, .. }
            | Instr::Mad { dst, .. }
            | Instr::MovImm { dst, .. }
            | Instr::Mov { dst, .. }
            | Instr::Cvt { dst, .. }
            | Instr::ReadSpecial { dst, .. }
            | Instr::LdParam { dst, .. }
            | Instr::Ld { dst, .. } => Some(*dst),
            Instr::Setp { .. } | Instr::St { .. } => None,
        }
    }
}

fn class_of_type(ty: ScalarType) -> InstrClass {
    match ty {
        ScalarType::F32 => InstrClass::Fp32,
        ScalarType::F64 => InstrClass::Fp64,
        ScalarType::I64 => InstrClass::Int,
    }
}

/// The terminator of a basic block. Every terminator counts as one
/// [`InstrClass::Branch`] instruction except [`Terminator::Ret`], which is free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional branch.
    Bra(BlockId),
    /// Two-way conditional branch on a predicate.
    CondBra {
        /// The predicate to test.
        pred: Pred,
        /// Target when the predicate is true.
        if_true: BlockId,
        /// Target when the predicate is false.
        if_false: BlockId,
    },
    /// Return from the kernel (thread exit).
    Ret,
}

impl Terminator {
    /// Basic blocks this terminator can transfer control to.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Bra(t) => vec![*t],
            Terminator::CondBra { if_true, if_false, .. } => vec![*if_true, *if_false],
            Terminator::Ret => vec![],
        }
    }

    /// Whether executing this terminator consumes a branch instruction slot.
    pub fn is_branch(&self) -> bool {
        !matches!(self, Terminator::Ret)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_follows_type_for_arithmetic() {
        let i =
            Instr::Bin { op: BinOp::Add, ty: ScalarType::F64, dst: Reg(0), a: Reg(1), b: Reg(2) };
        assert_eq!(i.class(), InstrClass::Fp64);
        let i =
            Instr::Bin { op: BinOp::Add, ty: ScalarType::F32, dst: Reg(0), a: Reg(1), b: Reg(2) };
        assert_eq!(i.class(), InstrClass::Fp32);
        let i =
            Instr::Bin { op: BinOp::Add, ty: ScalarType::I64, dst: Reg(0), a: Reg(1), b: Reg(2) };
        assert_eq!(i.class(), InstrClass::Int);
    }

    #[test]
    fn bitwise_ops_are_bit_class_regardless_of_type() {
        let i =
            Instr::Bin { op: BinOp::Xor, ty: ScalarType::I64, dst: Reg(0), a: Reg(1), b: Reg(2) };
        assert_eq!(i.class(), InstrClass::Bit);
        let i = Instr::Un { op: UnaryOp::Not, ty: ScalarType::I64, dst: Reg(0), a: Reg(1) };
        assert_eq!(i.class(), InstrClass::Bit);
    }

    #[test]
    fn memory_ops_have_ld_st_classes() {
        let ld =
            Instr::Ld { ty: ScalarType::F32, dst: Reg(0), base: Reg(1), index: None, offset: 0 };
        assert_eq!(ld.class(), InstrClass::Ld);
        let st =
            Instr::St { ty: ScalarType::F32, base: Reg(1), index: None, offset: 0, src: Reg(0) };
        assert_eq!(st.class(), InstrClass::St);
    }

    #[test]
    fn def_use_sets_are_correct() {
        let i = Instr::Mad { ty: ScalarType::F32, dst: Reg(9), a: Reg(1), b: Reg(2), c: Reg(3) };
        assert_eq!(i.def(), Some(Reg(9)));
        assert_eq!(i.uses(), vec![Reg(1), Reg(2), Reg(3)]);

        let st = Instr::St {
            ty: ScalarType::F64,
            base: Reg(4),
            index: Some(Reg(5)),
            offset: 8,
            src: Reg(6),
        };
        assert_eq!(st.def(), None);
        assert_eq!(st.uses(), vec![Reg(4), Reg(6), Reg(5)]);
    }

    #[test]
    fn terminator_successors() {
        assert_eq!(Terminator::Ret.successors(), vec![]);
        assert_eq!(Terminator::Bra(BlockId(3)).successors(), vec![BlockId(3)]);
        let c = Terminator::CondBra { pred: Pred(0), if_true: BlockId(1), if_false: BlockId(2) };
        assert_eq!(c.successors(), vec![BlockId(1), BlockId(2)]);
        assert!(c.is_branch());
        assert!(!Terminator::Ret.is_branch());
    }

    #[test]
    fn instr_class_indices_are_dense_and_unique() {
        let mut seen = [false; 7];
        for c in InstrClass::ALL {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Reg(3).to_string(), "r3");
        assert_eq!(Pred(1).to_string(), "p1");
        assert_eq!(ScalarType::F64.to_string(), "f64");
        assert_eq!(InstrClass::Branch.to_string(), "branch");
    }

    #[test]
    fn scalar_widths() {
        assert_eq!(ScalarType::F32.width(), 4);
        assert_eq!(ScalarType::F64.width(), 8);
        assert_eq!(ScalarType::I64.width(), 8);
    }
}
