//! Concrete interpreter for the LLVM IR fragment.
//!
//! Ground-truth executable semantics, used by the differential tests that
//! validate the instruction-selection pass (run the LLVM function and its
//! Virtual x86 translation on the same inputs and compare results and final
//! memory) and by property tests of the symbolic semantics.

use std::collections::HashMap;

use keq_smt::MemValue;

use crate::ast::{
    BinOp, CastKind, ConstExpr, Function, IcmpPred, Instr, Module, Operand, Terminator,
};
use crate::layout::Layout;
use crate::types::Type;

/// A concrete runtime value: width plus masked bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CValue {
    /// Width in bits.
    pub width: u32,
    /// Masked value.
    pub bits: u128,
}

impl CValue {
    /// Constructs a masked value.
    pub fn new(width: u32, bits: u128) -> CValue {
        CValue { width, bits: keq_smt::sort::mask(width, bits) }
    }

    /// Interprets the value as signed.
    pub fn signed(self) -> i128 {
        keq_smt::sort::to_signed(self.width, self.bits)
    }
}

/// Run-time traps, mirroring the UB error states of the symbolic semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// Out-of-bounds access at the given address.
    OutOfBounds(u64),
    /// Division by zero.
    DivByZero,
    /// `nsw`/`sdiv` signed overflow.
    SignedOverflow,
    /// Reached `unreachable`.
    Unreachable,
    /// Step fuel exhausted.
    Fuel,
    /// Malformed program (unknown register/block, type confusion).
    Malformed(String),
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trap::OutOfBounds(a) => write!(f, "out-of-bounds access at {a:#x}"),
            Trap::DivByZero => write!(f, "division by zero"),
            Trap::SignedOverflow => write!(f, "signed overflow"),
            Trap::Unreachable => write!(f, "unreachable executed"),
            Trap::Fuel => write!(f, "fuel exhausted"),
            Trap::Malformed(m) => write!(f, "malformed program: {m}"),
        }
    }
}

/// Deterministic stand-in for external calls: `(callee, args) → return`.
///
/// Both interpreters (LLVM and Virtual x86) must use the same handler so
/// differential runs agree; the default mixes the callee name and arguments
/// with an FNV-style hash.
pub type ExtCall<'h> = dyn Fn(&str, &[CValue]) -> u128 + 'h;

/// The default external-call handler.
pub fn default_ext_call(callee: &str, args: &[CValue]) -> u128 {
    let mut h: u128 = 0xcbf2_9ce4_8422_2325;
    for b in callee.bytes() {
        h = (h ^ u128::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    for a in args {
        h = (h ^ a.bits).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Runs `func` on concrete arguments.
///
/// Returns the return value (`None` for void) and mutates `mem` in place.
///
/// # Errors
///
/// Returns a [`Trap`] on UB or resource exhaustion.
pub fn run_function(
    module: &Module,
    func: &Function,
    layout: &Layout,
    args: &[CValue],
    mem: &mut MemValue,
    fuel: u64,
    ext: &ExtCall<'_>,
) -> Result<Option<CValue>, Trap> {
    if args.len() != func.params.len() {
        return Err(Trap::Malformed(format!(
            "function {} expects {} arguments, got {}",
            func.name,
            func.params.len(),
            args.len()
        )));
    }
    let mut regs: HashMap<String, CValue> = HashMap::new();
    for ((name, ty), v) in func.params.iter().zip(args) {
        regs.insert(name.clone(), CValue::new(ty.value_bits(), v.bits));
    }
    let mut fuel = fuel;
    let mut block = func.entry();
    let mut prev: Option<&str> = None;
    'blocks: loop {
        // Parallel phi semantics: read all incoming values first.
        let mut phi_writes: Vec<(String, CValue)> = Vec::new();
        let mut body_start = 0;
        for (i, instr) in block.instrs.iter().enumerate() {
            if let Instr::Phi { dst, ty, incomings } = instr {
                let p = prev.ok_or_else(|| Trap::Malformed(format!("phi {dst} in entry block")))?;
                let (v, _) = incomings
                    .iter()
                    .find(|(_, bb)| bb == p)
                    .ok_or_else(|| Trap::Malformed(format!("phi {dst} missing incoming {p}")))?;
                let cv = eval_operand(v, ty, &regs, layout)?;
                phi_writes.push((dst.clone(), cv));
                body_start = i + 1;
            } else {
                break;
            }
        }
        for (dst, v) in phi_writes {
            regs.insert(dst, v);
        }
        for instr in &block.instrs[body_start..] {
            if fuel == 0 {
                return Err(Trap::Fuel);
            }
            fuel -= 1;
            exec_instr(module, instr, &mut regs, mem, layout, ext)?;
        }
        if fuel == 0 {
            return Err(Trap::Fuel);
        }
        fuel -= 1;
        match &block.term {
            Terminator::Br { target } => {
                prev = Some(&block.name);
                block = func
                    .block(target)
                    .ok_or_else(|| Trap::Malformed(format!("unknown block {target}")))?;
                continue 'blocks;
            }
            Terminator::CondBr { cond, then_, else_ } => {
                let c = eval_operand(cond, &Type::I1, &regs, layout)?;
                let target = if c.bits == 1 { then_ } else { else_ };
                prev = Some(&block.name);
                block = func
                    .block(target)
                    .ok_or_else(|| Trap::Malformed(format!("unknown block {target}")))?;
                continue 'blocks;
            }
            Terminator::Ret { val: Some((ty, v)) } => {
                return Ok(Some(eval_operand(v, ty, &regs, layout)?));
            }
            Terminator::Ret { val: None } => return Ok(None),
            Terminator::Unreachable => return Err(Trap::Unreachable),
        }
    }
}

fn exec_instr(
    module: &Module,
    instr: &Instr,
    regs: &mut HashMap<String, CValue>,
    mem: &mut MemValue,
    layout: &Layout,
    ext: &ExtCall<'_>,
) -> Result<(), Trap> {
    let _ = module;
    match instr {
        Instr::Bin { op, nsw, ty, dst, lhs, rhs } => {
            let a = eval_operand(lhs, ty, regs, layout)?;
            let b = eval_operand(rhs, ty, regs, layout)?;
            let r = eval_binop(*op, *nsw, a, b)?;
            regs.insert(dst.clone(), r);
        }
        Instr::Icmp { pred, ty, dst, lhs, rhs } => {
            let a = eval_operand(lhs, ty, regs, layout)?;
            let b = eval_operand(rhs, ty, regs, layout)?;
            let r = eval_icmp(*pred, a, b);
            regs.insert(dst.clone(), CValue::new(1, u128::from(r)));
        }
        Instr::Phi { dst, .. } => {
            return Err(Trap::Malformed(format!("phi {dst} not at block start")));
        }
        Instr::Load { dst, ty, ptr } => {
            let p = eval_operand(ptr, &ty.clone().ptr_to(), regs, layout)?;
            let addr = p.bits as u64;
            let n = ty.store_bytes();
            check_bounds(layout, addr, n)?;
            let mut v: u128 = 0;
            for k in 0..n {
                v |= u128::from(mem.read(addr + k)) << (8 * k);
            }
            regs.insert(dst.clone(), CValue::new(ty.value_bits(), v));
        }
        Instr::Store { ty, val, ptr } => {
            let v = eval_operand(val, ty, regs, layout)?;
            let p = eval_operand(ptr, &ty.clone().ptr_to(), regs, layout)?;
            let addr = p.bits as u64;
            let n = ty.store_bytes();
            check_bounds(layout, addr, n)?;
            for k in 0..n {
                let byte = (v.bits >> (8 * k)) as u8;
                mem.writes.insert(addr + k, byte);
            }
        }
        Instr::Alloca { dst, .. } => {
            let addr = layout
                .alloca_addr(dst)
                .ok_or_else(|| Trap::Malformed(format!("alloca {dst} has no slot")))?;
            regs.insert(dst.clone(), CValue::new(64, u128::from(addr)));
        }
        Instr::Gep { dst, base_ty, ptr, indices } => {
            let base = eval_operand(ptr, &base_ty.clone().ptr_to(), regs, layout)?;
            let addr = gep_address(base.bits as u64, base_ty, indices, regs, layout)?;
            regs.insert(dst.clone(), CValue::new(64, u128::from(addr)));
        }
        Instr::Cast { kind, dst, from_ty, val, to_ty } => {
            let v = eval_operand(val, from_ty, regs, layout)?;
            let out_bits = to_ty.value_bits();
            let r = match kind {
                CastKind::Zext | CastKind::IntToPtr | CastKind::Bitcast => {
                    CValue::new(out_bits, v.bits)
                }
                CastKind::PtrToInt | CastKind::Trunc => CValue::new(out_bits, v.bits),
                CastKind::Sext => CValue::new(out_bits, v.signed() as u128),
            };
            regs.insert(dst.clone(), r);
        }
        Instr::Call { dst, ret_ty, callee, args } => {
            let mut avs = Vec::with_capacity(args.len());
            for (ty, a) in args {
                avs.push(eval_operand(a, ty, regs, layout)?);
            }
            let r = ext(callee, &avs);
            if let Some(d) = dst {
                regs.insert(d.clone(), CValue::new(ret_ty.value_bits(), r));
            }
        }
    }
    Ok(())
}

fn check_bounds(layout: &Layout, addr: u64, n: u64) -> Result<(), Trap> {
    let ok = layout
        .mem
        .regions
        .iter()
        .any(|r| r.size >= n && addr >= r.base && addr <= r.base + r.size - n);
    if ok {
        Ok(())
    } else {
        Err(Trap::OutOfBounds(addr))
    }
}

/// Computes a GEP address concretely.
pub fn gep_address(
    base: u64,
    base_ty: &Type,
    indices: &[(Type, Operand)],
    regs: &HashMap<String, CValue>,
    layout: &Layout,
) -> Result<u64, Trap> {
    let mut addr = base as i128;
    let mut cur: &Type = base_ty;
    for (k, (ity, idx)) in indices.iter().enumerate() {
        let iv = eval_operand(idx, ity, regs, layout)?.signed();
        if k == 0 {
            addr += iv * cur.store_bytes() as i128;
        } else {
            match cur {
                Type::Array(_, elem) => {
                    addr += iv * elem.store_bytes() as i128;
                    cur = elem;
                }
                Type::Struct(fields) => {
                    let fi = usize::try_from(iv)
                        .ok()
                        .filter(|&fi| fi < fields.len())
                        .ok_or_else(|| Trap::Malformed("bad struct index".into()))?;
                    addr += cur.field_offset(fi) as i128;
                    cur = &fields[fi];
                }
                other => {
                    return Err(Trap::Malformed(format!("gep into non-aggregate {other}")));
                }
            }
        }
    }
    Ok(addr as u64)
}

/// Evaluates an operand to a concrete value.
pub fn eval_operand(
    op: &Operand,
    ty: &Type,
    regs: &HashMap<String, CValue>,
    layout: &Layout,
) -> Result<CValue, Trap> {
    let bits = ty.value_bits();
    match op {
        Operand::Local(name) => regs
            .get(name)
            .copied()
            .map(|v| CValue::new(bits, v.bits))
            .ok_or_else(|| Trap::Malformed(format!("unknown local {name}"))),
        Operand::Const(c) => Ok(CValue::new(bits, *c as u128)),
        Operand::Global(g) => layout
            .global_addr(g)
            .map(|a| CValue::new(64, u128::from(a)))
            .ok_or_else(|| Trap::Malformed(format!("unknown global @{g}"))),
        Operand::Null => Ok(CValue::new(64, 0)),
        Operand::Expr(e) => match &**e {
            ConstExpr::Gep { base_ty, base, indices } => {
                let b = eval_operand(base, &base_ty.clone().ptr_to(), regs, layout)?;
                let addr = gep_address(b.bits as u64, base_ty, indices, regs, layout)?;
                Ok(CValue::new(64, u128::from(addr)))
            }
            ConstExpr::Bitcast { from_ty, value, .. } => eval_operand(value, from_ty, regs, layout),
        },
    }
}

fn eval_binop(op: BinOp, nsw: bool, a: CValue, b: CValue) -> Result<CValue, Trap> {
    let w = a.width;
    let r = match op {
        BinOp::Add => {
            if nsw && a.signed().checked_add(b.signed()).is_none_or(|s| out_of_range(w, s)) {
                return Err(Trap::SignedOverflow);
            }
            a.bits.wrapping_add(b.bits)
        }
        BinOp::Sub => {
            if nsw && a.signed().checked_sub(b.signed()).is_none_or(|s| out_of_range(w, s)) {
                return Err(Trap::SignedOverflow);
            }
            a.bits.wrapping_sub(b.bits)
        }
        BinOp::Mul => {
            if nsw && a.signed().checked_mul(b.signed()).is_none_or(|s| out_of_range(w, s)) {
                return Err(Trap::SignedOverflow);
            }
            a.bits.wrapping_mul(b.bits)
        }
        BinOp::Udiv => {
            if b.bits == 0 {
                return Err(Trap::DivByZero);
            }
            a.bits / b.bits
        }
        BinOp::Urem => {
            if b.bits == 0 {
                return Err(Trap::DivByZero);
            }
            a.bits % b.bits
        }
        BinOp::Sdiv => {
            if b.bits == 0 {
                return Err(Trap::DivByZero);
            }
            let (x, y) = (a.signed(), b.signed());
            if is_int_min(w, x) && y == -1 {
                return Err(Trap::SignedOverflow);
            }
            x.wrapping_div(y) as u128
        }
        BinOp::Srem => {
            if b.bits == 0 {
                return Err(Trap::DivByZero);
            }
            let (x, y) = (a.signed(), b.signed());
            if is_int_min(w, x) && y == -1 {
                return Err(Trap::SignedOverflow);
            }
            x.wrapping_rem(y) as u128
        }
        BinOp::And => a.bits & b.bits,
        BinOp::Or => a.bits | b.bits,
        BinOp::Xor => a.bits ^ b.bits,
        BinOp::Shl => {
            if b.bits >= u128::from(w) {
                0
            } else {
                a.bits << b.bits
            }
        }
        BinOp::Lshr => {
            if b.bits >= u128::from(w) {
                0
            } else {
                a.bits >> b.bits
            }
        }
        BinOp::Ashr => {
            let k = b.bits.min(u128::from(w - 1)) as u32;
            (a.signed() >> k) as u128
        }
    };
    Ok(CValue::new(w, r))
}

fn out_of_range(width: u32, s: i128) -> bool {
    if width == 128 {
        return false;
    }
    let max = (1i128 << (width - 1)) - 1;
    let min = -(1i128 << (width - 1));
    s < min || s > max
}

fn is_int_min(width: u32, s: i128) -> bool {
    if width == 128 {
        s == i128::MIN
    } else {
        s == -(1i128 << (width - 1))
    }
}

fn eval_icmp(pred: IcmpPred, a: CValue, b: CValue) -> bool {
    match pred {
        IcmpPred::Eq => a.bits == b.bits,
        IcmpPred::Ne => a.bits != b.bits,
        IcmpPred::Ult => a.bits < b.bits,
        IcmpPred::Ule => a.bits <= b.bits,
        IcmpPred::Ugt => a.bits > b.bits,
        IcmpPred::Uge => a.bits >= b.bits,
        IcmpPred::Slt => a.signed() < b.signed(),
        IcmpPred::Sle => a.signed() <= b.signed(),
        IcmpPred::Sgt => a.signed() > b.signed(),
        IcmpPred::Sge => a.signed() >= b.signed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_function, parse_module};

    fn run(src: &str, args: &[u128]) -> Result<Option<CValue>, Trap> {
        let m = parse_module(src).expect("parses");
        let f = &m.functions[0];
        let layout = Layout::of(&m, f);
        let cargs: Vec<CValue> = f
            .params
            .iter()
            .zip(args)
            .map(|((_, ty), &v)| CValue::new(ty.value_bits(), v))
            .collect();
        let mut mem = MemValue::default();
        run_function(&m, f, &layout, &cargs, &mut mem, 100_000, &default_ext_call)
    }

    #[test]
    fn arithm_seq_sum_computes_series() {
        // sum of first n terms of (a0 + k*d): the paper's Fig. 1 function.
        let src = crate::corpus::ARITHM_SEQ_SUM;
        // a0 = 5, d = 3, n = 4: 5 + 8 + 11 + 14 = 38.
        let r = run(src, &[5, 3, 4]).expect("runs").expect("returns value");
        assert_eq!(r.bits, 38);
        // n = 1: just a0.
        let r = run(src, &[5, 3, 1]).expect("runs").expect("returns value");
        assert_eq!(r.bits, 5);
        // n = 0: the loop body never runs, but s.0 starts at a0.
        let r = run(src, &[7, 3, 0]).expect("runs").expect("returns value");
        assert_eq!(r.bits, 7);
    }

    #[test]
    fn memory_roundtrip_via_alloca() {
        let src = r#"
define i32 @f(i32 %x) {
  %slot = alloca i32
  store i32 %x, i32* %slot
  %v = load i32, i32* %slot
  %r = add i32 %v, 1
  ret i32 %r
}
"#;
        let r = run(src, &[41]).expect("runs").expect("value");
        assert_eq!(r.bits, 42);
    }

    #[test]
    fn gep_into_array() {
        let src = r#"
define i32 @f(i64 %i) {
  %buf = alloca [4 x i32]
  %p0 = getelementptr inbounds [4 x i32], [4 x i32]* %buf, i64 0, i64 0
  store i32 10, i32* %p0
  %p = getelementptr inbounds [4 x i32], [4 x i32]* %buf, i64 0, i64 %i
  store i32 99, i32* %p
  %v = load i32, i32* %p0
  ret i32 %v
}
"#;
        // i = 0 overwrites slot 0.
        assert_eq!(run(src, &[0]).expect("runs").expect("v").bits, 99);
        // i = 2 leaves slot 0 alone.
        assert_eq!(run(src, &[2]).expect("runs").expect("v").bits, 10);
        // i = 7 is out of bounds.
        assert!(matches!(run(src, &[7]), Err(Trap::OutOfBounds(_))));
    }

    #[test]
    fn division_by_zero_traps() {
        let src = "define i32 @f(i32 %x, i32 %y) {\n %r = udiv i32 %x, %y\n ret i32 %r\n}";
        assert_eq!(run(src, &[10, 2]).expect("runs").expect("v").bits, 5);
        assert_eq!(run(src, &[10, 0]), Err(Trap::DivByZero));
    }

    #[test]
    fn nsw_overflow_traps() {
        let src = "define i32 @f(i32 %x) {\n %r = add nsw i32 %x, 1\n ret i32 %r\n}";
        assert_eq!(run(src, &[5]).expect("runs").expect("v").bits, 6);
        assert_eq!(run(src, &[0x7fff_ffff]), Err(Trap::SignedOverflow));
    }

    #[test]
    fn sdiv_int_min_traps() {
        let src = "define i8 @f(i8 %x, i8 %y) {\n %r = sdiv i8 %x, %y\n ret i8 %r\n}";
        assert_eq!(run(src, &[0x80, 0xff]), Err(Trap::SignedOverflow));
        assert_eq!(run(src, &[0xf6, 2]).expect("runs").expect("v").signed(), -5);
    }

    #[test]
    fn signed_ops_and_casts() {
        let src = r#"
define i32 @f(i8 %x) {
  %w = sext i8 %x to i32
  %c = icmp slt i32 %w, 0
  %z = zext i1 %c to i32
  ret i32 %z
}
"#;
        assert_eq!(run(src, &[0x80]).expect("runs").expect("v").bits, 1);
        assert_eq!(run(src, &[5]).expect("runs").expect("v").bits, 0);
    }

    #[test]
    fn calls_are_deterministic() {
        let src = r#"
define i64 @f(i64 %x) {
  %a = call i64 @ext(i64 %x)
  %b = call i64 @ext(i64 %x)
  %c = icmp eq i64 %a, %b
  %z = zext i1 %c to i64
  ret i64 %z
}
"#;
        assert_eq!(run(src, &[123]).expect("runs").expect("v").bits, 1);
    }

    #[test]
    fn unreachable_traps() {
        let src = "define void @f() {\n unreachable\n}";
        assert_eq!(run(src, &[]), Err(Trap::Unreachable));
    }

    #[test]
    fn fuel_exhaustion_on_infinite_loop() {
        let src = "define void @f() {\nentry:\n br label %loop\nloop:\n br label %loop\n}";
        let m = parse_module(src).expect("parses");
        let f = &m.functions[0];
        let layout = Layout::of(&m, f);
        let mut mem = MemValue::default();
        let r = run_function(&m, f, &layout, &[], &mut mem, 100, &default_ext_call);
        assert_eq!(r, Err(Trap::Fuel));
    }

    #[test]
    fn i96_load_store() {
        let src = r#"
@a = global i96 0

define i64 @f() {
  %v = load i96, i96* @a
  %s = lshr i96 %v, 64
  %t = trunc i96 %s to i64
  ret i64 %t
}
"#;
        let m = parse_module(src).expect("parses");
        let f = &m.functions[0];
        let layout = Layout::of(&m, f);
        let base = layout.global_addr("a").expect("placed");
        let mut mem = MemValue::default();
        // Write 0x0000000C_00000000_00000000_… pattern: byte 8 = 0xAB.
        mem.writes.insert(base + 8, 0xab);
        let r = run_function(&m, f, &layout, &[], &mut mem, 1000, &default_ext_call)
            .expect("runs")
            .expect("value");
        assert_eq!(r.bits, 0xab);
    }

    #[test]
    fn parse_function_helper() {
        let f = parse_function("define void @g() {\n ret void\n}").expect("parses");
        assert_eq!(f.name, "g");
    }
}
