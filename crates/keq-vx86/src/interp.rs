//! Concrete interpreter for Virtual x86 — ground truth for differential
//! testing against the LLVM interpreter across the ISel pass.

use std::collections::{BTreeMap, HashMap};

use keq_semantics::MemLayout;
use keq_smt::sort::{mask, to_signed};
use keq_smt::MemValue;

use crate::ast::{Addr, AluOp, Cond, PhysReg, Reg, RegImm, VxFunction, VxInstr, VxTerm};

/// Concrete machine state.
#[derive(Debug, Clone, Default)]
pub struct VxState {
    /// Physical registers at full width.
    pub phys: HashMap<PhysReg, u64>,
    /// Virtual registers: `(id, width) → value`.
    pub virt: HashMap<(u32, u32), u128>,
    /// Flags.
    pub zf: bool,
    /// Sign flag.
    pub sf: bool,
    /// Carry flag.
    pub cf: bool,
    /// Overflow flag.
    pub of: bool,
}

/// Traps (mirroring [`crate::sem`]'s error states).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VxTrap {
    /// Out-of-bounds access.
    OutOfBounds(u64),
    /// The x86 `#DE` exception on a zero divisor.
    DivByZero,
    /// The x86 `#DE` exception on signed quotient overflow.
    SignedOverflow,
    /// `ud2` executed.
    Ud2,
    /// Fuel exhausted.
    Fuel,
    /// Malformed program.
    Malformed(String),
}

impl std::fmt::Display for VxTrap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VxTrap::OutOfBounds(a) => write!(f, "out-of-bounds access at {a:#x}"),
            VxTrap::DivByZero => write!(f, "#DE: division by zero"),
            VxTrap::SignedOverflow => write!(f, "#DE: signed quotient overflow"),
            VxTrap::Ud2 => write!(f, "ud2 executed"),
            VxTrap::Fuel => write!(f, "fuel exhausted"),
            VxTrap::Malformed(m) => write!(f, "malformed program: {m}"),
        }
    }
}

impl VxState {
    /// Reads a register operand.
    pub fn read(&self, r: Reg) -> Result<u128, VxTrap> {
        match r {
            Reg::Virt(id, w) => self
                .virt
                .get(&(id, w))
                .copied()
                .ok_or_else(|| VxTrap::Malformed(format!("undefined %vr{id}_{w}"))),
            Reg::Phys(p, w) => {
                let full = self
                    .phys
                    .get(&p)
                    .copied()
                    .ok_or_else(|| VxTrap::Malformed(format!("undefined {}", p.name64())))?;
                Ok(mask(w, u128::from(full)))
            }
        }
    }

    /// Writes a register operand with x86-64 sub-register semantics.
    pub fn write(&mut self, r: Reg, v: u128) -> Result<(), VxTrap> {
        match r {
            Reg::Virt(id, w) => {
                self.virt.insert((id, w), mask(w, v));
            }
            Reg::Phys(p, w) => {
                let new = match w {
                    64 => v as u64,
                    32 => mask(32, v) as u64, // zeroing write
                    _ => {
                        let old = self.phys.get(&p).copied().unwrap_or(0);
                        let m = mask(w, u128::MAX) as u64;
                        (old & !m) | (mask(w, v) as u64)
                    }
                };
                self.phys.insert(p, new);
            }
        }
        Ok(())
    }

    fn read_ri(&self, ri: RegImm, width: u32) -> Result<u128, VxTrap> {
        match ri {
            RegImm::Reg(r) => Ok(mask(width, self.read(r)?)),
            RegImm::Imm(i) => Ok(mask(width, i as u128)),
        }
    }

    fn cond(&self, cc: Cond) -> bool {
        match cc {
            Cond::E => self.zf,
            Cond::Ne => !self.zf,
            Cond::B => self.cf,
            Cond::Ae => !self.cf,
            Cond::Be => self.cf || self.zf,
            Cond::A => !(self.cf || self.zf),
            Cond::L => self.sf != self.of,
            Cond::Ge => self.sf == self.of,
            Cond::Le => (self.sf != self.of) || self.zf,
            Cond::G => !((self.sf != self.of) || self.zf),
            Cond::S => self.sf,
            Cond::Ns => !self.sf,
        }
    }

    fn set_zs(&mut self, w: u32, res: u128) {
        self.zf = res == 0;
        self.sf = (res >> (w - 1)) & 1 == 1;
    }
}

/// Runs a Virtual x86 function concretely.
///
/// Arguments go to the SysV registers; the result is read from `rax` at the
/// function's return width.
///
/// # Errors
///
/// Returns a [`VxTrap`] on out-of-bounds access, fuel exhaustion, or a
/// malformed program.
pub fn run_vx_function(
    func: &VxFunction,
    layout: &MemLayout,
    globals: &BTreeMap<String, u64>,
    args: &[u128],
    mem: &mut MemValue,
    fuel: u64,
    ext: &dyn Fn(&str, &[u128]) -> u128,
) -> Result<Option<u128>, VxTrap> {
    let mut st = VxState::default();
    for (i, &a) in args.iter().enumerate() {
        st.phys.insert(PhysReg::args()[i], mask(64, a) as u64);
    }
    let mut fuel = fuel;
    let mut block = func.entry();
    let mut prev: Option<&str> = None;
    'blocks: loop {
        // Parallel PHI reads.
        let mut phi_writes: Vec<(Reg, u128)> = Vec::new();
        let mut body_start = 0;
        for (i, instr) in block.instrs.iter().enumerate() {
            if let VxInstr::Phi { dst, incomings } = instr {
                let p = prev.ok_or_else(|| VxTrap::Malformed("PHI in entry block".into()))?;
                let (src, _) = incomings
                    .iter()
                    .find(|(_, bb)| bb == p)
                    .ok_or_else(|| VxTrap::Malformed(format!("PHI missing incoming {p}")))?;
                phi_writes.push((*dst, st.read(*src)?));
                body_start = i + 1;
            } else {
                break;
            }
        }
        for (dst, v) in phi_writes {
            st.write(dst, v)?;
        }
        for instr in &block.instrs[body_start..] {
            if fuel == 0 {
                return Err(VxTrap::Fuel);
            }
            fuel -= 1;
            exec(instr, &mut st, mem, layout, globals, ext)?;
        }
        if fuel == 0 {
            return Err(VxTrap::Fuel);
        }
        fuel -= 1;
        match &block.term {
            VxTerm::Jmp { target } => {
                prev = Some(&block.name);
                block = func
                    .block(target)
                    .ok_or_else(|| VxTrap::Malformed(format!("unknown block {target}")))?;
                continue 'blocks;
            }
            VxTerm::CondJmp { cc, then_, else_ } => {
                let t = if st.cond(*cc) { then_ } else { else_ };
                prev = Some(&block.name);
                block =
                    func.block(t).ok_or_else(|| VxTrap::Malformed(format!("unknown block {t}")))?;
                continue 'blocks;
            }
            VxTerm::Ud2 => return Err(VxTrap::Ud2),
            VxTerm::Ret => {
                return Ok(func.ret_width.map(|w| {
                    mask(w, u128::from(st.phys.get(&PhysReg::Rax).copied().unwrap_or(0)))
                }));
            }
        }
    }
}

fn addr_of(addr: &Addr, st: &VxState, globals: &BTreeMap<String, u64>) -> Result<u64, VxTrap> {
    let mut a: u64 = if let Some(g) = &addr.global {
        globals
            .get(g)
            .copied()
            .ok_or_else(|| VxTrap::Malformed(format!("unknown global {g}")))?
            .wrapping_add(addr.disp as u64)
    } else {
        addr.disp as u64
    };
    if let Some(b) = addr.base {
        a = a.wrapping_add(mask(64, st.read(b)?) as u64);
    }
    if let Some((i, s)) = addr.index {
        a = a.wrapping_add((mask(64, st.read(i)?) as u64).wrapping_mul(u64::from(s)));
    }
    Ok(a)
}

fn check_bounds(layout: &MemLayout, addr: u64, n: u64) -> Result<(), VxTrap> {
    let ok =
        layout.regions.iter().any(|r| r.size >= n && addr >= r.base && addr <= r.base + r.size - n);
    if ok {
        Ok(())
    } else {
        Err(VxTrap::OutOfBounds(addr))
    }
}

fn exec(
    instr: &VxInstr,
    st: &mut VxState,
    mem: &mut MemValue,
    layout: &MemLayout,
    globals: &BTreeMap<String, u64>,
    ext: &dyn Fn(&str, &[u128]) -> u128,
) -> Result<(), VxTrap> {
    match instr {
        VxInstr::Copy { dst, src } => {
            let v = st.read(*src)?;
            st.write(*dst, v)?;
        }
        VxInstr::Phi { .. } => {
            return Err(VxTrap::Malformed("PHI not at block start".into()));
        }
        VxInstr::MovRI { dst, imm } => st.write(*dst, *imm as u128)?,
        VxInstr::Load { dst, width, addr, zext: _ } => {
            let a = addr_of(addr, st, globals)?;
            let n = u64::from(width / 8);
            check_bounds(layout, a, n)?;
            let mut v: u128 = 0;
            for k in 0..n {
                v |= u128::from(mem.read(a + k)) << (8 * k);
            }
            st.write(*dst, v)?;
        }
        VxInstr::Store { width, addr, src } => {
            let a = addr_of(addr, st, globals)?;
            let v = st.read_ri(*src, *width)?;
            let n = u64::from(width / 8);
            check_bounds(layout, a, n)?;
            for k in 0..n {
                mem.writes.insert(a + k, (v >> (8 * k)) as u8);
            }
        }
        VxInstr::Alu { op, dst, lhs, rhs } => {
            let w = dst.width();
            let l = st.read_ri(*lhs, w)?;
            let r = st.read_ri(*rhs, w)?;
            let res = match op {
                AluOp::Add => l.wrapping_add(r),
                AluOp::Sub => l.wrapping_sub(r),
                AluOp::Imul => l.wrapping_mul(r),
                AluOp::And => l & r,
                AluOp::Or => l | r,
                AluOp::Xor => l ^ r,
                AluOp::Shl => {
                    if r >= u128::from(w) {
                        0
                    } else {
                        l << r
                    }
                }
                AluOp::Shr => {
                    if r >= u128::from(w) {
                        0
                    } else {
                        l >> r
                    }
                }
                AluOp::Sar => {
                    let k = r.min(u128::from(w - 1)) as u32;
                    (to_signed(w, l) >> k) as u128
                }
            };
            let res = mask(w, res);
            match op {
                AluOp::Add => {
                    st.cf = l.checked_add(r).is_none_or(|s| s > mask(w, u128::MAX));
                    st.of = to_signed(w, l)
                        .checked_add(to_signed(w, r))
                        .is_none_or(|s| s != to_signed(w, res));
                }
                AluOp::Sub => {
                    st.cf = l < r;
                    st.of = to_signed(w, l)
                        .checked_sub(to_signed(w, r))
                        .is_none_or(|s| s != to_signed(w, res));
                }
                AluOp::Imul => {
                    let wide = to_signed(w, l).wrapping_mul(to_signed(w, r));
                    let ovf = wide != to_signed(w, res);
                    st.cf = ovf;
                    st.of = ovf;
                }
                _ => {
                    st.cf = false;
                    st.of = false;
                }
            }
            st.set_zs(w, res);
            st.write(*dst, res)?;
        }
        VxInstr::Cmp { width, lhs, rhs } => {
            let w = *width;
            let l = st.read_ri(*lhs, w)?;
            let r = st.read_ri(*rhs, w)?;
            let res = mask(w, l.wrapping_sub(r));
            st.cf = l < r;
            st.of =
                to_signed(w, l).checked_sub(to_signed(w, r)).is_none_or(|s| s != to_signed(w, res));
            st.set_zs(w, res);
        }
        VxInstr::Inc { dst, src } => {
            let w = dst.width();
            let v = st.read(*src)?;
            let res = mask(w, v.wrapping_add(1));
            st.of = to_signed(w, v).checked_add(1).is_none_or(|s| s != to_signed(w, res));
            st.set_zs(w, res);
            // cf preserved.
            st.write(*dst, res)?;
        }
        VxInstr::Lea { dst, addr } => {
            let a = addr_of(addr, st, globals)?;
            st.write(*dst, u128::from(a))?;
        }
        VxInstr::Ext { dst, src, signed } => {
            let v = st.read(*src)?;
            let w = match *src {
                Reg::Virt(_, w) | Reg::Phys(_, w) => w,
            };
            let r = if *signed { to_signed(w, v) as u128 } else { v };
            st.write(*dst, r)?;
        }
        VxInstr::SetCc { cc, dst } => {
            let v = u128::from(st.cond(*cc));
            st.write(*dst, v)?;
        }
        VxInstr::Div { signed, rem, dst, lhs, rhs } => {
            let w = dst.width();
            let l = st.read_ri(*lhs, w)?;
            let r = st.read_ri(*rhs, w)?;
            if r == 0 {
                return Err(VxTrap::DivByZero);
            }
            let res = if *signed {
                let (x, y) = (to_signed(w, l), to_signed(w, r));
                let int_min = if w == 128 { i128::MIN } else { -(1i128 << (w - 1)) };
                if x == int_min && y == -1 {
                    return Err(VxTrap::SignedOverflow);
                }
                if *rem {
                    x.wrapping_rem(y) as u128
                } else {
                    x.wrapping_div(y) as u128
                }
            } else if *rem {
                l % r
            } else {
                l / r
            };
            let res = mask(w, res);
            st.cf = false;
            st.of = false;
            st.set_zs(w, res);
            st.write(*dst, res)?;
        }
        VxInstr::Call { callee, arg_widths, ret_width } => {
            let mut args = Vec::with_capacity(arg_widths.len());
            for (i, &w) in arg_widths.iter().enumerate() {
                args.push(st.read(Reg::Phys(PhysReg::args()[i], w))?);
            }
            let r = ext(callee, &args);
            if let Some(w) = ret_width {
                st.write(Reg::Phys(PhysReg::Rax, *w), mask(*w, r))?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;

    fn no_ext(_: &str, _: &[u128]) -> u128 {
        0
    }

    #[test]
    fn add_and_ret() {
        let f = VxFunction {
            name: "f".into(),
            num_params: 2,
            param_widths: vec![32, 32],
            ret_width: Some(32),
            blocks: vec![VxBlock {
                name: "BB0".into(),
                instrs: vec![
                    VxInstr::Copy { dst: Reg::vr32(0), src: Reg::Phys(PhysReg::Rdi, 32) },
                    VxInstr::Copy { dst: Reg::vr32(1), src: Reg::Phys(PhysReg::Rsi, 32) },
                    VxInstr::Alu {
                        op: AluOp::Add,
                        dst: Reg::vr32(2),
                        lhs: RegImm::Reg(Reg::vr32(0)),
                        rhs: RegImm::Reg(Reg::vr32(1)),
                    },
                    VxInstr::Copy { dst: Reg::Phys(PhysReg::Rax, 32), src: Reg::vr32(2) },
                ],
                term: VxTerm::Ret,
            }],
        };
        let mut mem = MemValue::default();
        let r = run_vx_function(
            &f,
            &MemLayout::new(),
            &BTreeMap::new(),
            &[40, 2],
            &mut mem,
            1000,
            &no_ext,
        )
        .expect("runs")
        .expect("value");
        assert_eq!(r, 42);
    }

    #[test]
    fn rip_relative_store_and_bounds() {
        let mut layout = MemLayout::new();
        layout.add_region("@b", 0x1000, 8);
        let mut globals = BTreeMap::new();
        globals.insert("b".to_owned(), 0x1000u64);
        let f = VxFunction {
            name: "foo".into(),
            num_params: 0,
            param_widths: vec![],
            ret_width: None,
            blocks: vec![VxBlock {
                name: "BB0".into(),
                instrs: vec![VxInstr::Store {
                    width: 16,
                    addr: Addr::global("b", 2),
                    src: RegImm::Imm(0x0201),
                }],
                term: VxTerm::Ret,
            }],
        };
        let mut mem = MemValue::default();
        run_vx_function(&f, &layout, &globals, &[], &mut mem, 100, &no_ext).expect("runs");
        assert_eq!(mem.read(0x1002), 0x01);
        assert_eq!(mem.read(0x1003), 0x02);
        // Out-of-bounds store at b+7 (2 bytes) must trap.
        let f2 = VxFunction {
            blocks: vec![VxBlock {
                name: "BB0".into(),
                instrs: vec![VxInstr::Store {
                    width: 16,
                    addr: Addr::global("b", 7),
                    src: RegImm::Imm(0),
                }],
                term: VxTerm::Ret,
            }],
            ..f
        };
        let r = run_vx_function(&f2, &layout, &globals, &[], &mut mem, 100, &no_ext);
        assert_eq!(r, Err(VxTrap::OutOfBounds(0x1007)));
    }

    #[test]
    fn loop_with_phi_and_flags() {
        // Sum 0..n via: BB0: vr0=0 (sum), vr1=0 (i); BB1: phi; cmp i, n;
        // jae exit; body adds.
        let f = VxFunction {
            name: "sum".into(),
            num_params: 1,
            param_widths: vec![32],
            ret_width: Some(32),
            blocks: vec![
                VxBlock {
                    name: "BB0".into(),
                    instrs: vec![
                        VxInstr::MovRI { dst: Reg::vr32(0), imm: 0 },
                        VxInstr::MovRI { dst: Reg::vr32(1), imm: 0 },
                        VxInstr::Copy { dst: Reg::vr32(5), src: Reg::Phys(PhysReg::Rdi, 32) },
                    ],
                    term: VxTerm::Jmp { target: "BB1".into() },
                },
                VxBlock {
                    name: "BB1".into(),
                    instrs: vec![
                        VxInstr::Phi {
                            dst: Reg::vr32(2),
                            incomings: vec![
                                (Reg::vr32(0), "BB0".into()),
                                (Reg::vr32(4), "BB2".into()),
                            ],
                        },
                        VxInstr::Phi {
                            dst: Reg::vr32(3),
                            incomings: vec![
                                (Reg::vr32(1), "BB0".into()),
                                (Reg::vr32(6), "BB2".into()),
                            ],
                        },
                        VxInstr::Cmp {
                            width: 32,
                            lhs: RegImm::Reg(Reg::vr32(3)),
                            rhs: RegImm::Reg(Reg::vr32(5)),
                        },
                    ],
                    term: VxTerm::CondJmp {
                        cc: Cond::Ae,
                        then_: "BB3".into(),
                        else_: "BB2".into(),
                    },
                },
                VxBlock {
                    name: "BB2".into(),
                    instrs: vec![
                        VxInstr::Alu {
                            op: AluOp::Add,
                            dst: Reg::vr32(4),
                            lhs: RegImm::Reg(Reg::vr32(2)),
                            rhs: RegImm::Reg(Reg::vr32(3)),
                        },
                        VxInstr::Inc { dst: Reg::vr32(6), src: Reg::vr32(3) },
                    ],
                    term: VxTerm::Jmp { target: "BB1".into() },
                },
                VxBlock {
                    name: "BB3".into(),
                    instrs: vec![VxInstr::Copy {
                        dst: Reg::Phys(PhysReg::Rax, 32),
                        src: Reg::vr32(2),
                    }],
                    term: VxTerm::Ret,
                },
            ],
        };
        let mut mem = MemValue::default();
        let r = run_vx_function(
            &f,
            &MemLayout::new(),
            &BTreeMap::new(),
            &[5],
            &mut mem,
            10_000,
            &no_ext,
        )
        .expect("runs")
        .expect("value");
        assert_eq!(r, 1 + 2 + 3 + 4);
    }
}
