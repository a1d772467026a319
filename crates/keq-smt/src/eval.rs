//! Concrete evaluation of terms under variable assignments.
//!
//! Used for (a) model validation — every `Sat` answer from the solver is
//! double-checked by evaluating the original formula under the model — and
//! (b) property tests that compare the symbolic machinery against ground
//! truth.

use std::collections::{BTreeMap, HashMap};

use crate::sort::{mask, to_signed, Sort};
use crate::term::{Op, TermBank, TermId, VarId};

/// A concrete memory: a default byte plus explicit writes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemValue {
    /// Byte returned for addresses not in `writes`.
    pub default: u8,
    /// Explicitly written bytes.
    pub writes: BTreeMap<u64, u8>,
}

impl MemValue {
    /// Reads one byte.
    pub fn read(&self, addr: u64) -> u8 {
        self.writes.get(&addr).copied().unwrap_or(self.default)
    }

    /// Writes one byte, returning the updated memory.
    pub fn write(mut self, addr: u64, byte: u8) -> Self {
        self.writes.insert(addr, byte);
        self
    }
}

/// A concrete value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// A bitvector (`value` is masked to `width`).
    Bv {
        /// Width in bits.
        width: u32,
        /// Masked value.
        value: u128,
    },
    /// A memory.
    Mem(MemValue),
}

impl Value {
    /// Constructs a masked bitvector value.
    pub fn bv(width: u32, value: u128) -> Self {
        Value::Bv { width, value: mask(width, value) }
    }

    /// Extracts a boolean, panicking on sort confusion.
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            other => panic!("expected Bool, got {other:?}"),
        }
    }

    /// Extracts a bitvector value, panicking on sort confusion.
    pub fn as_bv(&self) -> (u32, u128) {
        match self {
            Value::Bv { width, value } => (*width, *value),
            other => panic!("expected BitVec, got {other:?}"),
        }
    }

    /// Extracts a memory, panicking on sort confusion.
    pub fn as_mem(&self) -> &MemValue {
        match self {
            Value::Mem(m) => m,
            other => panic!("expected Memory, got {other:?}"),
        }
    }
}

/// A (partial) assignment of variables to values.
///
/// Unassigned variables evaluate to `false` / zero / all-zero memory, which
/// matches how the SAT core completes partial models.
#[derive(Debug, Clone, Default)]
pub struct Assignment {
    values: HashMap<VarId, Value>,
}

impl Assignment {
    /// Creates an empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value of a variable.
    pub fn set(&mut self, var: VarId, value: Value) {
        self.values.insert(var, value);
    }

    /// Looks up a variable, if assigned.
    pub fn get(&self, var: VarId) -> Option<&Value> {
        self.values.get(&var)
    }

    /// Sets a variable by name, interning it in `bank` if necessary.
    pub fn set_named(&mut self, bank: &mut TermBank, name: &str, sort: Sort, value: Value) {
        let t = bank.mk_var(name, sort);
        if let Op::Var(v) = bank.node(t).op {
            self.set(v, value);
        }
    }

    fn default_for(sort: Sort) -> Value {
        match sort {
            Sort::Bool => Value::Bool(false),
            Sort::BitVec(w) => Value::bv(w, 0),
            Sort::Memory => Value::Mem(MemValue::default()),
        }
    }
}

/// Evaluates `term` under `assignment`.
///
/// # Panics
///
/// Panics if the term DAG is ill-sorted; the [`TermBank`] constructors make
/// that unreachable for terms built through the public API.
pub fn eval(bank: &TermBank, term: TermId, assignment: &Assignment) -> Value {
    let mut cache: HashMap<TermId, Value> = HashMap::new();
    eval_rec(bank, term, assignment, &mut cache)
}

fn eval_rec(
    bank: &TermBank,
    term: TermId,
    asg: &Assignment,
    cache: &mut HashMap<TermId, Value>,
) -> Value {
    if let Some(v) = cache.get(&term) {
        return v.clone();
    }
    let node = bank.node(term);
    let arg = |i: usize, cache: &mut HashMap<TermId, Value>| -> Value {
        eval_rec(bank, node.args[i], asg, cache)
    };
    let value = match node.op {
        Op::BoolConst(b) => Value::Bool(b),
        Op::BvConst { width, value } => Value::bv(width, value),
        Op::Var(v) => asg.get(v).cloned().unwrap_or_else(|| Assignment::default_for(node.sort)),
        Op::Not => Value::Bool(!arg(0, cache).as_bool()),
        Op::And => {
            Value::Bool(node.args.clone().iter().all(|&a| eval_rec(bank, a, asg, cache).as_bool()))
        }
        Op::Or => {
            Value::Bool(node.args.clone().iter().any(|&a| eval_rec(bank, a, asg, cache).as_bool()))
        }
        Op::Xor => Value::Bool(arg(0, cache).as_bool() ^ arg(1, cache).as_bool()),
        Op::Eq => {
            let a = arg(0, cache);
            let b = arg(1, cache);
            Value::Bool(a == b)
        }
        Op::Ite => {
            if arg(0, cache).as_bool() {
                arg(1, cache)
            } else {
                arg(2, cache)
            }
        }
        Op::BvNot => {
            let (w, x) = arg(0, cache).as_bv();
            Value::bv(w, !x)
        }
        Op::BvNeg => {
            let (w, x) = arg(0, cache).as_bv();
            Value::bv(w, x.wrapping_neg())
        }
        Op::BvAdd => bv2(arg(0, cache), arg(1, cache), |w, x, y| mask(w, x.wrapping_add(y))),
        Op::BvSub => bv2(arg(0, cache), arg(1, cache), |w, x, y| mask(w, x.wrapping_sub(y))),
        Op::BvMul => bv2(arg(0, cache), arg(1, cache), |w, x, y| mask(w, x.wrapping_mul(y))),
        Op::BvUdiv => bv2(arg(0, cache), arg(1, cache), |w, x, y| {
            x.checked_div(y).unwrap_or(mask(w, u128::MAX))
        }),
        Op::BvUrem => bv2(arg(0, cache), arg(1, cache), |_, x, y| if y == 0 { x } else { x % y }),
        Op::BvSdiv => bv2(arg(0, cache), arg(1, cache), |w, x, y| {
            let xs = to_signed(w, x);
            let ys = to_signed(w, y);
            let r = if ys == 0 {
                if xs < 0 {
                    1
                } else {
                    -1
                }
            } else if xs == i128::MIN && ys == -1 {
                xs
            } else {
                xs.wrapping_div(ys)
            };
            mask(w, r as u128)
        }),
        Op::BvSrem => bv2(arg(0, cache), arg(1, cache), |w, x, y| {
            let xs = to_signed(w, x);
            let ys = to_signed(w, y);
            let r = if ys == 0 {
                xs
            } else if xs == i128::MIN && ys == -1 {
                0
            } else {
                xs.wrapping_rem(ys)
            };
            mask(w, r as u128)
        }),
        Op::BvAnd => bv2(arg(0, cache), arg(1, cache), |_, x, y| x & y),
        Op::BvOr => bv2(arg(0, cache), arg(1, cache), |_, x, y| x | y),
        Op::BvXor => bv2(arg(0, cache), arg(1, cache), |_, x, y| x ^ y),
        Op::BvShl => {
            bv2(
                arg(0, cache),
                arg(1, cache),
                |w, x, k| {
                    if k >= u128::from(w) {
                        0
                    } else {
                        mask(w, x << k)
                    }
                },
            )
        }
        Op::BvLshr => {
            bv2(arg(0, cache), arg(1, cache), |w, x, k| if k >= u128::from(w) { 0 } else { x >> k })
        }
        Op::BvAshr => bv2(arg(0, cache), arg(1, cache), |w, x, k| {
            let xs = to_signed(w, x);
            let k = k.min(u128::from(w - 1)) as u32;
            mask(w, (xs >> k) as u128)
        }),
        Op::BvUlt => cmp2(arg(0, cache), arg(1, cache), |_, x, y| x < y),
        Op::BvUle => cmp2(arg(0, cache), arg(1, cache), |_, x, y| x <= y),
        Op::BvSlt => {
            cmp2(arg(0, cache), arg(1, cache), |w, x, y| to_signed(w, x) < to_signed(w, y))
        }
        Op::BvSle => {
            cmp2(arg(0, cache), arg(1, cache), |w, x, y| to_signed(w, x) <= to_signed(w, y))
        }
        Op::ZeroExt(to) => {
            let (_, x) = arg(0, cache).as_bv();
            Value::bv(to, x)
        }
        Op::SignExt(to) => {
            let (w, x) = arg(0, cache).as_bv();
            Value::bv(to, to_signed(w, x) as u128)
        }
        Op::Extract { hi, lo } => {
            let (_, x) = arg(0, cache).as_bv();
            Value::bv(hi - lo + 1, x >> lo)
        }
        Op::Concat => {
            let (wh, xh) = arg(0, cache).as_bv();
            let (wl, xl) = arg(1, cache).as_bv();
            Value::bv(wh + wl, (xh << wl) | xl)
        }
        Op::Select => {
            let mem = arg(0, cache);
            let (_, addr) = arg(1, cache).as_bv();
            Value::bv(8, u128::from(mem.as_mem().read(addr as u64)))
        }
        Op::Store => {
            let mem = arg(0, cache).as_mem().clone();
            let (_, addr) = arg(1, cache).as_bv();
            let (_, byte) = arg(2, cache).as_bv();
            Value::Mem(mem.write(addr as u64, byte as u8))
        }
    };
    cache.insert(term, value.clone());
    value
}

fn bv2(a: Value, b: Value, f: impl FnOnce(u32, u128, u128) -> u128) -> Value {
    let (w, x) = a.as_bv();
    let (_, y) = b.as_bv();
    Value::bv(w, f(w, x, y))
}

fn cmp2(a: Value, b: Value, f: impl FnOnce(u32, u128, u128) -> bool) -> Value {
    let (w, x) = a.as_bv();
    let (_, y) = b.as_bv();
    Value::Bool(f(w, x, y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_arith_expression() {
        let mut b = TermBank::new();
        let x = b.mk_var("x", Sort::BitVec(32));
        let y = b.mk_var("y", Sort::BitVec(32));
        let sum = b.mk_bvadd(x, y);
        let mut asg = Assignment::new();
        asg.set_named(&mut b, "x", Sort::BitVec(32), Value::bv(32, 40));
        asg.set_named(&mut b, "y", Sort::BitVec(32), Value::bv(32, 2));
        assert_eq!(eval(&b, sum, &asg), Value::bv(32, 42));
    }

    #[test]
    fn unassigned_vars_default_to_zero() {
        let mut b = TermBank::new();
        let x = b.mk_var("x", Sort::BitVec(8));
        let asg = Assignment::new();
        assert_eq!(eval(&b, x, &asg), Value::bv(8, 0));
    }

    #[test]
    fn eval_memory_roundtrip() {
        let mut b = TermBank::new();
        let m = b.mk_var("mem", Sort::Memory);
        let a = b.mk_bv(64, 100);
        let v = b.mk_bv(8, 0x55);
        let m2 = b.mk_store(m, a, v);
        let r = b.mk_select(m2, a);
        assert_eq!(eval(&b, r, &Assignment::new()), Value::bv(8, 0x55));
    }

    #[test]
    fn eval_select_on_symbolic_address() {
        let mut b = TermBank::new();
        let m = b.mk_var("mem", Sort::Memory);
        let addr = b.mk_var("a", Sort::BitVec(64));
        let r = b.mk_select(m, addr);
        let mut asg = Assignment::new();
        let mem = MemValue::default().write(7, 9);
        asg.set_named(&mut b, "mem", Sort::Memory, Value::Mem(mem));
        asg.set_named(&mut b, "a", Sort::BitVec(64), Value::bv(64, 7));
        assert_eq!(eval(&b, r, &asg), Value::bv(8, 9));
    }

    #[test]
    fn eval_signed_comparison() {
        let mut b = TermBank::new();
        let x = b.mk_var("x", Sort::BitVec(8));
        let zero = b.mk_bv(8, 0);
        let neg = b.mk_bvslt(x, zero);
        let mut asg = Assignment::new();
        asg.set_named(&mut b, "x", Sort::BitVec(8), Value::bv(8, 0xff));
        assert_eq!(eval(&b, neg, &asg), Value::Bool(true));
    }
}
