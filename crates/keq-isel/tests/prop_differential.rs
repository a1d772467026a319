//! Randomized differential testing of the Instruction Selection pass: for
//! seeded random generator configurations and random inputs, the LLVM
//! interpreter and the Virtual x86 interpreter must agree on return value,
//! final memory, and trap kind — and the same holds *after* register
//! allocation.
//!
//! This is the independent oracle backing KEQ's verdicts: if ISel or the
//! allocator were wrong in a way the sync points failed to expose, this
//! test would catch it concretely.

use std::collections::BTreeMap;

use keq_isel::{allocate, allocate_with_options, select, IselOptions, RaMap, RaOptions};
use keq_llvm::interp::{default_ext_call, run_function, CValue};
use keq_llvm::{Layout, Trap};
use keq_prng::Prng;
use keq_vx86::{run_vx_function, VxFunction, VxTrap};
use keq_workload::{generate_corpus, GenConfig};

fn run_vx(func: &VxFunction, layout: &Layout, args: &[u128]) -> Result<Option<u128>, VxTrap> {
    run_vx_spilled(func, layout, &RaMap::default(), args)
}

/// Runs allocated code whose address space includes the spill frame (when
/// the allocation spilled).
fn run_vx_spilled(
    func: &VxFunction,
    layout: &Layout,
    map: &RaMap,
    args: &[u128],
) -> Result<Option<u128>, VxTrap> {
    let globals: BTreeMap<String, u64> =
        layout.globals.iter().map(|(k, v)| (k.clone(), *v)).collect();
    let ext = |callee: &str, args: &[u128]| {
        let cvals: Vec<CValue> = args.iter().map(|&a| CValue::new(32, a)).collect();
        default_ext_call(callee, &cvals)
    };
    let mut mem_layout = layout.mem.clone();
    if let Some((base, size)) = map.spill_frame() {
        mem_layout.add_region("<spill>", base, size);
    }
    let mut mem = keq_smt::MemValue::default();
    run_vx_function(func, &mem_layout, &globals, args, &mut mem, 400_000, &ext)
}

#[test]
fn isel_and_regalloc_agree_with_source() {
    let mut rng = Prng::seed_from_u64(0xD1FF_0001);
    for case in 0..24 {
        let seed = rng.random_range(0..10_000u64);
        let a = u128::from(rng.random_range(0..1000u64));
        let b = u128::from(rng.random_range(0..1000u64));
        let module = generate_corpus(GenConfig { seed, ..GenConfig::default() }, 1);
        let f = &module.functions[0];
        let layout = Layout::of(&module, f);
        let Ok(out) = select(&module, f, &layout, IselOptions::default()) else {
            continue; // unsupported fragment
        };
        let args: Vec<CValue> =
            f.params.iter().enumerate().map(|(i, _)| CValue::new(32, a + b * i as u128)).collect();
        let raw: Vec<u128> = args.iter().map(|x| x.bits).collect();
        let mut lmem = keq_smt::MemValue::default();
        let lres = run_function(&module, f, &layout, &args, &mut lmem, 200_000, &default_ext_call);
        let rres = run_vx(&out.func, &layout, &raw);
        match (&lres, &rres) {
            (Ok(lv), Ok(rv)) => {
                assert_eq!(&lv.map(|v| v.bits), rv, "case {case}: isel return mismatch")
            }
            (Err(Trap::DivByZero), Err(VxTrap::DivByZero)) => {}
            (Err(Trap::OutOfBounds(_)), Err(VxTrap::OutOfBounds(_))) => {}
            (Err(Trap::Fuel), Err(VxTrap::Fuel)) => continue,
            (l, r) => panic!("case {case}: isel diverged: {l:?} vs {r:?}"),
        }
        // Through register allocation, behavior is still identical.
        if let Ok((post, map)) = allocate(&out.func) {
            let pres = run_vx_spilled(&post, &layout, &map, &raw);
            match (&rres, &pres) {
                (Ok(x), Ok(y)) => assert_eq!(x, y, "case {case}: regalloc return mismatch"),
                (Err(VxTrap::Fuel), _) | (_, Err(VxTrap::Fuel)) => {}
                (Err(x), Err(y)) => assert_eq!(
                    std::mem::discriminant(x),
                    std::mem::discriminant(y),
                    "case {case}: regalloc trap mismatch: {x:?} vs {y:?}"
                ),
                (l, r) => panic!("case {case}: regalloc diverged: {l:?} vs {r:?}"),
            }
        }
    }
}

/// Spilled and spill-free allocations of the same function are
/// observationally identical: shrinking the colorer's pool to two registers
/// forces heavy spilling, and the concrete interpreter must still agree
/// with the spill-free allocation on every seeded input.
#[test]
fn spilled_and_spill_free_allocations_agree() {
    let mut rng = Prng::seed_from_u64(0xD1FF_0002);
    let mut spilled_cases = 0usize;
    for case in 0..24 {
        let seed = rng.random_range(0..10_000u64);
        let a = u128::from(rng.random_range(0..1000u64));
        let module = generate_corpus(GenConfig { seed, ..GenConfig::default() }, 1);
        let f = &module.functions[0];
        let layout = Layout::of(&module, f);
        let Ok(out) = select(&module, f, &layout, IselOptions::default()) else {
            continue;
        };
        let raw: Vec<u128> = f.params.iter().enumerate().map(|(i, _)| a + 7 * i as u128).collect();
        let (free, free_map) = allocate(&out.func).expect("uncancelled");
        let (spilled, spill_map) = allocate_with_options(
            &out.func,
            RaOptions { pool_limit: Some(2), ..RaOptions::default() },
            None,
        )
        .expect("uncancelled");
        if !spill_map.spills.is_empty() {
            spilled_cases += 1;
        }
        let fres = run_vx_spilled(&free, &layout, &free_map, &raw);
        let sres = run_vx_spilled(&spilled, &layout, &spill_map, &raw);
        match (&fres, &sres) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "case {case}: spill return mismatch"),
            (Err(VxTrap::Fuel), _) | (_, Err(VxTrap::Fuel)) => {}
            (Err(x), Err(y)) => assert_eq!(
                std::mem::discriminant(x),
                std::mem::discriminant(y),
                "case {case}: spill trap mismatch: {x:?} vs {y:?}"
            ),
            (l, r) => panic!("case {case}: spill diverged: {l:?} vs {r:?}"),
        }
    }
    assert!(spilled_cases > 0, "the forced-spill leg never actually spilled");
}
